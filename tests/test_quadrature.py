import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flks.banded import band_matvec
from flks.errors import (
    DivergenceDetected,
    DomainError,
    MaxDepthExceeded,
    NoConvergence,
    OverflowGuard,
)
from flks.quadrature import (
    cumulative_integral,
    d1_uniform,
    d2_uniform,
    difference_matrix,
    exp_integral_Ei,
    exp_kernel,
    exp_kernel_lower,
    exp_kernel_upper,
    first_integral,
    integrate_adaptive,
    picard_iterate,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

getcontext().prec = 60
_GAMMA = Decimal("0.577215664901532860606512090082402431042159335939923598805767")


def ei_series_oracle(x):
    """High-precision decimal evaluation of gamma + ln|x| + sum x^k/(k k!)
    at the exact binary value of x (its shortest repr is off by up to half
    an ulp, which moves Ei by about that much relative for large x)."""
    xd = Decimal(float(x))
    s = _GAMMA + abs(xd).ln()
    term = Decimal(1)
    k = 0
    while True:
        k += 1
        term *= xd / k
        inc = term / k
        s += inc
        if abs(inc) < Decimal("1e-40") * max(abs(s), Decimal(1)) and k > abs(x):
            return float(s)
        if k > 20000:
            raise RuntimeError("oracle did not converge")


def e1_lentz_oracle(z):
    """Independent continued-fraction evaluation of E1(z), z > 0."""
    b = z + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return h * math.exp(-z)


def composite_simpson(f, lo, hi, panels):
    t = np.linspace(lo, hi, 2 * panels + 1)
    y = f(t)
    h = t[1] - t[0]
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


# ---------------------------------------------------------------------------
# integrate_adaptive
# ---------------------------------------------------------------------------

def test_adaptive_constant():
    r = integrate_adaptive(lambda t: 1.0, 0.0, 1.0, tol=1e-10)
    assert r.value == pytest.approx(1.0, abs=1e-14)


def test_adaptive_orientation_sign():
    r = integrate_adaptive(lambda t: 1.0, 0.0, -1.0, tol=1e-10)
    assert r.value == pytest.approx(-1.0, abs=1e-14)
    assert integrate_adaptive(lambda t: 1.0, 2.0, 2.0).value == 0.0


def test_adaptive_gaussian_kernel_integrand():
    # frozen from the 1e5-panel composite Simpson oracle
    oracle = composite_simpson(lambda t: np.exp(t * t / 4.0), 0.0, 1.0, 100000)
    assert oracle == pytest.approx(1.0899742083672446, rel=1e-13)
    r = integrate_adaptive(lambda t: math.exp(t * t / 4.0), 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(oracle, rel=1e-11)
    assert r.evaluations > 0 and r.err_estimate >= 0.0


def test_adaptive_linearity():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=2)
    f = lambda t: math.sin(3.0 * t) + 0.2 * t * t
    g = lambda t: math.cos(2.0 * t) - t
    tol = 1e-11
    lhs = integrate_adaptive(lambda t: a * f(t) + b * g(t), -1.0, 2.0, tol=tol).value
    rhs = (
        a * integrate_adaptive(f, -1.0, 2.0, tol=tol).value
        + b * integrate_adaptive(g, -1.0, 2.0, tol=tol).value
    )
    assert abs(lhs - rhs) < 10.0 * tol


def test_adaptive_depth_limit():
    # a genuinely nasty integrand at tiny tolerance and depth cap
    with pytest.raises(MaxDepthExceeded):
        integrate_adaptive(
            lambda t: math.sqrt(abs(t)), -1.0, 1.0, tol=1e-300, max_depth=8
        )


# ---------------------------------------------------------------------------
# exp_integral_Ei
# ---------------------------------------------------------------------------

def test_ei_known_values():
    # frozen from the decimal series oracle
    assert exp_integral_Ei(1.0) == pytest.approx(1.8951178163559368, rel=1e-14)
    assert exp_integral_Ei(-1.0) == pytest.approx(-0.21938393439552027, rel=1e-13)
    # cross-check the negative branch against the independent Lentz oracle
    assert exp_integral_Ei(-1.0) == pytest.approx(-e1_lentz_oracle(1.0), rel=1e-13)


def test_ei_against_series_oracle_range():
    for x in np.concatenate([np.geomspace(1e-3, 50.0, 40), -np.geomspace(1e-3, 50.0, 40)]):
        assert exp_integral_Ei(float(x)) == pytest.approx(
            ei_series_oracle(float(x)), rel=1e-12
        ), x


def test_ei_matches_scipy_wide_range():
    from scipy.special import expi

    xs = np.concatenate([np.geomspace(1e-3, 700.0, 60), -np.geomspace(1e-3, 700.0, 60)])
    for x in xs:
        assert exp_integral_Ei(float(x)) == pytest.approx(float(expi(x)), rel=5e-13), x


def _ulp_walk(x, toward, steps=4):
    out = []
    for _ in range(steps):
        x = math.nextafter(x, toward)
        out.append(x)
    return out


@pytest.mark.parametrize("seam", [-1.0, 1.0, 40.0])
def test_ei_at_its_branch_switches(seam):
    # a few ulps either side of each switch between series, continued
    # fraction and asymptotic series
    for x in [seam] + _ulp_walk(seam, math.inf) + _ulp_walk(seam, -math.inf):
        want = ei_series_oracle(x)
        assert abs(exp_integral_Ei(x) - want) <= 2e-14 * abs(want), x
        if x < 0.0:
            assert abs(exp_integral_Ei(x) + e1_lentz_oracle(-x)) <= 2e-14 * abs(want), x


def test_ei_just_above_its_asymptotic_switch():
    # summed to its smallest term, the asymptotic series is as accurate on
    # (40, 45] as the power series below 40 (20 terms left 2.8e-14 there)
    for x in np.random.default_rng(9).uniform(40.0, 45.0, 200):
        want = ei_series_oracle(float(x))
        assert abs(exp_integral_Ei(float(x)) - want) <= 4e-15 * abs(want), x


def test_ei_near_its_root_is_absolutely_accurate():
    x0 = 0.37250741078136663
    for x in x0 + np.linspace(-1e-3, 1e-3, 50):
        assert abs(exp_integral_Ei(float(x)) - ei_series_oracle(float(x))) <= 1e-15, x


def test_ei_small_x_limit():
    for x in (1e-3, 1e-5, 1e-8):
        assert exp_integral_Ei(x) - math.log(x) == pytest.approx(
            0.5772156649015329, abs=2.0 * x
        )


def test_ei_derivative_identity():
    # d/dx Ei = e^x / x at 100 sample points
    xs = np.concatenate([np.geomspace(0.05, 30.0, 50), -np.geomspace(0.05, 30.0, 50)])
    for x in xs:
        h = 1e-6 * max(1.0, abs(x))
        fd = (exp_integral_Ei(x + h) - exp_integral_Ei(x - h)) / (2.0 * h)
        assert fd == pytest.approx(math.exp(x) / x, rel=1e-6)


def test_ei_domain_and_overflow():
    with pytest.raises(DomainError):
        exp_integral_Ei(0.0)
    with pytest.raises(OverflowGuard):
        exp_integral_Ei(710.0)


# ---------------------------------------------------------------------------
# picard_iterate
# ---------------------------------------------------------------------------

def test_picard_identity_converges_immediately():
    res = picard_iterate(lambda y: y, np.ones(5), tol=1e-8)
    assert res.iterations == 1
    assert res.residuals == [0.0]


def test_picard_affine_contraction():
    res = picard_iterate(lambda y: 0.5 * y + 1.0, np.zeros(4), tol=1e-10)
    assert np.allclose(res.profile, 2.0, atol=1e-9)


def test_picard_no_convergence_reports_history():
    # y -> y + 1 has no fixed point: the defect stays 1 whatever the step
    with pytest.raises(NoConvergence) as exc:
        picard_iterate(lambda y: y + 1.0, np.ones(3), tol=1e-12, max_iter=17)
    assert exc.value.iterations == 17
    assert len(exc.value.history) == 17
    assert exc.value.profile is not None


@pytest.mark.parametrize(
    "slope, shift, start, evaluations",
    [(-1.0, 0.0, np.ones(3), 2), (3.0, 1.0, np.ones(2), 3), (0.6, 0.1, np.full(3, 5.0), 3)],
    ids=["flip", "expanding", "contraction"],
)
def test_picard_scalar_affine_maps_reach_the_root_in_three_evaluations(
    slope, shift, start, evaluations
):
    # one defect difference makes the mixed step a secant step, which is
    # exact on an affine map: the sign flip, the expanding map and the
    # contraction all land on the root y = shift / (1 - slope)
    calls = []

    def step(y):
        calls.append(y)
        return slope * y + shift

    res = picard_iterate(step, start, tol=1e-12)
    assert len(calls) == res.iterations == evaluations
    assert res.residuals[-1] < 1e-12
    assert np.allclose(res.profile, shift / (1.0 - slope), atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
def test_picard_anderson_solves_affine_contraction_in_k_plus_2(k, symmetric):
    # on an affine map Anderson mixing with depth >= k is a Krylov method:
    # the k + 1 differences span R^k, so evaluation k + 2 sees the root
    rng = np.random.default_rng(k)
    if symmetric:
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        A = Q @ np.diag(rng.uniform(-0.9, 0.9, k)) @ Q.T
    else:
        A = rng.standard_normal((k, k))
        A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    b = rng.standard_normal(k)
    calls = []

    def step(y):
        calls.append(y)
        return A @ y + b

    res = picard_iterate(step, np.zeros(k), tol=1e-10)
    assert len(calls) == res.iterations <= k + 2
    assert np.allclose(res.profile, np.linalg.solve(np.eye(k) - A, b), atol=1e-9)


def test_picard_anderson_no_convergence_keeps_full_history():
    # dG = 0 for y -> y + 1, so the mixing adds nothing and the defect stays 1
    with pytest.raises(NoConvergence) as exc:
        picard_iterate(lambda y: y + 1.0, np.ones(3), tol=1e-12, max_iter=17)
    assert exc.value.iterations == 17
    assert exc.value.history == [1.0] * 17
    assert exc.value.profile is not None


def test_picard_anderson_discarded_spikes_are_not_divergence():
    # arctan's flat tail sends a refilled history far past the root y = 5;
    # the safeguard discards the spike and restarts from the best iterate,
    # and the capped mixed steps then reach the root: no DivergenceDetected
    # and no NoConvergence, although a spike is more than ten times h[0]
    def flat_tail(y):
        return y + np.where(y < 5.0, np.arctan(5.0 - y), 5.0 - y)

    res = picard_iterate(flat_tail, np.zeros(2), max_iter=60)
    h = res.residuals
    assert h[-1] < 1e-8
    assert max(h[:-1]) > 10.0 * h[0]
    assert np.allclose(res.profile, 5.0)


def test_picard_anderson_divergence_detected():
    # every damped step from y = 0, down to d/16, more than doubles the
    # defect, so the safeguard fires five times in a row
    with pytest.raises(DivergenceDetected) as exc:
        picard_iterate(lambda y: y + np.exp(40.0 * y), np.zeros(2))
    h = exc.value.history
    assert len(h) == 6
    assert all(r > 2.0 * h[0] for r in h[1:])
    assert str(exc.value).startswith("divergence: 5 safeguard restarts in a row")


def test_picard_non_finite_map_value_is_divergence():
    with pytest.raises(DivergenceDetected) as exc:
        picard_iterate(lambda y: np.where(y > 0.0, y, np.nan), np.zeros(2))
    assert exc.value.history == [float("inf")]
    assert str(exc.value).startswith("divergence: the map returned a non-finite value")


def _overshooting(y):
    # the secant through the first two iterates lands far beyond the root
    # y = 1.5, where the defect is steep
    return y + np.where(y < 1.5, np.arctan(1.5 - y), 3.0 * (1.5 - y))


def test_picard_anderson_restarts_after_overshoot():
    calls = []

    def step(y):
        calls.append(y)
        return _overshooting(y)

    res = picard_iterate(step, np.zeros(3), tol=1e-12)
    r = res.residuals
    # the first extrapolation more than doubles the best defect ...
    assert r[2] > 2.0 * min(r[:2])
    # ... so the next iterate is a quarter step from the best one
    y1 = calls[1]
    assert np.array_equal(calls[3], y1 + 0.25 * (_overshooting(y1) - y1))
    assert np.allclose(res.profile, 1.5, atol=1e-12)
    assert res.iterations < 30


def test_picard_anderson_history_is_undamped_defect():
    calls = []

    def step(y):
        calls.append(y)
        return _overshooting(y)

    res = picard_iterate(step, np.zeros(3), tol=1e-12)
    assert len(calls) == res.iterations
    assert res.residuals == [float(np.max(np.abs(_overshooting(y) - y))) for y in calls]


# ---------------------------------------------------------------------------
# uniform-grid helpers
# ---------------------------------------------------------------------------

def test_cumulative_integral_fourth_order():
    for n in (101, 201):
        x = np.linspace(0.0, 2.0, n)
        h = x[1] - x[0]
        got = cumulative_integral(np.exp(x) * np.sin(3.0 * x), h)
        exact = (np.exp(x) * (np.sin(3.0 * x) - 3.0 * np.cos(3.0 * x)) + 3.0) / 10.0
        err = np.max(np.abs(got - exact))
        assert err < 30.0 * h**4


def test_first_integral_with_zero_exponent_is_linear():
    # X = 0: U' = c through U(x0) = base, so U = base + c (x - x0)
    x = np.linspace(-2.0, 2.0, 101)
    U = first_integral(np.zeros_like(x), x[1] - x[0], 50, 1.0, 0.5)
    assert np.max(np.abs(U - (1.0 + 0.5 * x))) < 1e-10


def test_first_integral_with_linear_exponent_is_exponential():
    # X = k (x - x0): U' = k U + c, so U = base e^X + (c/k)(e^X - 1); c = 0
    # skips the quadrature, c != 0 integrates e^-X from an interior anchor
    x = np.linspace(0.0, 3.0, 301)
    k = 0.5
    for i0, c in ((0, 0.0), (100, 0.5)):
        X = k * (x - x[i0])
        U = first_integral(X, x[1] - x[0], i0, 1.0, c)
        expected = np.exp(X) + (c / k) * np.expm1(X)
        assert np.max(np.abs(U - expected)) < 1e-9 * np.max(expected)


def test_derivative_stencils_fourth_order():
    x = np.linspace(0.0, 1.0, 201)
    h = x[1] - x[0]
    f = np.sin(4.0 * x)
    assert np.max(np.abs(d1_uniform(f, h) - 4.0 * np.cos(4.0 * x))) < 1e3 * h**4
    assert np.max(np.abs(d2_uniform(f, h) + 16.0 * np.sin(4.0 * x))) < 1e4 * h**4


@pytest.mark.parametrize("n", [7, 12, 201])
def test_difference_matrices_apply_the_stencil_table(n):
    # the band rows and the array stencils come from one table; they differ
    # only in rounding, measured against each row's magnitude |A| |f|
    x = np.linspace(-1.0, 2.0, n)
    h = x[1] - x[0]
    f = np.exp(x) * np.sin(3.0 * x) + 2.0
    for order, dense, K in ((1, d1_uniform, 4), (2, d2_uniform, 5)):
        A = difference_matrix(order, n, h)
        ref = dense(f, h)
        assert A.shape == (n, 2 * K + 1)
        assert np.all(np.abs(band_matvec(A, K, f) - ref) <= 1e-13 * band_matvec(abs(A), K, np.abs(f)))


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@example(r=2.225073858507203e-309)
def test_exp_kernel_matches_brute_force(r):
    # L[i] = int exp(r (y_i - eta)) f d eta against adaptive quadrature
    y = np.linspace(-1.0, 3.0, 161)
    h = y[1] - y[0]
    f = lambda t: np.exp(-0.5 * t * t) * (1.0 + 0.3 * t)
    L = exp_kernel_lower(f(y), h, r)
    R = exp_kernel_upper(f(y), h, r)
    for i in (0, 40, 97, 160):
        ref_l = integrate_adaptive(
            lambda e: math.exp(r * (y[i] - e)) * float(f(e)), y[0], y[i], tol=1e-12
        ).value
        ref_r = integrate_adaptive(
            lambda e: math.exp(r * (y[i] - e)) * float(f(e)), y[i], y[-1], tol=1e-12
        ).value
        assert L[i] == pytest.approx(ref_l, abs=60.0 * h**4)
        assert R[i] == pytest.approx(ref_r, abs=60.0 * h**4)


def test_exp_kernel_fourth_order_refinement():
    r = 0.7
    f = lambda t: np.exp(-0.5 * t * t) * (1.0 + 0.3 * t)
    errs = []
    for n in (81, 161, 321):
        y = np.linspace(-1.0, 3.0, n)
        h = y[1] - y[0]
        L = exp_kernel_lower(f(y), h, r)
        i = n // 2
        ref = integrate_adaptive(
            lambda e: math.exp(r * (y[i] - e)) * float(f(e)), y[0], y[i], tol=1e-13
        ).value
        errs.append(abs(L[i] - ref))
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_two_sided_exp_kernel_imposes_robin_edge_rows():
    # K = lower(f, r-) + upper(f, r+) has K' = r- lower + r+ upper, so
    # K' = r+ K at the first node (lower = 0) and K' = r- K at the last
    # (upper = 0); the one-sided 4th-order d1_uniform residual of both rows
    # falls at fourth order
    r_plus, r_minus = 0.7, -0.6
    f = lambda t: np.exp(-0.5 * t * t) * (1.0 + 0.3 * t)
    errs = []
    for n in (161, 321, 641):
        y = np.linspace(-1.0, 3.0, n)
        h = y[1] - y[0]
        K = exp_kernel_lower(f(y), h, r_minus) + exp_kernel_upper(f(y), h, r_plus)
        dK = d1_uniform(K, h)
        errs.append(max(abs(dK[0] - r_plus * K[0]), abs(dK[-1] - r_minus * K[-1])))
    assert errs[0] < 1e-6
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


@pytest.mark.parametrize("f0, r", [(1e200, -0.6), (1.0, 0.6)], ids=["huge-decaying", "growing"])
def test_exp_kernel_of_a_constant_is_finite_and_exact(f0, r):
    # |z|(n - 1) = 540: rescaled by e^540 in one scan, f = 1e200 overflowed
    # at 8,837 nodes where the kernel is ~1.7e200; a growing kernel (z > 0)
    # took a per-node Python loop, 1.0e-12 off
    n, h = 16385, 900.0 / 16384
    y = h * np.arange(n)
    L = exp_kernel_lower(np.full(n, f0), h, r)
    ref = f0 * (np.exp(r * y) - 1.0) / r
    assert np.all(np.isfinite(L))
    assert L[0] == 0.0
    assert np.max(np.abs(L[1:] - ref[1:]) / ref[1:]) < 1e-12


def test_prepared_exp_kernel_keeps_no_state_between_calls():
    # one prepared kernel on an ordinary profile, then on f = 1e200 (room
    # below |z|(n - 1) = 540, so the scan runs in blocks), then the ordinary
    # profile again: each call matches its closed form, and the repeat is
    # bit-identical to the first
    n, h, r = 16385, 900.0 / 16384, -0.6
    y = h * np.arange(n)
    lower = exp_kernel(n, h, r)
    ordinary = (-r * np.cos(y) + np.sin(y) + r * np.exp(r * y)) / (1.0 + r * r)
    first = lower(np.cos(y))
    assert np.max(np.abs(first - ordinary)) < 1e-6
    huge = lower(np.full(n, 1e200))
    ref = 1e200 * (np.exp(r * y[1:]) - 1.0) / r
    assert huge[0] == 0.0
    assert np.max(np.abs(huge[1:] - ref) / ref) < 1e-12
    assert np.array_equal(lower(np.cos(y)), first)


def test_exp_kernel_on_four_nodes():
    # the one interior panel of four nodes was left unset, 0.1 off here
    h, r = 0.1, 0.5
    y = h * np.arange(4)
    L = exp_kernel_lower(np.cos(y), h, r)
    ref = (-r * np.cos(y) + np.sin(y) + r * np.exp(r * y)) / (1.0 + r * r)
    assert np.max(np.abs(L - ref)) < 1e-6
