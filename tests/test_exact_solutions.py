import math

import numpy as np
import pytest

from conftest import case2_pde_residuals, rk4_scalar_ode
from flks.core import (
    ConstantDecay,
    ExponentialDecay,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
)
from flks import exact_solutions
from flks.errors import (
    ComplexRoots,
    DivergenceDetected,
    DomainError,
    NoConvergence,
    OverflowGuard,
    ValidationError,
)
from flks.exact_solutions import (
    case1_homogeneous,
    case2_travelling_tanh,
    case3_homogeneous,
    case4_cellfree_front,
    case4_homogeneous,
    travelling_drift,
    travelling_roots,
)
from flks.limiters import TanhLimiter, WeberFechnerLogLimiter
from flks.quadrature import exp_kernel_upper


def make_params(decay, limiter=None, D=0.8, tau=0.1):
    return ModelParams(
        D=D, tau=tau, limiter=limiter or TanhLimiter(1.1, 1.4), decay=decay
    )


# ---------------------------------------------------------------------------
# case I
# ---------------------------------------------------------------------------

# (kappa0, tau, C, V0, t0, times) under constant decay, against the closed
# form C/kappa0 + (V0 - C/kappa0) e^(-kappa0 (t - t0)/tau), V0 + C (t - t0)/tau
# at kappa0 = 0
_CONSTANT_RATE_ROWS = [
    # fig-1: v = 2 (1 - e^(-5 t)), at its steady level 2 by t = 12; at
    # t = 200 and 1e4 the accumulated exponent is 1e3 and 5e4
    (0.5, 0.1, 1.0, 0.0, 0.0, (0.0, 0.3, 1.0, 2.5, 12.0, 139.0, 141.0, 200.0, 1e4)),
    (0.0, 1.0, 1.0, 0.0, 0.0, (5.0,)),  # kappa = 0: pure integration
    (1.7, 1.0, -0.6, 2.3, 0.5, (0.5, 1.0, 3.0, 8.0)),  # C < 0
    (1.0, 1.0, 0.0, 1.0, 0.0, (2.0, -1.0, 0.5)),  # times before t0
]


def test_case1_constant_decay_closed_form():
    for kappa0, tau, C, V0, t0, times in _CONSTANT_RATE_ROWS:
        sol = case1_homogeneous(make_params(ConstantDecay(kappa0), tau=tau), C=C, V0=V0, t0=t0)
        ts = np.array(times)
        if kappa0 == 0.0:
            exact = V0 + C * (ts - t0) / tau
        else:
            exact = C / kappa0 + (V0 - C / kappa0) * np.exp(-kappa0 * (ts - t0) / tau)
        # all times in one call, and each time alone
        np.testing.assert_allclose(sol.eval_v(0.0, ts), exact, rtol=1e-13, atol=1e-15)
        for t, v in zip(times, exact):
            assert sol.eval_v(0.0, t) == pytest.approx(v, rel=1e-13, abs=1e-15)
    # u = C, and x-independence
    sol = case1_homogeneous(make_params(ConstantDecay(0.5)), C=1.0, V0=0.0, t0=0.0)
    assert sol.eval_u(3.0, 1.0) == 1.0
    xs = np.linspace(-4.0, 4.0, 9)
    assert np.ptp(sol.eval_v(xs, 1.3)) == 0.0


def test_case1_pure_decay_monotone():
    p = make_params(ConstantDecay(0.7))
    sol = case1_homogeneous(p, C=0.0, V0=3.0, t0=0.0)
    ts = np.linspace(0.0, 4.0, 24)
    vals = [sol.eval_v(0.0, t) for t in ts]
    assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(3.0, abs=1e-12)


def test_case1_tabulated_matches_case4():
    # tabulated samples of 0.5 e^(0.2 t) reproduce the Ei closed form
    ts = np.linspace(0.0, 5.0, 2501)
    law = TabulatedDecay(tuple(ts), tuple(0.5 * np.exp(0.2 * ts)))
    p = make_params(law, tau=0.1)
    sol_tab = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    sol_ei = case4_homogeneous(kappa0=0.5, lam=0.2, tau=0.1, C=1.0, V0=0.0, t0=0.0)
    for t in (0.5, 1.0, 2.0, 3.5, 5.0):
        assert sol_tab.eval_v(0.0, t) == pytest.approx(
            sol_ei.eval_v(0.0, t), abs=1e-6
        )


def test_case1_tabulated_relaxes_only_as_far_as_asked():
    # kappa = 1, tau = 0.01 tabulated to t = 1e5 is 1e7 relaxation units, more
    # than MAX_STEPS panels; v(1) and v(2) need the knots up to t = 2 only
    ts = np.linspace(0.0, 1e5, 1001)
    law = TabulatedDecay(tuple(ts), tuple(np.ones_like(ts)))
    sol = case1_homogeneous(make_params(law, tau=0.01), C=1.0, V0=0.0, t0=0.0)
    np.testing.assert_allclose(sol.eval_v(0.0, np.array([1.0, 2.0])), 1.0, rtol=1e-15)


def test_case1_power_law_domain_error_propagates():
    p = make_params(PowerLawDecay(0.2))
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=1.0)
    with pytest.raises(DomainError):
        sol.eval_v(0.0, -1.0)


def test_case1_matches_the_closed_forms_of_cases_3_and_4():
    # exponential decay: the Ei closed form, and RK4 of tau v' = C - kappa(t) v
    sol = case1_homogeneous(make_params(ExponentialDecay(0.5, 0.2)), C=1.0, V0=0.0, t0=0.0)
    ref = case4_homogeneous(0.5, 0.2, 0.1, C=1.0, V0=0.0, t0=0.0)
    ts = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    np.testing.assert_allclose(sol.eval_v(0.0, ts), [ref.eval_v(0.0, t) for t in ts], rtol=1e-13)
    rk4 = rk4_scalar_ode(lambda t, y: (1.0 - 0.5 * math.exp(0.2 * t) * y) / 0.1,
                         0.0, 0.0, 1.0, 20000)
    assert sol.eval_v(0.0, 1.0) == pytest.approx(rk4, rel=1e-8)
    # power-law decay from V0 != 0
    sol = case1_homogeneous(make_params(PowerLawDecay(0.2)), C=1.0, V0=0.5, t0=1.0)
    ref = case3_homogeneous(0.2, 0.1, C=1.0, V0=0.5, t0=1.0)
    ts = np.array([1.5, 2.0, 5.0, 20.0])
    np.testing.assert_allclose(sol.eval_v(0.0, ts), [ref.eval_v(0.0, t) for t in ts], rtol=1e-13)
    # rates that vary over decades of t inside panels with int kappa/tau < 1:
    # mu/tau = 0.1 from t0 = 1 to sparse times (0.92 from 1 to 1e4), and
    # kappa0 = 1e-6 doubling every 0.7 time units
    for C in (0.0, 1.0):
        sol = case1_homogeneous(make_params(PowerLawDecay(0.01)), C=C, V0=1.0, t0=1.0)
        ref = case3_homogeneous(0.01, 0.1, C=C, V0=1.0, t0=1.0)
        for t in (1e3, 1e4):
            assert sol.eval_v(0.0, t) == pytest.approx(ref.eval_v(0.0, t), rel=1e-13)
    sol = case1_homogeneous(make_params(ExponentialDecay(1e-6, 1.0), tau=1.0), C=1.0, V0=1.0)
    ref = case4_homogeneous(1e-6, 1.0, 1.0, C=1.0, V0=1.0)
    ts = np.array([5.0, 15.0, 20.0])
    np.testing.assert_allclose(sol.eval_v(0.0, ts), [ref.eval_v(0.0, t) for t in ts], rtol=1e-13)


def test_case1_refuses_only_a_value_that_overflows():
    # kappa0 < 0 grows v like e^(2 t): finite at t = 300, past double
    # precision at t = 400
    sol = case1_homogeneous(make_params(ConstantDecay(-2.0), tau=1.0), C=1.0, V0=1.0, t0=0.0)
    assert math.isfinite(sol.eval_v(0.0, 300.0))
    with pytest.raises(OverflowGuard):
        sol.eval_v(0.0, 400.0)
    with pytest.raises(OverflowGuard):
        sol.eval_v(0.0, np.array([1.0, 400.0]))
    # fig-1 to t = 1e7 is 5e7 panels, more than MAX_STEPS
    sol = case1_homogeneous(make_params(ConstantDecay(0.5)), C=1.0, V0=0.0, t0=0.0)
    with pytest.raises(ValidationError, match="panels"):
        sol.eval_v(0.0, 1e7)


# ---------------------------------------------------------------------------
# case III homogeneous
# ---------------------------------------------------------------------------

def test_case3_pure_power_decay():
    # C = 0, mu = tau: v(t) = V0 t0 / t
    sol = case3_homogeneous(mu=0.1, tau=0.1, C=0.0, V0=2.0, t0=1.0)
    for t in (1.0, 2.0, 5.0):
        assert sol.eval_v(0.0, t) == pytest.approx(2.0 / t, rel=1e-14)


def test_case3_logarithmic_branch_value():
    # mu = -tau = -0.1, C = 1, V0 = 0, t0 = 1, t = e: v = 10 e
    sol = case3_homogeneous(mu=-0.1, tau=0.1, C=1.0, V0=0.0, t0=1.0)
    assert sol.eval_v(0.0, math.e) == pytest.approx(10.0 * math.e, rel=1e-14)
    assert "logarithmic" in sol.params["branch"]


def test_case3_log_branch_matches_rk4():
    mu, tau, C, V0, t0 = -0.1, 0.1, 1.0, 0.0, 1.0
    sol = case3_homogeneous(mu, tau, C, V0, t0)
    for t in (2.0, 5.0, 10.0):
        ref = rk4_scalar_ode(
            lambda s, y: (C - (mu / s) * y) / tau, t0, V0, t, 4000
        )
        assert sol.eval_v(0.0, t) == pytest.approx(ref, rel=1e-8)


def test_case3_generic_branch_matches_rk4():
    mu, tau, C, V0, t0 = 0.2, 0.1, 1.0, 0.0, 1.0
    sol = case3_homogeneous(mu, tau, C, V0, t0)
    for t in np.linspace(1.0, 10.0, 10):
        if t == t0:
            continue
        ref = rk4_scalar_ode(lambda s, y: (C - (mu / s) * y) / tau, t0, V0, t, 6000)
        assert sol.eval_v(0.0, float(t)) == pytest.approx(ref, rel=1e-8)


def test_case3_branch_continuity_at_mu_equals_minus_tau():
    tau, C, V0, t0 = 0.1, 1.0, 0.0, 1.0
    log_sol = case3_homogeneous(-tau, tau, C, V0, t0)
    for eps in (1e-6, -1e-6):
        generic = case3_homogeneous(-tau + eps, tau, C, V0, t0)
        for t in np.linspace(t0, 5.0 * t0, 9):
            assert generic.eval_v(0.0, float(t)) == pytest.approx(
                log_sol.eval_v(0.0, float(t)), abs=1e-3
            )


def test_case3_rejects_nonpositive_time():
    sol = case3_homogeneous(0.2, 0.1)
    with pytest.raises(DomainError):
        sol.eval_v(0.0, 0.0)
    with pytest.raises(DomainError):
        case3_homogeneous(0.2, 0.1, t0=-1.0)


# ---------------------------------------------------------------------------
# case IV homogeneous
# ---------------------------------------------------------------------------

def test_case4_pure_decay_branch():
    # C = 0: v(t) = V0 exp(a e^(lam t0) - a e^(lam t))
    kappa0, lam, tau, V0 = 0.5, 0.2, 0.1, 1.7
    a = kappa0 / (tau * lam)
    sol = case4_homogeneous(kappa0, lam, tau, C=0.0, V0=V0, t0=0.0)
    for t in (0.0, 0.5, 1.0):
        expected = V0 * math.exp(a - a * math.exp(lam * t))
        assert sol.eval_v(0.0, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lam", [0.2, -0.2, 1.0, -1.0])
def test_case4_matches_rk4(lam):
    kappa0, tau, C, V0, t0 = 0.5, 0.1, 1.0, 0.0, 0.0
    sol = case4_homogeneous(kappa0, lam, tau, C=C, V0=V0, t0=t0)
    for t in (0.5, 1.0, 2.0):
        ref = rk4_scalar_ode(
            lambda s, y: (C - kappa0 * math.exp(lam * s) * y) / tau, t0, V0, t, 8000
        )
        assert sol.eval_v(0.0, t) == pytest.approx(ref, rel=1e-8)


def test_case4_positive_lambda_extinguishes_signal():
    # evaluation stays inside the Ei overflow guard (a e^(lam t) <= 709)
    sol = case4_homogeneous(0.5, 1.0, 0.1, C=1.0, V0=0.0, t0=0.0)
    ts = (1.0, 2.0, 3.0, 4.0, 4.9)
    vals = [sol.eval_v(0.0, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2e-2
    # tracks the quasi-steady level C/kappa(t) once the transient is gone
    assert vals[-1] == pytest.approx(2.0 * math.exp(-4.9), rel=0.05)


def test_case4_lambda_zero_delegates_to_constant_form():
    sol = case4_homogeneous(0.5, 0.0, 0.1, C=1.0, V0=0.0, t0=0.0)
    assert sol.eval_v(0.0, 1.0) == pytest.approx(2.0 * (1.0 - math.exp(-5.0)), rel=1e-12)


def test_case4_domain_and_overflow_guards():
    with pytest.raises(DomainError):
        case4_homogeneous(0.0, 0.2, 0.1)
    from flks.errors import OverflowGuard

    sol = case4_homogeneous(0.5, 0.2, 0.1, C=1.0, V0=0.0, t0=0.0)
    with pytest.raises(OverflowGuard):
        sol.eval_v(0.0, 60.0)  # a e^(lam t) > 709


def test_case1_case4_cross_family_consistency():
    # guard-compatible parameters: a = kappa0/(tau lam) must stay below 709
    kappa0, tau, lam = 5e-4, 1.0, 1e-6
    p = make_params(ConstantDecay(kappa0), tau=tau)
    c1 = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    c4 = case4_homogeneous(kappa0, lam, tau, C=1.0, V0=0.0, t0=0.0)
    for t in (1.0, 2.5, 5.0):
        a_ = c1.eval_v(0.0, t)
        b_ = c4.eval_v(0.0, t)
        assert b_ == pytest.approx(a_, rel=1e-4)
    # and at moderate lambda the difference is visible but small over [0, 2]
    c4m = case4_homogeneous(0.5, 1e-2, 0.1, C=1.0, V0=0.0, t0=0.0)
    c1m = case1_homogeneous(make_params(ConstantDecay(0.5)), C=1.0, V0=0.0, t0=0.0)
    assert c4m.eval_v(0.0, 2.0) == pytest.approx(c1m.eval_v(0.0, 2.0), rel=2e-2)


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def test_travelling_roots_match_polynomial_oracle(fig_params):
    alpha, tau, kappa0 = 1.1, 0.1, 0.5
    rp, rm = travelling_roots(alpha, tau, kappa0)
    oracle = np.sort(np.roots([alpha * alpha, -tau, -kappa0]))
    assert rm == pytest.approx(float(oracle[0]), abs=1e-12)
    assert rp == pytest.approx(float(oracle[1]), abs=1e-12)
    # loose agreement with the quoted decimals
    assert rp == pytest.approx(0.685487, abs=1e-3)
    assert rm == pytest.approx(-0.602842, abs=1e-3)


def test_travelling_drift_at_zero_gradient_is_the_free_drift(fig_params):
    # at s = 0 the flux vanishes and the drift is 1/(D alpha^2) exactly, so
    # the U-equation is the linear-exponent first integral that
    # test_first_integral_with_linear_exponent_is_exponential solves, with
    # C1 = 0 and C1 != 0
    alpha = 1.1
    w = travelling_drift(fig_params.limiter, fig_params.D, alpha, np.zeros(3))
    assert np.all(w == 1.0 / (fig_params.D * alpha * alpha))


def test_case2_self_consistent_defect(fig_params):
    alpha = 1.1
    sol = case2_travelling_tanh(fig_params, alpha, U_ref=1.0, y0=0.0)
    # the profile solves the PDE with F -> -F, not the configured one
    repulsive, configured = case2_pde_residuals(sol, fig_params)
    assert repulsive < 1e-6
    assert configured > 0.3
    assert sol.residual_history[-1] < 1e-10
    # s is the gradient of V
    from flks.quadrature import d1_uniform

    h = sol.y[1] - sol.y[0]
    m = (sol.y > -5.0) & (sol.y < 5.0)
    assert np.max(np.abs(sol.s[m] - d1_uniform(sol.V, h)[m])) < 1e-7


def test_case2_translation_covariance(fig_params):
    # shifting y0 and compensating U_ref leaves U unchanged
    alpha = 1.1
    base = case2_travelling_tanh(fig_params, alpha, U_ref=1.0, y0=0.0)
    h = base.y[1] - base.y[0]
    shift = 64  # grid points
    y0_new = float(base.y[base.y.size // 2 + shift])
    u_ref_new = float(base.U[base.y.size // 2 + shift])
    moved = case2_travelling_tanh(fig_params, alpha, U_ref=u_ref_new, y0=y0_new)
    m = (base.y > -5.0) & (base.y < 5.0)
    assert np.max(np.abs(moved.U[m] - base.U[m])) < 1e-9 * np.max(base.U[m])


def test_case2_requires_tanh_limiter():
    p = ModelParams(
        D=0.8, tau=0.1, limiter=WeberFechnerLogLimiter(1.1, 1.4), decay=ConstantDecay(0.5)
    )
    with pytest.raises(ValidationError):
        case2_travelling_tanh(p, 1.1)


def test_case2_eval_maps_y_to_xt(fig_params):
    # a converged wave on one level: n = 1024 has no coarser level
    sol = case2_travelling_tanh(fig_params, 1.1, window=(-8.0, 8.0), n=1024)
    assert sol.levels == [(1024, len(sol.residual_history))]
    # u(x, t) depends on y = t - alpha x only
    a = sol.eval_u(0.5, 1.0)
    b = sol.eval_u(0.5 + 1.0 / 1.1, 2.0)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(DomainError):
        sol.eval_u(0.0, 100.0)


# ---------------------------------------------------------------------------
# cell-free fronts
# ---------------------------------------------------------------------------

def test_cellfree_front_lambda_zero_is_case2_front():
    alpha, tau, kappa0 = 1.1, 0.1, 0.5
    sol = case4_cellfree_front(alpha, tau, ConstantDecay(kappa0), A=1.0, B=0.0)
    r1 = sol.params["r1"]
    rp, _ = travelling_roots(alpha, tau, kappa0)
    assert r1 == pytest.approx(rp, rel=1e-15)
    x, t = 0.3, 0.7
    assert sol.eval_v(x, t) == pytest.approx(math.exp(r1 * (t - alpha * x)), rel=1e-13)
    assert sol.eval_u(x, t) == 0.0


def test_cellfree_discriminant_collapse():
    # kappa(t0) = 0: r1 = tau/alpha^2, r2 = 0, and the B branch is B phi(t),
    # phi = exp(-int_0^t kappa/tau) = exp(-t^2/(4 tau)) for kappa = t/2
    alpha, tau = 1.3, 0.2
    sol = case4_cellfree_front(alpha, tau, TabulatedDecay((0.0, 4.0), (0.0, 2.0)), A=0.0, B=2.0)
    assert sol.params["r1"] == pytest.approx(tau / alpha**2, rel=1e-14)
    assert sol.params["r2"] == 0.0
    for x, t in ((0.0, 1.0), (2.0, 3.0)):
        assert sol.eval_v(x, t) == pytest.approx(2.0 * math.exp(-t * t / (4.0 * tau)), rel=1e-14)


def test_cellfree_front_residual_analytic():
    # residual of tau v_t - v_xx + kappa(t) v at 1000 random points under
    # the power law and a tabulated law, computed with analytic derivatives
    # of each branch psi(t) e^(r y): v_t = (r - (kappa - kappa0)/tau) v and
    # v_xx = (alpha r)^2 v
    rng = np.random.default_rng(3)
    alpha, tau, A, B = 1.1, 0.1, 0.7, 0.4
    for law in (PowerLawDecay(0.5), TabulatedDecay((0.0, 1.0, 3.0), (0.5, 0.9, 0.2))):
        sol = case4_cellfree_front(alpha, tau, law, A=A, B=B)
        t0, kappa0 = law.start, sol.params["kappa0"]
        xs = rng.uniform(-2.0, 2.0, 1000)
        ts = rng.uniform(t0, t0 + 2.0, 1000)
        kap = law.kappa(ts)
        psi = np.array([math.exp(-(law.cumulative(t0, t) - kappa0 * (t - t0)) / tau) for t in ts])
        y = ts - alpha * xs
        total = np.zeros_like(xs)
        for branch_amp, r in ((A, sol.params["r1"]), (B, sol.params["r2"])):
            v = branch_amp * psi * np.exp(r * y)
            v_t = (r - (kap - kappa0) / tau) * v
            v_xx = (alpha * r) ** 2 * v
            res = tau * v_t - v_xx + kap * v
            assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.max(np.abs(v)))
            total += v
        np.testing.assert_allclose(sol.eval_v(xs, ts), total, rtol=1e-13)


def test_cellfree_complex_roots_error():
    with pytest.raises(ComplexRoots):
        case4_cellfree_front(alpha=1.0, tau=0.1, law=ConstantDecay(-1.0))


def test_case2_fig1_closure_iteration_count(fig_params):
    # from s = 0 the Anderson-mixed closure takes 59 iterations at n = 1024,
    # 4096 and 16384 alike (plain damped Picard 286); started from the
    # n = 4096 profile, the n = 16384 level takes 17
    sol = case2_travelling_tanh(fig_params, 1.1, U_ref=1.0, y0=0.0)
    assert len(sol.residual_history) <= 100
    assert sol.residual_history[-1] < 1e-10
    assert [m for m, _ in sol.levels] == [1024, 4096, 16384]
    assert sol.levels[-1] == (16384, len(sol.residual_history))
    assert len(sol.residual_history) <= 25


def test_case2_coarse_to_fine_start_matches_a_single_level_solve(fig_params, monkeypatch):
    sol = case2_travelling_tanh(fig_params, 1.1, U_ref=1.0, y0=0.0)
    monkeypatch.setattr(exact_solutions, "_COARSEST_N", 16385)
    single = case2_travelling_tanh(fig_params, 1.1, U_ref=1.0, y0=0.0)
    assert single.levels == [(16384, len(single.residual_history))]
    for a, b in ((sol.U, single.U), (sol.V, single.V)):
        assert np.max(np.abs(a - b) / np.abs(b)) < 2e-9


@pytest.mark.parametrize("fails", ["coarse", "carried"])
def test_case2_failed_level_leaves_the_fresh_start(fig_params, monkeypatch, fails):
    # a coarse level that fails hands on no start, and a level that fails
    # from its carried start runs again from s = 0: either way the n = 4096
    # level is the single-level solve, bit for bit
    monkeypatch.setattr(exact_solutions, "_COARSEST_N", 4097)
    single = case2_travelling_tanh(fig_params, 1.1, n=4096)
    monkeypatch.setattr(exact_solutions, "_COARSEST_N", 1024)
    real = exact_solutions.picard_iterate

    def failing(map_fn, initial, **kw):
        if fails == "coarse" and initial.size == 1025:
            raise NoConvergence(7, 1.0, [1.0] * 7)
        if fails == "carried" and initial.size == 4097 and np.any(initial):
            raise DivergenceDetected("injected", [1.0, 3.0])
        return real(map_fn, initial, **kw)

    monkeypatch.setattr(exact_solutions, "picard_iterate", failing)
    sol = case2_travelling_tanh(fig_params, 1.1, n=4096)
    k = len(single.residual_history)
    first = [(1024, 7)] if fails == "coarse" else [(1024, sol.levels[0][1]), (4096, 2)]
    assert sol.levels == first + [(4096, k)]
    assert sol.residual_history == single.residual_history
    assert np.array_equal(sol.U, single.U) and np.array_equal(sol.V, single.V)


def test_case2_coarse_level_whose_kernel_cannot_be_prepared_is_a_failed_level():
    # at n = 1024 on the window +-40,000, r+ h = 6.5 > 5 and the kernel
    # raises DomainError; that level fails and the next starts from s = 0
    p = make_params(ConstantDecay(1e-4), D=1000.0)
    r_plus, _ = travelling_roots(1.1, 0.1, 1e-4)
    with pytest.raises(DomainError):
        exp_kernel_upper(np.zeros(1025), 80000.0 / 1024, r_plus)
    sol = case2_travelling_tanh(p, 1.1, window=(-40000.0, 40000.0), n=16384)
    assert sol.levels[0] == (1024, 0)
    assert [m for m, _ in sol.levels] == [1024, 4096, 16384]
    assert sol.levels[-1] == (16384, len(sol.residual_history))
    assert sol.residual_history[-1] < 1e-10


def test_case2_closure_converges_where_its_coarse_start_fails():
    # a marginal closure: from s = 0 it converges in 335 of its 400
    # iterations; from the carried n = 1024 profile it ended in NoConvergence
    p = make_params(ConstantDecay(0.5), limiter=TanhLimiter(3.0, 1.4), D=0.3)
    sol = case2_travelling_tanh(p, 0.6, n=4096)
    assert sol.residual_history[-1] < 1e-10
    assert sol.levels[-1] == (4096, len(sol.residual_history))


def test_case2_closure_converges_at_alpha_one():
    # plain damped Picard stopped at its 400-iteration cap here
    p = make_params(ConstantDecay(0.5))
    sol = case2_travelling_tanh(p, 1.0, U_ref=1.0, y0=0.0)
    assert sol.residual_history[-1] < 1e-10
    repulsive, configured = case2_pde_residuals(sol, p)
    assert repulsive < 1e-6
    assert configured > 0.3


@pytest.mark.parametrize("D, v_max", [(0.5, 1.1), (0.8, 2.0), (0.8, 3.0)],
                         ids=["D0.5", "vmax2", "vmax3"])
def test_case2_closure_converges_on_hard_cases(D, v_max):
    # the loop gain is largest here; a fixed damping of 0.1 fails all three
    p = make_params(ConstantDecay(0.5), limiter=TanhLimiter(v_max, 1.4), D=D)
    sol = case2_travelling_tanh(p, 1.1, U_ref=1.0, y0=0.0)
    assert sol.residual_history[-1] < 1e-10
    repulsive, configured = case2_pde_residuals(sol, p)
    assert repulsive < 1e-6
    assert configured > 0.3
