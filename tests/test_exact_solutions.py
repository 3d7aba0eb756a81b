import math

import numpy as np
import pytest

from conftest import case2_pde_residuals, rk4_scalar_ode
from flks.core import (
    CaseTag,
    ConstantDecay,
    ExponentialDecay,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
)
from flks.errors import ComplexRoots, DomainError, ValidationError
from flks.exact_solutions import (
    case1_homogeneous,
    case2_travelling_tanh,
    case3_homogeneous,
    case4_X4_quadrature,
    case4_cellfree_front,
    case4_homogeneous,
    cellfree_roots,
    travelling_roots,
)
from flks.limiters import TanhLimiter, WeberFechnerLogLimiter


def make_params(decay, limiter=None, D=0.8, tau=0.1):
    return ModelParams(
        D=D, tau=tau, limiter=limiter or TanhLimiter(1.1, 1.4), decay=decay
    )


# ---------------------------------------------------------------------------
# case I
# ---------------------------------------------------------------------------

def test_case1_constant_decay_closed_form():
    # kappa0 = 0.5, tau = 0.1, C = 1, V0 = 0: v(t) = 2 (1 - e^(-5 t))
    p = make_params(ConstantDecay(0.5))
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    for t in (0.0, 0.3, 1.0, 2.5):
        assert sol.eval_v(0.0, t) == pytest.approx(
            2.0 * (1.0 - math.exp(-5.0 * t)), abs=1e-10
        )
    assert sol.eval_u(3.0, 1.0) == 1.0
    # x-independence
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
    sol_tab = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0, tol=1e-9)
    sol_ei = case4_homogeneous(kappa0=0.5, lam=0.2, tau=0.1, C=1.0, V0=0.0, t0=0.0)
    for t in (0.5, 1.0, 2.0, 3.5, 5.0):
        assert sol_tab.eval_v(0.0, t) == pytest.approx(
            sol_ei.eval_v(0.0, t), abs=1e-6
        )


def test_case1_power_law_domain_error_propagates():
    p = make_params(PowerLawDecay(0.2))
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=1.0)
    with pytest.raises(DomainError):
        sol.eval_v(0.0, -1.0)


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
    assert sol.case is CaseTag.IV_EXPONENTIAL


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


def test_case2_zero_gradient_single_pass(fig_params):
    # s = 0: mu = e^(-(y-y0)/(D a^2)), U = U_ref e^((y-y0)/(D a^2)) for C1 = 0
    alpha = 1.1
    sol = case2_travelling_tanh(
        fig_params,
        alpha,
        s_profile=lambda y: 0.0,
        self_consistent=False,
        window=(-8.0, 8.0),
        n=1024,
    )
    Da2 = fig_params.D * alpha * alpha
    expected = np.exp((sol.y - 0.0) / Da2)
    assert np.max(np.abs(sol.U - expected) / expected) < 1e-9


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
    sol = case2_travelling_tanh(
        fig_params, 1.1, s_profile=lambda y: 0.0, self_consistent=False,
        window=(-8.0, 8.0), n=1024,
    )
    # u(x, t) depends on y = t - alpha x only
    a = sol.eval_u(0.5, 1.0)
    b = sol.eval_u(0.5 + 1.0 / 1.1, 2.0)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(DomainError):
        sol.eval_u(0.0, 100.0)


# ---------------------------------------------------------------------------
# cell-free fronts
# ---------------------------------------------------------------------------

def test_cellfree_roots_against_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        alpha = rng.uniform(0.3, 2.0)
        tau = rng.uniform(0.05, 1.0)
        kappa0 = rng.uniform(0.05, 1.5)
        lam = rng.uniform(-1.0, 1.0)
        disc = tau * tau + 4 * alpha * alpha * (kappa0 - tau * lam)
        if disc < 0.0:
            continue
        r1, r2 = cellfree_roots(alpha, tau, kappa0, lam)
        oracle = np.sort(np.roots([alpha * alpha, -tau, -(kappa0 - tau * lam)]))
        assert r2 == pytest.approx(float(oracle[0]), abs=1e-12)
        assert r1 == pytest.approx(float(oracle[1]), abs=1e-12)
        checked += 1


def test_cellfree_front_lambda_zero_is_case2_front():
    alpha, tau, kappa0 = 1.1, 0.1, 0.5
    sol = case4_cellfree_front(alpha, tau, kappa0, lam=0.0, A=1.0, B=0.0)
    r1, _ = cellfree_roots(alpha, tau, kappa0, 0.0)
    rp, _ = travelling_roots(alpha, tau, kappa0)
    assert r1 == pytest.approx(rp, rel=1e-15)
    x, t = 0.3, 0.7
    assert sol.eval_v(x, t) == pytest.approx(math.exp(r1 * (t - alpha * x)), rel=1e-13)
    assert sol.eval_u(x, t) == 0.0


def test_cellfree_discriminant_collapse():
    # kappa0 = tau lam: r1 = tau/alpha^2, r2 = 0, B branch is pure e^(-lam t)
    alpha, tau, lam = 1.3, 0.2, 0.5
    kappa0 = tau * lam
    r1, r2 = cellfree_roots(alpha, tau, kappa0, lam)
    assert r1 == pytest.approx(tau / alpha**2, rel=1e-14)
    assert r2 == 0.0
    sol = case4_cellfree_front(alpha, tau, kappa0, lam, A=0.0, B=2.0)
    for x, t in ((0.0, 1.0), (2.0, 3.0)):
        assert sol.eval_v(x, t) == pytest.approx(2.0 * math.exp(-lam * t), rel=1e-14)


def test_cellfree_front_residual_analytic():
    # residual of tau v_t - v_xx + kappa0 v at 1000 random points, computed
    # with analytic derivatives of the closed form
    rng = np.random.default_rng(3)
    alpha, tau, kappa0, lam, A, B = 1.1, 0.1, 0.5, 0.2, 0.7, 0.4
    r1, r2 = cellfree_roots(alpha, tau, kappa0, lam)
    xs = rng.uniform(-2.0, 2.0, 1000)
    ts = rng.uniform(0.0, 2.0, 1000)
    for branch_amp, r in ((A, r1), (B, r2)):
        y = ts - alpha * xs
        v = branch_amp * np.exp(-lam * ts + r * y)
        v_t = (r - lam) * v
        v_xx = (alpha * r) ** 2 * v
        res = tau * v_t - v_xx + kappa0 * v
        assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.max(np.abs(v)))


def test_cellfree_complex_roots_error():
    with pytest.raises(ComplexRoots):
        case4_cellfree_front(alpha=1.0, tau=0.1, kappa0=-1.0, lam=0.0)


# ---------------------------------------------------------------------------
# case IV X4 quadrature (Weber-Fechner)
# ---------------------------------------------------------------------------

def wf_params():
    return ModelParams(
        D=0.8,
        tau=0.1,
        limiter=WeberFechnerLogLimiter(v_max=1.1, s0=1.4),
        decay=ExponentialDecay(0.5, 0.2),
    )


def test_x4_quadrature_inert_limiter():
    # V' = 0: mu = 1, U = U_ref + (C1/D)(x - x0)
    p = wf_params()
    x = np.linspace(-2.0, 2.0, 101)
    res = case4_X4_quadrature(
        p, lam=0.2, dV_profile=lambda x: 0.0,
        x_grid=x, t_samples=[0.0, 1.0], C1_fn=lambda t: 0.4, U_ref=1.0, x0=0.0,
    )
    assert np.allclose(res.mu, 1.0, atol=1e-14)
    expected = 1.0 + (0.4 / p.D) * x
    for row in res.U:
        assert np.max(np.abs(row - expected)) < 1e-10


def test_x4_quadrature_constant_gradient_closed_form():
    # lam = 0, V' = const: mu = e^(-k (x - x0)), k = (v_max/D) ln(1 + V'^2/s0^2)
    p = wf_params()
    x = np.linspace(0.0, 3.0, 301)
    c = 0.9
    res = case4_X4_quadrature(
        p, lam=0.0, dV_profile=lambda x: c,
        x_grid=x, t_samples=[0.7], U_ref=1.0, x0=0.0,
    )
    k = (p.limiter.v_max / p.D) * math.log1p((c / p.limiter.s0) ** 2)
    assert np.max(np.abs(res.mu[0] - np.exp(-k * x))) < 1e-10
    assert np.max(np.abs(res.U[0] - np.exp(k * x))) < 1e-9 * np.max(res.U[0])
    assert res.compatibility_diagnostic == 0.0


def test_x4_quadrature_compatibility_diagnostic_positive():
    # generic data cannot satisfy the time-consistency closure; the
    # diagnostic must report that, not hide it
    p = wf_params()
    x = np.linspace(0.0, math.pi, 201)
    res = case4_X4_quadrature(
        p, lam=0.2, dV_profile=math.cos,
        x_grid=x, t_samples=[0.0, 1.0, 2.0], U_ref=1.0, x0=0.0,
    )
    assert res.compatibility_diagnostic > 1e-2


def test_x4_quadrature_requires_wf_limiter(fig_params):
    with pytest.raises(ValidationError):
        case4_X4_quadrature(
            fig_params, 0.2, dV_profile=lambda x: 0.0,
            x_grid=np.linspace(0, 1, 32), t_samples=[0.0],
        )


def test_case2_nonzero_c1_single_pass(fig_params):
    # s = 0 and C1 != 0: the first integral gives U = U_ref e^X + C1 (e^X - 1)
    # with X = (y - y0)/(D alpha^2)
    alpha, C1 = 1.1, 0.4
    sol = case2_travelling_tanh(
        fig_params, alpha, s_profile=lambda y: 0.0, C1=C1,
        self_consistent=False, window=(-6.0, 6.0), n=1024,
    )
    X = sol.y / (fig_params.D * alpha * alpha)
    expected = np.exp(X) + C1 * (np.exp(X) - 1.0)
    assert np.max(np.abs(sol.U - expected)) < 1e-8 * np.max(np.abs(expected))


def test_case2_fig1_closure_iteration_count(fig_params):
    # the Anderson-mixed closure takes 59 iterations; plain damped Picard 286
    sol = case2_travelling_tanh(fig_params, 1.1, U_ref=1.0, y0=0.0)
    assert len(sol.residual_history) <= 100
    assert sol.residual_history[-1] < 1e-10


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
