"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here, not deferred; runtime budgets are asserted with time.perf_counter.
"""

import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import case2_pde_residuals, rk4_scalar_ode
from flks.core import (
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
)
from flks.exact_solutions import (
    case1_homogeneous,
    case2_travelling_tanh,
    case3_homogeneous,
    case4_cellfree_front,
    case4_homogeneous,
    travelling_roots,
)
from flks.lie_toolkit import (
    adjoint,
    catalog,
    classifying_residual,
    commutator,
    x1,
    x2,
    x3,
    x4,
)
from flks.limiters import TanhLimiter, TanhLogLimiter
from flks.pde_solver import SolverConfig, run
from flks.quadrature import exp_integral_Ei
from flks.reduced_systems import ReducedProblem, solve_self_similar
from flks.verify import convergence_order, group_invariance_check, pde_residual

getcontext().prec = 60
_GAMMA = Decimal("0.577215664901532860606512090082402431042159335939923598805767")


def _ei_oracle(x):
    xd = Decimal(repr(float(x)))
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
        if k > 30000:
            raise RuntimeError("oracle stalled")


def _params():
    return ModelParams(
        D=0.8, tau=0.1, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(0.5)
    )


def _report(num, name, t0):
    print(f"[ACCEPTANCE] criterion {num} ({name}): PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_homogeneous_steady_level():
    t0 = time.perf_counter()
    p = _params()
    # the criterion pins (C, kappa0, tau) but not V0; starting at the
    # predicted steady level C/kappa0, both routes must hold it through t=2
    # (a wrong level would drift away).
    exact = case1_homogeneous(p, C=1.0, V0=2.0, t0=0.0)
    assert abs(exact.eval_v(0.0, 2.0) - 2.0) < 1e-6
    grid = Grid1D(0.0, 4.0, 8)
    cfg = SolverConfig(grid=grid, t_end=2.0, output_stride=10**9)
    traj = run(FieldPair(np.full(9, 1.0), np.full(9, 2.0), 0.0), p, cfg)
    assert np.max(np.abs(traj.vs[-1] - 2.0)) < 1e-6
    # relaxation from rest reaches the same level: the gap is exactly
    # 2 e^(-5t), which first drops below 1e-6 at t ~ 2.9, so the approach is
    # checked against its own closed form at t=2 and against the absolute
    # band at t=3.
    exact0 = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    assert abs(exact0.eval_v(0.0, 2.0) - 2.0 * (1.0 - math.exp(-10.0))) < 1e-10
    cfg3 = SolverConfig(grid=grid, t_end=3.0, output_stride=10**9)
    traj0 = run(FieldPair(np.full(9, 1.0), np.zeros(9), 0.0), p, cfg3)
    assert abs(exact0.eval_v(0.0, 3.0) - 2.0) < 1e-6
    assert np.max(np.abs(traj0.vs[-1] - 2.0)) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(1, "homogeneous steady level", t0)


def test_criterion_02_case3_closed_forms():
    t0 = time.perf_counter()
    tau, C, V0, tstart = 0.1, 1.0, 0.0, 1.0
    for mu, label in ((0.2, "generic"), (-0.1, "logarithmic")):
        sol = case3_homogeneous(mu, tau, C=C, V0=V0, t0=tstart)
        assert label in sol.params["branch"]
        for t in np.linspace(1.0, 10.0, 7)[1:]:
            ref = rk4_scalar_ode(
                lambda s, y: (C - (mu / s) * y) / tau, tstart, V0, float(t), 3000
            )
            got = sol.eval_v(0.0, float(t))
            assert abs(got - ref) <= 1e-8 * max(abs(ref), 1.0)
    # branch continuity across mu = -tau
    log_sol = case3_homogeneous(-tau, tau, C=C, V0=V0, t0=tstart)
    for eps in (1e-6, -1e-6):
        near = case3_homogeneous(-tau + eps, tau, C=C, V0=V0, t0=tstart)
        for t in np.linspace(tstart, 5.0 * tstart, 9):
            assert abs(near.eval_v(0.0, float(t)) - log_sol.eval_v(0.0, float(t))) < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(2, "case III closed forms", t0)


def test_criterion_03_case4_ei_formula():
    t0 = time.perf_counter()
    tau, C, V0 = 0.1, 1.0, 0.0
    for lam in (0.2, -0.2, 1.0, -1.0):
        sol = case4_homogeneous(0.5, lam, tau, C=C, V0=V0, t0=0.0)
        for t in (0.5, 1.5):
            ref = rk4_scalar_ode(
                lambda s, y: (C - 0.5 * math.exp(lam * s) * y) / tau, 0.0, V0, t, 6000
            )
            assert abs(sol.eval_v(0.0, t) - ref) <= 1e-8 * max(abs(ref), 1.0)
    # Ei against the high-precision series oracle on |x| in [1e-3, 50]
    xs = np.concatenate([np.geomspace(1e-3, 50.0, 21), -np.geomspace(1e-3, 50.0, 21)])
    for x in xs:
        oracle = _ei_oracle(float(x))
        assert abs(exp_integral_Ei(float(x)) - oracle) <= 1e-12 * max(abs(oracle), 1e-300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(3, "case IV exponential-integral formula", t0)


def test_criterion_04_travelling_wave_consistency():
    t0 = time.perf_counter()
    p = _params()
    alpha, kappa0 = 1.1, 0.5
    rp, rm = travelling_roots(alpha, p.tau, kappa0)
    oracle = np.sort(np.roots([alpha**2, -p.tau, -kappa0]))
    assert abs(rm - float(oracle[0])) < 1e-12
    assert abs(rp - float(oracle[1])) < 1e-12
    sol = case2_travelling_tanh(p, alpha, U_ref=1.0, y0=0.0)
    # the profile solves the PDE with F -> -F, not the configured one
    repulsive, configured = case2_pde_residuals(sol, p)
    assert repulsive < 1e-6, f"PDE residual under F -> -F {repulsive:.2e}"
    assert configured > 0.3, f"PDE residual under F {configured:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(4, "traveling-wave quadrature consistency", t0)


def test_criterion_05_cellfree_fronts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    # residual of tau v_t - v_xx + kappa(t) v at 1000 random points with
    # analytic derivatives: the constant-rate front times the kernel factor
    # psi(t) = exp(-(int_0^t kappa - kappa0 t)/tau) solves the exponential-
    # decay signal equation
    alpha, tau, kappa0, lam, A, B = 1.1, 0.1, 0.5, 0.2, 0.8, 0.3
    law = ExponentialDecay(kappa0, lam)
    front = case4_cellfree_front(alpha, tau, law, A=A, B=B)
    r1, r2 = front.params["r1"], front.params["r2"]
    xs = rng.uniform(-2.0, 2.0, 1000)
    ts = rng.uniform(0.0, 2.0, 1000)
    y = ts - alpha * xs
    kap = kappa0 * np.exp(lam * ts)
    psi = np.exp(-(kappa0 * np.expm1(lam * ts) / lam - kappa0 * ts) / tau)
    v = psi * (A * np.exp(r1 * y) + B * np.exp(r2 * y))
    v_t = psi * (A * r1 * np.exp(r1 * y) + B * r2 * np.exp(r2 * y)) - (kap - kappa0) / tau * v
    v_xx = psi * (A * (alpha * r1) ** 2 * np.exp(r1 * y) + B * (alpha * r2) ** 2 * np.exp(r2 * y))
    res = tau * v_t - v_xx + kap * v
    assert np.max(np.abs(res)) < 1e-8
    assert np.max(np.abs(v - np.asarray(front.eval_v(xs, ts)))) < 1e-12
    # root formula against the polynomial oracle, 20 random admissible draws
    checked = 0
    while checked < 20:
        a_ = rng.uniform(0.3, 2.0)
        t_ = rng.uniform(0.05, 1.0)
        k_ = rng.uniform(0.05, 1.5)
        l_ = rng.uniform(-1.0, 1.0)
        if t_ * t_ + 4 * a_ * a_ * (k_ - t_ * l_) < 0.0:
            continue
        rr1, rr2 = travelling_roots(a_, t_, k_ - t_ * l_)
        pol = np.sort(np.roots([a_ * a_, -t_, -(k_ - t_ * l_)]))
        assert abs(rr2 - float(pol[0])) < 1e-12
        assert abs(rr1 - float(pol[1])) < 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(5, "cell-free fronts", t0)


def test_criterion_06_lie_algebra_suite():
    t0 = time.perf_counter()
    lam = Fraction(1, 5)
    # stated commutation relations, exact rational arithmetic
    assert commutator(x1(), x2()).is_zero()
    assert commutator(x1(), x4(lam)).is_zero()
    assert commutator(x1(), x3()) == x1().scaled(Fraction(1, 2))
    # Jacobi identity on the full catalog
    fields = list(catalog(lam).values())
    from itertools import combinations

    for X, Y, Z in combinations(fields, 3):
        s = (
            commutator(commutator(X, Y), Z)
            + commutator(commutator(Y, Z), X)
            + commutator(commutator(Z, X), Y)
        )
        assert s.is_zero()
    # adjoint series reproduces exp(-eps/2) through order 30 at eps = 1
    res = adjoint(x3(), x1(), Fraction(1), order=30)
    coeff = float(res.field.rows[1][4])
    assert abs(coeff - math.exp(-0.5)) < 1e-12
    # classifying residual: exactly zero on the admitted rows, visibly
    # nonzero under a 1e-2 perturbation of the group rate
    assert classifying_residual(ConstantDecay(0.5), 0.0, 1.0, 0.0).max_abs == 0.0
    assert classifying_residual(PowerLawDecay(0.5), 1.0, 0.0, 0.0).max_abs == 0.0
    law = ExponentialDecay(0.5, 0.2)
    assert classifying_residual(law, 0.0, 1.0, 0.2).max_abs == 0.0
    assert classifying_residual(ConstantDecay(0.5), 0.0, 1.0, 1e-2).max_abs > 1e-3
    assert classifying_residual(PowerLawDecay(0.5), 1.0, 0.0, 1e-2).max_abs > 1e-3
    assert classifying_residual(law, 0.0, 1.0, 0.2 + 1e-2).max_abs > 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(6, "Lie algebra suite", t0)


def test_criterion_07_pde_solver_validation():
    t0 = time.perf_counter()
    from test_pde_solver import manufactured_error

    errors = [(2.0 * math.pi / n, manufactured_error(n)) for n in (32, 64, 128)]
    order, _ = convergence_order(errors)
    assert 1.8 <= order <= 2.2, (order, errors)
    # mass drift over >= 1e4 steps: 10,120 steps of the IMEX march to t = 230
    p = _params()
    grid = Grid1D(-4.0, 4.0, 64)
    cfg = SolverConfig(grid=grid, t_end=230.0, output_stride=1000)
    x = grid.nodes()
    traj = run(FieldPair(1.0 + 1.5 * np.exp(-4.0 * x**2), np.zeros_like(x), 0.0), p, cfg)
    assert traj.steps_taken >= 10**4
    assert np.max(np.abs(traj.mass - traj.mass[0]) / traj.mass[0]) < 1e-10
    # flux bound on a figure-parameter run from a Gaussian bump
    grid2 = Grid1D(-5.0, 5.0, 128)
    cfg2 = SolverConfig(grid=grid2, t_end=1.0, output_stride=25)
    x2_ = grid2.nodes()
    traj2 = run(
        FieldPair(1.0 + 2.0 * np.exp(-2.0 * x2_**2), np.zeros_like(x2_), 0.0), p, cfg2
    )
    for k in range(traj2.times.size):
        faces = np.diff(traj2.vs[k]) / grid2.dx
        assert np.max(np.abs(p.limiter.F(faces))) <= p.limiter.v_max
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(7, "PDE solver validation", t0)


def test_criterion_08_symmetry_behavior():
    t0 = time.perf_counter()
    # X1 on a periodic solver trajectory
    p = _params()
    grid = Grid1D(0.0, 2.0 * math.pi, 64)
    cfg = SolverConfig(grid=grid, t_end=0.2, bc="periodic", output_stride=2)
    xg = grid.nodes()
    traj = run(FieldPair(1.0 + 0.3 * np.sin(xg), 0.1 * np.cos(xg), 0.0), p, cfg)
    rep_x1 = group_invariance_check("X1", traj, p, eps=5 * grid.dx)
    assert rep_x1.ratio <= 2.0
    # X2 under constant decay: admitted
    sol_c = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    g16 = Grid1D(-1.0, 1.0, 16)
    rep_x2c = group_invariance_check(
        "X2", sol_c, p, eps=0.05, grid=g16, t_samples=(3.0, 3.5), ht=0.05
    )
    assert rep_x2c.ratio <= 2.0
    # exponential decay: X2 must break visibly while X4 compensates.  eps is
    # calibrated so the X2 breakage sits ~25x above the measurement floor;
    # the X4-compensated breakage is then a factor tau*lam/kappa smaller.
    tau, kappa0, lam = 0.1, 0.5, 0.2
    pe = ModelParams(
        D=0.8, tau=tau, limiter=TanhLimiter(1.1, 1.4), decay=ExponentialDecay(kappa0, lam)
    )
    sol_e = case4_homogeneous(kappa0, lam, tau, C=1.0, V0=0.0, t0=0.0)
    tsamp = (3.0, 3.5)
    base = pde_residual(sol_e, pe, g16, tsamp, ht=0.05)
    t_mid = 3.25
    kv = kappa0 * math.exp(lam * t_mid) * sol_e.eval_v(0.0, t_mid)
    eps = 25.0 * base.sup_norm / (lam * kv)
    rep_x2e = group_invariance_check("X2", sol_e, pe, eps=eps, grid=g16, t_samples=tsamp, ht=0.05)
    rep_x4e = group_invariance_check("X4", sol_e, pe, eps=eps, grid=g16, t_samples=tsamp, ht=0.05)
    assert rep_x2e.ratio > 10.0, f"X2 should break, ratio {rep_x2e.ratio:.2f}"
    assert rep_x4e.ratio <= 2.0, f"X4 should pass, ratio {rep_x4e.ratio:.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(8, "symmetry behavior", t0)


def test_criterion_09_self_similar_solver():
    t0 = time.perf_counter()
    # flux off: v_max = 1e-300 makes the flux factor exp(0) = 1 exactly in
    # floating point (the limiter type requires a positive bound)
    p_off = ModelParams(
        D=0.8, tau=0.1, limiter=TanhLogLimiter(1e-300, 0.51), decay=PowerLawDecay(0.5)
    )
    prob_off = ReducedProblem(
        "self_similar", p_off, constants={"mu": 0.5}, domain=(0.0, 10.0), data={"U0": 1.0}
    )
    res_off = solve_self_similar(prob_off, n=2000)
    assert res_off.converged
    # even symmetry of the U-profile: the half-line profile must coincide
    # with the even decaying Gaussian family member through U(0)
    gauss = res_off.U[0] * np.exp(-res_off.xi**2 / (4.0 * 0.8))
    assert np.max(np.abs(res_off.U - gauss)) < 1e-10
    assert abs(res_off.S[0]) < 1e-9  # V'(0) = 0 discretely
    assert res_off.defect_u < 1e-8
    assert res_off.defect_v < 1e-8
    # figure-scale parameters: converge with small defect or report honestly
    p_fig = ModelParams(
        D=0.8, tau=0.1, limiter=TanhLogLimiter(1.1, 0.51), decay=PowerLawDecay(0.5)
    )
    prob_fig = ReducedProblem(
        "self_similar", p_fig, constants={"mu": 0.5}, domain=(0.0, 10.0), data={"U0": 1.0}
    )
    res_fig = solve_self_similar(prob_fig, n=2000)
    if res_fig.converged:
        assert res_fig.defect_u < 1e-6
        assert res_fig.defect_v < 1e-6
    else:
        # accepted outcome: an explicit nonconvergence report with a
        # monotone-tail residual history
        tail = res_fig.residual_history[-10:]
        assert len(res_fig.residual_history) > 0
        assert all(b <= a * 1.5 for a, b in zip(tail, tail[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(9, "self-similar solver", t0)


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    t0 = time.perf_counter()
    from flks.cli import export_csv, import_csv, main

    cfg_text = """
[model]
D = 0.8
tau = 0.1
[limiter]
kind = tanh
v_max = 1.1
s0 = 1.4
[decay]
kind = constant
kappa0 = 0.5
[grid]
x_lo = -2.0
x_hi = 2.0
n = 16
[solver]
t_end = 0.02
output_stride = 10
[initial]
kind = noise
u0 = 1.0
noise = 0.01
[run]
seed = 42
"""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg_text)
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(o1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(o2)]) == 0
    assert (o1 / "trajectory.csv").read_bytes() == (o2 / "trajectory.csv").read_bytes()
    # export/import round-trips at full precision
    meta, cols = import_csv(str(o1 / "trajectory.csv"))
    path = tmp_path / "re.csv"
    rows = np.column_stack([cols["t"], cols["x"], cols["u"], cols["v"]])
    export_csv(rows, str(path), meta={"kind": "table"})
    _, cols2 = import_csv(str(path))
    np.testing.assert_array_equal(cols2["c2"], cols["u"])
    np.testing.assert_array_equal(cols2["c3"], cols["v"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(10, "determinism and round-trip", t0)
