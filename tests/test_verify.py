import math
from fractions import Fraction

import numpy as np
import pytest

from flks.core import (
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
)
from flks.errors import (
    DegenerateFit,
    EvaluationError,
    GridMismatch,
    UnsupportedGenerator,
    ValidationError,
)
from flks.exact_solutions import (
    ExactSolution,
    case1_homogeneous,
    case4_cellfree_front,
    case4_homogeneous,
)
from flks.lie_toolkit import PolyExpr, VectorField, x1, x2, x3, x4
from flks.limiters import TanhLimiter
from flks.pde_solver import SolverConfig, run
from flks.verify import (
    compare,
    convergence_order,
    group_invariance_check,
    pde_residual,
)


def make_params(decay=None, tau=0.1, D=0.8):
    return ModelParams(
        D=D, tau=tau, limiter=TanhLimiter(1.1, 1.4), decay=decay or ConstantDecay(0.5)
    )


def test_residual_homogeneous_tiny():
    p = make_params()
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    grid = Grid1D(-1.0, 1.0, 16)
    rep = pde_residual(sol, p, grid, t_samples=(0.5, 1.0, 2.0), ht=5e-4)
    assert rep.sup_norm < 1e-10
    assert rep.l2_norm <= rep.sup_norm


def test_non_finite_residual_raises_naming_its_point():
    # the sup norm used to skip a NaN sample and read -1.0
    p = make_params()
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    holed = ExactSolution(
        case=sol.case,
        label="holed",
        eval_u=lambda x, t: np.where(np.asarray(x) == 0.25, np.nan, sol.eval_u(x, t)),
        eval_v=sol.eval_v,
        params=sol.params,
    )
    grid = Grid1D(-1.0, 1.0, 16)
    # the hole's stencils reach two nodes back, to x = 0
    with pytest.raises(EvaluationError, match=r"non-finite residual at x=0, t=1$"):
        pde_residual(holed, p, grid, t_samples=(1.0,), ht=5e-4)
    for ht in (0.0, -5e-4, math.nan, math.inf):
        with pytest.raises(ValidationError, match="ht must be positive and finite"):
            pde_residual(sol, p, grid, t_samples=(1.0,), ht=ht)


def test_residual_cellfree_front():
    # the damped front solves the constant-coefficient equation exactly;
    # the 4th-order stencil error is all that remains
    alpha, tau, kappa0, lam = 1.1, 0.1, 0.5, 0.2
    front = case4_cellfree_front(alpha, tau, kappa0, lam, A=1.0, B=0.0)
    p = make_params(decay=ConstantDecay(kappa0), tau=tau)
    grid = Grid1D(-2.0, 2.0, 400)  # dx = 1e-2
    rep = pde_residual(front, p, grid, t_samples=(0.2, 0.5), ht=2e-4)
    assert rep.sup_norm < 1e-8


def test_residual_detects_corruption():
    p = make_params()
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    bad = ExactSolution(
        case=sol.case,
        label="corrupted",
        eval_u=sol.eval_u,
        eval_v=lambda x, t: 1.01 * np.asarray(sol.eval_v(x, t)),
        params=sol.params,
    )
    grid = Grid1D(-1.0, 1.0, 16)
    rep = pde_residual(bad, p, grid, t_samples=(0.5, 1.0), ht=5e-4)
    assert rep.sup_norm > 1e-3


def test_residual_linear_in_perturbation():
    p = make_params()
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    grid = Grid1D(-1.0, 1.0, 16)

    def perturbed(delta):
        return ExactSolution(
            case=sol.case,
            label="pert",
            eval_u=sol.eval_u,
            eval_v=lambda x, t: np.asarray(sol.eval_v(x, t)) + delta * np.cos(np.asarray(x)),
            params=sol.params,
        )

    r1 = pde_residual(perturbed(1e-6), p, grid, (1.0,), ht=5e-4).sup_norm
    r2 = pde_residual(perturbed(2e-6), p, grid, (1.0,), ht=5e-4).sup_norm
    assert r2 / r1 == pytest.approx(2.0, rel=0.05)


def test_compare_identical_and_mismatch():
    a = FieldPair(np.ones(9), np.zeros(9))
    out = compare(a, a.copy())
    assert out["u"]["sup"] == 0.0
    assert out["v"]["l2"] == 0.0
    with pytest.raises(GridMismatch):
        compare(a, FieldPair(np.ones(5), np.zeros(5)))


def test_compare_solver_vs_exact_uniform():
    p = make_params()
    grid = Grid1D(0.0, 4.0, 8)
    cfg = SolverConfig(grid=grid, t_end=2.0, output_stride=10**9)
    traj = run(FieldPair(np.full(9, 1.0), np.zeros(9), 0.0), p, cfg)
    exact = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    ref = exact.sample(grid, float(traj.times[-1]))
    out = compare(traj.frame(traj.times.size - 1), ref)
    assert out["v"]["relative"] < 1e-6
    assert out["u"]["sup"] < 1e-12


def test_convergence_order_exact_quadratic():
    pairs = [(h, 3.0 * h**2) for h in (0.1, 0.05, 0.025, 0.0125)]
    order, r2 = convergence_order(pairs)
    assert order == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_convergence_order_guards():
    with pytest.raises(ValidationError):
        convergence_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(DegenerateFit):
        convergence_order([(0.1, 1e-15), (0.05, 1e-15), (0.025, 1e-15)])


def test_residual_of_neumann_trajectories():
    # a Neumann trajectory is measured inside its 4 outer nodes: the uniform
    # relaxation is exact in x, and a bump's residual falls at second order
    p = make_params()

    def residual(n, u0, v0):
        grid = Grid1D(-4.0, 4.0, n)
        x = grid.nodes()
        cfg = SolverConfig(grid=grid, t_end=0.02, bc="neumann", output_stride=1)
        return pde_residual(run(FieldPair(u0(x), v0(x), 0.0), p, cfg), p).sup_norm

    assert residual(64, np.ones_like, np.zeros_like) < 1e-8
    bump = [residual(n, lambda x: 1.0 + 0.5 * np.exp(-x * x / 0.72), lambda x: np.exp(-x * x))
            for n in (64, 128)]
    assert 3.0 <= bump[0] / bump[1] <= 5.0


def test_invariance_x1_on_periodic_trajectory():
    p = make_params()
    grid = Grid1D(0.0, 2.0 * math.pi, 64)
    cfg = SolverConfig(grid=grid, t_end=0.2, bc="periodic", output_stride=20)
    x = grid.nodes()
    traj = run(FieldPair(1.0 + 0.3 * np.sin(x), 0.1 * np.cos(x), 0.0), p, cfg)
    rep = group_invariance_check("X1", traj, p, eps=5 * grid.dx)
    assert rep.ratio <= 2.0


def test_invariance_x1_accepts_vector_field():
    p = make_params()
    grid = Grid1D(0.0, 2.0 * math.pi, 64)
    cfg = SolverConfig(grid=grid, t_end=0.2, bc="periodic", output_stride=20)
    x = grid.nodes()
    traj = run(FieldPair(1.0 + 0.3 * np.sin(x), 0.1 * np.cos(x), 0.0), p, cfg)
    rep = group_invariance_check(x1(), traj, p, eps=3 * grid.dx)
    assert rep.generator == "X1"
    assert rep.ratio <= 2.0


def test_invariance_x2_constant_kappa_passes():
    # small eps keeps the e^(rate*eps) growth of the shifted transient's
    # own stencil error inside the 2x band
    p = make_params()
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    grid = Grid1D(-1.0, 1.0, 16)
    rep = group_invariance_check(x2(), sol, p, eps=0.05, grid=grid, t_samples=(3.0, 3.5), ht=0.05)
    assert rep.ratio <= 2.0


def test_invariance_x2_exponential_kappa_breaks():
    p = make_params(decay=ExponentialDecay(0.5, 0.2))
    sol = case4_homogeneous(0.5, 0.2, p.tau, C=1.0, V0=0.0, t0=0.0)
    grid = Grid1D(-1.0, 1.0, 16)
    rep = group_invariance_check("X2", sol, p, eps=0.25, grid=grid, t_samples=(2.0, 2.5), ht=0.05)
    assert rep.ratio > 10.0


def test_invariance_eps_zero_is_baseline():
    p = make_params()
    sol = case1_homogeneous(p, C=1.0, V0=0.0, t0=0.0)
    grid = Grid1D(-1.0, 1.0, 16)
    rep = group_invariance_check("X2", sol, p, eps=0.0, grid=grid, t_samples=(1.0,), ht=5e-4)
    assert rep.transformed.sup_norm == rep.baseline.sup_norm


def test_invariance_rejects_x3():
    p = make_params()
    sol = case1_homogeneous(p)
    with pytest.raises(UnsupportedGenerator):
        group_invariance_check(x3(), sol, p, eps=0.1, grid=Grid1D(-1, 1, 16), t_samples=(1.0,))
    with pytest.raises(UnsupportedGenerator):
        group_invariance_check("X3", sol, p, eps=0.1, grid=Grid1D(-1, 1, 16), t_samples=(1.0,))


def test_invariance_mixed_translation_keeps_the_front():
    # X1 + alpha X2, the traveling reduction's generator, fixes y = t - alpha x:
    # its flow is read off the field, which has no catalog name
    front = case4_cellfree_front(1.1, 0.1, 0.5, 0.0)
    p = make_params(decay=ConstantDecay(0.5), tau=0.1)
    field = x1() + x2().scaled(Fraction(11, 10))
    rep = group_invariance_check(
        field, front, p, eps=0.3, grid=Grid1D(-2.0, 2.0, 128), t_samples=(0.5, 1.0)
    )
    assert rep.generator == repr(field)
    assert 0.5 <= rep.ratio <= 2.0


def test_invariance_rejects_time_scaling_with_signal_growth():
    # t d/dt + v d/dv rescales time: it has no grid-compatible flow
    p = make_params(decay=ExponentialDecay(0.5, 0.2))
    sol = case4_homogeneous(0.5, 0.2, p.tau, C=1.0, V0=0.0, t0=0.0)
    field = VectorField(PolyExpr.variable("t"), PolyExpr(), PolyExpr(), PolyExpr.variable("v"))
    with pytest.raises(UnsupportedGenerator):
        group_invariance_check(field, sol, p, eps=0.25, grid=Grid1D(-1, 1, 16), t_samples=(2.0,))


def test_invariance_x4_rescales_v_at_the_fields_own_rate():
    # under lam = 0.2, x4(7/10) is not the law's X4 and breaks the solution
    p = make_params(decay=ExponentialDecay(0.5, 0.2))
    sol = case4_homogeneous(0.5, 0.2, p.tau, C=1.0, V0=0.0, t0=0.0)
    kw = dict(eps=0.25, grid=Grid1D(-1.0, 1.0, 16), t_samples=(2.0, 2.5), ht=0.05)
    law = group_invariance_check("X4", sol, p, **kw)
    other = group_invariance_check(x4(Fraction(7, 10)), sol, p, **kw)
    assert law.generator == "X4" and other.generator == repr(x4(Fraction(7, 10)))
    assert other.transformed.sup_norm > 10.0 * law.transformed.sup_norm


def test_residual_refinement_order_on_front():
    # an exact non-uniform family: the measured residual is pure stencil
    # truncation and must fall at least second order as dx shrinks
    alpha, tau, kappa0, lam = 1.1, 0.1, 0.5, 0.2
    front = case4_cellfree_front(alpha, tau, kappa0, lam, A=1.0, B=0.0)
    p = make_params(decay=ConstantDecay(kappa0), tau=tau)
    pairs = []
    for n in (50, 100, 200):
        grid = Grid1D(-2.0, 2.0, n)
        rep = pde_residual(front, p, grid, t_samples=(0.5,), ht=1e-3)
        pairs.append((grid.dx, rep.sup_norm))
    order, _ = convergence_order(pairs)
    assert order >= 1.8
