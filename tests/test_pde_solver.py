import math

import numpy as np
import pytest

from flks.core import (
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
)
from flks.errors import CFLViolation, InvalidState, StepSizeError
from flks.exact_solutions import case1_homogeneous, case4_cellfree_front
from flks.limiters import TanhLimiter
from flks.pde_solver import SolverConfig, Trajectory, _rhs, run, stable_dt, step, total_mass


def make_params(decay=None, tau=0.1, D=0.8):
    return ModelParams(
        D=D, tau=tau, limiter=TanhLimiter(1.1, 1.4), decay=decay or ConstantDecay(0.5)
    )


def test_uniform_steady_state_is_fixed_point():
    # u = c, v = c/kappa0 zeroes every term; state unchanged to round-off
    p = make_params()
    grid = Grid1D(0.0, 1.0, 16)
    cfg = SolverConfig(grid=grid, t_end=1.0)
    state = FieldPair(np.full(17, 1.0), np.full(17, 2.0), 0.0)
    dt = stable_dt(p, cfg)
    out = step(state, p, cfg, dt)
    assert np.max(np.abs(out.u - 1.0)) < 1e-13
    assert np.max(np.abs(out.v - 2.0)) < 1e-13


def test_step_guards():
    p = make_params()
    grid = Grid1D(0.0, 1.0, 16)
    cfg = SolverConfig(grid=grid, t_end=1.0)
    state = FieldPair(np.ones(17), np.ones(17), 0.0)
    with pytest.raises(StepSizeError):
        step(state, p, cfg, 0.0)
    with pytest.raises(CFLViolation):
        step(state, p, cfg, 10.0 * stable_dt(p, cfg))
    bad = FieldPair(np.ones(17), np.ones(17), 0.0)
    bad.u[3] = np.inf
    with pytest.raises(InvalidState):
        step(bad, p, cfg, stable_dt(p, cfg))


@pytest.mark.parametrize(
    "decay,t0",
    [
        (ConstantDecay(0.5), 0.0),
        (PowerLawDecay(0.2), 1.0),
        (ExponentialDecay(0.5, 0.2), 0.0),
        (TabulatedDecay((0.0, 2.0, 4.0, 6.0), (0.5, 0.65, 0.8, 1.0)), 0.0),
    ],
    ids=["constant", "power_law", "exponential", "tabulated"],
)
def test_uniform_run_matches_homogeneous_family(decay, t0):
    # time-varying kappa with a uniform field: the flux term vanishes and
    # the run must reproduce the homogeneous relaxation to 1e-6 at t = t0+5
    p = make_params(decay=decay)
    # uniform data carries no spatial scale; a wide coarse grid keeps the
    # diffusive CFL mild and the run cheap
    grid = Grid1D(0.0, 4.0, 8)
    cfg = SolverConfig(grid=grid, t_end=t0 + 5.0, output_stride=100000)
    state = FieldPair(np.full(9, 1.0), np.full(9, 0.2), t0)
    traj = run(state, p, cfg)
    exact = case1_homogeneous(p, C=1.0, V0=0.2, t0=t0, tol=1e-10)
    v_ref = exact.eval_v(0.0, traj.times[-1])
    assert np.max(np.abs(traj.vs[-1] - v_ref)) < 1e-6
    assert np.max(np.abs(traj.us[-1] - 1.0)) < 1e-10


def test_mass_conservation_neumann_long_run():
    p = make_params()
    grid = Grid1D(-4.0, 4.0, 64)
    cfg = SolverConfig(grid=grid, t_end=10.0, output_stride=500)
    x = grid.nodes()
    u0 = 1.0 + 1.5 * np.exp(-4.0 * x**2)
    v0 = np.zeros_like(x)
    traj = run(FieldPair(u0, v0, 0.0), p, cfg)
    assert traj.steps_taken >= 10000
    drift = np.abs(traj.mass - traj.mass[0]) / traj.mass[0]
    assert np.max(drift) < 1e-10


def test_mass_conservation_periodic():
    p = make_params()
    grid = Grid1D(0.0, 2.0 * math.pi, 64)
    cfg = SolverConfig(grid=grid, t_end=0.5, bc="periodic", output_stride=64)
    x = grid.nodes()
    u0 = 1.0 + 0.5 * np.sin(x)
    v0 = 0.3 * np.cos(x)
    traj = run(FieldPair(u0, v0, 0.0), p, cfg)
    drift = np.abs(traj.mass - traj.mass[0]) / traj.mass[0]
    assert np.max(drift) < 1e-11


def test_flux_bound_on_figure_run():
    p = make_params()
    grid = Grid1D(-5.0, 5.0, 128)
    cfg = SolverConfig(grid=grid, t_end=1.0, output_stride=50)
    x = grid.nodes()
    traj = run(FieldPair(1.0 + 2.0 * np.exp(-2.0 * x**2), np.zeros_like(x), 0.0), p, cfg)
    vmax_seen = 0.0
    for k in range(traj.times.size):
        s_face = np.diff(traj.vs[k]) / grid.dx
        vmax_seen = max(vmax_seen, float(np.max(np.abs(p.limiter.F(s_face)))))
    assert vmax_seen <= p.limiter.v_max
    assert np.min(traj.min_u) > -1e-8


def manufactured_error(n, t_end=0.05):
    """Sup error against u* = 2 + sin(x) e^-t, v* = cos(x) e^-t with the
    matching source terms, on a periodic domain."""
    D, tau, kappa0 = 0.8, 0.7, 0.5
    lim = TanhLimiter(1.1, 1.4)
    p = ModelParams(D=D, tau=tau, limiter=lim, decay=ConstantDecay(kappa0))

    def u_star(x, t):
        return 2.0 + np.sin(x) * math.exp(-t)

    def v_star(x, t):
        return np.cos(x) * math.exp(-t)

    def source_u(x, t):
        e = math.exp(-t)
        s = np.sin(x)
        c = np.cos(x)
        z = -s * e  # v*_x
        dz = -c * e
        # u*_t - D u*_xx + d/dx[u* F(v*_x)]
        return (-s * e + D * s * e) + (c * e * lim.F(z) + (2.0 + s * e) * lim.dF(z) * dz)

    def source_v(x, t):
        e = math.exp(-t)
        s = np.sin(x)
        c = np.cos(x)
        # tau v*_t - v*_xx + kappa v* - u*
        return -tau * c * e + c * e + kappa0 * c * e - (2.0 + s * e)

    grid = Grid1D(0.0, 2.0 * math.pi, n)
    cfg = SolverConfig(
        grid=grid,
        t_end=t_end,
        bc="periodic",
        output_stride=10**9,
        source_u=source_u,
        source_v=source_v,
    )
    x = grid.nodes()
    traj = run(FieldPair(u_star(x, 0.0), v_star(x, 0.0), 0.0), p, cfg)
    t = traj.times[-1]
    return max(
        float(np.max(np.abs(traj.us[-1] - u_star(x, t)))),
        float(np.max(np.abs(traj.vs[-1] - v_star(x, t)))),
    )


def test_manufactured_solution_spatial_order():
    errors = [(2.0 * math.pi / n, manufactured_error(n)) for n in (32, 64, 128)]
    logs = np.log([e for _, e in errors])
    logh = np.log([h for h, _ in errors])
    order = np.polyfit(logh, logs, 1)[0]
    assert 1.8 <= order <= 2.2, (order, errors)


def test_cellfree_front_tracking():
    # u = 0 band with the analytic front as v; exponential decay law with
    # lam = 0 keeps the front exact while exercising the case-IV plumbing
    alpha, tau, kappa0 = 1.1, 1.0, 0.5
    front = case4_cellfree_front(alpha, tau, kappa0, lam=0.0, A=1.0, B=0.0)
    r1 = front.params["r1"]
    p = ModelParams(
        D=0.8, tau=tau, limiter=TanhLimiter(1.1, 1.4), decay=ExponentialDecay(kappa0, 0.0)
    )
    grid = Grid1D(-8.0, 8.0, 1024)
    x = grid.nodes()
    scale = math.exp(-r1 * (0.0 - alpha * (-8.0)))  # keep sup|v| ~ 1 on the window
    cfg = SolverConfig(grid=grid, t_end=0.3, output_stride=10**9)
    v0 = scale * np.asarray(front.eval_v(x, 0.0))
    traj = run(FieldPair(np.zeros_like(x), v0, 0.0), p, cfg)
    t = traj.times[-1]
    v_ref = scale * np.asarray(front.eval_v(x, t))
    # compare away from the boundary-corrupted strips
    inner = (x > -5.0) & (x < 5.0)
    assert np.max(np.abs(traj.us[-1])) == 0.0
    assert np.max(np.abs(traj.vs[-1][inner] - v_ref[inner])) < 1e-4


def test_cellfree_front_nonzero_lambda_vs_constant_kappa_run():
    # the damped front solves the constant-coefficient signal equation, so a
    # constant-decay solver run must track it for lam != 0 as well
    alpha, tau, kappa0, lam = 1.1, 1.0, 0.5, 0.4
    front = case4_cellfree_front(alpha, tau, kappa0, lam=lam, A=1.0, B=0.0)
    r1 = front.params["r1"]
    p = make_params(decay=ConstantDecay(kappa0), tau=tau)
    grid = Grid1D(-8.0, 8.0, 1024)
    x = grid.nodes()
    scale = math.exp(-r1 * (0.0 - alpha * (-8.0)))
    cfg = SolverConfig(grid=grid, t_end=0.3, output_stride=10**9)
    traj = run(
        FieldPair(np.zeros_like(x), scale * np.asarray(front.eval_v(x, 0.0)), 0.0), p, cfg
    )
    t = traj.times[-1]
    v_ref = scale * np.asarray(front.eval_v(x, t))
    inner = (x > -5.0) & (x < 5.0)
    assert np.max(np.abs(traj.vs[-1][inner] - v_ref[inner])) < 1e-4


def test_trajectory_frames_and_mass_helper():
    p = make_params()
    grid = Grid1D(0.0, 1.0, 8)
    cfg = SolverConfig(grid=grid, t_end=0.01, output_stride=5)
    state = FieldPair(np.ones(9), np.ones(9), 0.0)
    traj = run(state, p, cfg)
    assert isinstance(traj, Trajectory)
    f0 = traj.frame(0)
    assert f0.t == 0.0
    assert total_mass(f0.u, grid, "neumann") == pytest.approx(1.0)
    assert traj.times[-1] == pytest.approx(0.01)


def test_solver_self_convergence_on_bump():
    # doubling the grid shrinks run-to-run differences ~4x (node subsets
    # align exactly, so no interpolation enters the comparison)
    p = make_params()
    runs = {}
    for n in (32, 64, 128):
        grid = Grid1D(-4.0, 4.0, n)
        cfg = SolverConfig(grid=grid, t_end=0.2, output_stride=10**9)
        x = grid.nodes()
        traj = run(FieldPair(1.0 + np.exp(-2.0 * x**2), np.zeros_like(x), 0.0), p, cfg)
        runs[n] = traj.us[-1]
    d1 = np.max(np.abs(runs[64][::2] - runs[32]))
    d2 = np.max(np.abs(runs[128][::2] - runs[64]))
    assert 2.5 < d1 / d2 < 6.5


def test_neumann_rhs_is_periodic_rhs_of_even_extension():
    # mirror ghosts are the even extension: the Neumann operator on [0, L]
    # must agree with the periodic one on [-L, L] at the nodes of [0, L]
    p = make_params()
    L, n = 3.0, 64
    x = Grid1D(0.0, L, n).nodes()
    u = 1.0 + 0.3 * np.cos(np.pi * x / L) - 0.2 * np.cos(3.0 * np.pi * x / L)
    # v has minima at both ends, so the upwind faces there reach into the ghosts
    v = 0.3 * np.cos(np.pi * x / L) - 0.5 * np.cos(2.0 * np.pi * x / L)
    neu = _rhs(u, v, 0.3, p, SolverConfig(grid=Grid1D(0.0, L, n), t_end=1.0))
    per = _rhs(
        np.concatenate([u[:0:-1], u]),
        np.concatenate([v[:0:-1], v]),
        0.3,
        p,
        SolverConfig(grid=Grid1D(-L, L, 2 * n), t_end=1.0, bc="periodic"),
    )
    for a, b in zip(neu, per):
        assert np.max(np.abs(a - b[n:])) <= 1e-12 * np.max(np.abs(a))
