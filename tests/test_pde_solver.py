import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flks.core import (
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
)
from flks.errors import CFLViolation, FlksError, InvalidState, StepSizeError, ValidationError
from flks.exact_solutions import case1_homogeneous, case4_cellfree_front
from flks.limiters import (
    AlgebraicSqrtLimiter,
    TanhLimiter,
    TanhLogLimiter,
    WeberFechnerLogLimiter,
)
from flks import pde_solver
from flks.pde_solver import SolverConfig, Trajectory, run, stable_dt, step, total_mass


def operator_rhs(u, v, t, params, config):
    """(u_t, v_t) of (u, v) at t from one prepared operator."""
    op = pde_solver._Operator(params, config)
    op.load(u, v)
    out = op.rhs(op.X, t)
    return out[:, 0], out[:, 1]


def make_params(decay=None, tau=0.1, D=0.8):
    return ModelParams(
        D=D, tau=tau, limiter=TanhLimiter(1.1, 1.4), decay=decay or ConstantDecay(0.5)
    )


# one law of each kind, every one defined on [start, start + 2]
DECAY_LAWS = (
    ConstantDecay(0.5),
    PowerLawDecay(0.2),
    ExponentialDecay(0.5, 0.2),
    TabulatedDecay((0.0, 2.0, 4.0, 6.0), (0.5, 0.65, 0.8, 1.0)),
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


def test_unbounded_limiter_refuses_a_step_past_the_positivity_cfl():
    # weber_fechner_log grows without bound, so stable_dt's |F| <= v_max
    # fails: after the first step max |F(v_x)| is 3.15 and the second would
    # carry u 0.63 cells.  Marched on to t = 1.3, this run reached
    # min_u = -2e122 and a mass drift of 6e103
    p = ModelParams(D=0.1, tau=0.1, limiter=WeberFechnerLogLimiter(1.0, 0.05),
                    decay=ConstantDecay(0.5))
    grid = Grid1D(-4.0, 4.0, 256)
    x = grid.nodes()
    init = FieldPair(1.0 + 3.0 * np.exp(-x * x / 0.18), np.zeros_like(x), 0.0)
    cfg = SolverConfig(grid=grid, t_end=0.02)
    with pytest.raises(CFLViolation, match="0.63 cells in the step from t=0.00625"):
        run(init, p, cfg)
    dt = stable_dt(p, cfg)
    first = step(init, p, cfg, dt)  # v = 0: no flux yet
    with pytest.raises(CFLViolation, match="0.63 cells"):
        step(first, p, cfg, dt)
    # a step 16 times smaller stays inside the bound and keeps u positive
    traj = run(init, p, SolverConfig(grid=grid, t_end=0.02, cfl_safety=0.025))
    assert traj.steps_taken == 52 and np.min(traj.min_u) > 0.9


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
    # the run must reproduce the homogeneous relaxation to 1e-6 at t = t0+5.
    # That error is the march's time error alone (2.1e-4 under the power law
    # at the default cfl 0.4), so it must fall as dt^2; under constant decay
    # it is at round-off already
    p = make_params(decay=decay)
    grid = Grid1D(0.0, 4.0, 8)
    exact = case1_homogeneous(p, C=1.0, V0=0.2, t0=t0)
    errors = []
    for cfl in (0.05, 0.025):
        cfg = SolverConfig(grid=grid, t_end=t0 + 5.0, cfl_safety=cfl, output_stride=100000)
        traj = run(FieldPair(np.full(9, 1.0), np.full(9, 0.2), t0), p, cfg)
        errors.append(np.max(np.abs(traj.vs[-1] - exact.eval_v(0.0, traj.times[-1]))))
        assert np.max(np.abs(traj.us[-1] - 1.0)) < 1e-10
    assert errors[1] < 1e-6
    assert errors[0] < 1e-10 or 3.5 < errors[0] / errors[1] < 4.5, errors


def test_mass_conservation_neumann_long_run():
    # >= 1e4 steps to t = 10 at a stated small cfl (criterion 07 takes its
    # 1e4 steps at the default one, to t = 230)
    p = make_params()
    grid = Grid1D(-4.0, 4.0, 64)
    cfg = SolverConfig(grid=grid, t_end=10.0, cfl_safety=0.017, output_stride=500)
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


def manufactured_run(n, dt, t_end=0.5):
    """A periodic run at step dt from u* = 2 + sin(x) e^-t, v* = cos(x) e^-t
    with the matching source terms, and (u*, v*) at its last frame."""
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
        cfl_safety=dt * 2.0 * lim.v_max / grid.dx,
        output_stride=10**9,
        source_u=source_u,
        source_v=source_v,
    )
    x = grid.nodes()
    traj = run(FieldPair(u_star(x, 0.0), v_star(x, 0.0), 0.0), p, cfg)
    t = traj.times[-1]
    return traj, (u_star(x, t), v_star(x, t))


def _sup_gap(traj, pair):
    return max(float(np.max(np.abs(a - b))) for a, b in zip((traj.us[-1], traj.vs[-1]), pair))


def manufactured_error(n, dt=0.005, t_end=0.5):
    """Sup error of the manufactured run at the fixed step dt (100 steps to
    t = 0.5 by default), where the time error is far below the space error
    of n <= 128."""
    return _sup_gap(*manufactured_run(n, dt, t_end))


def test_manufactured_solution_spatial_order():
    errors = [(2.0 * math.pi / n, manufactured_error(n)) for n in (32, 64, 128)]
    logs = np.log([e for _, e in errors])
    logh = np.log([h for h, _ in errors])
    order = np.polyfit(logh, logs, 1)[0]
    assert 1.8 <= order <= 2.2, (order, errors)


def test_manufactured_solution_temporal_order():
    # at fixed n = 32 the time error is the gap to a run at a 64x finer step;
    # the coarsest step takes 8 steps to t = 0.5
    T = 0.5
    ref = manufactured_run(32, T / 512)[0]
    errors = []
    for k in (8, 16, 32, 64):
        traj = manufactured_run(32, T / k)[0]
        assert traj.steps_taken == k
        errors.append((T / k, _sup_gap(traj, (ref.us[-1], ref.vs[-1]))))
    order = np.polyfit(np.log([h for h, _ in errors]), np.log([e for _, e in errors]), 1)[0]
    assert 1.8 <= order <= 2.2, (order, errors)


def test_cellfree_front_tracking():
    # u = 0 band with the analytic front as v; exponential decay law with
    # lam = 0 keeps the front exact while exercising the case-IV plumbing
    alpha, tau, kappa0 = 1.1, 1.0, 0.5
    front = case4_cellfree_front(alpha, tau, ExponentialDecay(kappa0, 0.0), A=1.0, B=0.0)
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


def test_cellfree_front_run_tracks_it_under_each_decay_law():
    # the front solves the signal equation under its own decay law, so a run
    # under that law from the front at t0 must track it to t0 + 0.3
    alpha, tau = 1.1, 1.0
    grid = Grid1D(-8.0, 8.0, 1024)
    x = grid.nodes()
    inner = (x > -5.0) & (x < 5.0)
    for law in DECAY_LAWS:
        front = case4_cellfree_front(alpha, tau, law, A=1.0, B=0.0)
        t0 = law.start
        scale = math.exp(-front.params["r1"] * (t0 - alpha * (-8.0)))
        cfg = SolverConfig(grid=grid, t_end=t0 + 0.3, output_stride=10**9)
        v0 = scale * np.asarray(front.eval_v(x, t0))
        traj = run(FieldPair(np.zeros_like(x), v0, t0), make_params(decay=law, tau=tau), cfg)
        v_ref = scale * np.asarray(front.eval_v(x, traj.times[-1]))
        assert np.max(np.abs(traj.vs[-1][inner] - v_ref[inner])) < 1e-4, law


@pytest.mark.parametrize(
    "law, bc",
    [(law, "neumann") for law in DECAY_LAWS] + [(DECAY_LAWS[2], "periodic")],
    ids=["constant", "power_law", "exponential", "tabulated", "exponential-periodic"],
)
def test_kernel_generator_shifts_v_by_phi(law, bc):
    # phi(t) d/dv with tau phi' = -kappa(t) phi is a symmetry for every decay
    # law and limiter: the u-equation sees only v_x and the v-equation is
    # linear.  So marching (u0, v0 + 1) leaves u as it is and shifts v by a
    # uniform phi(t) = exp(-int_t0^t kappa / tau); what remains of the
    # shift's gap to phi is the time error of the uniform mode's decay
    p = make_params(decay=law)
    grid = Grid1D(-4.0, 4.0, 256)
    x = grid.nodes()
    t0 = law.start
    cfg = SolverConfig(grid=grid, t_end=t0 + 2.0, bc=bc, output_stride=10**9)
    u0 = 1.0 + np.exp(-((x - 0.2) ** 2) / 0.72)
    base, shifted = (run(FieldPair(u0, v0, t0), p, cfg) for v0 in (np.zeros_like(x), np.ones_like(x)))
    assert shifted.steps_taken == 352
    du = shifted.us[-1] - base.us[-1]
    dv = shifted.vs[-1] - base.vs[-1]
    phi = math.exp(-law.cumulative(t0, t0 + 2.0) / p.tau)
    assert np.max(np.abs(du)) <= 1e-13
    assert np.ptp(dv) <= 5e-14
    assert abs(np.mean(dv) / phi - 1.0) <= 1e-3


def test_trajectory_frames_and_mass_helper():
    p = make_params()
    grid = Grid1D(0.0, 1.0, 8)
    cfg = SolverConfig(grid=grid, t_end=0.01, output_stride=5)
    state = FieldPair(np.ones(9), np.ones(9), 0.0)
    traj = run(state, p, cfg)
    assert isinstance(traj, Trajectory)
    assert traj.times[0] == 0.0
    assert total_mass(traj.us[0], grid, "neumann") == pytest.approx(1.0)
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
    neu = operator_rhs(u, v, 0.3, p, SolverConfig(grid=Grid1D(0.0, L, n), t_end=1.0))
    per = operator_rhs(
        np.concatenate([u[:0:-1], u]),
        np.concatenate([v[:0:-1], v]),
        0.3,
        p,
        SolverConfig(grid=Grid1D(-L, L, 2 * n), t_end=1.0, bc="periodic"),
    )
    for a, b in zip(neu, per):
        assert np.max(np.abs(a - b[n:])) <= 1e-12 * np.max(np.abs(a))


def _refined_solve(A, b):
    """np.linalg.solve refined once with a residual in np.longdouble: the
    reference is then within ~cond(A) * eps(longdouble) of the exact x."""
    x = np.linalg.solve(A, b)
    res = b.astype(np.longdouble) - A.astype(np.longdouble) @ x.astype(np.longdouble)
    return x + np.linalg.solve(A, res.astype(float))


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_implicit_solve_matches_a_dense_solve(bc):
    # _Operator.solve with dx = D = tau = 1 solves (shift - c Lap) x = b with
    # c = h: shift = 1 for u and 1 + kappa0 h for v
    rng = np.random.default_rng(7)
    kappa0 = 0.7
    p = ModelParams(D=1.0, tau=1.0, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(kappa0))
    for n in [*range(8, 41), 1025]:
        op = pde_solver._Operator(p, SolverConfig(Grid1D(0.0, float(n), n), t_end=1.0, bc=bc))
        lap = _ref_laplacian(n, 1.0, bc)
        m = lap.shape[0]
        for c in 10.0 ** np.arange(-3.0, 5.0):
            b = rng.standard_normal((n + 1, 2))  # node by node: (u_k, v_k) in row k
            if bc == "periodic":
                b[-1] = b[0]
            x = op.solve(0.0, c, b)
            for col, shift in enumerate((1.0, 1.0 + kappa0 * c)):
                ref = _refined_solve(shift * np.eye(m) - c * lap, b[:m, col])
                tol = 1e-13 + (1.0 + 4.0 * c / shift) * np.finfo(np.longdouble).eps
                assert np.max(np.abs(x[:m, col] - ref)) <= tol * np.max(np.abs(ref)), (n, c, col)
            if bc == "periodic":
                assert x[-1].tobytes() == x[0].tobytes()
                k = int(rng.integers(1, n))
                rolled = op.solve(0.0, c, np.roll(b[:-1], k, axis=0)[np.r_[:n, 0]])
                assert rolled.tobytes() == np.roll(x[:-1], k, axis=0)[np.r_[:n, 0]].tobytes()
            mirrored = op.solve(0.0, c, b[::-1].copy())
            assert mirrored.tobytes() == x[::-1].tobytes()


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_implicit_solve_matches_a_dense_solve_under_time_varying_decay(bc):
    # kappa(t) = 0.7 e^(0.9 t): the v row's weights change with every stage
    # time, so each solve derives its own and must still meet the dense one
    rng = np.random.default_rng(11)
    decay = ExponentialDecay(0.7, 0.9)
    p = ModelParams(D=1.0, tau=1.0, limiter=TanhLimiter(1.1, 1.4), decay=decay)
    for n in (8, 9, 33, 1025):
        op = pde_solver._Operator(p, SolverConfig(Grid1D(0.0, float(n), n), t_end=1.0, bc=bc))
        lap = _ref_laplacian(n, 1.0, bc)
        m = lap.shape[0]
        for c in (0.01, 0.3, 10.0, 1e4):
            b = rng.standard_normal((n + 1, 2))
            if bc == "periodic":
                b[-1] = b[0]
            for t in (0.25, 1.75):  # two stage times
                x = op.solve(t, c, b)
                for col, shift in enumerate((1.0, 1.0 + decay.kappa(t) * c)):
                    ref = _refined_solve(shift * np.eye(m) - c * lap, b[:m, col])
                    tol = 1e-13 + (1.0 + 4.0 * c / shift) * np.finfo(np.longdouble).eps
                    err = np.max(np.abs(x[:m, col] - ref))
                    assert err <= tol * np.max(np.abs(ref)), (n, c, t, col)
                mirrored = op.solve(t, c, b[::-1].copy())
                assert mirrored.tobytes() == x[::-1].tobytes()


def test_reduction_weights_are_derived_once_per_row_and_step(monkeypatch):
    # each row's levels are derived on their own: a constant-decay run
    # derives the u row's and the v row's at the full step and at the
    # shortened last step; a time-varying kappa derives the v row's once per
    # implicit stage, one per member of a batch, and keeps the u row's for
    # as long as the step size holds
    derived = []
    reduction_levels = pde_solver._reduction_levels

    def counted(r, sigma):
        derived.append((r, sigma))
        return reduction_levels(r, sigma)

    monkeypatch.setattr(pde_solver, "_reduction_levels", counted)
    cfg = SolverConfig(Grid1D(-4.0, 4.0, 64), t_end=0.99)
    x = cfg.grid.nodes()
    init = FieldPair(1.0 + np.exp(-x * x), np.zeros_like(x), 0.0)
    traj = run(init, make_params(), cfg)
    assert traj.steps_taken == 44  # the last one shortened
    assert len(derived) == 4 == len(set(derived))
    derived.clear()
    traj = run(init, make_params(decay=ExponentialDecay(0.5, 0.9)), cfg)
    assert len(derived) == 2 + 2 * traj.steps_taken == len(set(derived))
    derived.clear()
    laws = (ExponentialDecay(0.5, 0.9), ConstantDecay(0.7), ExponentialDecay(0.4, -0.3))
    batch = list(pde_solver.run_batch((init, make_params(decay=law), cfg) for law in laws))
    assert len(derived) == 2 + 2 + 2 * 2 * traj.steps_taken == len(set(derived))
    assert [b.us.tobytes() for b in batch] == \
        [run(init, make_params(decay=law), cfg).us.tobytes() for law in laws]
    # each level squares r over a diagonal near 1; the last level's r < 2^-60
    g_u, _ = reduction_levels(0.366, 0.27)
    g_v, _ = reduction_levels(0.486, 0.029)
    assert (len(g_u), len(g_v)) == (6, 8)
    # the ring interleaves the rows, and a row with fewer levels has gamma = 0
    G = pde_solver._ring_table([g_u, g_v], 5)
    assert G.shape == (8, 10) and not G.flags.writeable
    assert (G[6:, 0::2] == 0.0).all() and (G[:, 1::2] > 0.0).all()
    # a batch: each node holds u and v of each member, each entry its own gamma
    g_w, _ = reduction_levels(0.2, 0.6)
    G = pde_solver._ring_table([g_u, g_v, g_u, g_w], 5)
    assert G.shape == (8, 20) and G.flags.c_contiguous
    for e, g in enumerate((g_u, g_v, g_u, g_w)):
        assert (G[:, e::4] == np.array(g + [0.0] * (8 - len(g)))[:, None]).all()


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_a_batch_marches_each_member_as_it_marches_alone(monkeypatch, bc):
    # members from their own states under each decay law, with sources:
    # consecutive members that share the initial time march as one batch,
    # and every field of every trajectory is bit for bit the solo run's
    made = []

    class Recorded(pde_solver._Operator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self.batch)

    monkeypatch.setattr(pde_solver, "_Operator", Recorded)
    grid = Grid1D(-2.0, 2.0, 32)
    x = grid.nodes()
    cfg = SolverConfig(grid, t_end=1.5, bc=bc, output_stride=7,
                       source_u=lambda x, t: 0.1 * np.sin(x + t),
                       source_v=lambda x, t: 0.2 * t * np.cos(x))
    laws = (ConstantDecay(0.5), PowerLawDecay(0.2), ExponentialDecay(0.5, 0.2),
            TabulatedDecay((0.0, 2.0), (0.5, 0.8)), ConstantDecay(-0.2))
    members = [(FieldPair(1.0 + (k + 1) * 0.3 * np.exp(-(x - 0.2 * k) ** 2),
                          0.5 * k * np.cos(np.pi * x / 2.0), law.start),
                make_params(decay=law), cfg) for k, law in enumerate(laws)]
    batch = list(pde_solver.run_batch(members))
    assert made == [(), (), (3,)]
    # the batch operator's rhs, explicit part and solve, member by member
    op = pde_solver._Operator(members[2][1], cfg, laws[2:])
    op.load(np.stack([m[0].u for m in members[2:]], axis=1),
            np.stack([m[0].v for m in members[2:]], axis=1))
    for b, (initial, params, _) in enumerate(members[2:]):
        alone = pde_solver._Operator(params, cfg)
        alone.load(initial.u, initial.v)
        for t in (0.0, 0.7):
            assert op.rhs(op.X, t)[:, b].tobytes() == alone.rhs(alone.X, t).tobytes()
            assert op.explicit(op.X, t)[:, b].tobytes() == alone.explicit(alone.X, t).tobytes()
            assert op.solve(t, 0.3, op.X)[:, b].tobytes() == \
                alone.solve(t, 0.3, alone.X).tobytes()
    for traj, member in zip(batch, members):
        alone = run(*member)
        for name in ("times", "us", "vs", "mass", "min_u"):
            assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes(), name
        assert (traj.steps_taken, traj.metadata) == (alone.steps_taken, alone.metadata)
        assert traj.us.flags.c_contiguous and traj.min_u.flags.c_contiguous
    assert batch[0].steps_taken > 2 * cfg.output_stride


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_ring_solves_the_rows_independently_and_keeps_positivity(bc):
    # u and v share one interleaved ring: each row's solution must not
    # depend on the other row's data, bit for bit, whichever row has more
    # levels (D = 1 gives u more, D = 0.01 mostly v), and nonnegative data
    # must give finite, nonnegative solutions from subnormals to ~1e300
    rng = np.random.default_rng(17)
    for decay in (ConstantDecay(0.7), ExponentialDecay(0.7, 0.9)):
        for D in (1.0, 0.01):
            p = ModelParams(D=D, tau=1.0, limiter=TanhLimiter(1.1, 1.4), decay=decay)
            for n in (8, 9, 33, 1025):
                cfg = SolverConfig(Grid1D(0.0, float(n), n), t_end=1.0, bc=bc)
                op = pde_solver._Operator(p, cfg)
                for c in (0.01, 0.3, 10.0, 1e4):
                    b = rng.standard_normal((n + 1, 2))
                    if bc == "periodic":
                        b[-1] = b[0]
                    x = op.solve(1.75, c, b)
                    for col in (0, 1):
                        alone = np.zeros_like(b)
                        alone[:, col] = b[:, col]
                        got = op.solve(1.75, c, alone)[:, col]
                        assert got.tobytes() == x[:, col].tobytes(), (n, c, col)
                    b = np.choose(rng.integers(0, 4, b.shape), (
                        np.zeros(b.shape), rng.random(b.shape) * 1e-310,
                        rng.uniform(0.5, 1.5, b.shape) * 1e300, rng.random(b.shape)))
                    if bc == "periodic":
                        b[-1] = b[0]
                    x = op.solve(1.75, c, b)
                    assert np.isfinite(x).all() and (x >= 0.0).all(), (n, c)


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_explicit_and_implicit_parts_add_up_to_the_rhs(bc):
    # the march takes explicit + the implicit part, a steady state is a zero
    # of rhs: simulate started from one stays put only if the two agree
    p = make_params(decay=ExponentialDecay(0.5, 0.3))
    n = 64
    grid = Grid1D(-2.0, 2.0, n)
    x = grid.nodes()
    cfg = SolverConfig(grid, t_end=1.0, bc=bc,
                       source_u=lambda x, t: 0.1 * np.sin(np.pi * x / 2.0 + t),
                       source_v=lambda x, t: 0.2 * t * np.cos(np.pi * x / 2.0))
    op = pde_solver._Operator(p, cfg)
    op.load(1.0 + 0.3 * np.cos(np.pi * x / 2.0) + 0.1 * x * x,
            0.5 + 0.4 * np.sin(np.pi * x / 2.0) - 0.2 * np.cos(np.pi * x))
    lap = _ref_laplacian(n, grid.dx, bc)
    m = lap.shape[0]
    for t in (0.0, 0.7):
        u, v = op.X[:m, 0], op.X[:m, 1]
        implicit = np.stack([p.D * (lap @ u), (lap @ v - p.decay.kappa(t) * v) / p.tau], axis=1)
        if bc == "periodic":
            implicit = np.append(implicit, implicit[:1], axis=0)
        R = op.rhs(op.X, t)
        split = op.explicit(op.X, t) + implicit
        assert np.max(np.abs(split - R)) <= 1e-12 * np.max(np.abs(R)), t


def test_min_u_covers_the_steps_between_frames():
    # the positivity repro: a box of cells under a steep signal, 8 steps to
    # t = 0.02; only the last step is a frame at output_stride = 1000
    p = ModelParams(D=0.05, tau=0.1, limiter=TanhLimiter(5.0, 0.2), decay=ConstantDecay(0.5))
    grid = Grid1D(-4.0, 4.0, 128)
    x = grid.nodes()
    init = FieldPair(np.where(np.abs(x) < 0.5, 5.0, 0.0), np.exp(-x * x), 0.0)
    sparse = run(init, p, SolverConfig(grid=grid, t_end=0.02, output_stride=1000))
    dense = run(init, p, SolverConfig(grid=grid, t_end=0.02, output_stride=1))
    assert sparse.steps_taken == 8 and sparse.times.size == 2
    assert sparse.min_u[0] == 0.0
    assert sparse.min_u[1] == np.min(dense.min_u[1:])
    assert sparse.min_u[1] == pytest.approx(-0.1350, abs=5e-5)  # at step 4
    assert np.min(sparse.us[-1]) > -0.11  # the last frame alone reads -0.0961


# ---------------------------------------------------------------------------
# oracles: the gather-based operator, the explicit march, the IMEX step
# ---------------------------------------------------------------------------
# _ref_rhs is the operator as it stood before it was prepared once per run:
# fancy-index ghost gathers, np.append face fluxes and a fresh array per
# ufunc and per field.  It is kept verbatim as the oracle that
# _Operator.rhs (and so every steady solve) must equal bit for bit.
# _ref_step and _ref_run are the explicit SSP-RK3 march at its diffusive
# bound that run() used before the IMEX march; they stay as the accuracy
# oracle.  _ref_imex_step takes one ARS(2,2,2) step straight from the
# tableau, with dense solves, which run() must match to round-off.  In all
# of them a periodic state's node n is node 0, and periodic sources are
# evaluated at x_0 in node n's place.


@functools.lru_cache(maxsize=32)
def _ref_ghost_fill(n, dx, bc):
    inner = np.arange(n)
    widths = np.full(n + 1, dx)
    if bc == "periodic":
        nodes = np.concatenate([[n - 1], inner, [0, 1]])
        faces = np.concatenate([[n - 1], inner, [0]])
    else:
        nodes = np.concatenate([[1], inner, [n, n - 1]])
        faces = np.concatenate([[n], inner, [n]])
        widths[0] = widths[-1] = 0.5 * dx
    for cached in (nodes, faces, widths):
        cached.flags.writeable = False
    return nodes, faces, widths


def _ref_stable_dt(params, config):
    dx = config.grid.dx
    diffusive = dx * dx / (2.0 * max(params.D, 1.0 / params.tau))
    lim = params.limiter
    advective = dx * lim.gradient_scale / lim.v_max
    return config.cfl_safety * min(diffusive, advective)


def _ref_rhs(u, v, t, params, config):
    dx = config.grid.dx
    D = params.D
    tau = params.tau
    lim = params.limiter
    kap = params.decay.kappa(t)
    nodes, faces, w = _ref_ghost_fill(u.size - 1, dx, config.bc)
    U = u[nodes]
    V = v[nodes]

    um, u0, up, up2 = U[:-3], U[1:-2], U[2:-1], U[3:]
    Fv = lim.F((V[2:-1] - V[1:-2]) / dx)
    ubar_pos = u0 + 0.25 * (up - um)
    ubar_neg = up - 0.25 * (up2 - u0)
    ubar = np.where(Fv >= 0.0, ubar_pos, ubar_neg)
    J = np.append(ubar * Fv, 0.0)[faces]
    G = np.append(D * (up - u0) / dx, 0.0)[faces]
    du = (G[1:] - G[:-1]) / w - (J[1:] - J[:-1]) / w
    vxx = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / (dx * dx)
    if config.bc == "neumann":
        vxx[0] = 2.0 * (v[1] - v[0]) / (dx * dx)
        vxx[-1] = 2.0 * (v[-2] - v[-1]) / (dx * dx)
    dv = (vxx - kap * V[1:-1] + U[1:-1]) / tau

    x = config.grid.nodes()
    if config.bc == "periodic":
        x[-1] = x[0]
    if config.source_u is not None:
        du = du + config.source_u(x, t)
    if config.source_v is not None:
        dv = dv + config.source_v(x, t) / tau
    return du, dv


def _ref_step(state, params, config, dt):
    if dt <= 0.0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    bound = _ref_stable_dt(params, config)
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolation(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")
    if not (np.isfinite(state.u).all() and np.isfinite(state.v).all()):
        raise InvalidState(f"non-finite state at t={state.t:g}")

    u0, v0, t = state.u, state.v, state.t
    if config.bc == "periodic":
        u0, v0 = np.append(u0[:-1], u0[0]), np.append(v0[:-1], v0[0])
    du, dv = _ref_rhs(u0, v0, t, params, config)
    u1 = u0 + dt * du
    v1 = v0 + dt * dv
    du, dv = _ref_rhs(u1, v1, t + dt, params, config)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * du)
    v2 = 0.75 * v0 + 0.25 * (v1 + dt * dv)
    du, dv = _ref_rhs(u2, v2, t + 0.5 * dt, params, config)
    out = FieldPair(
        (u0 + 2.0 * (u2 + dt * du)) / 3.0,
        (v0 + 2.0 * (v2 + dt * dv)) / 3.0,
        t + dt,
    )
    if not (np.isfinite(out.u).all() and np.isfinite(out.v).all()):
        raise InvalidState(f"solution lost finiteness during the step to t={out.t:g}")
    return out


def _ref_imex_dt(params, config):
    return config.cfl_safety * config.grid.dx / (2.0 * params.limiter.v_max)


def _ref_laplacian(n, dx, bc):
    """The dense second difference on the solved nodes: the n periodic nodes,
    or the n+1 Neumann nodes with mirrored end rows."""
    m = n if bc == "periodic" else n + 1
    lap = np.eye(m, k=1) + np.eye(m, k=-1) - 2.0 * np.eye(m)
    if bc == "periodic":
        lap[0, -1] = lap[-1, 0] = 1.0
    else:
        lap[0, 1] = lap[-1, -2] = 2.0
    return lap / (dx * dx)


def _ref_imex_step(state, params, config, dt):
    """One ARS(2,2,2) step: implicit D u_xx and (v_xx - kappa v)/tau, and
    explicit the rest of _ref_rhs, both at the stage times."""
    if dt <= 0.0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    bound = _ref_imex_dt(params, config)
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolation(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")
    if not (np.isfinite(state.u).all() and np.isfinite(state.v).all()):
        raise InvalidState(f"non-finite state at t={state.t:g}")
    n, bc = config.grid.n, config.bc
    lap = _ref_laplacian(n, config.grid.dx, bc)
    m = lap.shape[0]
    eye = np.eye(m)

    def implicit(t):
        return params.D * lap, (lap - params.decay.kappa(t) * eye) / params.tau

    def nodes(y):
        return np.append(y, y[0]) if bc == "periodic" else y

    def explicit(y, t):
        rhs = _ref_rhs(nodes(y[0]), nodes(y[1]), t, params, config)
        return np.array([r[:m] - A @ w for r, A, w in zip(rhs, implicit(t), y)])

    def solve(t, h, b):
        return np.array([np.linalg.solve(eye - h * A, w) for A, w in zip(implicit(t), b)])

    g = 1.0 - 1.0 / math.sqrt(2.0)
    d = 1.0 - 1.0 / (2.0 * g)
    t = state.t
    y0 = np.array([state.u[:m], state.v[:m]])
    k1 = explicit(y0, t)
    y2 = solve(t + g * dt, g * dt, y0 + g * dt * k1)
    k2 = explicit(y2, t + g * dt)
    l2 = np.array([A @ w for A, w in zip(implicit(t + g * dt), y2)])
    y3 = solve(t + dt, g * dt, y0 + dt * (d * k1 + (1.0 - d) * k2) + (1.0 - g) * dt * l2)
    out = FieldPair(nodes(y3[0]), nodes(y3[1]), t + dt)
    if not (np.isfinite(out.u).all() and np.isfinite(out.v).all()):
        raise InvalidState(f"solution lost finiteness during the step to t={out.t:g}")
    return out


def _ref_run(initial, params, config, step=_ref_step, dt_of=_ref_stable_dt):
    state = FieldPair(initial.u, initial.v, initial.t)
    if state.u.size != config.grid.n + 1:
        raise ValidationError("initial state does not match the grid")
    if config.t_end < state.t:
        raise ValidationError(f"t_end={config.t_end!r} lies before the initial time t={state.t!r}")
    if config.bc == "periodic":
        state.u[-1] = state.u[0]
        state.v[-1] = state.v[0]

    times = [state.t]
    us = [state.u.copy()]
    vs = [state.v.copy()]
    mass = [total_mass(state.u, config.grid, config.bc)]
    min_u = [float(np.min(state.u))]
    low = np.inf
    steps = 0
    t_end = float(config.t_end)
    while state.t < t_end - 1e-14:
        dt = min(dt_of(params, config), t_end - state.t)
        state = step(state, params, config, dt)
        steps += 1
        low = min(low, float(np.min(state.u)))
        if steps % config.output_stride == 0 or state.t >= t_end - 1e-14:
            times.append(state.t)
            us.append(state.u.copy())
            vs.append(state.v.copy())
            mass.append(total_mass(state.u, config.grid, config.bc))
            min_u.append(low)
            low = np.inf
    return (np.asarray(times), np.asarray(us), np.asarray(vs), np.asarray(mass),
            np.asarray(min_u), steps)


def _outcome(march, initial, params, config):
    """The arrays of a run, or the type and text of the error it raised."""
    try:
        out = march(initial, params, config)
    except FlksError as exc:
        return type(exc), str(exc)
    if isinstance(out, Trajectory):
        out = (out.times, out.us, out.vs, out.mass, out.min_u, out.steps_taken)
    return out


def _ref_imex_run(initial, params, config):
    return _ref_run(initial, params, config, _ref_imex_step, _ref_imex_dt)


def assert_matches_the_imex_oracle(initial, params, config, rtol=1e-12):
    """run() against _ref_imex_run: the same errors, steps and frame times,
    and arrays equal to rtol of their largest entry (the operator's
    rearranged stage sums and its cyclic reduction round differently from
    the tableau and the dense solves)."""
    got = _outcome(run, initial, params, config)
    want = _outcome(_ref_imex_run, initial, params, config)
    assert type(got) is type(want)
    if isinstance(want, tuple) and len(want) == 6:
        assert got[0].tobytes() == want[0].tobytes() and got[5] == want[5]
        for name, a, b in zip(("us", "vs", "mass", "min_u"), got[1:5], want[1:5]):
            scale = np.max(np.abs(b), initial=0.0, where=np.isfinite(b))
            assert a.shape == b.shape, name
            assert np.allclose(a, b, rtol=0.0, atol=rtol * scale, equal_nan=True), name
    else:
        assert got == want


_LIMITERS = {
    "tanh": lambda vmax, scale: TanhLimiter(vmax, scale),
    "algebraic_sqrt": lambda vmax, scale: AlgebraicSqrtLimiter(vmax),
    "tanh_log": lambda vmax, scale: TanhLogLimiter(vmax, scale),
}


def _decay(kind, t0, t_end):
    if kind == "constant":
        return ConstantDecay(0.5)
    if kind == "power_law":
        return PowerLawDecay(0.3)
    if kind == "exponential":
        return ExponentialDecay(0.5, 0.7)
    # knots cover every stage time of the run
    return TabulatedDecay((t0 - 1.0, t0 + 0.01, t_end + 1.0), (0.4, 0.9, 0.6))


@settings(max_examples=150, deadline=None)
@given(
    bc=st.sampled_from(["neumann", "periodic"]),
    limiter=st.sampled_from(sorted(_LIMITERS)),
    decay=st.sampled_from(["constant", "power_law", "exponential", "tabulated"]),
    sources=st.booleans(),
    stride=st.sampled_from([1, 10**6]),
    n=st.integers(8, 40),
    steps=st.integers(0, 25),
    D=st.floats(0.05, 2.0),
    tau=st.floats(0.1, 2.0),
    vmax=st.floats(0.5, 5.0),
    scale=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_matches_the_imex_oracle(
    bc, limiter, decay, sources, stride, n, steps, D, tau, vmax, scale, seed
):
    rng = np.random.default_rng(seed)
    t0 = 1.0 if decay == "power_law" else float(rng.uniform(-0.5, 0.5))
    grid = Grid1D(-2.0, 2.0, n)
    lim = _LIMITERS[limiter](vmax, scale)
    probe = ModelParams(D=D, tau=tau, limiter=lim, decay=ConstantDecay(0.5))
    t_end = t0 + 0.93 * steps * stable_dt(probe, SolverConfig(grid, t_end=1.0))
    params = ModelParams(D=D, tau=tau, limiter=lim, decay=_decay(decay, t0, t_end))
    src = {}
    if sources:
        src = {"source_u": lambda x, t: 0.3 * np.sin(2.0 * x + t),
               "source_v": lambda x, t: 0.2 * np.cos(x - 3.0 * t) + 0.1}
    config = SolverConfig(grid, t_end=t_end, bc=bc, output_stride=stride, **src)
    u0 = 1.0 + rng.uniform(-0.9, 2.0, n + 1)
    v0 = rng.uniform(-1.0, 1.0, n + 1)
    assert_matches_the_imex_oracle(FieldPair(u0, v0, t0), params, config)


def test_negative_density_repro_matches_the_imex_oracle():
    p = ModelParams(D=0.05, tau=0.1, limiter=TanhLimiter(5.0, 0.2), decay=ConstantDecay(0.5))
    grid = Grid1D(-4.0, 4.0, 128)
    x = grid.nodes()
    init = FieldPair(np.where(np.abs(x) < 0.5, 5.0, 0.0), np.exp(-x * x), 0.0)
    for stride in (1, 1000):
        assert_matches_the_imex_oracle(
            init, p, SolverConfig(grid=grid, t_end=0.02, output_stride=stride))


def test_rhs_is_bit_identical_and_step_matches_the_oracles():
    p = make_params(decay=ExponentialDecay(0.5, 0.3))
    rng = np.random.default_rng(11)
    for bc in ("neumann", "periodic"):
        cfg = SolverConfig(grid=Grid1D(-1.0, 1.0, 24), t_end=1.0, bc=bc,
                           source_u=lambda x, t: np.sin(x + t))
        # an unaliased periodic end node: both read node 0 in its place
        state = FieldPair(1.0 + rng.random(25), rng.random(25), 0.2)
        for got, want in zip(operator_rhs(state.u, state.v, 0.2, p, cfg),
                             _ref_rhs(state.u, state.v, 0.2, p, cfg)):
            assert np.array_equal(got, want)
        dt = stable_dt(p, cfg)
        got, want = step(state, p, cfg, dt), _ref_imex_step(state, p, cfg, dt)
        for a, b in zip((got.u, got.v), (want.u, want.v)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert got.t == want.t


def test_non_finite_runs_fail_like_the_reference():
    p = ModelParams(D=0.8, tau=0.1, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(0.5))
    grid = Grid1D(0.0, 1.0, 16)
    cfg = SolverConfig(grid=grid, t_end=0.001, output_stride=3)
    bad = FieldPair(np.ones(17), np.ones(17), 0.0)
    bad.u[4] = np.nan
    assert_matches_the_imex_oracle(bad, p, cfg)
    # a run that takes no step returns the state as it is, finite or not
    assert_matches_the_imex_oracle(bad, p, SolverConfig(grid=grid, t_end=0.0))
    # overflow to inf inside the march: u/tau in the explicit part (the
    # implicit stages absorb the 1e306 signal's v_xx that overflowed the
    # explicit march)
    huge = FieldPair(np.full(17, 1e308), np.linspace(0.0, 1e306, 17), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_the_imex_oracle(huge, p, cfg)


def _work_arrays(op):
    return [a for a in vars(op).values() if isinstance(a, np.ndarray)]


def test_results_share_no_memory_with_the_operator(monkeypatch):
    made = []

    class Recorded(pde_solver._Operator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(pde_solver, "_Operator", Recorded)
    p = make_params()
    grid = Grid1D(-1.0, 1.0, 16)
    x = grid.nodes()
    for bc in ("neumann", "periodic"):
        cfg = SolverConfig(grid=grid, t_end=0.01, bc=bc, output_stride=2,
                           source_u=lambda x, t: 0.1 * x)
        a = FieldPair(1.0 + 0.5 * np.cos(x), np.sin(x), 0.0)
        b = FieldPair(2.0 - 0.5 * np.cos(x), np.cos(x), 0.0)
        made.clear()
        # _fd_jacobian keeps several residuals alive at once
        ra = operator_rhs(a.u, a.v, 0.0, p, cfg)
        rb = operator_rhs(b.u, b.v, 0.0, p, cfg)
        sa = step(a, p, cfg, stable_dt(p, cfg))
        traj = run(a, p, cfg)
        kept = [*ra, *rb, sa.u, sa.v, traj.times, traj.us, traj.vs, traj.mass, traj.min_u]
        kept += [traj.us[k] for k in range(traj.times.size)]
        assert len(made) == 4
        for arr in kept:
            assert not any(np.shares_memory(arr, w) for op in made for w in _work_arrays(op))
        before = [arr.copy() for arr in kept]
        operator_rhs(b.u, b.v, 0.5, p, cfg)
        step(b, p, cfg, stable_dt(p, cfg))
        run(b, p, cfg)
        for arr, old in zip(kept, before):
            assert arr.tobytes() == old.tobytes()
        assert all(np.array_equal(x, y) for x, y in zip(ra, operator_rhs(a.u, a.v, 0.0, p, cfg)))


def test_step_refuses_a_state_of_another_grid():
    # 33 nodes on a 16-cell grid used to march with that grid's dx, and with
    # a source term to end in a raw numpy shape error
    p = make_params()
    grid = Grid1D(0.0, 1.0, 16)
    state = FieldPair(np.ones(33), np.ones(33), 0.0)
    for src in (None, lambda x, t: 0.0 * x):
        cfg = SolverConfig(grid=grid, t_end=1.0, source_u=src)
        with pytest.raises(ValidationError, match="does not match the grid"):
            step(state, p, cfg, stable_dt(p, cfg))
        with pytest.raises(ValidationError, match="does not match the grid"):
            operator_rhs(state.u, state.v, 0.0, p, cfg)


def test_run_refuses_a_horizon_outside_the_decay_law_before_the_march(monkeypatch):
    # a table on [0, 3] was marched to t = 3 before t_end = 5 raised
    # DomainError; the horizon is refused before the operator is prepared
    p = make_params(TabulatedDecay((0.0, 1.5, 3.0), (0.5, 0.7, 0.6)))
    cfg = SolverConfig(grid=Grid1D(-2.0, 2.0, 32), t_end=5.0)
    monkeypatch.setattr(pde_solver, "_Operator", None)
    with pytest.raises(ValidationError, match=r"t=5.0 outside tabulated range \[0.0, 3.0\]"):
        run(FieldPair(np.ones(33), np.zeros(33), 0.0), p, cfg)


def test_run_records_the_step_and_its_active_bound():
    # the one bound is the flux speed's, dx/(2 v_max); at the fig-1
    # constants, n = 256 on [-4, 4], it is ~291x the explicit march's
    # diffusive bound dx^2/(2/tau)
    p = make_params()
    grid = Grid1D(-4.0, 4.0, 256)
    cfg = SolverConfig(grid=grid, t_end=0.0)
    traj = run(FieldPair(np.ones(257), np.zeros(257), 0.0), p, cfg)
    dx = grid.dx
    assert traj.metadata["dt"] == stable_dt(p, cfg) == cfg.cfl_safety * dx / 2.2
    assert 290.0 < (dx / 2.2) / (dx * dx / 20.0) < 292.0
    assert "dt_bound" not in traj.metadata
    steep = ModelParams(D=0.8, tau=0.1, limiter=TanhLimiter(1e4, 1e-3), decay=ConstantDecay(0.5))
    traj = run(FieldPair(np.ones(257), np.zeros(257), 0.0), steep, cfg)
    assert traj.metadata["dt"] == stable_dt(steep, cfg) == cfg.cfl_safety * dx / 2e4


def test_periodic_node_n_stays_node_0_under_a_source():
    # the stencil reads node 0 in node n's place; a source evaluated at x_n
    # used to march node n 0.002 away from node 0 by t = 0.01
    p = make_params()
    grid = Grid1D(-1.0, 1.0, 16)
    cfg = SolverConfig(grid=grid, t_end=0.3, bc="periodic", output_stride=1,
                       source_u=lambda x, t: 0.1 * x)
    x = grid.nodes()
    init = FieldPair(1.0 + 0.5 * np.cos(np.pi * x), np.sin(np.pi * x), 0.0)
    traj = run(init, p, cfg)
    assert traj.steps_taken == 14
    for frames in (traj.us, traj.vs):
        assert frames[:, -1].tobytes() == frames[:, 0].tobytes()
    assert traj.min_u.tobytes() == np.min(traj.us[:, :-1], axis=1).tobytes()
    # an unaliased state: step reads and returns node 0 in node n's place
    state = FieldPair(init.u + 0.3 * (x == x[-1]), init.v, 0.0)
    out = step(state, p, cfg, stable_dt(p, cfg))
    assert out.u[-1] == out.u[0] and out.v[-1] == out.v[0]


def test_imex_time_error_is_below_the_explicit_space_error():
    # the fig-1 Gaussian to t = 0.2 at n = 256: 36 IMEX steps against the
    # explicit march's 10,240.  Their gap (the IMEX time error, 5.1e-5 in u
    # and 4.0e-5 in v) is at most what the explicit march moves when its grid
    # is halved (6.0e-5 in u, 2.7e-5 in v), in the sup norm of the state
    p = make_params()
    explicit = {}
    for n in (256, 512):
        grid = Grid1D(-4.0, 4.0, n)
        x = grid.nodes()
        init = FieldPair(1.0 + np.exp(-((x - 0.2) ** 2) / 0.72), np.zeros_like(x), 0.0)
        cfg = SolverConfig(grid, t_end=0.2, output_stride=10**9)
        explicit[n] = _ref_run(init, p, cfg)
        if n == 256:
            traj = run(init, p, cfg)
    assert traj.steps_taken == 36 and explicit[256][5] == 10240
    gap = _sup_gap(traj, (explicit[256][1][-1], explicit[256][2][-1]))
    space = max(float(np.max(np.abs(explicit[512][k][-1][::2] - explicit[256][k][-1])))
                for k in (1, 2))
    assert gap <= space, (gap, space)


def test_steady_residual_and_solve_are_bit_identical_to_the_reference(monkeypatch):
    # the closure_quadrature bench's n = 256 bump guess
    from flks import reduced_systems
    from flks.reduced_systems import ReducedProblem, solve_steady_state

    n = 256
    p = make_params()
    x = np.linspace(-4.0, 4.0, n + 1)
    prob = ReducedProblem("steady_state", p, constants={"kappa0": 0.5}, domain=(-4.0, 4.0),
                          data={"bc": "neumann", "u_init": 1.0 + 0.3 * np.exp(-x * x / 0.5)})
    cfg = SolverConfig(Grid1D(-4.0, 4.0, n), t_end=0.0)
    w = pde_solver.cell_widths(n, cfg.grid.dx, "neumann")
    mass = float(np.dot(w, prob.data["u_init"]))

    def ref_residual(z):
        # the steady residual as it was built on a fresh right-hand side, in
        # the Newton vector's node order u_0, v_0, u_1, ...
        u, v = z[0::2].copy(), z[1::2].copy()
        du, dv = _ref_rhs(u, v, 0.0, p, cfg)
        du[0] = float(np.dot(w, u)) - mass
        return np.stack((du, p.tau * dv), axis=1).ravel()

    made, calls = [], []

    class Recorded(pde_solver._Operator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    fd_jacobian = reduced_systems._fd_jacobian

    def recorded_jacobian(residual, z, R0, mass_row):
        calls.append((residual, z.copy(), R0))
        return fd_jacobian(residual, z, R0, mass_row)

    monkeypatch.setattr(reduced_systems, "_Operator", Recorded)
    monkeypatch.setattr(reduced_systems, "_fd_jacobian", recorded_jacobian)
    res = solve_steady_state(prob, n=n)
    (op,) = made
    assert len(calls) == res.iterations >= 3
    kept = [res.U, res.V]
    for residual, z, R0 in calls:
        assert R0.tobytes() == ref_residual(z).tobytes()
        kept.append(residual(z))
        assert kept[-1].tobytes() == R0.tobytes()
    for arr in kept:
        assert not any(np.shares_memory(arr, a) for a in _work_arrays(op))

    class Reference:
        """The operator interface on the gather-based oracle."""

        def __init__(self, params, config):
            self.params, self.config = params, config

        def rhs(self, X, t):
            if X.ndim == 3:  # a batch: each member alone
                return np.stack([self.rhs(X[:, b], t) for b in range(X.shape[1])], axis=1)
            return np.stack(_ref_rhs(X[:, 0], X[:, 1], t, self.params, self.config), axis=1)

    monkeypatch.setattr(reduced_systems, "_Operator", Reference)
    ref = solve_steady_state(prob, n=n)
    for name in ("x", "U", "V"):
        assert getattr(res, name).tobytes() == getattr(ref, name).tobytes(), name
    assert (res.defect, res.defect_history, res.iterations) == \
        (ref.defect, ref.defect_history, ref.iterations)
