import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from flks.core import (
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
)
from flks.errors import BlowupDetected, NoConvergence, StepSizeError, ValidationError
from flks.exact_solutions import (
    case2_travelling_tanh,
    case3_homogeneous,
    case4_cellfree_front,
    travelling_drift,
)
from flks.limiters import TanhLimiter, TanhLogLimiter
from flks import cli, reduced_systems
from flks.pde_solver import SolverConfig, _Operator, run
from flks.reduced_systems import (
    ReducedProblem,
    _build_similarity_operator,
    _fd_jacobian,
    _rk4_march,
    integrate_travelling_wave,
    solve_self_similar,
    solve_steady_state,
)


def make_params(decay=None, limiter=None, tau=0.1, D=0.8):
    return ModelParams(
        D=D, tau=tau, limiter=limiter or TanhLimiter(1.1, 1.4), decay=decay or ConstantDecay(0.5)
    )


# ---------------------------------------------------------------------------
# homogeneous: reduce samples case1_homogeneous
# ---------------------------------------------------------------------------

def _reduce_homogeneous(params, t_end, h, U0=1.0, V0=0.0):
    """The (t, U, V) table `reduce homogeneous` writes."""
    return cli._reduce_homogeneous(None, params, {"t_end": t_end, "h": h, "U0": U0, "V0": V0})()


def _rk4_homogeneous(params, span, h, U0=1.0, V0=0.0):
    """RK4 of U' = 0, tau V' = -kappa(t) V + U: the march `reduce
    homogeneous` took before it sampled the exact family, kept as its
    reference.  Returns the nodes and the (U, V) states."""
    def f(t, z):
        return np.array([0.0, (-params.decay.kappa(t) * z[1] + z[0]) / params.tau])

    return _rk4_march(f, [U0, V0], span, h)


def test_homogeneous_constant_decay_closed_form():
    t, U, V = _reduce_homogeneous(make_params(), t_end=2.0, h=1e-3).T
    expected = 2.0 * (1.0 - math.exp(-10.0))
    assert t[-1] == 2.0
    assert V[-1] == pytest.approx(expected, rel=1e-9)
    # mass invariance: U constant to the last bit
    assert np.max(np.abs(U - 1.0)) == 0.0


def test_homogeneous_power_law_matches_exact():
    # the power law starts at t = 1
    t, _, V = _reduce_homogeneous(make_params(decay=PowerLawDecay(0.2)), t_end=9.0, h=5e-4).T
    assert t[0] == 1.0 and t[-1] == 10.0
    exact = case3_homogeneous(0.2, 0.1, C=1.0, V0=0.0, t0=1.0)
    for k in range(0, t.size, 1500):
        assert V[k] == pytest.approx(exact.eval_v(0.0, float(t[k])), rel=1e-8)


def test_homogeneous_negative_lambda_grows_monotonically():
    # weakening degradation: long-lived signal keeps accumulating
    p = make_params(decay=ExponentialDecay(0.5, -0.3))
    t, _, V = _reduce_homogeneous(p, t_end=12.0, h=1e-3).T
    tail = V[t > 2.0]
    assert np.all(np.diff(tail) > 0.0)
    assert V[-1] > 2.0  # beyond the constant-decay plateau C/kappa0


def test_homogeneous_rk4_order():
    # the reference march, and with it _rk4_march, is fourth order
    p = make_params()
    exact = 2.0 * (1.0 - math.exp(-5.0))
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        _, Z = _rk4_homogeneous(p, (0.0, 1.0), h)
        errs.append(abs(Z[-1, 1] - exact))
    order1 = math.log(errs[0] / errs[1]) / math.log(2.0)
    order2 = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert 3.7 <= order1 <= 4.3
    assert 3.7 <= order2 <= 4.3


def test_homogeneous_step_guard():
    with pytest.raises(StepSizeError):
        _rk4_homogeneous(make_params(), (0.0, 1.0), 0.0)


def test_step_count_refuses_spans_it_cannot_march():
    # the count rounds to the nearest whole step, at least one; a span that
    # is empty, backwards or not finite, or one of more than MAX_STEPS steps,
    # is refused by the count alone, so nothing is allocated for it
    from flks.reduced_systems import MAX_STEPS, step_count

    assert step_count((0.0, 1.0), 0.3) == 3
    assert step_count((2.0, 2.1), 1.0) == 1
    assert step_count((0.0, MAX_STEPS * 0.5), 0.5) == MAX_STEPS
    for span in ((0.0, 0.0), (0.0, -1.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(ValidationError, match="finite and increasing"):
            step_count(span, 1e-3)
    for span, h in (((0.0, MAX_STEPS * 0.5), 0.4999), ((0.0, 1e300), 1e-3), ((0.0, 1.0), 5e-324)):
        with pytest.raises(ValidationError, match=f"more than {MAX_STEPS}"):
            step_count(span, h)
    with pytest.raises(StepSizeError):
        step_count((0.0, 1.0), math.nan)


HOMOGENEOUS_DECAYS = {
    "constant": "kind = constant\nkappa0 = 0.5",
    "power_law": "kind = power_law\nmu = 0.2",
    "exponential": "kind = exponential\nkappa0 = 0.5\nlambda = -0.3",
    "tabulated": "kind = tabulated\ntimes = 0.0,1.0,3.0\nvalues = 0.5,0.7,0.6",
}


@pytest.mark.parametrize("decay", sorted(HOMOGENEOUS_DECAYS))
def test_reduce_homogeneous_is_the_exact_family(tmp_path, decay):
    # the uniform reduction is stated once: `reduce homogeneous` writes the
    # samples `exact case1_homogeneous` writes at the same times, bit for
    # bit, and they stay within 1e-10 of the RK4 march it used to take
    cfg = (f"[model]\nD = 0.8\ntau = 0.1\n[limiter]\nkind = tanh\nv_max = 1.1\ns0 = 1.4\n"
           f"[decay]\n{HOMOGENEOUS_DECAYS[decay]}\n[grid]\nx_lo = -1.0\nx_hi = 1.0\nn = 8\n"
           f"[reduce]\nkind = homogeneous\nt_end = 2.0\nh = 1e-3\nU0 = 1.5\nV0 = 0.25\n"
           f"[exact]\nfamily = case1_homogeneous\nC = 1.5\nV0 = 0.25\n")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg)
    assert cli.main(["reduce", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    meta, reduced = cli.import_csv(str(tmp_path / "r" / "reduce_homogeneous.csv"))
    assert meta["kind"] == "profiles" and list(reduced) == ["t", "U", "V"]
    t = reduced["t"]
    assert t.size == 2001

    samples = "exact.t_samples=" + ",".join(map(repr, t.tolist()))
    assert cli.main(["exact", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
                     "--override", samples]) == 0
    _, exact = cli.import_csv(str(tmp_path / "e" / "case1_homogeneous.csv"))
    nodes = 9
    np.testing.assert_array_equal(exact["t"][::nodes], t)
    for name, column in (("u", "U"), ("v", "V")):
        frames = exact[name].reshape(t.size, nodes)
        assert (frames == frames[:, :1]).all()
        np.testing.assert_array_equal(frames[:, 0], reduced[column])

    ts, Z = _rk4_homogeneous(cli.build_model(cli.parse_config(cfg)), (t[0], t[0] + 2.0), 1e-3,
                             U0=1.5, V0=0.25)
    np.testing.assert_array_equal(ts, t)
    np.testing.assert_array_equal(Z[:, 0], reduced["U"])
    assert np.max(np.abs(Z[:, 1] - reduced["V"])) < 1e-10


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_steady_state_uniform_branch_is_exact():
    p = make_params()
    c = 1.0
    prob = ReducedProblem(
        "steady_state",
        p,
        constants={"kappa0": 0.5},
        domain=(0.0, 4.0),
        data={"u_init": np.full(65, c), "v_init": np.full(65, 2.0), "bc": "neumann"},
    )
    res = solve_steady_state(prob, n=64)
    assert res.defect < 1e-12
    assert np.max(np.abs(res.U - c)) < 1e-12
    assert np.max(np.abs(res.V - 2.0)) < 1e-12  # V = c / kappa0


def test_steady_state_recovers_uniform_from_noise():
    p = make_params()
    rng = np.random.default_rng(11)
    n = 64
    u0 = 1.0 + 1e-2 * rng.standard_normal(n + 1)
    v0 = 2.0 + 1e-2 * rng.standard_normal(n + 1)
    prob = ReducedProblem(
        "steady_state",
        p,
        constants={"kappa0": 0.5},
        domain=(0.0, 4.0),
        data={"u_init": u0, "v_init": v0, "bc": "neumann"},
    )
    res = solve_steady_state(prob, n=n)
    assert res.defect < 1e-10
    # mass pinned to the perturbed start; profile returns to uniform
    dx = res.x[1] - res.x[0]
    w = np.full(n + 1, dx)
    w[0] = w[-1] = dx / 2
    c = float(np.dot(w, u0)) / (res.x[-1] - res.x[0])
    assert np.max(np.abs(res.U - c)) < 1e-7
    assert np.max(np.abs(res.V - c / 0.5)) < 1e-7


def test_steady_state_carries_no_net_flux():
    # a zero-flux steady state has D u_x = u F(v_x) on every face; a boundary
    # row that balances a full cell against a half cell leaves a net flux
    # (0.043 at this n) through a spurious boundary aggregate
    p = make_params()
    n = 24
    x = np.linspace(-4.0, 4.0, n + 1)
    prob = ReducedProblem(
        "steady_state",
        p,
        constants={"kappa0": 0.5},
        domain=(-4.0, 4.0),
        data={"u_init": 1.0 + 0.3 * np.exp(-x * x / 0.5), "bc": "neumann"},
    )
    res = solve_steady_state(prob, n=n)
    dx = x[1] - x[0]
    J = 0.5 * (res.U[1:] + res.U[:-1]) * p.limiter.F(np.diff(res.V) / dx)
    assert np.max(np.abs(p.D * np.diff(res.U) / dx - J)) < 1e-9


def test_steady_state_defect_history_monotone_tail():
    p = make_params()
    rng = np.random.default_rng(5)
    n = 48
    prob = ReducedProblem(
        "steady_state",
        p,
        constants={"kappa0": 0.5},
        domain=(0.0, 3.0),
        data={
            "u_init": 1.0 + 0.05 * rng.standard_normal(n + 1),
            "v_init": 2.0 + 0.05 * rng.standard_normal(n + 1),
            "bc": "neumann",
        },
    )
    res = solve_steady_state(prob, n=n)
    hist = res.defect_history
    assert all(b <= a * 1.01 for a, b in zip(hist[1:], hist[2:]))


def _dense_fd_jacobian(residual, z, R0, eps=1e-7):
    # oracle: one residual call per column, every entry differenced
    scale = eps * max(1.0, float(np.max(np.abs(z))))
    J = np.empty((z.size, z.size))
    for c in range(z.size):
        zp = z.copy()
        zp[c] += scale
        J[:, c] = (residual(zp) - R0) / scale
    return J


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("limiter", [TanhLimiter(1.1, 1.4), TanhLogLimiter(1.1, 0.51)],
                         ids=["tanh", "tanh_log"])
@pytest.mark.parametrize("bc", ["neumann"])  # the one kind steady states accept
def test_coloured_jacobian_matches_dense_oracle(bc, limiter, n):
    rng = np.random.default_rng(n)
    u = 1.0 + 0.3 * rng.standard_normal(n + 1)
    v = 2.0 + 0.3 * rng.standard_normal(n + 1)
    params = make_params(limiter=limiter)
    config = SolverConfig(Grid1D(0.0, 4.0, n), t_end=0.0, bc=bc)
    dx = config.grid.dx
    w = np.full(n + 1, dx)
    w[0] = w[-1] = 0.5 * dx

    op = _Operator(params, config)

    def residual(z):
        R = op.rhs(z.reshape(n + 1, 2), 0.0)
        R[0, 0] = float(np.dot(w, z[0::2])) - float(np.dot(w, u))
        R[:, 1] *= params.tau
        return R.ravel()

    z = np.stack((u, v), axis=1).ravel()  # node by node: u_0, v_0, u_1, ...
    R0 = residual(z)
    rows, border = _fd_jacobian(residual, z, R0, w)
    ref = _dense_fd_jacobian(residual, z, R0)
    assert rows.shape == (z.size, 9) and border.shape == (z.size,)
    J = np.zeros((z.size, z.size + 8))
    for k in range(9):
        J[np.arange(z.size), np.arange(z.size) + k] = rows[:, k]
    J = J[:, 4:-4]
    # every band entry off the mass row is the single-column difference
    # itself, bit for bit: no row reads two of a colour's perturbed columns
    band = np.abs(np.subtract.outer(np.arange(z.size), np.arange(z.size))) <= 4
    band[0] = False
    assert J[band].tobytes() == ref[band].tobytes()
    J[0] += border
    assert np.max(np.abs(J - ref)) <= 1e-6 * np.max(np.abs(ref))


class _CountingTanh(TanhLimiter):
    """TanhLimiter counting its F calls: one per steady residual evaluation."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", 0)

    def F(self, s):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().F(s)


def test_newton_step_residual_calls_do_not_grow_with_n(monkeypatch):
    # the Jacobian takes one residual call per colour of its nine-wide band
    counts, jacobian_calls = [], []

    def counted_jacobian(residual, z, R0, mass_row):
        before = lim.calls
        out = _fd_jacobian(residual, z, R0, mass_row)
        jacobian_calls.append(lim.calls - before)
        return out

    monkeypatch.setattr(reduced_systems, "_fd_jacobian", counted_jacobian)
    for n in (64, 256):
        lim = _CountingTanh(1.1, 1.4)
        x = np.linspace(0.0, 4.0, n + 1)
        u0 = 1.0 + 1e-3 * np.cos(np.pi * x / 4.0)
        prob = ReducedProblem(
            "steady_state",
            make_params(limiter=lim),
            constants={"kappa0": 0.5},
            domain=(0.0, 4.0),
            data={"u_init": u0, "v_init": u0 / 0.5, "bc": "neumann"},
        )
        try:
            solve_steady_state(prob, n=n, max_iter=1)
        except NoConvergence:
            pass
        counts.append(lim.calls)
    assert jacobian_calls == [9, 9]
    assert counts[0] == counts[1]
    assert counts[0] < 16


def test_steady_iterations_count_newton_steps_on_every_exit():
    # a converged exit at the cap counted one residual evaluation per step
    # plus one (4), and a capped failure after one step reported 2
    n = 64
    x = np.linspace(-4.0, 4.0, n + 1)
    prob = ReducedProblem(
        "steady_state", make_params(), constants={"kappa0": 0.5}, domain=(-4.0, 4.0),
        data={"bc": "neumann", "u_init": 1.0 + 0.05 * np.exp(-x * x)},
    )
    assert [solve_steady_state(prob, n=n, max_iter=m).iterations for m in (3, 4, 60)] == [3, 3, 3]
    with pytest.raises(NoConvergence) as exc:
        solve_steady_state(prob, n=n, max_iter=1)
    assert exc.value.iterations == 1
    assert "after 1 iterations" in str(exc.value)


def test_steady_solve_prepares_one_operator(monkeypatch):
    # the closure_quadrature bench's n = 256 bump guess; preparing one
    # operator per residual call made 77
    made = []

    class Counted(_Operator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(reduced_systems, "_Operator", Counted)
    n = 256
    x = np.linspace(-4.0, 4.0, n + 1)
    prob = ReducedProblem(
        "steady_state", make_params(), constants={"kappa0": 0.5}, domain=(-4.0, 4.0),
        data={"bc": "neumann", "u_init": 1.0 + 0.3 * np.exp(-x * x / 0.5)},
    )
    res = solve_steady_state(prob, n=n)
    assert res.defect < 1e-10
    assert len(made) == 1


def test_states_are_node_ordered_and_the_residual_reads_the_newton_vector(monkeypatch):
    # one (u, v) order: the operator's state is (n+1, 2), node by node, and
    # the steady residual hands rhs a view of the Newton vector, not a copy
    n = 16
    x = np.linspace(0.0, 4.0, n + 1)
    u, v = 1.0 + 0.3 * np.exp(-(x - 2.0) ** 2), 2.0 + 0.1 * x
    op = _Operator(make_params(), SolverConfig(Grid1D(0.0, 4.0, n), t_end=0.0))
    op.load(u, v)
    assert op.X.shape == (n + 1, 2) and op.X.flags.c_contiguous
    assert op.X.ravel().tobytes() == np.stack((u, v), axis=1).ravel().tobytes()

    seen, jacobians = [], []

    class Recorded(_Operator):
        def rhs(self, X, t):
            seen.append(X)
            return super().rhs(X, t)

    def recorded_jacobian(residual, z, R0, mass_row):
        jacobians.append((residual, z))
        return _fd_jacobian(residual, z, R0, mass_row)

    monkeypatch.setattr(reduced_systems, "_Operator", Recorded)
    monkeypatch.setattr(reduced_systems, "_fd_jacobian", recorded_jacobian)
    prob = ReducedProblem("steady_state", make_params(), constants={"kappa0": 0.5},
                          domain=(0.0, 4.0), data={"bc": "neumann", "u_init": u})
    assert solve_steady_state(prob, n=n).defect < 1e-10
    residual, z = jacobians[0]
    seen.clear()
    R = residual(z)
    (X,) = seen
    assert X.shape == (n + 1, 2) and np.shares_memory(X, z)
    assert R.shape == z.shape



def wall_aggregate(n):
    # a non-uniform zero-flux steady state: the cells gather at the wall x = 0
    x = np.linspace(0.0, 4.0, n + 1)
    prob = ReducedProblem(
        "steady_state",
        make_params(D=0.3),
        constants={"kappa0": 0.5},
        domain=(0.0, 4.0),
        data={"u_init": 1.0 + 2.0 * np.exp(-x * x / 0.5), "bc": "neumann"},
    )
    return solve_steady_state(prob, n=n)


def test_steady_state_self_convergence_second_order():
    # successive max differences at the shared nodes fall ~4x per dx halving
    res = [wall_aggregate(n) for n in (64, 128, 256, 512)]
    assert np.max(res[0].U) - np.min(res[0].U) > 2.0
    diffs = [
        max(np.max(np.abs(fine.U[::2] - coarse.U)), np.max(np.abs(fine.V[::2] - coarse.V)))
        for coarse, fine in zip(res, res[1:])
    ]
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.5)
    assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.5)


def test_steady_state_fine_grids_stop_at_the_roundoff_floor():
    # the rows grow like 1/dx^2, so the defect can stall above tol = 1e-10
    # at n = 1024 and 2048; the solve accepts that floor (about 2e-9 at
    # n = 2048) instead of raising NoConvergence, and the profiles keep
    # refining at second order
    res = [wall_aggregate(n) for n in (512, 1024, 2048)]
    assert all(r.defect < 1e-8 for r in res)
    diffs = [
        max(np.max(np.abs(fine.U[::2] - coarse.U)), np.max(np.abs(fine.V[::2] - coarse.V)))
        for coarse, fine in zip(res, res[1:])
    ]
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.1)


def test_steady_state_on_2048_cells_needs_no_dense_jacobian():
    # the Jacobian of the 4,098 unknowns is band rows and a border: dense,
    # it alone would take 134 MB.  The whole solve's traced peak is 4.3 MB
    # (16.3 MB with the sparse LU this solve replaced)
    tracemalloc.start()
    try:
        res = wall_aggregate(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 12 and res.defect < 1e-8
    assert peak < 30e6
    # nodes of the state the sparse LU reached
    for i, u, v in ((0, 3.326423130259365, 3.1211926743340093),
                    (512, 0.8865336643842345, 2.5822787549829203),
                    (1024, 0.36138583954370074, 2.226016737666528),
                    (2048, 3.326423130272884, 3.1211926744527556)):
        assert res.U[i] == pytest.approx(u, rel=1e-10, abs=0)
        assert res.V[i] == pytest.approx(v, rel=1e-10, abs=0)


def test_steady_state_is_a_fixed_point_of_the_pde_solver():
    # the steady state zeroes the PDE solver's own operator, so simulate from
    # it stays put; a separate discretisation drifted by 1.5e-4 of the spread
    res = wall_aggregate(128)
    config = SolverConfig(Grid1D(0.0, 4.0, 128), t_end=0.5, output_stride=10**9)
    traj = run(FieldPair(res.U, res.V), make_params(D=0.3), config)
    spread = np.max(res.U) - np.min(res.U)
    assert np.max(np.abs(traj.us[-1] - res.U)) < 1e-12 * spread
    assert np.max(np.abs(traj.vs[-1] - res.V)) < 1e-12 * spread


def test_steady_state_rejects_other_boundaries():
    prob = ReducedProblem(
        "steady_state", make_params(), constants={"kappa0": 0.5}, domain=(0.0, 4.0),
        data={"bc": "periodic"},
    )
    with pytest.raises(ValidationError):
        solve_steady_state(prob, n=32)


@pytest.mark.parametrize("field", ["u_init", "v_init"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_steady_state_refuses_a_non_finite_guess(field, bad):
    # a NaN defect compares False with Newton's acceptance bound, so the
    # guess is refused before the first step
    data = {"u_init": np.ones(33), "v_init": np.full(33, 2.0), "bc": "neumann"}
    data[field][5] = bad
    prob = ReducedProblem(
        "steady_state", make_params(), constants={"kappa0": 0.5}, domain=(0.0, 4.0), data=data
    )
    with pytest.raises(ValidationError, match="finite"):
        solve_steady_state(prob, n=32)


@pytest.mark.parametrize("field", ["u_init", "v_init"])
def test_steady_state_refuses_a_guess_off_the_grid(field):
    # a guess of 10 entries on 17 nodes failed inside numpy (the mass dot,
    # or stacking u with v) instead of naming both lengths
    data = {"u_init": np.ones(17), "v_init": np.full(17, 2.0), "bc": "neumann"}
    data[field] = data[field][:10]
    prob = ReducedProblem(
        "steady_state", make_params(), constants={"kappa0": 0.5}, domain=(0.0, 4.0), data=data
    )
    with pytest.raises(ValidationError, match=r"17 entries, got 1[07] and 1[07]"):
        solve_steady_state(prob, n=16)


def test_steady_state_needs_kappa0_under_varying_decay():
    law = PowerLawDecay(0.5)
    prob = ReducedProblem(
        "steady_state", make_params(decay=law), domain=(0.0, 4.0), data={"bc": "neumann"}
    )
    with pytest.raises(ValidationError):
        solve_steady_state(prob, n=32)
    given = dataclasses.replace(prob, constants={"kappa0": 0.5})
    assert np.max(np.abs(solve_steady_state(given, n=32).V - 2.0)) < 1e-12

# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def test_travelling_requires_alpha():
    p = make_params()
    with pytest.raises(ValidationError):
        ReducedProblem("travelling_wave", p)


@pytest.mark.parametrize("law", [PowerLawDecay(0.5), ExponentialDecay(0.5, 0.1)],
                         ids=["power_law", "exponential"])
def test_travelling_needs_kappa0_under_varying_decay(law):
    prob = ReducedProblem(
        "travelling_wave", make_params(decay=law), constants={"alpha": 1.1}, domain=(0.0, 1.0),
        data={"V0": 1.0},
    )
    with pytest.raises(ValidationError):
        integrate_travelling_wave(prob)
    given = dataclasses.replace(prob, constants={"alpha": 1.1, "kappa0": 0.5})
    ref = dataclasses.replace(given, params=make_params())
    assert np.array_equal(integrate_travelling_wave(given).V, integrate_travelling_wave(ref).V)


def test_travelling_zero_data_stays_zero():
    p = make_params()
    prob = ReducedProblem(
        "travelling_wave", p, constants={"alpha": 1.1, "kappa0": 0.5}, domain=(0.0, 5.0)
    )
    res = integrate_travelling_wave(prob, h=1e-3)
    assert np.max(np.abs(res.U)) == 0.0
    assert np.max(np.abs(res.V)) == 0.0


def test_travelling_cellfree_matches_exponential_fit():
    # U = 0 decouples V: alpha^2 V'' - tau V' - kappa0 V = 0
    p = make_params()
    alpha, kappa0 = 1.1, 0.5
    from flks.exact_solutions import travelling_roots

    rp, rm = travelling_roots(alpha, p.tau, kappa0)
    A, B = 0.7, 0.4
    prob = ReducedProblem(
        "travelling_wave",
        p,
        constants={"alpha": alpha, "kappa0": kappa0},
        domain=(0.0, 4.0),
        data={"U0": 0.0, "dU0": 0.0, "V0": A + B, "s0": A * rp + B * rm},
    )
    res = integrate_travelling_wave(prob, h=5e-4)
    expected = A * np.exp(rp * res.y) + B * np.exp(rm * res.y)
    assert np.max(np.abs(res.V - expected)) < 1e-7


def test_travelling_cellfree_matches_front_solution():
    # the constant-decay front against the marched reduction
    p = make_params(tau=0.1)
    alpha, kappa0 = 1.1, 0.5
    front = case4_cellfree_front(alpha, p.tau, ConstantDecay(kappa0), A=1.0, B=0.0)
    r1 = front.params["r1"]
    prob = ReducedProblem(
        "travelling_wave",
        p,
        constants={"alpha": alpha, "kappa0": kappa0},
        domain=(0.0, 4.0),
        data={"U0": 0.0, "dU0": 0.0, "V0": 1.0, "s0": r1},
    )
    res = integrate_travelling_wave(prob, h=5e-4)
    v_exact = np.asarray([front.eval_v(0.0, float(y)) for y in res.y])  # x=0: y=t
    assert np.max(np.abs(res.V - v_exact)) < 1e-7


def test_travelling_roundtrip_with_quadrature_profiles(fig_params):
    # initial data from the self-consistent quadrature solution at y = -5;
    # marching 10 units forward must reproduce the profiles
    alpha, kappa0 = 1.1, 0.5
    sol = case2_travelling_tanh(fig_params, alpha, U_ref=1.0, y0=0.0)
    h = sol.y[1] - sol.y[0]
    i_start = int(np.argmin(np.abs(sol.y - (-5.0))))
    w = travelling_drift(fig_params.limiter, fig_params.D, alpha, sol.s)
    dU = sol.U * w  # exact first-integral derivative, C1 = 0
    prob = ReducedProblem(
        "travelling_wave",
        fig_params,
        constants={"alpha": alpha, "kappa0": kappa0},
        domain=(float(sol.y[i_start]), float(sol.y[i_start]) + 10.0),
        data={
            "U0": float(sol.U[i_start]),
            "dU0": float(dU[i_start]),
            "V0": float(sol.V[i_start]),
            "s0": float(sol.s[i_start]),
        },
    )
    res = integrate_travelling_wave(prob, h=2.5e-4)
    U_ref = np.interp(res.y, sol.y, sol.U)
    V_ref = np.interp(res.y, sol.y, sol.V)
    assert np.max(np.abs(res.U - U_ref)) < 1e-5
    assert np.max(np.abs(res.V - V_ref)) < 1e-5


def test_travelling_blowup_detection():
    p = make_params()
    prob = ReducedProblem(
        "travelling_wave",
        p,
        constants={"alpha": 1.1, "kappa0": 0.5},
        domain=(0.0, 80.0),
        data={"U0": 1.0, "dU0": 1.0, "V0": 0.0, "s0": 0.0},
    )
    with pytest.raises(BlowupDetected):
        integrate_travelling_wave(prob, h=1e-2)


def test_travelling_nan_state_is_blowup():
    # NaN compares False with the 1e12 bound, so the march checks finiteness
    p = make_params()
    prob = ReducedProblem(
        "travelling_wave",
        p,
        constants={"alpha": 1.1, "kappa0": 0.5},
        domain=(0.0, 1.0),
        data={"U0": 1.0, "dU0": 0.0, "V0": float("nan"), "s0": 0.0},
    )
    with pytest.raises(BlowupDetected, match="not finite"):
        integrate_travelling_wave(prob, h=1e-2)


# ---------------------------------------------------------------------------
# self-similar profiles
# ---------------------------------------------------------------------------

def ss_problem(v_max, a=0.51, mu=0.5, tau=0.1, D=0.8, U0=1.0, C1=0.0):
    p = ModelParams(
        D=D, tau=tau, limiter=TanhLogLimiter(v_max, a), decay=PowerLawDecay(mu)
    )
    return ReducedProblem(
        "self_similar", p, constants={"mu": mu}, domain=(0.0, 10.0),
        data={"U0": U0, "C1": C1},
    )


def test_self_similar_flux_off_gaussian():
    # v_max -> 0 reduces the U-equation to the Gaussian-family profile
    prob = ss_problem(v_max=1e-300)
    res = solve_self_similar(prob, n=2000)
    assert res.converged
    gauss = np.exp(-res.xi**2 / (4.0 * 0.8))
    assert np.max(np.abs(res.U - gauss)) < 1e-10
    assert res.defect_u < 1e-8
    assert res.defect_v < 1e-8
    # even symmetry at the axis: V'(0) = 0 discretely
    assert abs(res.S[0]) < 1e-9


def test_self_similar_trivial_zero_forcing():
    prob = ss_problem(v_max=1e-300, U0=0.0)
    res = solve_self_similar(prob, n=1000)
    assert np.max(np.abs(res.U)) == 0.0
    assert np.max(np.abs(res.V)) < 1e-12
    assert res.defect_v < 1e-12


def test_self_similar_fig_scale_converges_with_small_defect():
    prob = ss_problem(v_max=1.1, a=0.51)
    res = solve_self_similar(prob, n=2000)
    assert res.converged
    assert res.defect_u < 1e-6
    assert res.defect_v < 1e-6
    assert res.residual_history[-1] < 1e-10


def test_self_similar_needs_mu_under_other_decay():
    prob = ss_problem(v_max=1e-300)
    bare = dataclasses.replace(
        prob, params=dataclasses.replace(prob.params, decay=ConstantDecay(0.5)), constants={}
    )
    with pytest.raises(ValidationError):
        solve_self_similar(bare, n=200)
    assert solve_self_similar(dataclasses.replace(bare, constants={"mu": 0.5}), n=200).converged


def test_self_similar_grid_refinement_second_order_or_better():
    errs, defects_u, defects_v = [], [], []
    for n in (500, 1000, 2000):
        res = solve_self_similar(ss_problem(v_max=1.1), n=n)
        errs.append(max(res.defect_u, res.defect_v))
        defects_u.append(res.defect_u)
        defects_v.append(res.defect_v)
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0
    # defect_u carries the truncation error (each doubling divides it by
    # ~16); defect_v sits at the residual's round-off floor, growing like n^2
    assert defects_u[0] / defects_u[1] > 12.0
    assert defects_u[1] / defects_u[2] > 12.0
    assert max(defects_v) < 1e-9


def test_self_similar_requires_tanh_log():
    # refused as the problem is built, before any solve
    p = make_params()
    with pytest.raises(ValidationError, match="tanh-log limiter"):
        ReducedProblem("self_similar", p, constants={"mu": 0.5}, domain=(0.0, 10.0))


def test_self_similar_solves_on_the_problem_domain():
    # the half line is the problem's domain; both used to solve on [0, 10]
    prob = ss_problem(v_max=1e-300)
    res = solve_self_similar(dataclasses.replace(prob, domain=(0.0, 5.0)), n=200)
    assert res.xi[0] == 0.0 and res.xi[-1] == 5.0 and res.metadata["xi_max"] == 5.0
    with pytest.raises(ValidationError, match="symmetry point"):
        solve_self_similar(dataclasses.replace(prob, domain=(2.0, 3.0)), n=200)


def test_self_similar_doubled_grid_consistency():
    # both grids converge in at most 20 Anderson iterations (its safeguard
    # restarts make the log non-monotone); doubled-grid rerun agrees
    res_a = solve_self_similar(ss_problem(v_max=1.1), n=1000)
    res_b = solve_self_similar(ss_problem(v_max=1.1), n=2000)
    for res in (res_a, res_b):
        assert res.converged
        assert len(res.residual_history) <= 20
        assert res.residual_history[-1] < 1e-8
    U_b_on_a = np.interp(res_a.xi, res_b.xi, res_b.U)
    V_b_on_a = np.interp(res_a.xi, res_b.xi, res_b.V)
    assert np.max(np.abs(res_a.U - U_b_on_a)) < 1e-4
    assert np.max(np.abs(res_a.V - V_b_on_a)) < 1e-4


@pytest.mark.parametrize(
    "v_max, mu, n",
    [(1.1, 0.5, 8000), (1.1, 1.5, 2000), (3.0, 0.5, 2000), (6.0, 0.5, 2000),
     (1e-300, 0.5, 2000)],
    ids=["bench-mu0.5", "bench-mu1.5", "vmax3", "vmax6", "flux-off"],
)
def test_self_similar_converges_in_at_most_20_iterations(v_max, mu, n):
    res = solve_self_similar(ss_problem(v_max=v_max, mu=mu), n=n)
    assert res.converged
    assert len(res.residual_history) <= 20
    assert res.defect_u < 1e-6
    assert res.defect_v < 1e-6


def _reference_similarity_operator(xi, h):
    # entry-by-entry assembly of V'' - (xi/2) V' + V/2 with the symmetry and
    # Robin rows; the vectorised operator must reproduce it bit for bit
    n = xi.size
    A = np.zeros((n, n))
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    for i in range(2, n - 2):
        for k in range(5):
            A[i, i - 2 + k] += c2[k] - 0.5 * xi[i] * c1[k]
        A[i, i] += 0.5
    c2b = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h * h)
    c1b = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    i = 1
    for k in range(6):
        A[i, k] += c2b[k]
    for k in range(5):
        A[i, k] += -0.5 * xi[i] * c1b[k]
    A[i, i] += 0.5
    i = n - 2
    for k in range(6):
        A[i, n - 1 - k] += c2b[k]
    for k in range(5):
        A[i, n - 1 - k] += 0.5 * xi[i] * c1b[k]
    A[i, i] += 0.5
    c1e = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    for k in range(5):
        A[0, k] = c1e[k]
    for k in range(5):
        A[n - 1, n - 1 - k] = -c1e[k]
    A[n - 1, n - 1] -= 1.0 / xi[-1]
    return A


@pytest.mark.parametrize("n", [40, 1000])
def test_similarity_operator_matches_entrywise_assembly(n):
    xi = np.linspace(0.0, 10.0, n + 1)
    h = xi[1] - xi[0]
    A = _build_similarity_operator(xi, h)
    ref = _reference_similarity_operator(xi, h)
    # the dense reference in band rows with 4 subdiagonals: nothing outside
    i, j = np.nonzero(ref)
    assert np.max(np.abs(j - i)) == 4
    band = np.zeros((n + 1, 9))
    band[i, j - i + 4] = ref[i, j]
    assert A.shape == band.shape
    assert A.tobytes() == band.tobytes()
