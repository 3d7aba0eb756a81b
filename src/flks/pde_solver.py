"""Method-of-lines solver for the full flux-limited system.

u_t   = D u_xx - (u F(v_x))_x + S_u
tau v_t = v_xx - kappa(t) v + u + S_v

Space: second-order central diffusion plus a conservative chemotactic flux
with upwind-biased (Fromm) face reconstruction, on the n+1 grid nodes.  One
operator serves both boundary kinds; a kind is only a ghost fill (one ghost
node each side: wrapped when periodic, mirrored for zero-flux Neumann), the
two boundary face fluxes (wrapped, or zero) and the cell widths (the
Neumann boundary nodes own half cells, so zero-flux boundaries conserve the
trapezoid mass exactly).  Time: SSP-RK3 with kappa evaluated at the stage
times.  The time step follows the configured CFL heuristic; positivity of u
is reported per frame, never enforced.

The operator is prepared once per (params, config): ``_Operator`` binds the
constants, holds u and v stacked in ghost-padded stage states and writes
every intermediate into its own work arrays, so a step allocates no array
memory beyond what the limiter and the source terms return.  ``run`` and
``step`` march one prepared operator, and ``reduced_systems`` takes the
steady-state residual from one.  The periodic seam: periodic node n is node
0, so loading a state copies node 0 into node n and source terms are
evaluated there at x_0; every stage then keeps node n bitwise equal to
node 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import FieldPair, Grid1D
from .errors import CFLViolation, InvalidState, StepSizeError, ValidationError


@dataclass(frozen=True)
class SolverConfig:
    """Grid, boundary kind, CFL safety, horizon and output cadence.

    The horizon t_end must be finite; 0.0 is valid (a run from t = 0 then
    takes no step).
    """

    grid: Grid1D
    t_end: float
    bc: str = "neumann"
    cfl_safety: float = 0.4
    output_stride: int = 20
    source_u: object = None
    source_v: object = None

    def __post_init__(self):
        if not np.isfinite(self.t_end):
            raise ValidationError(f"t_end must be finite, got {self.t_end!r}")
        if self.bc not in ("neumann", "periodic"):
            raise ValidationError(f"bc must be 'neumann' or 'periodic', got {self.bc!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValidationError("cfl_safety must lie in (0, 1]")
        if self.output_stride < 1:
            raise ValidationError("output_stride must be >= 1")


def _dt_bounds(params, config):
    """The CFL step and the name of the bound that sets it."""
    dx = config.grid.dx
    diffusive = dx * dx / (2.0 * max(params.D, 1.0 / params.tau))
    lim = params.limiter
    advective = dx * lim.gradient_scale / lim.v_max
    if diffusive <= advective:
        return config.cfl_safety * diffusive, "diffusive"
    return config.cfl_safety * advective, "advective"


def stable_dt(params, config):
    """CFL-limited step: cfl * min(dx^2/(2 max(D, 1/tau)), dx*s0_eff/v_max)."""
    return _dt_bounds(params, config)[0]


def cell_widths(n, dx, bc):
    """The widths of the cells owned by nodes 0..n (half cells at Neumann ends)."""
    widths = np.full(n + 1, dx)
    if bc != "periodic":
        widths[0] = widths[-1] = 0.5 * dx
    return widths


class _Operator:
    """The semi-discrete operator of one (params, config) pair, prepared once.

    A state is a (2, n+3) array: row 0 holds u, row 1 holds v, column k+1
    holds node k and columns 0 and n+2 are the ghosts.  ``load`` makes a
    periodic node n a copy of node 0, and periodic sources see x_0 at node
    n, so node n stays bitwise equal to node 0 through every stage.
    ``rhs`` fills the ghosts of one of the three stage states with column
    copies and writes (u_t, v_t) into a (2, n+1) array.  ``advance`` takes
    one SSP-RK3 step of stage state 0 in place.  Callers copy what they
    keep.
    """

    def __init__(self, params, config):
        n = config.grid.n
        self.n = n
        self.dx = dx = config.grid.dx
        self.dx2 = dx * dx
        self.D = params.D
        self.tau = params.tau
        self.F = params.limiter.F
        self.kappa = params.decay.kappa
        self.periodic = config.bc == "periodic"
        self.widths = cell_widths(n, dx, config.bc)
        self.source_u = config.source_u
        self.source_v = config.source_v
        if self.source_u is not None or self.source_v is not None:
            self.x = config.grid.nodes()
            if self.periodic:
                self.x[-1] = self.x[0]
            self.x.flags.writeable = False
        self.states = [np.zeros((2, n + 3)) for _ in range(3)]
        self.nodes = [X[:, 1:-1] for X in self.states]
        self.dX = np.empty((2, n + 1))
        self.fd = np.empty((2, n))  # first differences across the faces
        self.q = np.empty(n + 1)
        self.a, self.b = np.empty(n), np.empty(n)
        self.mask = np.empty(n, dtype=bool)
        # face fluxes (G, J) on the n+2 faces; the Neumann boundary faces
        # are never written, so they carry no flux
        self.GJ = GJ = np.zeros((2, n + 2))
        self.G, self.J = GJ[0, 1:-1], GJ[1, 1:-1]
        self.GJ_hi, self.GJ_lo = GJ[:, 1:], GJ[:, :-1]
        self.GJ_wrap = ((GJ[:, 0], GJ[:, n]), (GJ[:, n + 1], GJ[:, 1]))
        self.diffs = np.empty((2, n + 1))
        self.kv = np.empty(n + 1)
        self.flags = np.empty((2, n + 1), dtype=bool)
        self._views = [self._stencil(X) for X in self.states]

    def _stencil(self, X):
        """The slice views of stage state X that rhs reads and writes."""
        n, U, V = self.n, X[0], X[1]
        if self.periodic:
            ghosts = ((X[:, 0], X[:, n]), (X[:, n + 2], X[:, 2]))
        else:
            ghosts = ((X[:, 0], X[:, 2]), (X[:, n + 2], X[:, n]))
        return (ghosts, X[:, 2:-1], X[:, 1:-2],
                U[2:], U[:-2], U[1:-2], U[2:-1], V[:-2], V[1:-1], V[2:], U[1:-1], V)

    def load(self, u, v):
        """Copy (u, v) into stage state 0; a periodic node n takes node 0's values."""
        if np.shape(u) != (self.n + 1,) or np.shape(v) != (self.n + 1,):
            raise ValidationError("state does not match the grid")
        X = self.nodes[0]
        X[0] = u
        X[1] = v
        if self.periodic:
            X[:, -1] = X[:, 0]

    def finite(self):
        """Whether stage state 0 is finite at every node."""
        return bool(np.isfinite(self.nodes[0], out=self.flags).all())

    def rhs(self, k, t, out):
        """Write the right-hand side of stage state k at time t into out."""
        ghosts, hi, lo, u_hi, u_lo, u0, up, vl, vc, vr, uc, V = self._views[k]
        kap = self.kappa(t)
        for dst, src in ghosts:
            np.copyto(dst, src)
        dx, dx2 = self.dx, self.dx2
        a, b, q, G, J = self.a, self.b, self.q, self.G, self.J

        # face i+1/2 between nodes i and i+1, i = 0..n-1
        fd = np.subtract(hi, lo, out=self.fd)
        Fv = self.F(np.divide(fd[1], dx, out=fd[1]))
        # Fromm reconstruction at the faces (donor biased by flux sign):
        # u_i + q_i and u_{i+1} - q_{i+1} with q_k = (u_{k+1} - u_{k-1})/4
        np.multiply(0.25, np.subtract(u_hi, u_lo, out=q), out=q)
        np.add(u0, q[:-1], out=a)
        np.subtract(up, q[1:], out=b)
        np.copyto(b, a, where=np.greater_equal(Fv, 0.0, out=self.mask))
        np.multiply(b, Fv, out=J)
        np.divide(np.multiply(self.D, fd[0], out=G), dx, out=G)
        if self.periodic:
            for dst, src in self.GJ_wrap:
                np.copyto(dst, src)
        diffs = np.subtract(self.GJ_hi, self.GJ_lo, out=self.diffs)
        np.divide(diffs, self.widths, out=diffs)
        du, dv = out[0], out[1]
        np.subtract(diffs[0], diffs[1], out=du)

        np.subtract(vr, np.multiply(2.0, vc, out=dv), out=dv)
        np.divide(np.add(dv, vl, out=dv), dx2, out=dv)
        if not self.periodic:
            # the mirrored three-point form rounds differently from 2(v1 - v0)
            dv[0] = 2.0 * (V[2] - V[1]) / dx2
            dv[-1] = 2.0 * (V[-3] - V[-2]) / dx2
        np.subtract(dv, np.multiply(kap, vc, out=self.kv), out=dv)
        np.divide(np.add(dv, uc, out=dv), self.tau, out=dv)

        if self.source_u is not None:
            np.add(du, self.source_u(self.x, t), out=du)
        if self.source_v is not None:
            np.add(dv, self.source_v(self.x, t) / self.tau, out=dv)
        return out

    def advance(self, t, dt):
        """One SSP-RK3 step of stage state 0 from t to t + dt, in place;
        kappa is evaluated at the stage times."""
        X0, X1, X2 = self.nodes
        dX = self.dX
        self.rhs(0, t, dX)
        np.add(X0, np.multiply(dt, dX, out=dX), out=X1)
        self.rhs(1, t + dt, dX)
        np.multiply(0.25, np.add(X1, np.multiply(dt, dX, out=dX), out=dX), out=dX)
        np.add(np.multiply(0.75, X0, out=X2), dX, out=X2)
        self.rhs(2, t + 0.5 * dt, dX)
        np.add(X2, np.multiply(dt, dX, out=dX), out=dX)
        np.add(X0, np.multiply(2.0, dX, out=dX), out=dX)
        np.divide(dX, 3.0, out=X0)


def step(state, params, config, dt):
    """One SSP-RK3 step of length dt; kappa is evaluated at the stage times.

    Raises StepSizeError for dt <= 0, CFLViolation when dt exceeds the
    stability bound, ValidationError when the state does not match
    config.grid, and InvalidState when the state is not finite or the
    result stops being finite.
    """
    if dt <= 0.0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    bound = stable_dt(params, config)
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolation(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")
    op = _Operator(params, config)
    op.load(state.u, state.v)
    if not op.finite():
        raise InvalidState(f"non-finite state at t={state.t:g}")
    op.advance(state.t, dt)
    t = state.t + dt
    if not op.finite():
        raise InvalidState(f"solution lost finiteness during the step to t={t:g}")
    return FieldPair(*op.nodes[0], t)


@dataclass
class Trajectory:
    """Sampled frames of a run plus the mass ledger and positivity monitor."""

    grid: Grid1D
    bc: str
    times: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    mass: np.ndarray
    min_u: np.ndarray
    steps_taken: int
    metadata: dict = field(default_factory=dict)

    def frame(self, k):
        return FieldPair(self.us[k], self.vs[k], float(self.times[k]))


def total_mass(u, grid, bc):
    """Trapezoid mass consistent with the half-cell boundary ownership."""
    dx = grid.dx
    if bc == "periodic":
        return dx * float(np.sum(u[:-1]))
    return dx * (0.5 * u[0] + float(np.sum(u[1:-1])) + 0.5 * u[-1])


def run(initial, params, config):
    """Advance from the initial time to t_end with the adaptive CFL step.

    Frames are recorded every output_stride steps and at t_end.  Each
    frame's min_u entry is the minimum of u over every step since the
    previous frame (the first entry: the initial state), so a negative
    density between frames is still reported.  A t_end before the initial
    time raises ValidationError; a non-finite state raises InvalidState with
    the failing time.  The metadata records the CFL step dt and its active
    bound (diffusive or advective).
    """
    if initial.u.size != config.grid.n + 1:
        raise ValidationError("initial state does not match the grid")
    if config.t_end < initial.t:
        raise ValidationError(f"t_end={config.t_end!r} lies before the initial time t={initial.t!r}")
    op = _Operator(params, config)
    op.load(initial.u, initial.v)
    u, v = op.nodes[0]

    t = initial.t
    t_end = float(config.t_end)
    dt_max, dt_bound = _dt_bounds(params, config)
    if t < t_end - 1e-14 and not op.finite():
        raise InvalidState(f"non-finite state at t={t:g}")
    times, us, vs, mass, min_u = [], [], [], [], []

    def record(low):
        times.append(t)
        us.append(u.copy())
        vs.append(v.copy())
        mass.append(total_mass(us[-1], config.grid, config.bc))
        min_u.append(low)

    record(float(np.min(u)))
    low = np.inf  # the minimum of u over the steps since the last frame
    steps = 0
    while t < t_end - 1e-14:
        dt = min(dt_max, t_end - t)
        op.advance(t, dt)
        t = t + dt
        if not op.finite():
            raise InvalidState(f"solution lost finiteness during the step to t={t:g}")
        steps += 1
        low = min(low, float(np.min(u)))
        if steps % config.output_stride == 0 or t >= t_end - 1e-14:
            record(low)
            low = np.inf
    return Trajectory(
        grid=config.grid,
        bc=config.bc,
        times=np.asarray(times),
        us=np.asarray(us),
        vs=np.asarray(vs),
        mass=np.asarray(mass),
        min_u=np.asarray(min_u),
        steps_taken=steps,
        metadata={
            "bc": config.bc,
            "cfl_safety": config.cfl_safety,
            "dt": dt_max,
            "dt_bound": dt_bound,
            "note": "zero-flux boundaries unless periodic; boundary choice is "
            "a solver convention recorded here",
        },
    )
