"""Method-of-lines solver for the full flux-limited system.

u_t   = D u_xx - (u F(v_x))_x + S_u
tau v_t = v_xx - kappa(t) v + u + S_v

Space: second-order central diffusion plus a conservative chemotactic flux
with upwind-biased (Fromm) face reconstruction, on the n+1 grid nodes.  One
operator serves both boundary kinds; a kind is only a ghost fill (one ghost
node each side: wrapped when periodic, mirrored for zero-flux Neumann), the
two boundary face fluxes (wrapped, or zero) and the cell widths (the
Neumann boundary nodes own half cells, so zero-flux boundaries conserve the
trapezoid mass exactly).

Time: the IMEX scheme ARS(2,2,2) (Ascher, Ruuth & Spiteri, Appl. Numer.
Math. 25 (1997)), second order and stiffly accurate.  The linear stiff
part, D u_xx and (v_xx - kappa(t) v)/tau with kappa at the stage time, is
implicit, solved by one cyclic reduction per stage, u and v interleaved on
one ring of the periodic nodes or of the even extension of the Neumann
ones (mirror ghosts make the two the same operator); the chemotactic flux,
u/tau and the sources are explicit.  So the step, cfl_safety * dx /
(2 v_max), is bounded by the flux speed alone, and cfl_safety sets the
time error, which falls as dt^2.  A flux-off run
(v_max -> 0) takes one step per horizon.  Positivity of u is reported per
frame, never enforced.

The operator is prepared once per (params, config): ``_Operator`` binds the
constants and maps an (n+1, 2) array of u and v, node by node, to new
arrays, filling the ghosts per evaluation.  ``run`` and ``step`` march one
prepared operator, and ``reduced_systems`` takes the steady-state residual
from one.  The periodic seam: periodic node n is node 0, so loading a state
copies node 0 into node n and source terms are evaluated there at x_0;
every stage then keeps node n bitwise equal to node 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_STEPS, FieldPair, Grid1D
from .errors import CFLViolation, DomainError, InvalidState, StepSizeError, ValidationError


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


def stable_dt(params, config):
    """The step cfl_safety * dx / (2 v_max): the explicit flux, at speed
    |F| <= v_max, carries u across at most cfl_safety/2 of a cell per step
    (the positivity CFL of Chertock & Kurganov, Numer. Math. 111 (2008)).
    The implicit part sets no bound.  Under a limiter without that bound
    (``bounded`` not True), ``_Operator.advance`` checks the CFL itself."""
    return config.cfl_safety * config.grid.dx / (2.0 * params.limiter.v_max)


def cell_widths(n, dx, bc):
    """The widths of the cells owned by nodes 0..n (half cells at Neumann ends)."""
    widths = np.full(n + 1, dx)
    if bc != "periodic":
        widths[0] = widths[-1] = 0.5 * dx
    return widths


def _reduction_levels(r, sigma):
    """The weights gamma of each cyclic-reduction level of the row
    (sigma + 2r) x_i - r (x_{i-1} + x_{i+1}) = b_i, until r < 2^-60, and
    the product of the levels' alpha.

    A level eliminates the neighbours at distance s and divides by the new
    diagonal q = (sigma + 2r)^2 - 2 r^2, so x becomes alpha x + beta
    (x_{i-s} + x_{i+s}) with alpha = (sigma + 2r)/q and beta = r/q, that is
    alpha (x + gamma (x_{i-s} + x_{i+s})) with gamma = beta/alpha =
    r/(sigma + 2r).  sigma (the diagonal less 2r) is carried as its own
    number: for r near 1/2 it holds the smooth modes, which the diagonal
    would round away.
    """
    gammas, scale = [], 1.0
    while r >= 2.0**-60:
        d = sigma + 2.0 * r
        a = sigma * (sigma + 4.0 * r)  # d^2 - (2r)^2
        r2 = r * r
        q = a + 2.0 * r2
        gammas.append(r / d)
        scale *= d / q
        sigma, r = a / q, r2 / q
    return gammas, scale


def _ring_table(r_u, sigma_u, r_v, sigma_v, m):
    """The cyclic-reduction table of a u row and a v row interleaved on a
    ring of 2m entries: G[j] holds level j's gamma of u at the even entries
    and of v at the odd ones, and scales holds each row's product of alpha.
    The row with fewer levels has gamma = 0 on the rest.  A table depends on
    both rows' (r, sigma) and on m alone.
    """
    g_u, scale_u = _reduction_levels(r_u, sigma_u)
    g_v, scale_v = _reduction_levels(r_v, sigma_v)
    levels = max(len(g_u), len(g_v))
    pairs = np.array((g_u + [0.0] * (levels - len(g_u)), g_v + [0.0] * (levels - len(g_v))))
    G = np.repeat(pairs.T.reshape(levels, 1, 2), m, axis=1).reshape(levels, 2 * m)
    G.flags.writeable = False
    return G, (scale_u, scale_v)


def _cyclic_reduction(W, T, G):
    """Solve a ring's two interleaved rows in place by parallel cyclic
    reduction, up to each row's scale: W is (4m,) with the ring y in
    W[:2m], u of node i at entry 2i and v at 2i + 1, and T is (2m,) work;
    G is the ring's gamma table from ``_ring_table``.

    Level j, at distance s = 2^j nodes (2s entries), replaces y by y +
    G[j] (y_{i-s} + y_{i+s}) in four contiguous numpy calls.  Every node
    does the same operations, with gamma >= 0, so the solve commutes bit
    for bit with rolls and reflections of the ring and keeps nonnegative
    data nonnegative.
    """
    M = T.size
    y = W[:M]
    s = 2  # the level's distance in entries
    for gamma in G:
        # W is y twice over, so its windows at M -/+ k are y rolled by +/- k
        W[M:] = y
        k = s % M
        np.add(W[M - k:2 * M - k], W[k:k + M], out=T)
        np.multiply(T, gamma, out=T)
        np.add(y, T, out=y)
        s *= 2


# ARS(2,2,2): both implicit stages have the diagonal weight _GAMMA; the
# explicit weights of the last stage are (_DELTA, 1 - _DELTA)
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)


class _Operator:
    """The semi-discrete operator of one (params, config) pair, prepared once.

    A state is an (n+1, 2) array, node by node: row k holds u and v of node
    k.  ``load`` sets the state ``X``; a periodic node n takes node 0's
    values, and periodic sources see x_0 at node n, so node n stays bitwise
    equal to node 0 through every stage.  ``rhs`` returns (u_t, v_t) of a
    state, ``explicit`` only its explicit part, and ``solve`` inverts the
    implicit part; each returns a new array and writes into none it was
    given.  ``advance`` replaces X by one ARS(2,2,2) step.
    """

    def __init__(self, params, config):
        n = config.grid.n
        self.n = n
        self.dx = dx = config.grid.dx
        self.dx2 = dx * dx
        self.D = params.D
        self.tau = params.tau
        self.F = params.limiter.F
        self.bounded = params.limiter.bounded is True
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
        # the ghosts' source nodes: wrapped n-1 and 1, or mirrored 1 and n-1
        self.ghosts = (n - 1, 1) if self.periodic else (1, n - 1)
        # the implicit solve's nodes: n periodic ones, or the even extension
        self.m = n if self.periodic else 2 * n
        # the implicit coupling per unit step: D/dx^2 for u, 1/(tau dx^2) for v
        self.coupling = (self.D / self.dx2, 1.0 / (self.tau * self.dx2))
        self.table = (None, None)  # the last ring table's key and the table
        self.scale = np.empty(2 * n if self.periodic else 2 * n + 2)  # set with the table

    def load(self, u, v):
        """Set the state to (u, v); a periodic node n takes node 0's values."""
        if np.shape(u) != (self.n + 1,) or np.shape(v) != (self.n + 1,):
            raise ValidationError("state does not match the grid")
        self.X = np.stack((u, v), axis=1, dtype=float)
        if self.periodic:
            self.X[-1] = self.X[0]

    def finite(self):
        """Whether the state is finite at every node."""
        return bool(np.isfinite(self.X).all())

    def _ghosted(self, w):
        """Nodes 0..n of w with one ghost node each side, wrapped when
        periodic, mirrored for Neumann."""
        g = np.empty(self.n + 3)
        g[1:-1] = w
        g[0], g[-1] = w[self.ghosts[0]], w[self.ghosts[1]]
        return g

    def _divergence(self, flux):
        """(flux_{i+1/2} - flux_{i-1/2}) / width_i at nodes 0..n, given the
        fluxes on the n inner faces; the boundary faces carry the wrapped
        fluxes, or none (Neumann)."""
        faces = np.zeros(self.n + 2)
        faces[1:-1] = flux
        if self.periodic:
            faces[0], faces[-1] = flux[-1], flux[0]
        return (faces[1:] - faces[:-1]) / self.widths

    def _flux(self, X):
        """The chemotactic fluxes u F(v_x) on the n inner faces, u taken by
        Fromm reconstruction biased to the donor by the flux sign: u_i + q_i
        or u_{i+1} - q_{i+1}, with q_k = (u_{k+1} - u_{k-1})/4."""
        u, v = X[:, 0], X[:, 1]
        Fv = self.F((v[1:] - v[:-1]) / self.dx)
        U = self._ghosted(u)
        q = 0.25 * (U[2:] - U[:-2])
        face_u = u[1:] - q[1:]
        np.copyto(face_u, u[:-1] + q[:-1], where=Fv >= 0.0)
        return face_u * Fv

    def _add_sources(self, t, R):
        if self.source_u is not None:
            R[:, 0] += self.source_u(self.x, t)
        if self.source_v is not None:
            R[:, 1] += self.source_v(self.x, t) / self.tau
        return R

    def rhs(self, X, t):
        """The right-hand side (u_t, v_t) of state X at time t."""
        u, v = X[:, 0], X[:, 1]
        R = np.empty_like(X)
        G = self.D * (u[1:] - u[:-1]) / self.dx
        np.subtract(self._divergence(G), self._divergence(self._flux(X)), out=R[:, 0])
        V = self._ghosted(v)
        v_xx = ((V[2:] - 2.0 * v) + V[:-2]) / self.dx2
        if not self.periodic:
            # the mirrored three-point form rounds differently from 2(v1 - v0)
            v_xx[0] = 2.0 * (v[1] - v[0]) / self.dx2
            v_xx[-1] = 2.0 * (v[-2] - v[-1]) / self.dx2
        np.divide(v_xx - self.kappa(t) * v + u, self.tau, out=R[:, 1])
        return self._add_sources(t, R)

    def explicit(self, X, t):
        """The explicit part of the right-hand side of state X at time t:
        -(u F(v_x))_x + S_u and (u + S_v)/tau."""
        E = np.empty_like(X)
        np.negative(self._divergence(self._flux(X)), out=E[:, 0])
        np.divide(X[:, 0], self.tau, out=E[:, 1])
        return self._add_sources(t, E)

    def solve(self, t, h, b):
        """The X with X - h L(t) X = b, both (n+1, 2) node arrays, where
        L(t) is the implicit part: D u_xx and (v_xx - kappa(t) v)/tau.

        Both columns are solved by one ``_cyclic_reduction`` on a ring of
        the n periodic nodes, or of the 2n-node even extension for Neumann:
        b's node order is the ring's, so b is copied in whole (and mirrored),
        and X is written through one scale row of each column's 1/diag times
        the product of its levels' alpha.  So the solution commutes bit for
        bit with rolls and reflections of b, and column k of X depends on
        column k of b alone.  The table and scale row depend on h, and
        through v on kappa(t), alone; the operator keeps the last ones, so a
        constant-decay march derives them once per step size (both stages
        of a step share h) and a time-varying kappa once per stage.  Raises
        StepSizeError when a column is not diagonally dominant (1 + h
        kappa/tau <= 0 under negative decay).
        """
        n, m = self.n, self.m
        shifts = (1.0, 1.0 + h * float(self.kappa(t)) / self.tau)
        key = []
        for shift, coupling in zip(shifts, self.coupling):
            c = h * coupling
            diag = shift + 2.0 * c
            sigma = shift / diag
            if not (shift > 0.0 and sigma > 0.0):
                raise StepSizeError(
                    f"the implicit stage at t={t:g} with h={h:.3e} is not diagonally dominant")
            key.append((c / diag, sigma, diag))
        if key != self.table[0]:
            (r_u, sigma_u, diag_u), (r_v, sigma_v, diag_v) = key
            G, (scale_u, scale_v) = _ring_table(r_u, sigma_u, r_v, sigma_v, m)
            self.table = key, G
            self.scale[0::2], self.scale[1::2] = scale_u / diag_u, scale_v / diag_v
        W, T = np.empty(4 * m), np.empty(2 * m)
        ring = W[:2 * m].reshape(m, 2)
        if self.periodic:
            ring[:] = b[:-1]
        else:
            ring[:n + 1] = b
            ring[n + 1:] = ring[n - 1:0:-1]
        _cyclic_reduction(W, T, self.table[1])
        X, scale = np.empty(b.shape), self.scale
        np.multiply(W[:scale.size], scale, out=X.reshape(-1)[:scale.size])
        if self.periodic:
            X[n] = X[0]
        return X

    def advance(self, t, dt):
        """Replace the state X by one ARS(2,2,2) step from t to t + dt.

        Stage 2 solves Y - h L Y = X + h E(X), h = _GAMMA dt; the last stage
        solves X' - h L X' = X + dt (_DELTA E(X) + (1 - _DELTA) E(Y))
        + (1 - _GAMMA) dt L Y, with dt L Y = (Y - X - h E(X))/_GAMMA.  E and
        L are the explicit and implicit parts, taken at the stage times
        t, t + h and t + dt.  Under an unbounded limiter a step with
        dt max|F(v_x)| > dx/2 on X, past the positivity CFL that
        ``stable_dt`` assumes, raises CFLViolation.
        """
        X = self.X
        if not self.bounded:
            speed = float(np.max(np.abs(self.F((X[1:, 1] - X[:-1, 1]) / self.dx))))
            if not dt * speed <= 0.5 * self.dx:
                raise CFLViolation(
                    f"the flux speed {speed:.3g} carries u {dt * speed / self.dx:.3g} cells "
                    f"in the step from t={t:g}, past the positivity bound of 1/2")
        h = _GAMMA * dt
        E1 = self.explicit(X, t)
        B = X + h * E1
        Y = self.solve(t + h, h, B)
        E2 = self.explicit(Y, t + h)
        B = (1.0 - _GAMMA) / _GAMMA * (Y - B) + dt * (_DELTA * E1 + (1.0 - _DELTA) * E2)
        self.X = self.solve(t + dt, h, X + B)


def step(state, params, config, dt):
    """One ARS(2,2,2) step of length dt; kappa is evaluated at the stage times.

    Raises StepSizeError for dt <= 0 or a step the implicit stage cannot
    take, CFLViolation when dt exceeds ``stable_dt`` or, under an unbounded
    limiter, the flux's positivity CFL (``_Operator.advance``),
    ValidationError when the state does not match config.grid, and
    InvalidState when the state is not finite or the result stops being
    finite.
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
    return FieldPair(op.X[:, 0], op.X[:, 1], t)


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


def total_mass(u, grid, bc):
    """Trapezoid mass consistent with the half-cell boundary ownership."""
    dx = grid.dx
    if bc == "periodic":
        return dx * float(np.sum(u[:-1]))
    return dx * (0.5 * u[0] + float(np.sum(u[1:-1])) + 0.5 * u[-1])


def check_run(initial, params, config):
    """The step dt of ``run(initial, params, config)``, checked before anything
    is allocated: a state off the grid, a t_end before the initial time or out
    of the decay law's domain, or more than MAX_STEPS steps or recorded values
    (frames times nodes) raises ValidationError."""
    if initial.u.size != config.grid.n + 1:
        raise ValidationError("initial state does not match the grid")
    if config.t_end < initial.t:
        raise ValidationError(f"t_end={config.t_end!r} lies before the initial time t={initial.t!r}")
    t_end = float(config.t_end)
    try:
        params.decay.kappa(t_end)
    except DomainError as exc:
        raise ValidationError(f"t_end is outside the decay law's domain: {exc}") from None
    dt_max = stable_dt(params, config)
    # a step that underflowed to zero (2 v_max overflowed) takes endless steps
    needed = (t_end - initial.t) / dt_max if dt_max > 0.0 else math.inf
    if not needed <= MAX_STEPS:  # NaN included
        raise ValidationError(f"the run to t_end={t_end:g} takes more than {MAX_STEPS} steps "
                              f"of dt={dt_max:.3g}")
    frames = 1 + math.ceil(math.ceil(needed) / config.output_stride)
    if frames * (config.grid.n + 1) > MAX_STEPS:
        raise ValidationError(f"the run to t_end={t_end:g} records {frames} frames of "
                              f"{config.grid.n + 1} nodes, more than {MAX_STEPS} values")
    return dt_max


def run(initial, params, config):
    """Advance from the initial time to t_end in ARS(2,2,2) steps of
    ``stable_dt`` (the last one shortened to land on t_end).

    Frames are recorded every output_stride steps and at t_end.  Each
    frame's min_u entry is the minimum of u over every step since the
    previous frame (the first entry: the initial state), so a negative
    density between frames is still reported.  ``check_run`` refuses a bad
    run first; a non-finite state raises InvalidState with the failing time,
    and a step past the positivity CFL under an unbounded limiter raises
    CFLViolation (``_Operator.advance``).  The metadata records the step dt.
    """
    dt_max = check_run(initial, params, config)
    t, t_end = initial.t, float(config.t_end)
    op = _Operator(params, config)
    op.load(initial.u, initial.v)

    if t < t_end - 1e-14 and not op.finite():
        raise InvalidState(f"non-finite state at t={t:g}")
    times, us, vs, mass, min_u = [], [], [], [], []

    def record(low):
        times.append(t)
        us.append(op.X[:, 0])
        vs.append(op.X[:, 1])
        mass.append(total_mass(us[-1], config.grid, config.bc))
        min_u.append(low)

    record(float(np.min(op.X[:, 0])))
    low = np.inf  # the minimum of u over the steps since the last frame
    steps = 0
    while t < t_end - 1e-14:
        dt = min(dt_max, t_end - t)
        op.advance(t, dt)
        t = t + dt
        if not op.finite():
            raise InvalidState(f"solution lost finiteness during the step to t={t:g}")
        steps += 1
        low = min(low, float(np.min(op.X[:, 0])))
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
            "note": "zero-flux boundaries unless periodic; boundary choice is "
            "a solver convention recorded here",
        },
    )
