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
arrays, filling the ghosts per evaluation.  A batch of B members that share
the grid, the solver config, the limiter, D and tau, each with its own decay
law, is one (n+1, B, 2) array, node by node, then member: the ring holds
2B entries per node, and each member's numbers are bit for bit those it
has alone, at a fraction of the numpy calls per member.  There is one
march: ``run_batch`` marches consecutive runs that share those as one
batch, and ``run`` is its batch of one; ``step`` advances one prepared
operator, and ``reduced_systems`` takes the steady-state residual, and
its Jacobian's nine coloured perturbations as one batch, from one.  The
periodic seam: periodic node n is node 0, so loading a state copies node 0
into node n and source terms are evaluated there at x_0; every stage then
keeps node n bitwise equal to node 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_STEPS, FieldPair, Grid1D
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


def _ring_table(rows, m):
    """The cyclic-reduction table of a ring of m nodes that each hold one
    entry per row of ``rows``, in order: G[j] holds level j's gamma of row e
    at entries e, e + len(rows), e + 2 len(rows), ...  Each row is a gamma
    list of ``_reduction_levels``; a row with fewer levels has gamma = 0 on
    the rest.  Each entry's gamma is its own number, so every level is one
    contiguous multiply.
    """
    levels = max(map(len, rows))
    pattern = np.zeros((levels, 1, len(rows)))
    for e, gammas in enumerate(rows):
        pattern[:len(gammas), 0, e] = gammas
    G = np.repeat(pattern, m, axis=1).reshape(levels, -1)
    G.flags.writeable = False
    return G


def _cyclic_reduction(W, T, G, width):
    """Solve a ring's interleaved rows in place by parallel cyclic
    reduction, up to each row's scale: W is (2M,) with the ring y in W[:M],
    ``width`` entries per node (a state's u and v of each member: node i's
    at entries i*width to (i+1)*width - 1), and T is (M,) work; G is the
    ring's gamma table from ``_ring_table``.

    Level j, at distance s = 2^j nodes (s*width entries), replaces y by y +
    G[j] (y_{i-s} + y_{i+s}) in four contiguous numpy calls, whatever the
    width.  Every node does the same operations, with gamma >= 0, so the
    solve commutes bit for bit with rolls and reflections of the ring, keeps
    nonnegative data nonnegative, and solves each row as it would alone.
    """
    M = T.size
    y = W[:M]
    s = width  # the level's distance in entries
    for gamma in G:
        # W is y twice over, so its windows at M -/+ k are y rolled by +/- k
        W[M:] = y
        k = s % M
        np.add(W[M - k:2 * M - k], W[k:k + M], out=T)
        np.multiply(T, gamma, out=T)
        np.add(y, T, out=y)
        s *= 2


def _row_key(t, h, shift, coupling):
    """The key (r, sigma, diag) of the implicit row (shift + 2c) x_i -
    c (x_{i-1} + x_{i+1}), c = h coupling, scaled by its diagonal;
    StepSizeError when the row is not diagonally dominant."""
    c = h * coupling
    diag = shift + 2.0 * c
    sigma = shift / diag
    if not (shift > 0.0 and sigma > 0.0):
        raise StepSizeError(
            f"the implicit stage at t={t:g} with h={h:.3e} is not diagonally dominant")
    return c / diag, sigma, diag


# ARS(2,2,2): both implicit stages have the diagonal weight _GAMMA; the
# explicit weights of the last stage are (_DELTA, 1 - _DELTA)
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)


class _Operator:
    """The semi-discrete operator of one (params, config) pair, prepared once.

    A state is an (n+1, 2) array, node by node: row k holds u and v of node
    k.  Given ``decays``, one decay law per member, the operator marches a
    batch of B members that share the grid, the solver config, the limiter,
    D and tau: its state is an (n+1, B, 2) array, node by node, then member,
    then (u, v), and member b decays under decays[b].  ``load`` sets the
    state ``X``; a periodic node n takes node 0's values, and periodic
    sources see x_0 at node n, so node n stays bitwise equal to node 0
    through every stage.  ``rhs`` returns (u_t, v_t) of a state, ``explicit``
    only its explicit part, and ``solve`` inverts the implicit part; each
    returns a new array and writes into none it was given.  ``rhs`` and
    ``explicit`` also take an (n+1, B, 2) batch under the one law of an
    operator without ``decays`` (the steady Jacobian's nine colours).
    ``advance`` replaces X by one ARS(2,2,2) step.  Every member's numbers
    are bit for bit those of the member marched alone: only the ghost fill,
    the face fluxes and the divergence take the batch axis, each member's
    constants are contiguous arrays, and the ring holds each member's rows.
    """

    def __init__(self, params, config, decays=None):
        n = config.grid.n
        self.n = n
        self.dx = dx = config.grid.dx
        self.dx2 = dx * dx
        self.D = params.D
        self.tau = params.tau
        self.F = params.limiter.F
        self.bounded = params.limiter.bounded is True
        self.decays = (params.decay,) if decays is None else tuple(decays)
        self.batch = () if decays is None else (len(self.decays),)
        self.periodic = config.bc == "periodic"
        # the cell widths per batch shape, each member's a contiguous copy:
        # a broadcast column costs 3x the divide
        self.widths = {(): cell_widths(n, dx, config.bc)}
        self.source_u = config.source_u
        self.source_v = config.source_v
        self.sourced = self.source_u is not None or self.source_v is not None
        if self.sourced:
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
        # the keys of the u row and of each member's v row, their gammas and
        # scales, and the ring table and scale row built from them
        self.keys = [None] * (1 + len(self.decays))
        self.rows = [None] * (1 + len(self.decays))
        self.table = None
        self.width = 2 * len(self.decays)  # the ring's entries per node
        self.scale = np.empty(self.width * (n if self.periodic else n + 1))

    def load(self, u, v):
        """Set the state to (u, v), each (n+1,), or (n+1, B) for a batch; a
        periodic node n takes node 0's values."""
        shape = (self.n + 1,) + self.batch
        if np.shape(u) != shape or np.shape(v) != shape:
            raise ValidationError("state does not match the grid")
        self.X = np.stack((u, v), axis=-1, dtype=float)
        if self.periodic:
            self.X[-1] = self.X[0]

    def finite(self):
        """Whether the state is finite at every node."""
        return bool(np.isfinite(self.X).all())

    def _ghosted(self, w):
        """Nodes 0..n of w with one ghost node each side, wrapped when
        periodic, mirrored for Neumann."""
        g = np.empty((self.n + 3,) + w.shape[1:])
        g[1:-1] = w
        g[0], g[-1] = w[self.ghosts[0]], w[self.ghosts[1]]
        return g

    def _divergence(self, flux):
        """(flux_{i+1/2} - flux_{i-1/2}) / width_i at nodes 0..n, given the
        fluxes on the n inner faces; the boundary faces carry the wrapped
        fluxes, or none (Neumann)."""
        batch = flux.shape[1:]
        faces = np.zeros((self.n + 2,) + batch)
        faces[1:-1] = flux
        if self.periodic:
            faces[0], faces[-1] = flux[-1], flux[0]
        widths = self.widths.get(batch)
        if widths is None:
            widths = np.repeat(self.widths[()], math.prod(batch)).reshape((self.n + 1,) + batch)
            self.widths[batch] = widths
        return (faces[1:] - faces[:-1]) / widths

    def _flux(self, X):
        """The chemotactic fluxes u F(v_x) on the n inner faces, u taken by
        Fromm reconstruction biased to the donor by the flux sign: u_i + q_i
        or u_{i+1} - q_{i+1}, with q_k = (u_{k+1} - u_{k-1})/4."""
        u, v = X[..., 0], X[..., 1]
        Fv = self.F((v[1:] - v[:-1]) / self.dx)
        U = self._ghosted(u)
        q = 0.25 * (U[2:] - U[:-2])
        face_u = u[1:] - q[1:]
        np.copyto(face_u, u[:-1] + q[:-1], where=Fv >= 0.0)
        return face_u * Fv

    def _add_sources(self, t, R):
        # every member of a batch sees the same sources; R is C-contiguous,
        # so its (node, member, field) view is R itself
        R = R.reshape(self.n + 1, -1, 2)
        if self.source_u is not None:
            R[..., 0] += np.reshape(self.source_u(self.x, t), (-1, 1))
        if self.source_v is not None:
            R[..., 1] += np.reshape(self.source_v(self.x, t), (-1, 1)) / self.tau

    def rhs(self, X, t):
        """The right-hand side (u_t, v_t) of state X at time t."""
        u, v = X[..., 0], X[..., 1]
        R = np.empty(X.shape)
        G = self.D * (u[1:] - u[:-1]) / self.dx
        np.subtract(self._divergence(G), self._divergence(self._flux(X)), out=R[..., 0])
        V = self._ghosted(v)
        v_xx = ((V[2:] - 2.0 * v) + V[:-2]) / self.dx2
        if not self.periodic:
            # the mirrored three-point form rounds differently from 2(v1 - v0)
            v_xx[0] = 2.0 * (v[1] - v[0]) / self.dx2
            v_xx[-1] = 2.0 * (v[-2] - v[-1]) / self.dx2
        kappa = [decay.kappa(t) for decay in self.decays]
        kappa = kappa[0] if len(kappa) == 1 else np.array(kappa)
        np.divide(v_xx - kappa * v + u, self.tau, out=R[..., 1])
        if self.sourced:
            self._add_sources(t, R)
        return R

    def explicit(self, X, t):
        """The explicit part of the right-hand side of state X at time t:
        -(u F(v_x))_x + S_u and (u + S_v)/tau."""
        E = np.empty(X.shape)
        np.negative(self._divergence(self._flux(X)), out=E[..., 0])
        np.divide(X[..., 0], self.tau, out=E[..., 1])
        if self.sourced:
            self._add_sources(t, E)
        return E

    def solve(self, t, h, b):
        """The X with X - h L(t) X = b, both states of the operator's shape,
        where L(t) is the implicit part: D u_xx and (v_xx - kappa(t) v)/tau.

        Every row, u and v of each member, is solved by one
        ``_cyclic_reduction`` on a ring of the n periodic nodes, or of the
        2n-node even extension for Neumann: b's node order is the ring's, so
        b is copied in whole (and mirrored), and X is written through one
        scale row of each row's 1/diag times the product of its levels'
        alpha.  So the solution commutes bit for bit with rolls and
        reflections of b, and each row of X depends on that row of b alone.
        Each row's levels are derived on their own: the u row's depend on h
        alone, and each member's v row's on h and its kappa(t).  The
        operator keeps the last ones and rebuilds the table only when one
        changes, so a constant-decay march derives them once per step size
        (both stages of a step share h) and a time-varying kappa only the v
        rows, once per stage.  Raises StepSizeError when a row is not
        diagonally dominant (1 + h kappa/tau <= 0 under negative decay).
        """
        n, m = self.n, self.m
        keys = [_row_key(t, h, 1.0, self.coupling[0])]
        for decay in self.decays:
            shift = 1.0 + h * float(decay.kappa(t)) / self.tau
            keys.append(_row_key(t, h, shift, self.coupling[1]))
        if keys != self.keys:
            for k, key in enumerate(keys):
                if key != self.keys[k]:
                    gammas, scale = _reduction_levels(*key[:2])
                    self.rows[k] = gammas, scale / key[2]
            self.keys = keys
            (g_u, s_u), *v_rows = self.rows
            self.table = _ring_table([g for g_v, _ in v_rows for g in (g_u, g_v)], m)
            for e, (_, s_v) in enumerate(v_rows):
                self.scale[2 * e::self.width], self.scale[2 * e + 1::self.width] = s_u, s_v
        M = self.width * m
        W = np.empty(2 * M)
        ring = W[:M].reshape((m,) + b.shape[1:])
        if self.periodic:
            ring[:] = b[:-1]
        else:
            ring[:n + 1] = b
            ring[n + 1:] = ring[n - 1:0:-1]
        _cyclic_reduction(W, np.empty(M), self.table, self.width)
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
        dt max|F(v_x)| > dx/2 on X (over every member of a batch), past the
        positivity CFL that ``stable_dt`` assumes, raises CFLViolation.
        """
        X = self.X
        if not self.bounded:
            speed = float(np.max(np.abs(self.F((X[1:, ..., 1] - X[:-1, ..., 1]) / self.dx))))
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
    """The step dt of ``run(initial, params, config)`` and the frames it
    records, checked before anything is allocated: a state off the grid, a
    t_end before the initial time or out of the decay law's domain
    (``DecayLaw.check_times``), or more than MAX_STEPS steps or recorded
    values (frames times nodes) raises ValidationError."""
    if initial.u.size != config.grid.n + 1:
        raise ValidationError("initial state does not match the grid")
    if config.t_end < initial.t:
        raise ValidationError(f"t_end={config.t_end!r} lies before the initial time t={initial.t!r}")
    t_end = float(config.t_end)
    params.decay.check_times(t_end, "t_end")
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
    return dt_max, frames


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
    The run is ``run_batch``'s batch of one.
    """
    return next(run_batch([(initial, params, config)]))


def _shared(member):
    """What the members of one batch share: the config, the limiter, D, tau
    and the initial time."""
    initial, params, config = member
    return config, params.limiter, params.D, params.tau, initial.t


def run_batch(members):
    """``run`` of each (initial, params, config) of ``members``: a generator
    of their trajectories in order, each bit for bit its member's marched
    alone.

    ``check_run`` refuses a bad member before any marches.  Consecutive
    members that share the config, the limiter, D, tau and the initial time
    march together as one batch, each under its own decay law and from its
    own initial state, of at most MAX_STEPS recorded values in all (members
    times frames times nodes), so a batch holds no more frames than one run
    may; a longer run of such members splits into batches.  A batch is
    marched when its first trajectory is asked for.  A failure raises from
    the batch and yields none of its members: it is the batch's first in
    time, which need not be its first member's, so a caller that needs
    each member's own outcome marches the rest with ``run``.
    """
    members = list(members)
    checked = [check_run(*member) for member in members]
    start = 0
    while start < len(members):
        dt_max, frames = checked[start]
        size = MAX_STEPS // (frames * (members[start][2].grid.n + 1))
        end = start + 1
        while (end < len(members) and end - start < size
               and _shared(members[end]) == _shared(members[start])):
            end += 1
        yield from _march(members[start:end], dt_max)
        start = end


def _march(members, dt_max):
    """The trajectories of one ``run_batch`` batch, in order: one
    ``_Operator`` marches the members' (n+1, B, 2) state, or the (n+1, 2)
    state of a batch of one."""
    initial, params, config = members[0]
    if len(members) > 1:
        op = _Operator(params, config, [p.decay for _, p, _ in members])
        op.load(np.stack([i.u for i, _, _ in members], axis=1),
                np.stack([i.v for i, _, _ in members], axis=1))
    else:
        op = _Operator(params, config)
        op.load(initial.u, initial.v)
    n, t, t_end = config.grid.n, initial.t, float(config.t_end)

    if t < t_end - 1e-14 and not op.finite():
        raise InvalidState(f"non-finite state at t={t:g}")
    # each frame's state as (node, member, field), and each member's min_u
    times, states, min_u = [], [], []

    def record(low):
        times.append(t)
        states.append(op.X.reshape(n + 1, -1, 2))
        min_u.append(low)

    record(op.X[..., 0].min(axis=0))
    low = np.inf  # the minimum of u over the steps since the last frame
    steps = 0
    while t < t_end - 1e-14:
        dt = min(dt_max, t_end - t)
        op.advance(t, dt)
        t = t + dt
        if not op.finite():
            raise InvalidState(f"solution lost finiteness during the step to t={t:g}")
        steps += 1
        low = np.minimum(low, op.X[..., 0].min(axis=0))
        if steps % config.output_stride == 0 or t >= t_end - 1e-14:
            record(low)
            low = np.inf
    min_u = np.asarray(min_u).reshape(len(times), -1)
    trajectories = []
    for b in range(len(members)):
        u = [X[:, b, 0] for X in states]
        trajectories.append(Trajectory(
            grid=config.grid,
            bc=config.bc,
            times=np.asarray(times),
            us=np.asarray(u),
            vs=np.asarray([X[:, b, 1] for X in states]),
            mass=np.asarray([total_mass(frame, config.grid, config.bc) for frame in u]),
            min_u=min_u[:, b].copy(),
            steps_taken=steps,
            metadata={
                "bc": config.bc,
                "cfl_safety": config.cfl_safety,
                "dt": dt_max,
                "note": "zero-flux boundaries unless periodic; boundary choice is "
                "a solver convention recorded here",
            },
        ))
    return trajectories
