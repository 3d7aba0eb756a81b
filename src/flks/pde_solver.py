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
implicit, solved by cyclic reduction on the periodic nodes or on the even
extension of the Neumann ones (mirror ghosts make the two the same
operator); the chemotactic flux, u/tau and the sources are explicit.  So
the step, cfl_safety * dx / (2 v_max), is bounded by the flux speed alone,
and cfl_safety sets the time error, which falls as dt^2.  A flux-off run
(v_max -> 0) takes one step per horizon.  Positivity of u is reported per
frame, never enforced.

The operator is prepared once per (params, config): ``_Operator`` binds the
constants, holds u and v stacked in ghost-padded stage states and writes
the flux terms into its own work arrays.  ``run`` and ``step`` march one
prepared operator, and ``reduced_systems`` takes the steady-state residual
from one.  The periodic seam: periodic node n is node 0, so loading a
state copies node 0 into node n and source terms are evaluated there at
x_0; every stage then keeps node n bitwise equal to node 0.
"""

import math
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


def stable_dt(params, config):
    """The step cfl_safety * dx / (2 v_max): the explicit flux, at speed
    |F| <= v_max, carries u across at most cfl_safety/2 of a cell per step
    (the positivity CFL of Chertock & Kurganov, Numer. Math. 111 (2008)).
    The implicit part sets no bound."""
    return config.cfl_safety * config.grid.dx / (2.0 * params.limiter.v_max)


def cell_widths(n, dx, bc):
    """The widths of the cells owned by nodes 0..n (half cells at Neumann ends)."""
    widths = np.full(n + 1, dx)
    if bc != "periodic":
        widths[0] = widths[-1] = 0.5 * dx
    return widths


def _cyclic_reduction(W, T, r, sigma):
    """Solve (sigma + 2r) x_i - r (x_{i-1} + x_{i+1}) = b_i on m periodic
    nodes in place, by parallel cyclic reduction: W is (2m,) with b in
    W[:m], where x is left; T is (m,) work.

    Each level eliminates the neighbours at distance s, divides by the new
    diagonal and doubles s, until r < 2^-60.  Every node does the same
    operations, so the solve commutes bit for bit with rolls and
    reflections of b.  sigma (the diagonal less 2r) is carried as its own
    number: for r near 1/2 it holds the smooth modes, which the diagonal
    would round away.
    """
    m = T.size
    x = W[:m]
    s = 1
    while r >= 2.0**-60:
        # W is x twice over, so its windows at m -/+ s are x rolled by +/- s
        W[m:] = x
        k = s % m
        np.multiply(r, np.add(W[m - k:2 * m - k], W[k:k + m], out=T), out=T)
        np.add(np.multiply(sigma + 2.0 * r, x, out=x), T, out=x)
        a = sigma * (sigma + 4.0 * r)  # (sigma + 2r)^2 - (2r)^2
        r2 = r * r
        q = a + 2.0 * r2  # the new diagonal, (sigma + 2r)^2 - 2 r^2
        np.divide(x, q, out=x)
        sigma, r = a / q, r2 / q
        s *= 2


# ARS(2,2,2): both implicit stages have the diagonal weight _GAMMA; the
# explicit weights of the last stage are (_DELTA, 1 - _DELTA)
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)


class _Operator:
    """The semi-discrete operator of one (params, config) pair, prepared once.

    A state is a (2, n+3) array: row 0 holds u, row 1 holds v, column k+1
    holds node k and columns 0 and n+2 are the ghosts.  ``load`` makes a
    periodic node n a copy of node 0, and periodic sources see x_0 at node
    n, so node n stays bitwise equal to node 0 through every stage.
    ``rhs`` fills the ghosts of one of the two stage states with column
    copies and writes (u_t, v_t) into a (2, n+1) array; ``explicit`` writes
    only the explicit part of it, and ``solve`` inverts the implicit part.
    ``advance`` takes one ARS(2,2,2) step of stage state 0 in place.
    Callers copy what they keep.
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
        self.states = [np.zeros((2, n + 3)) for _ in range(2)]
        self.nodes = [X[:, 1:-1] for X in self.states]
        self.F1, self.F2, self.B = (np.empty((2, n + 1)) for _ in range(3))
        # the implicit solve's nodes: n periodic ones, or the even extension
        self.m = m = n if self.periodic else 2 * n
        self.W, self.T = np.empty((2, 2 * m)), np.empty(m)
        # the implicit coupling per unit step: D/dx^2 for u, 1/(tau dx^2) for v
        self.coupling = (self.D / self.dx2, 1.0 / (self.tau * self.dx2))
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

    def _flux_differences(self, k):
        """Fill the ghosts of stage state k and return the differences of the
        diffusive (row 0) and chemotactic (row 1) face fluxes per cell width."""
        ghosts, hi, lo, u_hi, u_lo, u0, up = self._views[k][:7]
        for dst, src in ghosts:
            np.copyto(dst, src)
        dx = self.dx
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
        return np.divide(diffs, self.widths, out=diffs)

    def _add_sources(self, t, du, dv):
        if self.source_u is not None:
            np.add(du, self.source_u(self.x, t), out=du)
        if self.source_v is not None:
            np.add(dv, self.source_v(self.x, t) / self.tau, out=dv)

    def rhs(self, k, t, out):
        """Write the right-hand side of stage state k at time t into out."""
        vl, vc, vr, uc, V = self._views[k][7:]
        kap = self.kappa(t)
        diffs = self._flux_differences(k)
        dx2 = self.dx2
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
        self._add_sources(t, du, dv)
        return out

    def explicit(self, k, t, out):
        """Write the explicit part of the right-hand side of stage state k at
        time t into out: -(u F(v_x))_x + S_u and (u + S_v)/tau."""
        diffs = self._flux_differences(k)
        np.negative(diffs[1], out=out[0])
        np.divide(self.nodes[k][0], self.tau, out=out[1])
        self._add_sources(t, out[0], out[1])

    def solve(self, t, h, rhs, out):
        """Write the X with X - h L(t) X = rhs into out, both (2, n+1) node
        arrays, where L(t) is the implicit part: D u_xx and
        (v_xx - kappa(t) v)/tau.

        Each row is solved by ``_cyclic_reduction`` on the n periodic nodes,
        or on the 2n-node even extension for Neumann.  Raises StepSizeError
        when a row is not diagonally dominant (1 + h kappa/tau <= 0 under
        negative decay).
        """
        n, m = self.n, self.m
        shifts = (1.0, 1.0 + h * self.kappa(t) / self.tau)
        for row, (shift, coupling) in enumerate(zip(shifts, self.coupling)):
            c = h * coupling
            diag = shift + 2.0 * c
            sigma = shift / diag
            if not (shift > 0.0 and sigma > 0.0):
                raise StepSizeError(
                    f"the implicit stage at t={t:g} with h={h:.3e} is not diagonally dominant")
            W, b = self.W[row], rhs[row]
            if self.periodic:
                np.divide(b[:-1], diag, out=W[:n])
            else:
                np.divide(b, diag, out=W[:n + 1])
                np.divide(b[-2:0:-1], diag, out=W[n + 1:m])
            _cyclic_reduction(W, self.T, c / diag, sigma)
            out[row, :n] = W[:n]
            out[row, n] = W[0] if self.periodic else W[n]

    def advance(self, t, dt):
        """One ARS(2,2,2) step of stage state 0 from t to t + dt, in place.

        Stage 2 solves Y - h L Y = X + h E(X), h = _GAMMA dt; the last stage
        solves X' - h L X' = X + dt (_DELTA E(X) + (1 - _DELTA) E(Y))
        + (1 - _GAMMA) dt L Y, with dt L Y = (Y - X - h E(X))/_GAMMA.  E and
        L are the explicit and implicit parts, taken at the stage times
        t, t + h and t + dt.
        """
        X0, X1 = self.nodes
        F1, F2, B = self.F1, self.F2, self.B
        h = _GAMMA * dt
        self.explicit(0, t, F1)
        np.add(X0, np.multiply(h, F1, out=B), out=B)
        self.solve(t + h, h, B, X1)
        self.explicit(1, t + h, F2)
        np.multiply((1.0 - _GAMMA) / _GAMMA, np.subtract(X1, B, out=B), out=B)
        np.multiply(_DELTA, F1, out=F1)
        np.add(F1, np.multiply(1.0 - _DELTA, F2, out=F2), out=F1)
        np.add(B, np.multiply(dt, F1, out=F1), out=B)
        self.solve(t + dt, h, np.add(X0, B, out=B), X0)


def step(state, params, config, dt):
    """One ARS(2,2,2) step of length dt; kappa is evaluated at the stage times.

    Raises StepSizeError for dt <= 0 or a step the implicit stage cannot
    take, CFLViolation when dt exceeds ``stable_dt``, ValidationError when
    the state does not match config.grid, and InvalidState when the state
    is not finite or the result stops being finite.
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
    """Advance from the initial time to t_end in ARS(2,2,2) steps of
    ``stable_dt`` (the last one shortened to land on t_end).

    Frames are recorded every output_stride steps and at t_end.  Each
    frame's min_u entry is the minimum of u over every step since the
    previous frame (the first entry: the initial state), so a negative
    density between frames is still reported.  A t_end before the initial
    time raises ValidationError; a non-finite state raises InvalidState with
    the failing time.  The metadata records the step dt.
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
    dt_max = stable_dt(params, config)
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
            "note": "zero-flux boundaries unless periodic; boundary choice is "
            "a solver convention recorded here",
        },
    )
