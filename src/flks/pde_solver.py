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
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import FieldPair, Grid1D
from .errors import CFLViolation, InvalidState, StepSizeError, ValidationError


@dataclass(frozen=True)
class SolverConfig:
    """Grid, boundary kind, CFL safety, horizon and output cadence."""

    grid: Grid1D
    t_end: float
    bc: str = "neumann"
    cfl_safety: float = 0.4
    output_stride: int = 20
    source_u: object = None
    source_v: object = None

    def __post_init__(self):
        if self.bc not in ("neumann", "periodic"):
            raise ValidationError(f"bc must be 'neumann' or 'periodic', got {self.bc!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValidationError("cfl_safety must lie in (0, 1]")
        if self.output_stride < 1:
            raise ValidationError("output_stride must be >= 1")


def stable_dt(params, config):
    """CFL-limited step: cfl * min(dx^2/(2 max(D, 1/tau)), dx*s0_eff/v_max)."""
    dx = config.grid.dx
    diffusive = dx * dx / (2.0 * max(params.D, 1.0 / params.tau))
    lim = params.limiter
    advective = dx * lim.gradient_scale / lim.v_max
    return config.cfl_safety * min(diffusive, advective)


@functools.lru_cache(maxsize=32)
def _ghost_fill(n, dx, bc):
    """The per-kind data of the ghost-padded operator on n cells.

    Returns the node map that pads nodes 0..n with one ghost on each side,
    the face map that extends the n interior face fluxes by the two
    boundary faces (index n picks an appended zero flux), and the cell
    widths of the nodes.
    """
    inner = np.arange(n)
    widths = np.full(n + 1, dx)
    if bc == "periodic":
        # node n aliases node 0; ghosts and boundary faces wrap around
        nodes = np.concatenate([[n - 1], inner, [0, 1]])
        faces = np.concatenate([[n - 1], inner, [0]])
    else:
        # mirror ghosts u[-1] = u[1], u[n+1] = u[n-1] realize u_x = 0; the
        # boundary faces carry no flux and the boundary nodes own half cells,
        # so conservation telescopes exactly
        nodes = np.concatenate([[1], inner, [n, n - 1]])
        faces = np.concatenate([[n], inner, [n]])
        widths[0] = widths[-1] = 0.5 * dx
    for cached in (nodes, faces, widths):
        cached.flags.writeable = False
    return nodes, faces, widths


def _rhs(u, v, t, params, config):
    """Semi-discrete right-hand side on the grid nodes."""
    dx = config.grid.dx
    D = params.D
    tau = params.tau
    lim = params.limiter
    kap = params.decay.kappa(t)
    nodes, faces, w = _ghost_fill(u.size - 1, dx, config.bc)
    U = u[nodes]
    V = v[nodes]

    # face i+1/2 between nodes i and i+1, i = 0..n-1
    um, u0, up, up2 = U[:-3], U[1:-2], U[2:-1], U[3:]
    Fv = lim.F((V[2:-1] - V[1:-2]) / dx)
    # Fromm reconstruction at the faces (donor biased by flux sign)
    ubar_pos = u0 + 0.25 * (up - um)
    ubar_neg = up - 0.25 * (up2 - u0)
    ubar = np.where(Fv >= 0.0, ubar_pos, ubar_neg)
    J = np.append(ubar * Fv, 0.0)[faces]
    G = np.append(D * (up - u0) / dx, 0.0)[faces]
    du = (G[1:] - G[:-1]) / w - (J[1:] - J[:-1]) / w
    vxx = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / (dx * dx)
    if config.bc == "neumann":
        # the mirrored three-point form rounds differently from 2(v1 - v0)
        vxx[0] = 2.0 * (v[1] - v[0]) / (dx * dx)
        vxx[-1] = 2.0 * (v[-2] - v[-1]) / (dx * dx)
    dv = (vxx - kap * V[1:-1] + U[1:-1]) / tau

    if config.source_u is not None:
        du = du + config.source_u(config.grid.nodes(), t)
    if config.source_v is not None:
        dv = dv + config.source_v(config.grid.nodes(), t) / tau
    return du, dv


def step(state, params, config, dt):
    """One SSP-RK3 step of length dt; kappa is evaluated at the stage times.

    Raises StepSizeError for dt <= 0, CFLViolation when dt exceeds the
    stability bound, and InvalidState when the result stops being finite.
    """
    if dt <= 0.0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    bound = stable_dt(params, config)
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolation(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")
    if not state.is_valid():
        raise InvalidState(f"non-finite state at t={state.t:g}")

    u0, v0, t = state.u, state.v, state.t
    du, dv = _rhs(u0, v0, t, params, config)
    u1 = u0 + dt * du
    v1 = v0 + dt * dv
    du, dv = _rhs(u1, v1, t + dt, params, config)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * du)
    v2 = 0.75 * v0 + 0.25 * (v1 + dt * dv)
    du, dv = _rhs(u2, v2, t + 0.5 * dt, params, config)
    out = FieldPair(
        (u0 + 2.0 * (u2 + dt * du)) / 3.0,
        (v0 + 2.0 * (v2 + dt * dv)) / 3.0,
        t + dt,
    )
    if not out.is_valid():
        raise InvalidState(f"solution lost finiteness during the step to t={out.t:g}")
    return out


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
    """Advance to t_end with the adaptive CFL step.

    Frames are recorded every output_stride steps and at t_end.  Each
    frame's min_u entry is the minimum of u over every step since the
    previous frame (the first entry: the initial state), so a negative
    density between frames is still reported.  Failures during stepping
    propagate with the failing time attached by step().
    """
    state = initial.copy()
    if state.u.size != config.grid.n + 1:
        raise ValidationError("initial state does not match the grid")
    if config.bc == "periodic":
        state.u[-1] = state.u[0]
        state.v[-1] = state.v[0]

    times = [state.t]
    us = [state.u.copy()]
    vs = [state.v.copy()]
    mass = [total_mass(state.u, config.grid, config.bc)]
    min_u = [float(np.min(state.u))]
    low = np.inf  # the minimum of u over the steps since the last frame
    steps = 0
    t_end = float(config.t_end)
    while state.t < t_end - 1e-14:
        dt = min(stable_dt(params, config), t_end - state.t)
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
            "note": "zero-flux boundaries unless periodic; boundary choice is "
            "a solver convention recorded here",
        },
    )
