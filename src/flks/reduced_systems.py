"""Direct numerical integration of the reduced ODE/BVP systems.

These solvers use methods independent of the closed-form constructors in
exact_solutions: an RK4 march for the traveling reduction, a damped Newton
iteration on the PDE solver's own operator for steady states, and a Picard
loop around a fourth-order boundary-value solve for the self-similar
profiles.  Both linear systems are banded and solved in numpy by
``banded.band_solver``.  The equations are stated once: the traveling march
and the case II closure both read exact_solutions.travelling_drift.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .banded import band_matvec, band_solver
from .core import MAX_STEPS, ConstantDecay, Grid1D, ModelParams, PowerLawDecay
from .errors import (
    BlowupDetected,
    DomainError,
    NoConvergence,
    StepSizeError,
    ValidationError,
)
from .exact_solutions import travelling_drift
from .limiters import TanhLogLimiter
from .pde_solver import SolverConfig, _Operator, cell_widths
from .quadrature import (
    cumulative_integral,
    d1_uniform,
    d2_uniform,
    difference_matrix,
    first_integral,
    picard_iterate,
)

_KINDS = ("steady_state", "travelling_wave", "self_similar")


@dataclass(frozen=True)
class ReducedProblem:
    """A reduced system: its kind, model parameters, case constants, domain
    interval (its solver's grid or step count checks it) and boundary/initial
    data; traveling needs a nonzero alpha, self-similar the tanh-log limiter."""

    kind: str
    params: ModelParams
    constants: dict = field(default_factory=dict)
    domain: tuple = (0.0, 1.0)
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "travelling_wave" and not self.constants.get("alpha"):
            raise ValidationError(f"{self.kind} requires a nonzero alpha")
        if self.kind == "self_similar" and not isinstance(self.params.limiter, TanhLogLimiter):
            raise ValidationError("the self-similar reduction requires the tanh-log limiter")


def _decay_constant(problem, name, law):
    """constants[name], else the attribute of the decay law when it is a
    ``law``; any other law raises ValidationError instead of reading 0."""
    if name in problem.constants:
        return float(problem.constants[name])
    if isinstance(problem.params.decay, law):
        return float(getattr(problem.params.decay, name))
    raise ValidationError(
        f"the {problem.kind} reduction needs constants[{name!r}] or a "
        f"{law.__name__} law, got {type(problem.params.decay).__name__}"
    )


# ---------------------------------------------------------------------------
# steady states (constant decay)
# ---------------------------------------------------------------------------

@dataclass
class SteadyStateResult:
    x: np.ndarray
    U: np.ndarray
    V: np.ndarray
    defect: float
    defect_history: list
    iterations: int


def solve_steady_state(problem, n=128, tol=1e-10, max_iter=60):
    """Damped Newton solve for a zero-flux steady state under constant decay.

    The steady state is a zero of the PDE solver's own semi-discrete operator
    (one ``pde_solver._Operator``, prepared once, Neumann boundaries), so
    ``simulate`` started from it does not move.  The residual is its rows
    (u_t, tau v_t) at t = 0 (the decay is constant); the cell mass is a free
    direction of the u-equation, and row 0 pins the trapezoid mass of the
    initial guess.  The Newton vector is node-ordered, (u_0, v_0, u_1, v_1,
    ...), like the band rows.  The Jacobian is a forward difference coloured
    by its nine-wide band (one residual call on the batch of nine colours
    per Newton step at any n, see ``_fd_jacobian``) with the whole mass row
    as a border, and each step is one ``banded.band_solver`` solve; a
    halving line search keeps the defect monotone.  The solve stops when the defect is below ``tol`` or below the
    rows' round-off floor, eps times the largest row sum of |J_ij z_j|; the
    rows scale like 1/dx^2, so on fine grids (n >= 1024 on [0, 4]) the floor
    is the larger.  ``iterations``, in the
    result and in ``NoConvergence``, counts the Newton steps taken, at most
    ``max_iter``; a step whose line search fails, or whose Jacobian the
    banded solve refuses as singular, ends the solve and counts as not
    converged; its ``profile`` is the last iterate, node-ordered.  Only
    ``bc = "neumann"`` is accepted: periodic node n is node 0, which would
    make the Jacobian singular.
    """
    bc = problem.data.get("bc", "neumann")
    if bc != "neumann":
        raise ValidationError(f"steady states need bc 'neumann', got {bc!r}")
    kappa0 = _decay_constant(problem, "kappa0", ConstantDecay)
    params = dataclasses.replace(problem.params, decay=ConstantDecay(kappa0))
    config = SolverConfig(Grid1D(*problem.domain, n), t_end=0.0, bc=bc)
    x = config.grid.nodes()
    u = np.asarray(problem.data.get("u_init", np.ones(n + 1)), dtype=float).copy()
    v = np.asarray(problem.data.get("v_init", u / max(kappa0, 1e-12)), dtype=float).copy()
    if not (u.shape == v.shape == (n + 1,)):
        raise ValidationError(f"steady-state guess u_init, v_init must have n + 1 = {n + 1} "
                              f"entries, got {u.size} and {v.size}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValidationError("steady-state guess u_init, v_init must be finite")
    w = cell_widths(n, config.grid.dx, bc)
    mass_target = float(np.dot(w, u))

    op = _Operator(params, config)

    def residual(z):
        # the Newton vector's rows, or the rows but the mass row of each
        # member of an (n+1, B, 2) batch of them (_fd_jacobian's colours)
        R = op.rhs(z.reshape(n + 1, 2) if z.ndim == 1 else z, 0.0)
        R[..., 1] *= params.tau
        if z.ndim > 1:
            return R
        # a contiguous u: BLAS sums a strided one in another order
        R[0, 0] = float(np.dot(w, z[0::2].copy())) - mass_target
        return R.ravel()

    z = np.stack((u, v), axis=1).ravel()
    history = []
    accept = tol
    steps = 0
    while True:
        R = residual(z)
        defect = float(np.max(np.abs(R)))
        history.append(defect)
        if defect < accept or steps == max_iter:
            break
        rows, border = _fd_jacobian(residual, z, R, w)
        # the round-off floor of the rows: one eps of each row's absolute
        # terms |J_ij z_j|, which grow like 1/dx^2
        za = np.abs(z)
        floor = band_matvec(np.abs(rows), 4, za)
        floor[0] += np.abs(border) @ za
        accept = max(tol, np.finfo(float).eps * float(np.max(floor)))
        if defect < accept:
            break
        try:
            delta = band_solver(rows, 4, border)(-R)
        except DomainError:  # a singular Jacobian: NoConvergence below
            break
        steps += 1
        lam = 1.0
        while lam > 1e-4:
            trial = z + lam * delta
            d_trial = float(np.max(np.abs(residual(trial))))
            if d_trial < defect * (1.0 - 0.25 * lam) or d_trial < accept:
                z = trial
                break
            lam *= 0.5
        else:
            break
    if defect >= accept:
        raise NoConvergence(steps, defect, history, profile=z)
    U, V = z[0::2].copy(), z[1::2].copy()
    return SteadyStateResult(x, U, V, defect, history, steps)


def _fd_jacobian(residual, z, R0, mass_row):
    """Forward-difference Jacobian of the node-ordered (u_0, v_0, u_1, ...)
    residual, as band rows plus a border row.

    Node by node, the u-row of node i reads u_(i-2..i+2) and v_(i-1..i+1)
    (the Fromm face reconstruction) and the v-row u_i and v_(i-1..i+1), so
    row p reads only entries p-4..p+4 and columns nine apart never share a
    row: every ninth column is perturbed in one colour (Curtis, Powell &
    Reid, J. Inst. Math. Appl. 13, 1974), and each band entry is the
    single-column forward difference.  The nine colours are one batch, an
    (n+1, 9, 2) state whose member c is z with colour c perturbed, and
    ``residual`` takes them in one call (one ``_Operator.rhs``); each
    member's rows are bit for bit those of its own call.  ``mass_row``
    holds the trapezoid weights of the linear mass row (row 0), which is
    not differenced: its band row is zero and the whole row, in node
    order, is the border.  Returns (rows, border) for
    ``band_solver(rows, 4, border)``.
    """
    scale = 1e-7 * max(1.0, float(np.max(np.abs(z))))
    p = np.arange(z.size)
    Z = np.repeat(z.reshape(-1, 1, 2), 9, axis=1)
    Z[p // 2, p % 9, p % 2] += scale
    D = (residual(Z) - R0.reshape(-1, 1, 2)) / scale
    # row p's column p + k - 4 among p-4..p+4 has colour (p + k - 4) % 9
    k = np.arange(9)
    rows = D[(p // 2)[:, None], (p[:, None] + k - 4) % 9, (p % 2)[:, None]]
    rows[(p[:, None] + k < 4) | (p[:, None] + k - 4 >= z.size)] = 0.0
    rows[0] = 0.0
    border = np.zeros(z.size)
    border[::2] = mass_row
    return rows, border


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def step_count(span, h):
    """The n = max(1, round((s1 - s0)/h)) even steps that cover span = (s0, s1).

    A step h that is not positive raises StepSizeError; a span that is not
    finite and increasing, or n above MAX_STEPS, raises ValidationError,
    before anything is allocated.
    """
    if not h > 0.0:
        raise StepSizeError(f"step must be positive, got {h!r}")
    s0, s1 = span
    if not (np.isfinite(s1 - s0) and s1 > s0):  # NaN included
        raise ValidationError(f"the span from {s0!r} to {s1!r} must be finite and increasing")
    n = (s1 - s0) / h
    if not n <= MAX_STEPS:
        raise ValidationError(
            f"the span from {s0!r} to {s1!r} at step {h!r} takes {n:.3g} steps, "
            f"more than {MAX_STEPS}"
        )
    return max(1, int(round(n)))


def _rk4_march(f, z0, span, h):
    """Classical fixed-step RK4 of z' = f(s, z) over span = (s0, s1).

    The step is adjusted to divide the span evenly into step_count(span, h)
    steps.  Returns the nodes and the states, one row per node; any
    component that exceeds 1e12 or is not finite raises BlowupDetected.
    """
    n = step_count(span, h)
    s0, s1 = span
    h = (s1 - s0) / n
    ss = s0 + h * np.arange(n + 1)
    Z = np.empty((n + 1, len(z0)))
    Z[0] = z0
    for k in range(n):
        s, z = ss[k], Z[k]
        k1 = f(s, z)
        k2 = f(s + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(s + h, z + h * k3)
        Z[k + 1] = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.max(np.abs(Z[k + 1])) <= 1e12:
            raise BlowupDetected(f"solution exceeded 1e12 or is not finite at y={ss[k+1]:g}")
    return ss, Z


@dataclass
class TravellingWaveResult:
    y: np.ndarray
    U: np.ndarray
    dU: np.ndarray
    V: np.ndarray
    s: np.ndarray


def integrate_travelling_wave(problem, h=1e-3):
    """RK4 march of the traveling system on the state {U, V, s = V'}.

    U follows the once-integrated U-equation U' = w(s) U + c1 with the drift
    w = exact_solutions.travelling_drift, the one statement the case II
    closure also reads, and c1 = dU0 - w(s0) U0 fixed by the initial data;
    s' comes from the second reduced equation.  dU is reported as
    w(s) U + c1.  Any component that exceeds 1e12 or is not finite raises
    BlowupDetected.
    """
    params = problem.params
    alpha = float(problem.constants["alpha"])
    kappa0 = _decay_constant(problem, "kappa0", ConstantDecay)
    D, tau = params.D, params.tau
    U0, dU0, V0, s0 = (float(problem.data.get(k, 0.0)) for k in ("U0", "dU0", "V0", "s0"))

    def drift(S):
        return travelling_drift(params.limiter, D, alpha, S)

    c1 = dU0 - drift(s0) * U0

    def f(y, z):
        U, V, S = z
        return np.array([drift(S) * U + c1, S, (tau * S + kappa0 * V - U) / (alpha * alpha)])

    ys, Z = _rk4_march(f, [U0, V0, s0], problem.domain, h)
    U, V, S = Z.T
    return TravellingWaveResult(ys, U, drift(S) * U + c1, V, S)


# ---------------------------------------------------------------------------
# self-similar profiles (power-law decay, tanh-log limiter)
# ---------------------------------------------------------------------------

def _build_similarity_operator(xi, h):
    """Fourth-order discretization of V'' - (xi/2) V' + V/2 on [0, xi_max]
    with a symmetry row V'(0) = 0 and a no-growth Robin row
    V'(xi_max) - V(xi_max)/xi_max = 0 (admits the linear far field, excludes
    the exponentially growing homogeneous mode), as band rows with 4
    subdiagonals."""
    D1 = difference_matrix(1, xi.size, h)
    A = difference_matrix(2, xi.size, h)[:, 1:-1] - (0.5 * xi)[:, None] * D1
    A[:, 4] += 0.5
    A[0], A[-1] = D1[0], D1[-1]
    A[-1, 4] -= 1.0 / xi[-1]
    return A


@dataclass
class SelfSimilarResult:
    xi: np.ndarray
    U: np.ndarray
    V: np.ndarray
    S: np.ndarray
    defect_u: float
    defect_v: float
    residual_history: list
    converged: bool
    metadata: dict


def solve_self_similar(problem, n=2000):
    """Coupled similarity profiles on the half line problem.domain = [0, xi_max].

    Alternates (a) the exact quadrature of the U-equation's local first
    integral D U' + (xi/2) U - U F(S) = C1 (integrating factor
    e^(xi^2/4D) mu_e(xi) with mu_e = exp(-(1/D) int F(S))), anchored by
    U(0) = U0 with C1 = 0 realizing the even-symmetry condition U'(0) = 0,
    and (b) a fourth-order banded solve of V'' - (xi/2) V' + V/2 = U with
    V'(0) = 0 and a no-growth condition at xi_max, inside picard_iterate's
    Anderson-mixed loop on S = V', to a residual of 1e-10 in 200 iterations.

    The xi nodes are Grid1D(0, xi_max, n)'s: xi_max finite and positive, n >= 8.
    Nonconvergence is reported in the result (converged=False plus the
    residual history), never silently discarded.  defect_u / defect_v are
    sup-norm residuals of the two similarity equations from fourth-order
    differences of the returned profiles.
    """
    xi_lo, xi_max = map(float, problem.domain)
    if xi_lo != 0.0:
        raise ValidationError(
            f"the self-similar half line starts at the symmetry point 0, got domain {problem.domain!r}"
        )
    xi = Grid1D(xi_lo, xi_max, n).nodes()
    params = problem.params
    lim = params.limiter
    D = params.D
    tau = params.tau
    mu = _decay_constant(problem, "mu", PowerLawDecay)
    U0 = float(problem.data.get("U0", 1.0))
    C1 = float(problem.data.get("C1", 0.0))
    v_max = lim.v_max

    h = xi[1] - xi[0]
    solve = band_solver(_build_similarity_operator(xi, h), 4)

    def U_of(S):
        X = -(xi * xi) / (4.0 * D) + cumulative_integral(lim.F(S), h) / D
        return first_integral(X, h, 0, U0, C1 / D)

    def V_of(U):
        rhs = U.copy()
        rhs[0] = 0.0
        rhs[-1] = 0.0
        return solve(rhs)

    def S_of(S):
        return d1_uniform(V_of(U_of(S)), h)

    history = []
    converged = True
    try:
        res = picard_iterate(S_of, np.zeros(n + 1), tol=1e-10, max_iter=200)
        S = res.profile
        history = res.residuals
    except NoConvergence as exc:
        S = np.asarray(exc.profile)
        history = exc.history
        converged = False

    U = U_of(S)
    V = V_of(U)
    S = d1_uniform(V, h)

    inner = slice(4, -4)
    flux = U * lim.F(S)
    RU = D * d2_uniform(U, h) - d1_uniform(flux, h) + 0.5 * xi * d1_uniform(U, h) + 0.5 * U
    RV = d2_uniform(V, h) - 0.5 * xi * d1_uniform(V, h) + 0.5 * V - U

    return SelfSimilarResult(
        xi=xi,
        U=U,
        V=V,
        S=S,
        defect_u=float(np.max(np.abs(RU[inner]))),
        defect_v=float(np.max(np.abs(RV[inner]))),
        residual_history=history,
        converged=converged,
        metadata={
            "boundary_conditions": "U'(0)=V'(0)=0 (even symmetry), "
            "no-growth Robin at xi_max",
            "xi_max": xi_max,
            "a": lim.a,
            "v_max": v_max,
            "mu": mu,
            "tau": tau,
            "C1": C1,
            "U0": U0,
        },
    )
