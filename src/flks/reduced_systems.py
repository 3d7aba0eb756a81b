"""Direct numerical integration of the reduced ODE/BVP systems.

These solvers use methods independent of the closed-form constructors in
exact_solutions: one RK4 march for the homogeneous and traveling reductions, a
damped Newton iteration on the PDE solver's own operator for steady states,
and a Picard loop around a sparse fourth-order boundary-value solve for the
self-similar profiles.  The equations are stated once: the traveling march
and the case II closure both read exact_solutions.travelling_drift.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import ConstantDecay, Grid1D, ModelParams, PowerLawDecay
from .errors import (
    BlowupDetected,
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

_KINDS = ("homogeneous", "steady_state", "travelling_wave", "self_similar")


@dataclass(frozen=True)
class ReducedProblem:
    """A reduced system: its kind, model parameters, case constants,
    domain interval and boundary/initial data."""

    kind: str
    params: ModelParams
    constants: dict = field(default_factory=dict)
    domain: tuple = (0.0, 1.0)
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not np.all(np.isfinite(self.domain)):
            raise ValidationError(f"{self.kind} needs a finite domain, got {self.domain!r}")
        if self.kind == "homogeneous" and not self.domain[1] > self.domain[0]:
            raise ValidationError(f"homogeneous needs an end after its start, got {self.domain!r}")
        if self.kind == "travelling_wave":
            if not self.constants.get("alpha"):
                raise ValidationError(f"{self.kind} requires a nonzero alpha")


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
# homogeneous reductions
# ---------------------------------------------------------------------------

@dataclass
class HomogeneousResult:
    ts: np.ndarray
    U: np.ndarray
    V: np.ndarray


def _rk4_march(f, z0, span, h):
    """Classical fixed-step RK4 of z' = f(s, z) over span = (s0, s1).

    The step is adjusted to divide the span evenly.  Returns the nodes and
    the states, one row per node; any component that exceeds 1e12 or is
    not finite raises BlowupDetected.
    """
    if not h > 0.0:
        raise StepSizeError(f"step must be positive, got {h!r}")
    s0, s1 = span
    n = max(1, int(round((s1 - s0) / h)))
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


def integrate_homogeneous(problem, h=1e-3):
    """RK4 integration of U' = 0, tau V' = -kappa(t) V + U over the domain.

    U is advanced with the same scheme so conservation is checked, not
    assumed; its increments vanish identically, keeping it constant to the
    last bit.
    """
    tau = problem.params.tau
    law = problem.params.decay
    z0 = [float(problem.data.get("U0", 1.0)), float(problem.data.get("V0", 0.0))]

    def f(t, z):
        return np.array([0.0, (-law.kappa(t) * z[1] + z[0]) / tau])

    ts, Z = _rk4_march(f, z0, problem.domain, h)
    return HomogeneousResult(ts, Z[:, 0], Z[:, 1])


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
    initial guess.  The Jacobian is a sparse forward difference coloured by
    the five-point stencil (ten residual calls per Newton step at any n, see
    ``_fd_jacobian``) and each step is one sparse LU solve; a halving line
    search keeps the defect monotone.  The solve stops when the defect is
    below ``tol`` or below the rows' round-off floor, eps times the largest
    row sum of |J_ij z_j|; the rows scale like 1/dx^2, so on fine grids
    (n >= 1024 on [0, 4]) the floor is the larger.  ``iterations``, in the
    result and in ``NoConvergence``, counts the Newton steps taken, at most
    ``max_iter``; a step whose line search fails ends the solve and counts.
    Only ``bc = "neumann"`` is accepted: periodic node n is node 0, which
    would make the Jacobian singular.
    """
    import scipy.sparse.linalg as spla

    bc = problem.data.get("bc", "neumann")
    if bc != "neumann":
        raise ValidationError(f"steady states need bc 'neumann', got {bc!r}")
    kappa0 = _decay_constant(problem, "kappa0", ConstantDecay)
    params = dataclasses.replace(problem.params, decay=ConstantDecay(kappa0))
    config = SolverConfig(Grid1D(*problem.domain, n), t_end=0.0, bc=bc)
    x = config.grid.nodes()
    u = np.asarray(problem.data.get("u_init", np.ones(n + 1)), dtype=float).copy()
    v = np.asarray(problem.data.get("v_init", u / max(kappa0, 1e-12)), dtype=float).copy()
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValidationError("steady-state guess u_init, v_init must be finite")
    w = cell_widths(n, config.grid.dx, bc)
    mass_target = float(np.dot(w, u))

    op = _Operator(params, config)
    rows = np.empty((2, n + 1))

    def residual(z):
        op.load(z[: n + 1], z[n + 1 :])
        du, dv = op.rhs(0, 0.0, rows)
        du[0] = float(np.dot(w, z[: n + 1])) - mass_target
        return np.concatenate((du, params.tau * dv))

    z = np.concatenate([u, v])
    history = []
    accept = tol
    steps = 0
    while True:
        R = residual(z)
        defect = float(np.max(np.abs(R)))
        history.append(defect)
        if defect < accept or steps == max_iter:
            break
        J = _fd_jacobian(residual, z, R, w)
        # the round-off floor of the rows: one eps of each row's absolute
        # terms |J_ij z_j|, which grow like 1/dx^2
        accept = max(tol, np.finfo(float).eps * float(np.max(abs(J) @ np.abs(z))))
        if defect < accept:
            break
        delta = spla.spsolve(J, -R)
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
    return SteadyStateResult(x, z[: n + 1], z[n + 1 :], defect, history, steps)


def _fd_jacobian(residual, z, R0, mass_row, eps=1e-7):
    """Sparse forward-difference Jacobian of the stacked (u, v) residual.

    Row i of either block reads only nodes i-2..i+2 of u and v (the Fromm
    face reconstruction), so columns five apart never share a row: every
    fifth u column is perturbed in one residual call, then every fifth v
    column, ten calls in all (Curtis, Powell & Reid, J. Inst. Math. Appl. 13,
    1974).  ``mass_row`` holds the trapezoid weights of the linear mass row
    (row 0), which is filled exactly instead of differenced.  Returns a CSC
    matrix.
    """
    import scipy.sparse as sp

    N = z.size // 2
    scale = eps * max(1.0, float(np.max(np.abs(z))))
    i = np.arange(N)
    rows, cols, vals = [], [], []
    for block in (0, N):
        for colour in range(5):
            zp = z.copy()
            zp[block + colour : block + N : 5] += scale
            dR = (residual(zp) - R0) / scale
            # row i's one perturbed column among i-2..i+2
            j = i + (colour - i + 2) % 5 - 2
            ok = (j >= 0) & (j < N)
            for rblock in (0, N):
                rows.append(rblock + i[ok])
                cols.append(block + j[ok])
                vals.append(dR[rblock + i[ok]])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    keep = rows != 0
    rows = np.concatenate([rows[keep], np.zeros(N, dtype=rows.dtype)])
    cols = np.concatenate([cols[keep], i])
    vals = np.concatenate([vals[keep], mass_row])
    return sp.csc_matrix((vals, (rows, cols)), shape=(2 * N, 2 * N))


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

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
    the exponentially growing homogeneous mode)."""
    import scipy.sparse as sp

    n = xi.size
    D1 = difference_matrix(1, n, h)
    D2 = difference_matrix(2, n, h)
    A = D2 - sp.diags(0.5 * xi) @ D1 + 0.5 * sp.identity(n, format="csr")
    robin = D1[n - 1] - sp.csr_matrix(([1.0 / xi[-1]], ([0], [n - 1])), shape=(1, n))
    return sp.vstack([D1[0], A[1 : n - 1], robin], format="csr")


@dataclass
class SelfSimilarResult:
    xi: np.ndarray
    U: np.ndarray
    V: np.ndarray
    S: np.ndarray
    defect_u: float
    defect_v: float
    s_form_defect: float
    residual_history: list
    converged: bool
    metadata: dict


def solve_self_similar(problem, n=2000, xi_max=10.0, tol=1e-10, max_iter=200):
    """Coupled similarity profiles on the half line [0, xi_max].

    Alternates (a) the exact quadrature of the U-equation's local first
    integral D U' + (xi/2) U - U F(S) = C1 (integrating factor
    e^(xi^2/4D) mu_e(xi) with mu_e = exp(-(1/D) int F(S))), anchored by
    U(0) = U0 with C1 = 0 realizing the even-symmetry condition U'(0) = 0,
    and (b) a fourth-order sparse solve of V'' - (xi/2) V' + V/2 = U with
    V'(0) = 0 and a no-growth condition at xi_max, inside picard_iterate's
    Anderson-mixed loop on S = V' (the engine of the case II closure).

    Nonconvergence is reported in the result (converged=False plus the
    residual history), never silently discarded.  defect_u / defect_v are
    sup-norm residuals of the two similarity equations from fourth-order
    differences of the returned profiles; s_form_defect is the residual of
    the differentiated gradient form tau (S/2 - (xi/2) S')' = S'' - mu S + U'
    which carries the decay weight mu and the time scale tau and is NOT
    satisfied by construction - the two stated forms disagree and both
    defects are surfaced.
    """
    import scipy.sparse.linalg as spla

    params = problem.params
    lim = params.limiter
    if not isinstance(lim, TanhLogLimiter):
        raise ValidationError("the self-similar reduction requires the tanh-log limiter")
    D = params.D
    tau = params.tau
    mu = _decay_constant(problem, "mu", PowerLawDecay)
    U0 = float(problem.data.get("U0", 1.0))
    C1 = float(problem.data.get("C1", 0.0))
    v_max = lim.v_max

    xi = np.linspace(0.0, xi_max, n + 1)
    h = xi[1] - xi[0]
    A = _build_similarity_operator(xi, h)
    lu = spla.splu(A.tocsc())

    def U_of(S):
        X = -(xi * xi) / (4.0 * D) + cumulative_integral(lim.F(S), h) / D
        return first_integral(X, h, 0, U0, C1 / D)

    def V_of(U):
        rhs = U.copy()
        rhs[0] = 0.0
        rhs[-1] = 0.0
        return lu.solve(rhs)

    def S_of(S):
        return d1_uniform(V_of(U_of(S)), h)

    history = []
    converged = True
    try:
        res = picard_iterate(S_of, np.zeros(n + 1), tol=tol, max_iter=max_iter)
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
    Sp = d1_uniform(S, h)
    lhs_s = tau * d1_uniform(0.5 * S - 0.5 * xi * Sp, h)
    rhs_s = d2_uniform(S, h) - mu * S + d1_uniform(U, h)
    RS = lhs_s - rhs_s

    return SelfSimilarResult(
        xi=xi,
        U=U,
        V=V,
        S=S,
        defect_u=float(np.max(np.abs(RU[inner]))),
        defect_v=float(np.max(np.abs(RV[inner]))),
        s_form_defect=float(np.max(np.abs(RS[inner]))),
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
