"""Direct numerical integration of the reduced ODE/BVP systems.

These solvers are deliberately independent of the closed-form constructors in
exact_solutions: RK4 marching for the homogeneous and traveling reductions, a
damped Newton iteration for steady states, and a Picard loop around a sparse
fourth-order boundary-value solve for the self-similar profiles.  They are
the cross-checks the exact families are validated against.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ModelParams
from .errors import (
    BlowupDetected,
    NoConvergence,
    StepSizeError,
    ValidationError,
)
from .limiters import TanhLogLimiter
from .quadrature import cumulative_integral, d1_uniform, d2_uniform, picard_iterate

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
        if self.kind == "travelling_wave":
            if not self.constants.get("alpha"):
                raise ValidationError(f"{self.kind} requires a nonzero alpha")


# ---------------------------------------------------------------------------
# homogeneous reductions
# ---------------------------------------------------------------------------

@dataclass
class HomogeneousResult:
    ts: np.ndarray
    U: np.ndarray
    V: np.ndarray


def integrate_homogeneous(problem, h=1e-3):
    """RK4 integration of U' = 0, tau V' = -kappa(t) V + U over the domain.

    U is advanced with the same scheme so conservation is checked, not
    assumed; its increments vanish identically, keeping it constant to the
    last bit.
    """
    if h <= 0.0:
        raise StepSizeError(f"step must be positive, got {h!r}")
    t0, t1 = problem.domain
    tau = problem.params.tau
    law = problem.params.decay
    U0 = float(problem.data.get("U0", 1.0))
    V0 = float(problem.data.get("V0", 0.0))
    n = max(1, int(round((t1 - t0) / h)))
    h = (t1 - t0) / n
    ts = t0 + h * np.arange(n + 1)
    U = np.empty(n + 1)
    V = np.empty(n + 1)
    U[0], V[0] = U0, V0

    def dv(t, u, v):
        return (-law.kappa(t) * v + u) / tau

    for k in range(n):
        t, u, v = ts[k], U[k], V[k]
        k1u, k1v = 0.0, dv(t, u, v)
        k2u, k2v = 0.0, dv(t + 0.5 * h, u, v + 0.5 * h * k1v)
        k3u, k3v = 0.0, dv(t + 0.5 * h, u, v + 0.5 * h * k2v)
        k4u, k4v = 0.0, dv(t + h, u, v + h * k3v)
        U[k + 1] = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        V[k + 1] = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return HomogeneousResult(ts, U, V)


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


def _steady_residual(u, v, dx, D, kappa0, limiter, bc, u_bc, v_bc, mass_target):
    n = u.size - 1
    if bc == "neumann":
        ue = np.concatenate([u[1:2], u, u[-2:-1]])
        ve = np.concatenate([v[1:2], v, v[-2:-1]])
    else:
        ue = np.concatenate([[2 * u_bc[0] - u[1]], u, [2 * u_bc[1] - u[-2]]])
        ve = np.concatenate([[2 * v_bc[0] - v[1]], v, [2 * v_bc[1] - v[-2]]])
    s_face = (ve[1:] - ve[:-1]) / dx          # n+2 faces of the extended grid
    ubar = 0.5 * (ue[1:] + ue[:-1])
    J = ubar * limiter.F(s_face)
    Ru = D * (ue[2:] - 2.0 * u + ue[:-2]) / dx**2 - (J[1:] - J[:-1]) / dx
    Rv = (ve[2:] - 2.0 * v + ve[:-2]) / dx**2 - kappa0 * v + u
    if bc == "neumann":
        # zero-flux kills the boundary face fluxes entirely
        Ru[0] = D * 2.0 * (u[1] - u[0]) / dx**2 - J[1] / dx
        Ru[-1] = D * 2.0 * (u[-2] - u[-1]) / dx**2 + J[-2] / dx
        # the u-equation only fixes u up to total mass: pin it
        w = np.full(n + 1, dx)
        w[0] = w[-1] = 0.5 * dx
        Ru[0] = float(np.dot(w, u)) - mass_target
    else:
        Ru[0] = u[0] - u_bc[0]
        Ru[-1] = u[-1] - u_bc[1]
        Rv[0] = v[0] - v_bc[0]
        Rv[-1] = v[-1] - v_bc[1]
    return Ru, Rv


def solve_steady_state(problem, n=128, tol=1e-10, max_iter=60):
    """Damped Newton solve of 0 = D U'' - (U F(V'))', 0 = V'' - kappa0 V + U.

    Second-order central differences with centered face averages; under
    zero-flux boundaries the cell mass is a free direction of the u-equation,
    so one residual row pins the trapezoid mass of the initial guess.  The
    Jacobian is a sparse forward difference coloured by the three-point
    stencil (six residual calls per Newton step at any n, see
    ``_fd_jacobian``) and each step is one sparse LU solve; a halving line
    search keeps the defect monotone.
    """
    params = problem.params
    kappa0 = float(problem.constants.get("kappa0", getattr(params.decay, "kappa0", 0.0)))
    bc = problem.data.get("bc", "neumann")
    x0, x1 = problem.domain
    x = np.linspace(x0, x1, n + 1)
    dx = x[1] - x[0]
    u = np.asarray(problem.data.get("u_init", np.ones(n + 1)), dtype=float).copy()
    v = np.asarray(problem.data.get("v_init", u / max(kappa0, 1e-12)), dtype=float).copy()
    u_bc = problem.data.get("u_bc", (u[0], u[-1]))
    v_bc = problem.data.get("v_bc", (v[0], v[-1]))
    w = np.full(n + 1, dx)
    w[0] = w[-1] = 0.5 * dx
    mass_target = float(np.dot(w, u))
    mass_row = w if bc == "neumann" else None
    limiter = params.limiter
    D = params.D

    def residual(z):
        uu, vv = z[: n + 1], z[n + 1 :]
        Ru, Rv = _steady_residual(uu, vv, dx, D, kappa0, limiter, bc, u_bc, v_bc, mass_target)
        return np.concatenate([Ru, Rv])

    z = np.concatenate([u, v])
    history = []
    for it in range(max_iter):
        R = residual(z)
        defect = float(np.max(np.abs(R)))
        history.append(defect)
        if defect < tol:
            return SteadyStateResult(x, z[: n + 1], z[n + 1 :], defect, history, it)
        J = _fd_jacobian(residual, z, R, mass_row)
        delta = spla.spsolve(J, -R)
        lam = 1.0
        base = defect
        while lam > 1e-4:
            trial = z + lam * delta
            d_trial = float(np.max(np.abs(residual(trial))))
            if d_trial < base * (1.0 - 0.25 * lam) or d_trial < tol:
                z = trial
                break
            lam *= 0.5
        else:
            break
    R = residual(z)
    defect = float(np.max(np.abs(R)))
    history.append(defect)
    if defect >= tol:
        raise NoConvergence(len(history), defect, history, profile=z)
    return SteadyStateResult(x, z[: n + 1], z[n + 1 :], defect, history, len(history))


def _fd_jacobian(residual, z, R0, mass_row=None, eps=1e-7):
    """Sparse forward-difference Jacobian of the stacked (u, v) residual.

    Row i of either block reads only nodes i-1..i+1 of u and v, so columns
    three apart never share a row: every third u column is perturbed in one
    residual call, then every third v column, six calls in all (Curtis,
    Powell & Reid, J. Inst. Math. Appl. 13, 1974).  ``mass_row`` holds the
    trapezoid weights of the linear Neumann mass row (row 0), which is filled
    exactly instead of differenced.  Returns a CSC matrix.
    """
    N = z.size // 2
    scale = eps * max(1.0, float(np.max(np.abs(z))))
    i = np.arange(N)
    rows, cols, vals = [], [], []
    for block in (0, N):
        for colour in range(3):
            zp = z.copy()
            zp[block + colour : block + N : 3] += scale
            dR = (residual(zp) - R0) / scale
            # row i's one perturbed column among i-1..i+1
            j = i + (colour - i + 1) % 3 - 1
            ok = (j >= 0) & (j < N)
            for rblock in (0, N):
                rows.append(rblock + i[ok])
                cols.append(block + j[ok])
                vals.append(dR[rblock + i[ok]])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    if mass_row is not None:
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
    """RK4 march of the first-order traveling system {U, U', V, s = V'}.

    U'' comes from the expanded flux divergence of the first reduced
    equation; s' from the second.  Any component exceeding 1e12 raises
    BlowupDetected.
    """
    if h <= 0.0:
        raise StepSizeError(f"step must be positive, got {h!r}")
    params = problem.params
    alpha = float(problem.constants["alpha"])
    kappa0 = float(problem.constants.get("kappa0", getattr(params.decay, "kappa0", 0.0)))
    D, tau = params.D, params.tau
    lim = params.limiter
    Da2 = D * alpha * alpha
    y0, y1 = problem.domain
    z0 = np.asarray(
        [
            problem.data.get("U0", 0.0),
            problem.data.get("dU0", 0.0),
            problem.data.get("V0", 0.0),
            problem.data.get("s0", 0.0),
        ],
        dtype=float,
    )
    n = max(1, int(round((y1 - y0) / h)))
    h = (y1 - y0) / n
    ys = y0 + h * np.arange(n + 1)
    Z = np.empty((n + 1, 4))
    Z[0] = z0

    def f(y, z):
        U, W, V, S = z
        Sp = (tau * S + kappa0 * V - U) / (alpha * alpha)
        Upp = (W * (1.0 + alpha * lim.F(-alpha * S)) - alpha * alpha * U * lim.dF(-alpha * S) * Sp) / Da2
        return np.array([W, Upp, S, Sp])

    for k in range(n):
        y, z = ys[k], Z[k]
        k1 = f(y, z)
        k2 = f(y + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(y + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(y + h, z + h * k3)
        Z[k + 1] = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.max(np.abs(Z[k + 1])) > 1e12:
            raise BlowupDetected(f"solution exceeded 1e12 at y={ys[k+1]:g}")
    return TravellingWaveResult(ys, Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3])


# ---------------------------------------------------------------------------
# self-similar profiles (power-law decay, tanh-log limiter)
# ---------------------------------------------------------------------------

def _build_similarity_operator(xi, h):
    """Fourth-order discretization of V'' - (xi/2) V' + V/2 on [0, xi_max]
    with a symmetry row V'(0) = 0 and a no-growth Robin row
    V'(xi_max) - V(xi_max)/xi_max = 0 (admits the linear far field, excludes
    the exponentially growing homogeneous mode)."""
    n = xi.size
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    c2b = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h * h)
    c1b = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    c1e = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    # interior rows 2..n-3: the 5-point band, one column per offset
    inner = np.arange(2, n - 2)
    band = c2 - 0.5 * xi[inner, None] * c1
    band[:, 2] += 0.5
    rows = [np.repeat(inner, 5)]
    cols = [(inner[:, None] + np.arange(-2, 3)).ravel()]
    vals = [band.ravel()]
    # rows 1 and n-2: one-sided six-point second and five-point first
    # derivatives, mirrored at the far end
    near = c2b.copy()
    near[:5] += -0.5 * xi[1] * c1b
    near[1] += 0.5
    far = c2b.copy()
    far[:5] += 0.5 * xi[n - 2] * c1b
    far[1] += 0.5
    # row 0: V'(0) = 0; row n-1: the Robin row
    robin = -c1e
    robin[0] -= 1.0 / xi[-1]
    k6, k5 = np.arange(6), np.arange(5)
    edges = ((1, k6, near), (n - 2, n - 1 - k6, far), (0, k5, c1e), (n - 1, n - 1 - k5, robin))
    for i, c, v in edges:
        rows.append(np.full(c.size, i))
        cols.append(c)
        vals.append(v)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    A.eliminate_zeros()
    return A


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
    V'(0) = 0 and a no-growth condition at xi_max, inside a damped Picard
    loop on S = V'.

    Nonconvergence is reported in the result (converged=False plus the
    residual history), never silently discarded.  defect_u / defect_v are
    sup-norm residuals of the two similarity equations from fourth-order
    differences of the returned profiles; s_form_defect is the residual of
    the differentiated gradient form tau (S/2 - (xi/2) S')' = S'' - mu S + U'
    which carries the decay weight mu and the time scale tau and is NOT
    satisfied by construction - the two stated forms disagree and both
    defects are surfaced.
    """
    params = problem.params
    lim = params.limiter
    if not isinstance(lim, TanhLogLimiter):
        raise ValidationError("the self-similar reduction requires the tanh-log limiter")
    D = params.D
    tau = params.tau
    mu = float(problem.constants.get("mu", getattr(params.decay, "mu", 0.0)))
    U0 = float(problem.data.get("U0", 1.0))
    C1 = float(problem.data.get("C1", 0.0))
    v_max = lim.v_max

    xi = np.linspace(0.0, xi_max, n + 1)
    h = xi[1] - xi[0]
    A = _build_similarity_operator(xi, h)
    lu = spla.splu(A.tocsc())

    def U_of(S):
        E = cumulative_integral(lim.F(S), h) / D
        X = -(xi * xi) / (4.0 * D) + E
        U = U0 * np.exp(X)
        if C1 != 0.0:
            G = cumulative_integral(np.exp(-X), h)
            U = np.exp(X) * (U0 + (C1 / D) * G)
        return U

    def S_of(S):
        U = U_of(S)
        rhs = U.copy()
        rhs[0] = 0.0
        rhs[-1] = 0.0
        V = lu.solve(rhs)
        return d1_uniform(V, h)

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
    rhs = U.copy()
    rhs[0] = 0.0
    rhs[-1] = 0.0
    V = lu.solve(rhs)
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
