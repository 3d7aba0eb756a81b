"""Closed-form and quadrature solution families for the flux-limited system.

Every constructor returns an ExactSolution whose (eval_u, eval_v) callables
accept scalar or array x and t, carry the full parameter record, and document
their validity assumptions.  The homogeneous families are x-independent; the
traveling families live on y = t - alpha*x.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CaseTag, ConstantDecay, FieldPair, classify
from .errors import ComplexRoots, DomainError, ValidationError
from .limiters import TanhLimiter, WeberFechnerLogLimiter
from .quadrature import (
    CachedLinearSolution,
    cumulative_integral,
    exp_integral_Ei,
    exp_kernel_lower,
    exp_kernel_upper,
    first_integral,
    picard_iterate,
)


@dataclass
class ExactSolution:
    """An evaluable (u, v) pair with its case tag and parameter record."""

    case: CaseTag
    label: str
    eval_u: object
    eval_v: object
    params: dict
    assumptions: tuple = ()

    def sample(self, grid, t):
        """Sample both fields on the nodes of a Grid1D at time t."""
        x = grid.nodes()
        u = np.broadcast_to(np.asarray(self.eval_u(x, t), dtype=float), x.shape)
        v = np.broadcast_to(np.asarray(self.eval_v(x, t), dtype=float), x.shape)
        return FieldPair(u, v, t)


def _x_independent(fn_t):
    """Lift a scalar function of time to an (x, t) field evaluator."""

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        if np.ndim(t) == 0:
            return np.broadcast_to(fn_t(float(t)), x.shape).copy() if x.ndim else fn_t(float(t))
        tv = np.asarray(t, dtype=float)
        vals = np.array([fn_t(float(tt)) for tt in tv.ravel()]).reshape(tv.shape)
        return np.broadcast_to(vals, np.broadcast_shapes(x.shape, tv.shape)).copy()

    return ev


def case1_homogeneous(params, C=1.0, V0=0.0, t0=0.0, tol=1e-12):
    """Spatially uniform solution u = C, tau v' + kappa(t) v = C.

    v(t) = mu(t)^-1 [mu(t0) V0 + (C/tau) int_t0^t mu(s) ds] with the
    integrating factor mu(t) = exp((1/tau) int_t0^t kappa).  Valid for any
    decay law on the law's own domain; the flux term vanishes identically so
    no limiter assumption enters.  The exponent uses the law's exact
    cumulative integral; tol governs the remaining particular-part
    quadrature (a looser value helps tabulated laws with many kinks).
    """
    law, tau = params.decay, params.tau
    v_of_t = CachedLinearSolution(
        lambda lo, hi: law.cumulative(lo, hi) / tau, C / tau, t0, V0, tol=tol
    )
    tag = classify(law)[0]
    return ExactSolution(
        case=tag,
        label=f"{tag.value}.homogeneous",
        eval_u=_x_independent(lambda t: C),
        eval_v=_x_independent(v_of_t),
        params={"C": C, "V0": V0, "t0": t0, "tau": tau, "decay": repr(law)},
        assumptions=("spatially uniform", "flux term vanishes identically"),
    )


def case3_homogeneous(mu, tau, C=1.0, V0=0.0, t0=1.0):
    """Uniform solution for kappa = mu/t, in closed form.

    Generic branch (mu + tau != 0):
        v(t) = C t/(mu+tau) + [(mu+tau) V0 - C t0]/(mu+tau) * (t0/t)^(mu/tau)
    Logarithmic branch (mu = -tau):
        v(t) = (C/tau) t ln(t/t0) + (V0/t0) t
    Evaluation is restricted to t > 0.
    """
    if t0 <= 0.0:
        raise DomainError("power-law decay requires t0 > 0")
    if tau <= 0.0:
        raise ValidationError("tau must be positive")
    mu = float(mu)
    tau = float(tau)

    if mu == -tau:

        def v_of_t(t):
            if t <= 0.0:
                raise DomainError("power-law decay requires t > 0")
            return (C / tau) * t * math.log(t / t0) + (V0 / t0) * t

        branch = "logarithmic (mu = -tau)"
    else:

        def v_of_t(t):
            if t <= 0.0:
                raise DomainError("power-law decay requires t > 0")
            return C * t / (mu + tau) + ((mu + tau) * V0 - C * t0) / (mu + tau) * (
                t0 / t
            ) ** (mu / tau)

        branch = "generic (mu + tau != 0)"

    return ExactSolution(
        case=CaseTag.III_POWER_LAW,
        label="III.homogeneous",
        eval_u=_x_independent(lambda t: C),
        eval_v=_x_independent(v_of_t),
        params={"mu": mu, "tau": tau, "C": C, "V0": V0, "t0": t0, "branch": branch},
        assumptions=("spatially uniform", "t > 0", branch),
    )


def case4_homogeneous(kappa0, lam, tau, C=1.0, V0=0.0, t0=0.0):
    """Uniform solution for kappa = kappa0 exp(lam t) via the exponential
    integral:

        v(t) = e^(-w(t)) [e^(w0) V0 + (C/(tau lam)) (Ei(w(t)) - Ei(w0))],
        w(t) = a e^(lam t),  a = kappa0/(tau lam).

    lam = 0 degenerates to the constant-decay closed form.  The Ei argument
    must stay nonzero and below the overflow guard.
    """
    if tau <= 0.0:
        raise ValidationError("tau must be positive")
    kappa0 = float(kappa0)
    lam = float(lam)
    if lam == 0.0:
        if kappa0 == 0.0:

            def v_of_t(t):
                return V0 + (C / tau) * (t - t0)

        else:

            def v_of_t(t):
                return C / kappa0 + (V0 - C / kappa0) * math.exp(
                    -kappa0 * (t - t0) / tau
                )

        branch = "lam = 0 (constant decay closed form)"
    else:
        if kappa0 == 0.0:
            raise DomainError("kappa0 = 0 puts the Ei argument at its singularity")
        a = kappa0 / (tau * lam)
        w0 = a * math.exp(lam * t0)
        ei0 = exp_integral_Ei(w0)

        def v_of_t(t):
            w = a * math.exp(lam * t)
            # e^(w0-w) keeps the homogeneous part a pure difference of
            # exponents; the particular part pairs e^(-w) with Ei(w)
            return math.exp(w0 - w) * V0 + (C / (tau * lam)) * (
                math.exp(-w) * (exp_integral_Ei(w) - ei0)
            )

        branch = "exponential-integral form"

    return ExactSolution(
        case=CaseTag.IV_EXPONENTIAL,
        label="IV.homogeneous",
        eval_u=_x_independent(lambda t: C),
        eval_v=_x_independent(v_of_t),
        params={
            "kappa0": kappa0,
            "lam": lam,
            "tau": tau,
            "C": C,
            "V0": V0,
            "t0": t0,
            "branch": branch,
        },
        assumptions=("spatially uniform", branch),
    )


# ---------------------------------------------------------------------------
# traveling waves (constant decay, tanh limiter)
# ---------------------------------------------------------------------------

def travelling_roots(alpha, tau, kappa0):
    """Roots r+- of alpha^2 r^2 - tau r - kappa0 = 0, ordered (r+, r-)."""
    disc = tau * tau + 4.0 * alpha * alpha * kappa0
    if disc < 0.0:
        raise ComplexRoots(f"discriminant {disc:.3g} < 0: no real wave roots")
    root = math.sqrt(disc)
    a2 = 2.0 * alpha * alpha
    return (tau + root) / a2, (tau - root) / a2


def travelling_drift(limiter, D, alpha, s):
    """The drift w(s) = (1 + alpha F(-alpha s)) / (D alpha^2) of the
    once-integrated traveling U-equation U' = w(s) U + C1 / (D alpha^2) on
    y = t - alpha x, s = V'(y): its one statement, read by the case II
    closure and the reduced traveling march.  The flux sign is that of the
    repulsive system (F -> -F), see case2_travelling_tanh.
    """
    return (1.0 + alpha * limiter.F(-alpha * s)) / (D * alpha * alpha)


@dataclass
class TravellingWaveSolution(ExactSolution):
    """Traveling-wave profiles on y = t - alpha*x plus closure diagnostics."""

    y: np.ndarray = None
    U: np.ndarray = None
    V: np.ndarray = None
    s: np.ndarray = None
    residual_history: list = field(default_factory=list)


def case2_travelling_tanh(
    params,
    alpha,
    s_profile=None,
    C1=0.0,
    U_ref=1.0,
    y0=0.0,
    window=(-40.0, 40.0),
    n=16384,
    tol=1e-10,
    max_iter=400,
    self_consistent=True,
):
    """Traveling-wave solution for constant decay with the tanh limiter.

    Given the wave gradient s(y) = V'(y), the cell profile follows from the
    once-integrated U-equation U' = w(s) U + C1/(D alpha^2), with the drift
    w = travelling_drift(...), through the integrating factor

        mu(y) = exp(-int_y0^y w(s(eta)) d eta),

    U(y) = mu^-1 [U_ref mu(y0) + C1/(D alpha^2) int_y0^y mu], and V(y) is the
    bounded particular solution of alpha^2 V'' - tau V' - kappa0 V = -U built
    from the two-sided exponential Green's kernel with roots r+- (r+ from
    above, r- from below; homogeneous amplitudes are 0 because both branches
    grow at one infinity).  Kernel integrals truncate at the window edges,
    which imposes V' = r+ V at the left edge and V' = r- V at the right one.

    The drift carries the flux sign of the repulsive system: the profile
    solves the PDE with F -> -F, and the configured (attractive) system
    only up to a residual of order 1 (``verify.pde_residual`` measures
    both).  With C1 = 0, U grows all the way to the window's right edge.

    The closure s = V'[U[s]] is found by a self-consistency loop from s = 0
    (or the supplied initial guess s_profile), iterated in the bounded
    variable tanh(alpha s / s0) by picard_iterate, the Anderson-mixed
    engine that the self-similar profiles also use; the loop gain of this
    map is large and negative.  At n = 16384 the closure converges in 59
    iterations at the README fig-1 parameters, in 50 at alpha = 1.0, and in
    75 to 118 at D = 0.5 and v_max = 2 or 3.  The residual history is
    recorded on the solution.  With self_consistent=False the supplied
    s_profile is used as-is (single pass, no closure).
    """
    limiter = params.limiter
    if not isinstance(limiter, TanhLimiter):
        raise ValidationError("traveling tanh wave requires the tanh limiter")
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero")
    if not isinstance(params.decay, ConstantDecay):
        raise ValidationError("traveling tanh wave requires constant decay")
    D, tau, kappa0 = params.D, params.tau, params.decay.kappa0
    r_plus, r_minus = travelling_roots(alpha, tau, kappa0)
    dr = r_plus - r_minus
    Da2 = D * alpha * alpha

    y = np.linspace(window[0], window[1], n + 1)
    h = y[1] - y[0]
    if not (window[0] <= y0 <= window[1]):
        raise ValidationError("y0 must lie inside the window")
    i0 = int(round((y0 - window[0]) / h))
    y0 = y[i0]

    def U_of(s):
        w = travelling_drift(limiter, D, alpha, s)
        E = cumulative_integral(w, h)
        return first_integral(E - E[i0], h, i0, U_ref, C1 / Da2), w

    def green(f):
        # the bounded solution V of alpha^2 V'' - tau V' - kappa0 V = -f
        return (exp_kernel_lower(f, h, r_minus) + exp_kernel_upper(f, h, r_plus)) / (
            alpha * alpha * dr
        )

    s_init = np.zeros(n + 1) if s_profile is None else np.asarray(
        [float(s_profile(yy)) for yy in y]
    )

    history = []
    if self_consistent:
        cap = 1.0 - 1e-12
        k_tanh = alpha / limiter.s0

        def g_map(g):
            s = np.arctanh(np.clip(g, -cap, cap)) / k_tanh
            U, w = U_of(s)
            # s = V' is the kernel applied to U' = U w + C1/Da2 (exact)
            return np.tanh(k_tanh * green(U * w + C1 / Da2))

        result = picard_iterate(g_map, np.tanh(k_tanh * s_init), tol=tol, max_iter=max_iter)
        history = result.residuals
        s = np.arctanh(np.clip(result.profile, -cap, cap)) / k_tanh
    else:
        s = s_init

    U, w = U_of(s)
    V = green(U)

    def make_eval(profile):
        spline = None

        def ev(x, t):
            nonlocal spline
            if spline is None:  # the first call (exact never makes it): scipy only here
                from scipy.interpolate import CubicSpline

                spline = CubicSpline(y, profile, extrapolate=False)
            yy = np.asarray(t, dtype=float) - alpha * np.asarray(x, dtype=float)
            out = spline(yy)
            if np.any(np.isnan(np.atleast_1d(out))):
                raise DomainError(
                    f"evaluation leaves the computed window y in [{y[0]}, {y[-1]}]"
                )
            return out

        return ev

    return TravellingWaveSolution(
        case=CaseTag.II_CONSTANT,
        label="II.travelling_tanh",
        eval_u=make_eval(U),
        eval_v=make_eval(V),
        params={
            "alpha": alpha,
            "kappa0": kappa0,
            "D": D,
            "tau": tau,
            "v_max": limiter.v_max,
            "s0": limiter.s0,
            "C1": C1,
            "U_ref": U_ref,
            "y0": y0,
            "V0": 0.0,
            "r_plus": r_plus,
            "r_minus": r_minus,
            "window": tuple(window),
            "n": n,
        },
        assumptions=(
            "constant decay, tanh limiter",
            "bounded-on-window Green's kernel fixes the additive level of V",
            "far-field constants C1s, C2s of the gradient equation set to 0",
        ),
        y=y,
        U=U,
        V=V,
        s=s,
        residual_history=history,
    )


# ---------------------------------------------------------------------------
# cell-free fronts (case IV traveling reduction)
# ---------------------------------------------------------------------------

def cellfree_roots(alpha, tau, kappa0, lam):
    """Roots of alpha^2 r^2 - tau r - (kappa0 - tau lam) = 0, (r1, r2): the
    traveling roots at the effective decay kappa0 - tau lam.  Complex roots
    (oscillatory fronts) are out of scope and raise ComplexRoots."""
    return travelling_roots(alpha, tau, kappa0 - tau * lam)


def case4_cellfree_front(alpha, tau, kappa0, lam, A=1.0, B=0.0):
    """Cell-free exponential front:

        u = 0,  v(x,t) = e^(-lam t) (A e^(r1 (t - alpha x)) + B e^(r2 ...)),
        r_{1,2} = (tau +- sqrt(tau^2 + 4 alpha^2 (kappa0 - tau lam)))/(2 alpha^2).

    Substituting shows the damped front satisfies the constant-coefficient
    signal equation tau v_t = v_xx - kappa0 v exactly: each branch obeys
    tau (r - lam) = alpha^2 r^2 - kappa0, which is the root equation.  The
    e^(-lam t) modulation therefore trades the exponential decay law against
    a constant effective decay kappa0; residual checks run against that
    constant-coefficient equation.
    """
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero")
    r1, r2 = cellfree_roots(alpha, tau, kappa0, lam)

    def ev_v(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        yy = t - alpha * x
        return np.exp(-lam * t) * (A * np.exp(r1 * yy) + B * np.exp(r2 * yy))

    def ev_u(x, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(t))
        return np.zeros(shape) if shape else 0.0

    return ExactSolution(
        case=CaseTag.IV_EXPONENTIAL,
        label="IV.cellfree_front",
        eval_u=ev_u,
        eval_v=ev_v,
        params={
            "alpha": alpha,
            "tau": tau,
            "kappa0": kappa0,
            "lam": lam,
            "A": A,
            "B": B,
            "r1": r1,
            "r2": r2,
        },
        assumptions=(
            "cell-free (u = 0)",
            "exact for the constant-coefficient signal equation "
            "tau v_t = v_xx - kappa0 v",
        ),
    )


# ---------------------------------------------------------------------------
# case IV X4-invariant quadrature (Weber-Fechner sensing)
# ---------------------------------------------------------------------------

@dataclass
class X4QuadratureResult:
    """Cell profiles U(x, t) for the signal ansatz v = e^(lam t) V(x).

    compatibility_diagnostic is the t-variation (max over x of the spread
    across the sampled t) of e^(-lam t) U(x, t), which must vanish for the
    closure to be exactly time-consistent; it is measured, never assumed.
    """

    x: np.ndarray
    t_samples: np.ndarray
    U: np.ndarray
    mu: np.ndarray
    compatibility_diagnostic: float
    params: dict


def case4_X4_quadrature(
    params,
    lam,
    dV_profile,
    x_grid,
    t_samples,
    C1_fn=None,
    U_ref=1.0,
    x0=0.0,
):
    """Quadrature cell profile for Weber-Fechner sensing under the ansatz
    v(x,t) = e^(lam t) V(x):

        mu(x,t) = exp(-(v_max/D) int_x0^x ln(1 + e^(2 lam t) V'(s)^2/s0^2) ds)
        U(x,t)  = mu^-1 [U_ref mu(x0,t) + (C1(t)/D) int_x0^x mu(s,t) ds]

    dV_profile is V' as a function of x.  C1_fn defaults to zero.
    """
    limiter = params.limiter
    if not isinstance(limiter, WeberFechnerLogLimiter):
        raise ValidationError("the X4 quadrature requires Weber-Fechner sensing")
    D = params.D
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValidationError("x_grid must be a 1D array with at least 4 nodes")
    hs = np.diff(x)
    if not np.allclose(hs, hs[0], rtol=1e-12, atol=0.0):
        raise ValidationError("x_grid must be uniform")
    h = float(hs[0])
    i0 = int(np.argmin(np.abs(x - x0)))
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if C1_fn is None:
        C1_fn = lambda t: 0.0

    dV = np.asarray([float(dV_profile(xx)) for xx in x])

    U = np.empty((ts.size, x.size))
    mu = np.empty_like(U)
    for j, t in enumerate(ts):
        z = math.exp(lam * t) * dV
        E = cumulative_integral(limiter.F(z), h) / D
        X = E - E[i0]  # -log of mu anchored at x0, so mu(x0, t) = 1
        mu[j] = np.exp(-X)
        U[j] = first_integral(X, h, i0, U_ref, C1_fn(t) / D)

    scaled = np.exp(-lam * ts)[:, None] * U
    diag = float(np.max(scaled.max(axis=0) - scaled.min(axis=0))) if ts.size > 1 else 0.0

    return X4QuadratureResult(
        x=x,
        t_samples=ts,
        U=U,
        mu=mu,
        compatibility_diagnostic=diag,
        params={
            "lam": lam,
            "D": D,
            "v_max": limiter.v_max,
            "s0": limiter.s0,
            "U_ref": U_ref,
            "x0": float(x[i0]),
        },
    )
