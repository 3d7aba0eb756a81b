"""Closed-form and quadrature solution families for the flux-limited system.

Every constructor returns an ExactSolution whose (eval_u, eval_v) callables
accept scalar or array x and t, carry the full parameter record, and document
their validity assumptions.  A field that is x-independent says so: its
evaluator carries the time function it lifts (``of_t``), and
ExactSolution.frames samples it as one value per time.  Both fields of the
homogeneous families are, and so is the cell-free front's u = 0.  The
traveling families live on y = t - alpha*x.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_STEPS, ConstantDecay, TabulatedDecay
from .errors import (
    ComplexRoots,
    DivergenceDetected,
    DomainError,
    NoConvergence,
    OverflowGuard,
    ValidationError,
)
from .limiters import TanhLimiter
from .quadrature import (
    cumulative_integral,
    d1_uniform,
    exp_integral_Ei,
    exp_kernel,
    # unused here, but the benchmark's tracer wraps these two names in this
    # module until it stops timing them
    exp_kernel_lower,
    exp_kernel_upper,
    first_integral,
    linear_relaxation,
    picard_iterate,
)


@dataclass
class ExactSolution:
    """An evaluable (u, v) pair with its parameter record and assumptions.
    An x-independent field, as the homogeneous families' u and v and the
    cell-free front's u = 0 are, is an evaluator that carries ``of_t``."""

    eval_u: object
    eval_v: object
    params: dict
    assumptions: tuple = ()

    def frames(self, x, ts):
        """(u, v) on the nodes x at each of the times ts.  A field stated
        x-independent (its evaluator carries ``of_t``) is one float per time,
        from one call of its time function on all of ts; any other is a
        read-only broadcast array over x per time."""
        ts = np.asarray(ts, dtype=float)
        fields = [
            ev.of_t(ts).tolist() if hasattr(ev, "of_t")
            else [np.broadcast_to(np.asarray(ev(x, t), dtype=float), np.shape(x)) for t in ts]
            for ev in (self.eval_u, self.eval_v)
        ]
        return zip(*fields)


def _no_overflow(fn_t):
    """fn_t with a float overflow, Python's OverflowError or numpy's, raised
    as OverflowGuard, a numerical failure.  An infinite input stays a value."""

    def guarded(t):
        try:
            with np.errstate(over="raise"):
                return fn_t(t)
        except (OverflowError, FloatingPointError):
            at = f"[{np.min(t):g}, {np.max(t):g}]"
            raise OverflowGuard(f"closed form overflows double precision at t in {at}") from None

    return guarded


def _x_independent(fn_t):
    """Lift a function of an array of times to an (x, t) field evaluator that
    keeps, as ``of_t``, its statement that the field is x-independent: fn_t
    guarded against overflow, taking a float to a float, an array to an array."""
    fn_t = _no_overflow(fn_t)

    def of_t(t):
        t = np.asarray(t, dtype=float)
        vals = np.broadcast_to(fn_t(t), t.shape)
        return vals if t.ndim else float(vals)

    def ev(x, t):
        vals = of_t(t)
        shape = np.broadcast_shapes(np.shape(x), np.shape(vals))
        return np.broadcast_to(vals, shape).copy() if shape else vals

    ev.of_t = of_t
    return ev


def _uniform(C, v_of_t, params, *assumptions):
    """The spatially uniform solution u = C, v = v_of_t(t), both fields
    x-independent; its assumptions are "spatially uniform", then the
    family's own."""
    return ExactSolution(
        eval_u=_x_independent(lambda t: C),
        eval_v=_x_independent(v_of_t),
        params=params,
        assumptions=("spatially uniform", *assumptions),
    )


def case1_homogeneous(params, C=1.0, V0=0.0, t0=0.0):
    """Spatially uniform solution u = C, tau v' + kappa(t) v = C.

    v(t) = mu(t)^-1 [mu(t0) V0 + (C/tau) int_t0^t mu(s) ds] with the
    integrating factor mu(t) = exp((1/tau) int_t0^t kappa).  Valid for any
    decay law on the law's own domain; the flux term vanishes identically so
    no limiter assumption enters.  v comes from quadrature.linear_relaxation
    on whole arrays of times, panels of 6-node Gauss-Legendre between t0, the
    times and a tabulated law's knots, exponents from the law's cumulative.
    """
    law, tau = params.decay, params.tau
    knots = law.times if isinstance(law, TabulatedDecay) else ()

    def v_of_t(t):
        return linear_relaxation(lambda s: law.kappa(s) / tau,
                                 lambda lo, hi: law.cumulative(lo, hi) / tau,
                                 C / tau, t0, V0, t, knots)

    return _uniform(C, v_of_t, {"C": C, "V0": V0, "t0": t0, "tau": tau, "decay": repr(law)},
                    "flux term vanishes identically")


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

    logarithmic = mu == -tau
    branch = "logarithmic (mu = -tau)" if logarithmic else "generic (mu + tau != 0)"

    def v_of_t(t):
        if np.any(t <= 0.0):
            raise DomainError("power-law decay requires t > 0")
        if logarithmic:
            return (C / tau) * t * np.log(t / t0) + (V0 / t0) * t
        return C * t / (mu + tau) + ((mu + tau) * V0 - C * t0) / (mu + tau) * (
            t0 / t
        ) ** (mu / tau)

    return _uniform(C, v_of_t,
                    {"mu": mu, "tau": tau, "C": C, "V0": V0, "t0": t0, "branch": branch},
                    "t > 0", branch)


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
                return C / kappa0 + (V0 - C / kappa0) * np.exp(
                    -kappa0 * (t - t0) / tau
                )

        branch = "lam = 0 (constant decay closed form)"
    else:
        if kappa0 == 0.0:
            raise DomainError("kappa0 = 0 puts the Ei argument at its singularity")
        a = kappa0 / (tau * lam)
        w_of_t = _no_overflow(lambda t: a * np.exp(lam * t))
        w0 = float(w_of_t(t0))
        ei0 = exp_integral_Ei(w0)

        def v_of_t(t):
            w = w_of_t(t)
            ei = np.reshape([exp_integral_Ei(x) for x in w.ravel().tolist()], w.shape)
            # e^(w0-w) keeps the homogeneous part a pure difference of
            # exponents; the particular part pairs e^(-w) with Ei(w)
            return np.exp(w0 - w) * V0 + (C / (tau * lam)) * (np.exp(-w) * (ei - ei0))

        branch = "exponential-integral form"

    return _uniform(
        C,
        v_of_t,
        {
            "kappa0": kappa0,
            "lam": lam,
            "tau": tau,
            "C": C,
            "V0": V0,
            "t0": t0,
            "branch": branch,
        },
        branch,
    )


# ---------------------------------------------------------------------------
# traveling waves (constant decay, tanh limiter)
# ---------------------------------------------------------------------------

def travelling_roots(alpha, tau, kappa0):
    """Roots r+- of alpha^2 r^2 - tau r - kappa0 = 0, ordered (r+, r-).
    Roots beyond double precision (alpha^2 underflowing, say) raise
    ValidationError."""
    disc = tau * tau + 4.0 * alpha * alpha * kappa0
    if disc < 0.0:
        raise ComplexRoots(f"discriminant {disc:.3g} < 0: no real wave roots")
    root = math.sqrt(disc)
    a2 = 2.0 * alpha * alpha
    roots = ((tau + root) / a2, (tau - root) / a2) if a2 else (math.inf, math.inf)
    if not all(map(math.isfinite, roots)):
        raise ValidationError(f"alpha = {alpha:g} puts the wave roots beyond double precision")
    return roots


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
    """Traveling-wave profiles on y = t - alpha*x plus closure diagnostics:
    the finest level's residual history and one (n, iterations) entry per
    closure level that ran, coarsest first."""

    y: np.ndarray = None
    U: np.ndarray = None
    V: np.ndarray = None
    s: np.ndarray = None
    residual_history: list = field(default_factory=list)
    levels: list = field(default_factory=list)


# the case II closure starts from its solution on _REFINE times fewer
# intervals while that coarser level has at least _COARSEST_N
_COARSEST_N = 1024
_REFINE = 4


def _hermite(f, df, h, q):
    """The cubic Hermite interpolant of the nodal values f and slopes df on a
    uniform grid of step h, at the node coordinates q in [0, f.size - 1]."""
    i = np.minimum(q.astype(int), f.size - 2)
    r = q - i
    return ((1 + 2 * r) * f[i] + r * h * df[i]) * (1 - r) ** 2 + (
        (3 - 2 * r) * f[i + 1] - (1 - r) * h * df[i + 1]
    ) * r * r


def case2_travelling_tanh(
    params, alpha, C1=0.0, U_ref=1.0, y0=0.0, window=(-40.0, 40.0), n=16384
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

    The closure s = V'[U[s]] is found by a self-consistency loop, iterated
    in the bounded variable tanh(alpha s / s0) by picard_iterate, the
    Anderson-mixed engine that the self-similar profiles also use, to a
    residual below 1e-10 within 400 iterations; the loop gain of this map
    is large and negative.  From s = 0 the loop takes as many iterations on
    a coarse grid as on a fine one (59 at the README fig-1 parameters at
    n = 1024, 4096 and 16384), so it starts from a coarser solution (nested
    iteration): while n is a multiple of _REFINE = 4 and n/4 >= _COARSEST_N
    = 1024, the same closure is first solved on n/4 intervals of the same
    window, and its s, carried to this grid by cubic Hermite interpolation
    with fourth-order nodal slopes, starts this level's loop.  A coarse
    level only supplies a start: the coarsest level starts from s = 0, and
    so does a level whose coarser level failed (NoConvergence,
    DivergenceDetected or DomainError) or that fails from its carried
    start, so every level converges where its single-level solve does.
    Each level prepares its two exponential kernels (quadrature.exp_kernel)
    once, for all its iterations; a level where that fails (|r h| > 5,
    DomainError) is a failed level like the others.  At the default
    n = 16384 the levels are 1024, 4096 and 16384.  With alpha = 1.1,
    kappa0 = 0.5, s0 = 1.4 and the window +-40 they take 59, 25 and 17
    iterations at fig-1 (D = 0.8, v_max = 1.1), 88, 30 and 22 at D = 0.5,
    99, 38 and 23 at v_max = 2, 101, 40 and 24 at v_max = 3, and 125, 65
    and 28 at D = 0.5 with v_max = 2; D = 0.5 with v_max = 3 ends in
    NoConvergence.  At alpha = 1.0 fig-1 takes 51, 23 and 16.  ``levels``
    records (n, iterations) for each level that ran, a failed one included,
    coarsest first; ``residual_history`` is the finest level's.

    The evaluators interpolate U and V by cubic Hermite on the profile
    grid, with the nodal slopes U' of the first integral and V' = the kernel
    applied to U'; a sample outside the window raises DomainError.
    """
    limiter = params.limiter
    if not isinstance(limiter, TanhLimiter):
        raise ValidationError("traveling tanh wave requires the tanh limiter")
    if not isinstance(params.decay, ConstantDecay):
        raise ValidationError("traveling tanh wave requires constant decay")
    if not 3 <= n <= MAX_STEPS:
        raise ValidationError(f"traveling tanh wave needs 3 to {MAX_STEPS} intervals, got {n}")
    if not 0.0 < (window[1] - window[0]) / n < math.inf:
        raise ValidationError(f"the wave window needs finite ends lo < hi, got {tuple(window)}")
    if not (window[0] <= y0 <= window[1]):
        raise ValidationError("y0 must lie inside the window")
    D, tau, kappa0 = params.D, params.tau, params.decay.kappa0
    r_plus, r_minus = travelling_roots(alpha, tau, kappa0)
    dr = r_plus - r_minus
    Da2 = D * alpha * alpha
    cap = 1.0 - 1e-12
    k_tanh = alpha / limiter.s0

    def level(m):
        """The profile grid of m intervals on the window, its node nearest
        y0, and U[s] and the kernel on it (DomainError if |r h| > 5)."""
        y = np.linspace(window[0], window[1], m + 1)
        h = y[1] - y[0]
        i0 = int(round((y0 - window[0]) / h))
        lower = exp_kernel(m + 1, h, r_minus)
        upper = exp_kernel(m + 1, h, -r_plus)  # applied to the reversed f

        def U_of(s):
            w = travelling_drift(limiter, D, alpha, s)
            E = cumulative_integral(w, h)
            return first_integral(E - E[i0], h, i0, U_ref, C1 / Da2), w

        def green(f):
            # the bounded solution V of alpha^2 V'' - tau V' - kappa0 V = -f
            return (lower(f) + upper(f[::-1])[::-1]) / (alpha * alpha * dr)

        return y, h, i0, U_of, green

    def start(y, h, coarse):
        """The loop's start on y: the coarser level's s carried to y, else 0."""
        if coarse is None:
            return np.zeros(y.size)
        H = _REFINE * h
        return _hermite(coarse, d1_uniform(coarse, H), H, np.arange(y.size) / _REFINE)

    def closure(U_of, green, s):
        """The closure's s from the start s, and its residual history."""

        def g_map(g):
            s = np.arctanh(np.clip(g, -cap, cap)) / k_tanh
            U, w = U_of(s)
            # s = V' is the kernel applied to U' = U w + C1/Da2 (exact)
            return np.tanh(k_tanh * green(U * w + C1 / Da2))

        result = picard_iterate(g_map, np.tanh(k_tanh * s), tol=1e-10, max_iter=400)
        return np.arctanh(np.clip(result.profile, -cap, cap)) / k_tanh, result.residuals

    sizes = [n]
    while sizes[0] % _REFINE == 0 and sizes[0] // _REFINE >= _COARSEST_N:
        sizes.insert(0, sizes[0] // _REFINE)
    s, history, levels = None, [], []
    for m in sizes:
        # a coarser level's s is only a start: a level that fails from it
        # runs again from the fresh start, and a coarse level that fails
        # from that, or whose kernels cannot be prepared, leaves the next
        # level the fresh start
        for coarse in (None,) if s is None else (s, None):
            try:
                y, h, i0, U_of, green = level(m)
                s, history = closure(U_of, green, start(y, h, coarse))
            except (NoConvergence, DivergenceDetected, DomainError) as exc:
                if m == n and coarse is None:
                    raise
                s, history = None, getattr(exc, "history", [])
            levels.append((m, len(history)))
            if s is not None:
                break

    # the loop ends on the finest level: its grid, U[s] and kernel
    U, w = U_of(s)
    V = green(U)
    dU = U * w + C1 / Da2
    dV = green(dU)

    def make_eval(f, df):
        # cubic Hermite on the profile grid, with the nodal slopes f' = df
        def ev(x, t):
            yy = np.asarray(t, dtype=float) - alpha * np.asarray(x, dtype=float)
            if not np.all((y[0] <= yy) & (yy <= y[-1])):
                raise DomainError(
                    f"evaluation leaves the computed window y in [{y[0]}, {y[-1]}]"
                )
            return _hermite(f, df, h, (yy - y[0]) / h)

        return ev

    return TravellingWaveSolution(
        eval_u=make_eval(U, dU),
        eval_v=make_eval(V, dV),
        params={
            "alpha": alpha,
            "kappa0": kappa0,
            "D": D,
            "tau": tau,
            "v_max": limiter.v_max,
            "s0": limiter.s0,
            "C1": C1,
            "U_ref": U_ref,
            "y0": y[i0],
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
        levels=levels,
    )


# ---------------------------------------------------------------------------
# cell-free fronts
# ---------------------------------------------------------------------------

def case4_cellfree_front(alpha, tau, law, A=1.0, B=0.0):
    """Cell-free front under any decay law:

        u = 0,  v(x,t) = psi(t) (A e^(r1 y) + B e^(r2 y)),  y = t - alpha x,
        psi(t) = exp(-(int_t0^t kappa - kappa0 (t - t0))/tau),

    with t0 = law.start, kappa0 = kappa(t0) and r1, r2 the traveling roots
    at kappa0.  The bracket is the constant-rate front, which solves
    tau v_t = v_xx - kappa0 v; psi is the kernel factor phi(t) =
    exp(-int kappa/tau) of the generator phi d/dv, relative to its
    constant-rate value, and carries the front to tau v_t = v_xx - kappa(t) v
    exactly.  Under constant decay psi is 1.0 exactly; under any other law
    the front is not a traveling wave.  A psi that overflows double
    precision raises OverflowGuard.
    """
    t0 = law.start
    kappa0 = float(law.kappa(t0))
    r1, r2 = travelling_roots(alpha, tau, kappa0)
    psi = _no_overflow(lambda t: np.exp(-(law.cumulative(t0, t) - kappa0 * (t - t0)) / tau))

    def ev_v(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        yy = t - alpha * x
        return psi(t) * (A * np.exp(r1 * yy) + B * np.exp(r2 * yy))

    return ExactSolution(
        eval_u=_x_independent(lambda t: 0.0),
        eval_v=ev_v,
        params={"alpha": alpha, "tau": tau, "t0": t0, "kappa0": kappa0, "A": A, "B": B,
                "r1": r1, "r2": r2},
        assumptions=("cell-free (u = 0)",
                     "constant-rate front times the kernel factor psi(t)"),
    )
