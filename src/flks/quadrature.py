"""Numerical integration primitives.

Contains the adaptive Simpson integrator, the integrating-factor solver for
y' + a(t) y = b with an exactly integrated a and a constant b, the
exponential integral Ei, the Picard fixed-point engine (one adaptive damping
policy), and fourth-order uniform-grid helpers (cumulative integrals,
derivative stencils, exponential-kernel convolutions) used by the solution
constructors.
"""

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceDetected,
    DomainError,
    EvaluationError,
    MaxDepthExceeded,
    NoConvergence,
    OverflowGuard,
)

_EULER_GAMMA = 0.5772156649015328606065120900824024310421593359399235988


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an adaptive integral with an error proxy and an eval count.

    err_estimate is the accumulated Richardson estimate of the adaptive
    scheme; it is an upper-bound proxy for smooth integrands, not a
    guarantee.
    """

    value: float
    err_estimate: float
    evaluations: int


def integrate_adaptive(f, lo, hi, tol=1e-10, max_depth=60):
    """Adaptive Simpson integral of f over [lo, hi].

    Parameters
    ----------
    f : callable
        Integrand; must return finite values on the interval.
    lo, hi : float
        Integration limits.  lo > hi is allowed and flips the sign.
    tol : float
        Absolute tolerance target for smooth integrands.
    max_depth : int
        Refinement depth limit; exceeding it raises MaxDepthExceeded.

    Returns
    -------
    QuadratureResult
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    lo = float(lo)
    hi = float(hi)
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0)
    sign = 1.0
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0

    evals = [0]

    def feval(x):
        evals[0] += 1
        y = float(f(x))
        if not math.isfinite(y):
            raise EvaluationError(f"integrand returned non-finite value at x={x!r}")
        return y

    def simpson(a, fa, fm, fb, h6):
        return h6 * (fa + 4.0 * fm + fb)

    def recurse(a, m, b, fa, fm, fb, whole, tol_loc, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = feval(lm)
        frm = feval(rm)
        left = simpson(a, fa, flm, fm, (m - a) / 6.0)
        right = simpson(m, fm, frm, fb, (b - m) / 6.0)
        delta = left + right - whole
        # relative floor keeps huge-magnitude integrals from subdividing
        # past round-off; accuracy then degrades gracefully to ~1e-14 rel
        accept = max(tol_loc, 1e-14 * abs(left + right))
        if abs(delta) <= 15.0 * accept or (b - a) < 1e-300:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth >= max_depth:
            raise MaxDepthExceeded(
                f"adaptive Simpson exceeded depth {max_depth} on [{a}, {b}]"
            )
        lv, le = recurse(a, lm, m, fa, flm, fm, left, 0.5 * tol_loc, depth + 1)
        rv, re = recurse(m, rm, b, fm, frm, fb, right, 0.5 * tol_loc, depth + 1)
        return lv + rv, le + re

    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = feval(lo), feval(mid), feval(hi)
    whole = simpson(lo, f_lo, f_mid, f_hi, (hi - lo) / 6.0)
    value, err = recurse(lo, mid, hi, f_lo, f_mid, f_hi, whole, tol, 0)
    return QuadratureResult(sign * value, err, evals[0])


_EXP_GUARD = 700.0


def _guarded_exp(x):
    if x > _EXP_GUARD:
        raise OverflowGuard(f"integrating-factor exponent {x:.3g} exceeds +{_EXP_GUARD:g}")
    if x < -745.0:
        return 0.0
    return math.exp(x)


def _advance_segment(cumulative, b, y_a, t_a, t_b, tol, a_seen=0.0):
    """Propagate y' + a y = b from t_a to t_b via the integrating factor.

    ``cumulative(lo, hi)`` is the exact integral of a over [lo, hi] and b is
    a constant.  The exponent of the factor is always handled as a difference
    of cumulative integrals (a log-sum), never as a product of exponentials,
    so large factors cancel before exponentiation.  ``a_seen`` carries the
    cumulative exponent accumulated before t_a; when |a_seen + dA| passes the
    representable range the solve raises OverflowGuard.

    Returns (y_b, dA) with dA = int_{t_a}^{t_b} a.
    """
    if t_b == t_a:
        return y_a, 0.0
    dA = cumulative(t_a, t_b)
    if abs(a_seen + dA) > _EXP_GUARD:
        raise OverflowGuard(
            f"integrating-factor exponent {a_seen + dA:.3g} exceeds ±{_EXP_GUARD:g}"
        )
    if abs(dA) > 50.0:
        t_mid = 0.5 * (t_a + t_b)
        y_mid, dA1 = _advance_segment(cumulative, b, y_a, t_a, t_mid, tol, a_seen)
        y_b, dA2 = _advance_segment(cumulative, b, y_mid, t_mid, t_b, tol, a_seen + dA1)
        return y_b, dA1 + dA2

    def integrand(s):
        return _guarded_exp(cumulative(t_a, s) - dA) * b

    part = integrate_adaptive(integrand, t_a, t_b, tol).value
    return _guarded_exp(-dA) * y_a + part, dA


class CachedLinearSolution:
    """Solution of y'(t) + a(t) y(t) = b, y(t0) = y0, for a constant b.

    ``cumulative(lo, hi)`` must return the exact integral of a over
    [lo, hi]; tol governs the adaptive quadrature of the particular part.
    Forward evaluations advance from the nearest previously computed anchor
    instead of restarting at t0, so dense or repeated queries stay cheap.
    """

    def __init__(self, cumulative, b, t0, y0, tol=1e-12):
        self.cumulative = cumulative
        self.b = float(b)
        self.t0 = float(t0)
        self.y0 = float(y0)
        self.tol = tol
        self._ts = [self.t0]
        self._ys = [self.y0]
        self._as = [0.0]

    def __call__(self, t):
        t = float(t)
        if t < self.t0:
            return _advance_segment(
                self.cumulative, self.b, self.y0, self.t0, t, self.tol
            )[0]
        i = bisect_left(self._ts, t)
        if i < len(self._ts) and self._ts[i] == t:
            return self._ys[i]
        y, dA = _advance_segment(
            self.cumulative, self.b, self._ys[i - 1], self._ts[i - 1], t, self.tol,
            self._as[i - 1],
        )
        self._ts.insert(i, t)
        self._ys.insert(i, y)
        self._as.insert(i, self._as[i - 1] + dA)
        return y


def _ei_series(x):
    s = _EULER_GAMMA + math.log(abs(x))
    term = 1.0
    total = 0.0
    for k in range(1, 6000):
        term *= x / k
        inc = term / k
        total += inc
        if abs(inc) < 1e-18 * max(1.0, abs(total)) and k > abs(x):
            break
    return s + total


def _e1_continued_fraction(z):
    """E1(z) for z > 0 by the modified Lentz continued fraction."""
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-z)


def _ei_asymptotic(x):
    s = 1.0
    term = 1.0
    for k in range(1, 1000):
        nxt = term * k / x
        if nxt >= term:
            break
        term = nxt
        s += term
        if term < 1e-18 * s:
            break
    return math.exp(x) / x * s


def exp_integral_Ei(x):
    """Principal-value exponential integral Ei(x), x != 0.

    Branches: power series for moderate arguments, the Lentz continued
    fraction of E1 for x < -3.5 (where the alternating series loses digits),
    and the asymptotic expansion for x > 40.  Relative accuracy is about
    1e-13 across |x| in [1e-300, 709].
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("Ei is singular at x = 0")
    if x > 709.0:
        raise OverflowGuard("Ei(x) overflows double precision for x > 709")
    if x < -3.5:
        return -_e1_continued_fraction(-x)
    if x > 40.0:
        return _ei_asymptotic(x)
    return _ei_series(x)


@dataclass
class PicardResult:
    """Converged fixed-point profile plus the residual history."""

    profile: np.ndarray
    residuals: list
    iterations: int
    converged: bool = True


# picard_iterate gives up when the defect grows by _DIVERGENCE_RATIO over
# _DIVERGENCE_WINDOW consecutive iterations
_DIVERGENCE_RATIO = 10.0
_DIVERGENCE_WINDOW = 5


def picard_iterate(map_fn, initial, damping=0.5, tol=1e-8, max_iter=200):
    """Damped fixed-point iteration y <- y + d*(map_fn(y) - y), d <= damping.

    The damping d starts at ``damping``, halves (down to 1e-3) whenever the
    defect fails to improve on its best value, and recovers by a factor 1.2
    (up to ``damping``) after five consecutive improvements; while the
    defect improves at every step, d stays at ``damping`` and the iterates
    are the plain damped ones.  Halving lets strongly over-reacting (large
    negative eigenvalue) maps converge.

    The recorded residual is the undamped defect ||map_fn(y) - y||_inf, so
    the history is comparable across damping values.  Raises NoConvergence
    after max_iter, and DivergenceDetected when the defect grows tenfold
    over five consecutive iterations or the map returns non-finite values;
    both carry the history and the last profile.
    """
    if not (0.0 < damping <= 1.0):
        raise DomainError("damping must lie in (0, 1]")
    y = np.asarray(initial, dtype=float).copy()
    residuals = []
    d = damping
    best = None
    improve_run = 0
    for k in range(max_iter):
        fy = np.asarray(map_fn(y), dtype=float)
        if fy.shape != y.shape:
            raise EvaluationError("map changed the profile shape")
        if not np.all(np.isfinite(fy)):
            raise DivergenceDetected(residuals + [float("inf")], profile=y)
        res = float(np.max(np.abs(fy - y))) if y.size else 0.0
        residuals.append(res)
        if res < tol:
            return PicardResult(fy, residuals, k + 1)
        if (
            len(residuals) > _DIVERGENCE_WINDOW
            and res > _DIVERGENCE_RATIO * residuals[-1 - _DIVERGENCE_WINDOW]
        ):
            raise DivergenceDetected(residuals, profile=y)
        if best is None or res < best:
            best = res
            improve_run += 1
            if improve_run >= 5 and d < damping:
                d = min(damping, 1.2 * d)
                improve_run = 0
        else:
            d = max(0.5 * d, 1e-3)
            improve_run = 0
        y = y + d * (fy - y)
    raise NoConvergence(max_iter, residuals[-1], residuals, profile=y)


# ---------------------------------------------------------------------------
# Fourth-order uniform-grid helpers
# ---------------------------------------------------------------------------

def cumulative_integral(values, h):
    """Cumulative integral of uniformly sampled values, I[0] = 0, O(h^4).

    Interior increments use the two-sided corrected-trapezoid rule
    (h/24)(-f[i-1] + 13 f[i] + 13 f[i+1] - f[i+2]); the end panels use the
    one-sided cubic rule.  Needs at least 4 samples.
    """
    f = np.asarray(values, dtype=float)
    n = f.size
    if n < 4:
        raise DomainError("cumulative_integral needs at least 4 samples")
    inc = np.empty(n - 1)
    inc[0] = (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3]) / 24.0
    inc[1:-1] = (-f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:]) / 24.0
    inc[-1] = (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1]) / 24.0
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return h * out


def d1_uniform(f, h):
    """First derivative of uniformly sampled values, 4th-order stencils."""
    f = np.asarray(f, dtype=float)
    n = f.size
    if n < 6:
        raise DomainError("d1_uniform needs at least 6 samples")
    out = np.empty(n)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


def d2_uniform(f, h):
    """Second derivative of uniformly sampled values, 4th-order stencils."""
    f = np.asarray(f, dtype=float)
    n = f.size
    if n < 7:
        raise DomainError("d2_uniform needs at least 7 samples")
    h2 = h * h
    out = np.empty(n)
    out[2:-2] = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h2)
    c0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
    c1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0
    out[0] = np.dot(c0, f[:6]) / h2
    out[1] = np.dot(c1, f[:6]) / h2
    out[-2] = np.dot(c1, f[-6:][::-1]) / h2
    out[-1] = np.dot(c0, f[-6:][::-1]) / h2
    return out


def _poly_exp_moments(z, kmax=3, terms=30):
    """A_k(z) = int_0^1 theta^k exp(z(1-theta)) dtheta via the stable series
    A_k = k! * sum_m z^m / (k+m+1)!  (no cancellation for |z| <= 5)."""
    if abs(z) > 5.0:
        raise DomainError("panel exponent too large; refine the grid")
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        fact = 1.0
        for j in range(2, k + 2):
            fact *= j
        term = 1.0 / fact  # z^0 / (k+1)!
        s = term
        for m in range(1, terms):
            term *= z / (k + 1 + m)
            s += term
            if abs(term) < 1e-18 * abs(s):
                break
        # multiply by k!
        kf = 1.0
        for j in range(2, k + 1):
            kf *= j
        out[k] = s * kf
    return out


@functools.lru_cache(maxsize=64)
def _panel_weights(z):
    """Nodal weights for int_0^1 f(theta) exp(z(1-theta)) dtheta with f the
    cubic through 4 nodes.  Returns (left-edge, interior, right-edge) weight
    vectors for node offsets (0,1,2,3), (-1,0,1,2), (-2,-1,0,1).

    A closure pass evaluates the kernels thousands of times at a handful of
    z values, so the weights are cached per z and returned read-only."""
    A = _poly_exp_moments(z)
    weights = []
    for offsets in ((0.0, 1.0, 2.0, 3.0), (-1.0, 0.0, 1.0, 2.0), (-2.0, -1.0, 0.0, 1.0)):
        V = np.vander(np.asarray(offsets), 4, increasing=True)  # V[j,k] = theta_j^k
        wts = np.linalg.solve(V.T, A)
        wts.flags.writeable = False
        weights.append(wts)
    return tuple(weights)


def exp_kernel_lower(f, h, r):
    """L[i] = int_{y_0}^{y_i} exp(r (y_i - eta)) f(eta) d eta on a uniform
    grid, 4th-order accurate, via the stable panel recurrence."""
    f = np.asarray(f, dtype=float)
    n = f.size
    if n < 4:
        raise DomainError("exp_kernel_lower needs at least 4 samples")
    z = r * h
    w_left, w_int, w_right = _panel_weights(z)
    p = np.empty(n - 1)
    p[0] = h * np.dot(w_left, f[0:4])
    if n > 4:
        stack = np.stack([f[0:-3], f[1:-2], f[2:-1], f[3:]], axis=0)
        p[1:-1] = h * (w_int @ stack)
    p[-1] = h * np.dot(w_right, f[-4:])
    out = np.empty(n)
    out[0] = 0.0
    if z <= 0.0 and abs(z) * (n - 1) < 600.0:
        # L[m] = e^(z m) * sum_{i<m} p_i e^(-z(i+1)); safe for z <= 0 because
        # the rescaling only damps contributions the true kernel damps too
        idx = np.arange(1, n)
        q = p * np.exp(-z * idx)
        out[1:] = np.exp(z * idx) * np.cumsum(q)
    else:
        g = math.exp(z)
        acc = 0.0
        for i in range(n - 1):
            acc = g * acc + p[i]
            out[i + 1] = acc
    return out


def exp_kernel_upper(f, h, r):
    """R[i] = int_{y_i}^{y_max} exp(r (y_i - eta)) f(eta) d eta, 4th order."""
    return exp_kernel_lower(np.asarray(f, dtype=float)[::-1], h, -r)[::-1]
