"""Numerical integration primitives.

Contains the adaptive Simpson integrator, the integrating-factor solver for
y' + a(t) y = b with an exactly integrated a and a constant b, the
exponential integral Ei, the Anderson-mixed fixed-point engine, and
fourth-order uniform-grid helpers (cumulative integrals, the linear first
integral, exponential-kernel convolutions, and derivatives from one stencil
table, applied to arrays or assembled as sparse matrices) used by the
solution constructors, the reduced solvers and the residual checks.
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


def exp_integral_Ei(x):
    """Principal-value exponential integral Ei(x), x != 0 (scipy's expi).

    Raises DomainError at the singularity x = 0 and OverflowGuard above 709,
    where Ei overflows double precision.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("Ei is singular at x = 0")
    if x > 709.0:
        raise OverflowGuard("Ei(x) overflows double precision for x > 709")
    from scipy.special import expi

    return float(expi(x))


@dataclass
class PicardResult:
    """Converged fixed-point profile plus the residual history."""

    profile: np.ndarray
    residuals: list
    iterations: int


# picard_iterate mixes the last _DEPTH steps, starts at damping _DAMPING,
# gives up when its safeguard restarts _DIVERGENCE_WINDOW times in a row and
# scales a mixed step back to _STEP_CAP damped steps d*g (inf-norm)
_DAMPING = 0.5
_DEPTH = 6
_DIVERGENCE_WINDOW = 5
_STEP_CAP = 50.0


def picard_iterate(map_fn, initial, tol=1e-8, max_iter=200):
    """Anderson-mixed damped fixed-point iteration for y = map_fn(y).

    The step is Anderson's type II mixing (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011): y + d*g - sum_k gamma_k (dY_k + d dG_k), g = map_fn(y)
    - y, over the last _DEPTH differences dY, dG of the iterates and
    defects, with gamma minimising ||g - dG gamma||_2.  The damping d starts
    at _DAMPING and recovers by a factor 1.2 (up to _DAMPING) after five
    consecutive improvements of the defect.  The safeguard: when the defect
    exceeds twice its best value, the history is dropped, d halves (down to
    1e-3) and the iteration restarts from the best iterate with a damped
    step; smaller non-improvements keep the history.  A mixed step longer
    than _STEP_CAP damped steps d*g (inf-norm) is scaled back to that
    length: on a flat tail the mixing extrapolates far past the root, and
    the safeguard would discard every refilled history.  The differences
    sit in two (_DEPTH, N) arrays and their Gram matrix is updated by one
    matrix-vector product per step, so gamma is a _DEPTH x _DEPTH solve.
    Every large product has _DEPTH rows: OpenBLAS threads a dot product or
    an N x _DEPTH least-squares solve at the closure's N = 16385, and its
    spinning worker thread doubled the CPU time of the loop.

    The recorded residual is the undamped defect ||map_fn(y) - y||_inf.
    Raises NoConvergence after max_iter, and DivergenceDetected when the
    map returns non-finite values or the safeguard fires five times in a
    row, i.e. the damped steps from the best iterate at d/2, d/4, d/8 and
    d/16 all more than double the best defect.  No kept iterate has a
    defect above twice the best, so a spike the safeguard discards is not
    counted as growth.  Both exceptions carry the history and the last
    profile.
    """
    y = np.asarray(initial, dtype=float).copy()
    residuals = []
    d = _DAMPING
    best = None
    improve_run = 0
    prev = None
    restarts = 0
    dY = np.zeros((_DEPTH, y.size))
    dG = np.zeros((_DEPTH, y.size))
    gram = np.zeros((_DEPTH, _DEPTH))
    for k in range(max_iter):
        fy = np.asarray(map_fn(y), dtype=float)
        if fy.shape != y.shape:
            raise EvaluationError("map changed the profile shape")
        if not np.all(np.isfinite(fy)):
            raise DivergenceDetected(
                "the map returned a non-finite value", residuals + [float("inf")], profile=y
            )
        g = fy - y
        res = float(np.max(np.abs(g))) if y.size else 0.0
        residuals.append(res)
        if res < tol:
            return PicardResult(fy, residuals, k + 1)
        if best is not None and res > 2.0 * best:
            # restart: drop the history, step from the best iterate
            restarts += 1
            if restarts == _DIVERGENCE_WINDOW:
                raise DivergenceDetected(
                    f"{_DIVERGENCE_WINDOW} safeguard restarts in a row", residuals, profile=y
                )
            d = max(0.5 * d, 1e-3)
            improve_run = 0
            dY[:] = dG[:] = gram[:] = 0.0
            prev = None
            y = y_best + d * g_best
            continue
        restarts = 0
        if best is None or res < best:
            best, y_best, g_best = res, y, g
            improve_run += 1
            if improve_run >= 5 and d < _DAMPING:
                d = min(_DAMPING, 1.2 * d)
                improve_run = 0
        else:
            improve_run = 0
        step = d * g
        if prev is not None:
            slot = k % _DEPTH
            np.subtract(y, prev[0], out=dY[slot])
            np.subtract(g, prev[1], out=dG[slot])
            gram[slot] = gram[:, slot] = dG @ dG[slot]
            # empty slots are zero rows, so their gamma is 0
            gamma = np.linalg.lstsq(gram, dG @ g, rcond=None)[0]
            step -= gamma @ dY + (d * gamma) @ dG
            size = float(np.max(np.abs(step)))
            if size > _STEP_CAP * d * res:
                step *= _STEP_CAP * d * res / size
        prev = (y, g)
        y = y + step
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


def first_integral(X, h, i0, base, c):
    """U = e^X (base + c (G - G[i0])), G the cumulative integral of e^-X: the
    solution of U' = X' U + c through U[i0] = base e^X[i0], with X sampled
    on a uniform grid of step h.  c = 0 skips the quadrature."""
    eX = np.exp(X)
    if c == 0.0:
        return eX * base
    G = cumulative_integral(np.exp(-X), h)
    return eX * (base + c * (G - G[i0]))


# Fourth-order difference rows as integer numerators over 12 (Fornberg,
# Math. Comp. 51, 1988), keyed by derivative order: the interior row on
# offsets -2..2, then the one-sided row of node 0 and the near-edge row of
# node 1, both on nodes 0, 1, ...  Node n-1-i uses row i mirrored, negated
# for the first derivative.
_STENCILS = {
    1: ((1, -8, 0, 8, -1), (-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1)),
    2: ((-1, 16, -30, 16, -1), (45, -154, 214, -156, 61, -10), (10, -15, -4, 14, -6, 1)),
}


def _combine(row, cols):
    """sum_k row[k] * cols[k] over the nonzero entries, added left to right."""
    return sum(c * col for c, col in zip(row, cols) if c)


def _numerators(f, order):
    """The table's rows applied to the samples f: 12 h^order times their
    derivative of the given order."""
    f = np.asarray(f, dtype=float)
    n = f.size
    if n < 5 + order:
        raise DomainError(f"d{order}_uniform needs at least {5 + order} samples")
    mid, edge, near = _STENCILS[order]
    sign = -1 if order == 1 else 1
    out = np.empty(n)
    out[2:-2] = _combine(mid, [f[k : n - 4 + k] for k in range(5)])
    for i, row in ((0, edge), (1, near)):
        out[i] = _combine(row, f)
        out[-1 - i] = _combine([sign * c for c in row], f[::-1])
    return out


def central_d1(levels, h):
    """Fourth-order first derivative at the middle of five samples spaced h
    apart, by the table's interior row; the samples may be arrays."""
    return _combine(_STENCILS[1][0], levels) / (12.0 * h)


def d1_uniform(f, h):
    """First derivative of uniformly sampled values, 4th-order stencils."""
    return _numerators(f, 1) / (12.0 * h)


def d2_uniform(f, h):
    """Second derivative of uniformly sampled values, 4th-order stencils."""
    return _numerators(f, 2) / (12.0 * (h * h))


def difference_matrix(order, n, h):
    """The n x n CSR matrix of the fourth-order derivative of the given order
    (1 or 2) on n uniform nodes of step h: the rows of d1_uniform and
    d2_uniform, with entries numerator / (12 h^order) (12 h h for order 2)."""
    import scipy.sparse as sp

    mid, edge, near = _STENCILS[order]
    sign = -1 if order == 1 else 1
    scale = 12.0 * h if order == 1 else 12.0 * h * h
    inner = np.arange(2, n - 2)
    rows = [np.repeat(inner, 5)]
    cols = [(inner[:, None] + np.arange(-2, 3)).ravel()]
    vals = [np.tile(np.asarray(mid, dtype=float) / scale, inner.size)]
    for i, row in ((0, edge), (1, near)):
        k = np.arange(len(row))
        c = np.asarray(row, dtype=float) / scale
        rows += [np.full(k.size, i), np.full(k.size, n - 1 - i)]
        cols += [k, n - 1 - k]
        vals += [c, sign * c]
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    A.eliminate_zeros()
    return A


def _poly_exp_moments(z, kmax=3, terms=30):
    """A_k(z) = int_0^1 theta^k exp(z(1-theta)) dtheta via the stable series
    A_k = k! * sum_m z^m / (k+m+1)!  (no cancellation for |z| <= 5)."""
    if abs(z) > 5.0:
        raise DomainError("panel exponent too large; refine the grid")
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        term = 1.0 / math.factorial(k + 1)  # z^0 / (k+1)!
        s = term
        for m in range(1, terms):
            term *= z / (k + 1 + m)
            s += term
            if abs(term) < 1e-18 * abs(s):
                break
        out[k] = s * math.factorial(k)
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
