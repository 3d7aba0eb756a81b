"""Numerical integration primitives.

Contains the adaptive Simpson integrator, the Gauss-Legendre panel rule for
y' + a(t) y = b with an exactly integrated a and a constant b, the
exponential integral Ei (evaluated here, so case IV needs no scipy), the
Anderson-mixed fixed-point engine, and
fourth-order uniform-grid helpers (cumulative integrals, the linear first
integral, exponential-kernel convolutions, and derivatives from one stencil
table, applied to arrays or assembled as band rows) used by the
solution constructors, the reduced solvers and the residual checks.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import MAX_STEPS
from .errors import (
    DivergenceDetected,
    DomainError,
    EvaluationError,
    MaxDepthExceeded,
    NoConvergence,
    OverflowGuard,
    ValidationError,
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


#: 6-node Gauss-Legendre rule on [-1, 1]: numpy.polynomial.legendre.leggauss(6),
#: written out so that importing flks does not load numpy.polynomial
_GL_NODES = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                      0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GL_WEIGHTS = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                        0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
#: linear_relaxation forms the nodes of at most this many panels at a time
_PANELS = 4096
#: linear_relaxation halves a panel whose rate bends by more than this: at
#: 2e-3 case I meets case III and IV to 9e-16, at 4e-3 to 2e-12, unhalved 7e-3
_BEND = 2e-3


def linear_relaxation(rate, cumulative, b, t0, y0, t, knots=()):
    """y(t) for y' + a(t) y = b, y(t0) = y0, b constant, at each time of the
    array t, given the rate a(s) and its exact integral cumulative(lo, hi),
    both taking arrays.

    The panel edges are t0, the times and the knots (where a may kink)
    between them; times before t0 are reached backwards.  A panel [p, q] is
    split evenly until int_p^q a and int_s^q a at its nodes s are at most 1,
    and halved while a bends on it, i.e. while a's second difference over the
    outer and inner node pairs exceeds _BEND of sum |a| at the nodes (0.1/s
    from 1 to 1e4 has int a = 0.92, but on one panel the rule is 35% off).
    With f(s) = e^(-int_s^q a), y(q) = y(p) + b int f ds - y(p) int a f ds,
    both by 6-node Gauss-Legendre on the same nodes, so a constant rate keeps
    its steady level b/a however the nodes round.  No exponent above 1 is
    formed: OverflowGuard means a returned value overflows.  More than
    MAX_STEPS panels is a ValidationError, raised before the split.  The
    nodes are formed _PANELS panels at a time, so a split holds ~25 B per
    panel (its edges and their y), ~250 MB at MAX_STEPS.
    """
    t = np.asarray(t, dtype=float)
    ends = np.append(t.ravel(), t0)
    knots = np.asarray(knots, dtype=float)
    edges = np.unique(np.concatenate([ends, knots[(knots > ends.min()) & (knots < ends.max())]]))
    i0 = np.searchsorted(edges, t0)
    y = np.empty(edges.size)
    y[i0:] = _relax_chain(rate, cumulative, b, y0, edges[i0:])
    y[i0::-1] = _relax_chain(rate, cumulative, b, y0, edges[i0::-1])
    out = y[np.searchsorted(edges, t)]
    if math.isfinite(b) and math.isfinite(y0) and not np.isfinite(out).all():
        t_bad = float(t[~np.isfinite(out)][0])
        raise OverflowGuard(f"linear relaxation overflows double precision at t = {t_bad:g}")
    return out


def _relax_chain(rate, cumulative, b, y0, edges):
    """y at each of the monotone edges, from y(edges[0]) = y0, panel by panel,
    in even parts of at most _PANELS panels: a part that splits is relaxed
    as a chain of its split edges, so only edges and y grow with the panel
    count.  A part of two or more panels sums each panel bit for bit as one
    product over all panels would (BLAS sums a lone row in another order)."""
    panels = edges.size - 1  # of the whole split, as far as it is known
    end = edges[-1]

    def chain(y0, edges):
        nonlocal panels
        y = np.empty(edges.size)
        y[0] = y0
        count = edges.size - 1
        parts = -(-count // _PANELS)
        for k in range(parts):
            lo, hi = k * count // parts, (k + 1) * count // parts
            p, q = edges[lo:hi], edges[lo + 1:hi + 1]
            nodes = 0.5 * (p + q)[:, None] + 0.5 * (q - p)[:, None] * _GL_NODES
            E = cumulative(nodes, q[:, None])
            a = rate(nodes)
            size = np.maximum(np.abs(cumulative(p, q)), np.abs(E).max(axis=1))
            pieces = np.where(size <= 1.0, 1.0, np.floor(size) + 1.0)  # NaN stays NaN
            bent = np.abs(a[:, 0] + a[:, 5] - a[:, 2] - a[:, 3]) > _BEND * np.abs(a).sum(axis=1)
            pieces[bent] = np.maximum(pieces[bent], 2.0)
            if np.all(pieces == 1.0):
                f = 0.5 * (q - p)[:, None] * np.exp(-E)
                gain = b * (f @ _GL_WEIGHTS)
                loss = (a * f) @ _GL_WEIGHTS
                y[lo + 1:hi + 1] = list(accumulate(
                    zip(gain.tolist(), loss.tolist()),
                    lambda y_p, step: y_p + (step[0] - step[1] * y_p), initial=float(y[lo])))[1:]
                continue
            panels += pieces.sum() - pieces.size
            if not panels <= MAX_STEPS:
                raise ValidationError(
                    f"relaxing to t = {end:g} takes more than {MAX_STEPS} panels")
            m = pieces.astype(np.int64)
            ends = np.cumsum(m)
            j = np.arange(ends[-1]) - np.repeat(ends - m, m)  # each new edge's place in its panel
            split = np.append(np.repeat(p, m) + j * np.repeat((q - p) / pieces, m), q[-1])
            y[lo + 1:hi + 1] = chain(y[lo], split)[ends]
        return y

    return chain(y0, edges)


_EULER_GAMMA = 0.5772156649015328


def exp_integral_Ei(x):
    """Principal-value exponential integral Ei(x), x != 0.

    Zhang & Jin's EIX/E1XB (*Computation of Special Functions*, Wiley 1996),
    the algorithm behind scipy's ``expi``, with one change: for 0 < x <= 40
    the power series gamma + ln x + sum x^k/(k k!); above 40 the asymptotic
    series e^x/x sum k!/x^k, summed to its smallest term (k < x) or until a
    term falls below 1e-17 of the sum, where EIX stops at 20 terms; for
    x < 0, -E1(-x), by its power series when |x| <= 1 and otherwise by the
    backward continued fraction with 20 + floor(80/|x|) terms.  Against
    mpmath the relative error is <= 2.5e-15 away from the root (scipy's,
    from its 20 terms, reaches 2.8e-14 just above 40; above 60 the bits are
    scipy's) and the absolute error <= 4e-16 within 1e-3 of the root
    x0 = 0.37250741078136663.  Raises DomainError at the singularity x = 0
    and at NaN, and OverflowGuard above 709, where Ei overflows double
    precision.
    """
    x = float(x)
    if x == 0.0:
        raise DomainError("Ei is singular at x = 0")
    if x != x:
        raise DomainError("Ei is undefined at x = nan")
    if x > 709.0:
        raise OverflowGuard("Ei(x) overflows double precision for x > 709")
    if x > 40.0:
        # the terms k!/x^k fall while k < x; the smallest one bounds the error
        s = r = 1.0
        for k in range(1, math.ceil(x)):
            r = r * k / x
            s += r
            if r < 1e-17 * s:
                break
        return math.exp(x) / x * s
    if x >= -1.0:
        # x s = sum_{k>=1} x^k/(k k!); for x < 0 it is E1XB's series, negated
        s = r = 1.0
        for k in range(1, 101):
            r = r * k * x / ((k + 1.0) * (k + 1.0))
            s += r
            if abs(r) <= abs(s) * 1e-15:
                break
        return _EULER_GAMMA + math.log(abs(x)) + x * s
    z = -x
    t0 = 0.0
    for k in range(20 + int(80.0 / z), 0, -1):
        t0 = k / (1.0 + k / (z + t0))
    return -math.exp(-z) * (1.0 / (z + t0))


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
    """The fourth-order derivative of the given order (1 or 2) on n uniform
    nodes of step h as band rows (see ``banded``): the rows of d1_uniform
    and d2_uniform, with entries numerator / (12 h^order) (12 h h for order
    2) on the offsets -K..K, K = 4 for order 1 and 5 for order 2."""
    mid, edge, near = _STENCILS[order]
    sign = -1 if order == 1 else 1
    scale = 12.0 * h if order == 1 else 12.0 * h * h
    K = len(edge) - 1
    rows = np.zeros((n, 2 * K + 1))
    rows[2 : n - 2, K - 2 : K + 3] = np.asarray(mid, dtype=float) / scale
    for i, row in ((0, edge), (1, near)):
        c = np.asarray(row, dtype=float) / scale
        rows[i, K - i : K - i + c.size] = c
        rows[n - 1 - i, K + i - c.size + 1 : K + i + 1] = sign * c[::-1]
    return rows


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


# ln of the largest double
_LOG_MAX = math.log(np.finfo(float).max)


def _panel_weights(z):
    """Nodal weights for int_0^1 f(theta) exp(z(1-theta)) dtheta with f the
    cubic through 4 nodes.  Returns (left-edge, interior, right-edge) weight
    vectors for node offsets (0,1,2,3), (-1,0,1,2), (-2,-1,0,1)."""
    A = _poly_exp_moments(z)
    weights = []
    for offsets in ((0.0, 1.0, 2.0, 3.0), (-1.0, 0.0, 1.0, 2.0), (-2.0, -1.0, 0.0, 1.0)):
        V = np.vander(np.asarray(offsets), 4, increasing=True)  # V[j,k] = theta_j^k
        weights.append(np.linalg.solve(V.T, A))
    return tuple(weights)


def exp_kernel(n, h, r):
    """The lower kernel on n uniform nodes of step h, prepared once: a
    callable taking f to L[i] = int_{y_0}^{y_i} exp(r (y_i - eta)) f(eta)
    d eta, 4th-order accurate, via the stable panel recurrence.

    The panel weights and the scan rows e^(-zk), e^(zk), z = r h, are
    computed here, for every k <= n - 1 with |z| k <= ln of the largest
    double; each call forms the panel sums by one np.convolve and scans
    them.  Raises DomainError for n < 4 or |z| > 5."""
    if n < 4:
        raise DomainError("exp_kernel needs at least 4 samples")
    z = r * h
    w_left, w_int, w_right = _panel_weights(z)
    taps = w_int[::-1]
    zk = z * np.arange(1, n)
    zk = zk[np.abs(zk) <= _LOG_MAX]
    down, up = np.exp(-zk), np.exp(zk)

    def lower(f):
        f = np.asarray(f, dtype=float)
        p = np.empty(n - 1)
        p[0] = h * np.dot(w_left, f[0:4])
        p[1:-1] = h * np.convolve(f, taps, "valid")
        p[-1] = h * np.dot(w_right, f[-4:])
        out = np.empty(n)
        out[0] = 0.0
        # L[s+j] = e^(z j) (L[s] + sum_{k<=j} p_{s+k-1} e^(-z k)) over blocks of
        # panels from node s.  Each block keeps |z| k <= room, the ln of the
        # largest double over n max|p|, so no rescaled sum overflows; a kernel
        # with that room for all n - 1 panels is one block, and one with no
        # room at all takes the longest blocks the rows hold
        room = _LOG_MAX - math.log(n * max(float(np.max(np.abs(p))), 1.0))
        block = up.size
        if 0.0 < room < abs(z) * (n - 1):
            block = max(1, int(room / abs(z)))
        for s in range(0, n - 1, block):
            m = min(block, n - 1 - s)
            acc = np.cumsum(p[s : s + m] * down[:m])
            if s:
                acc += out[s]
            out[s + 1 : s + 1 + m] = up[:m] * acc
        return out

    return lower


def exp_kernel_lower(f, h, r):
    """L[i] = int_{y_0}^{y_i} exp(r (y_i - eta)) f(eta) d eta, 4th order;
    see exp_kernel."""
    f = np.asarray(f, dtype=float)
    return exp_kernel(f.size, h, r)(f)


def exp_kernel_upper(f, h, r):
    """R[i] = int_{y_i}^{y_max} exp(r (y_i - eta)) f(eta) d eta, 4th order."""
    return exp_kernel_lower(np.asarray(f, dtype=float)[::-1], h, -r)[::-1]
