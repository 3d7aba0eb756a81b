"""Banded linear systems in numpy: factor once, solve many times.

Row i of the band rows ``rows`` holds A[i, i - kl + k] in column k, so rows
of width kl + ku + 1 cover the offsets -kl..ku; entries outside A are zero.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError

_TAIL = 8  # block rows left to the dense solve


def band_matvec(rows, kl, x):
    """A x for the band rows ``rows`` with kl subdiagonals."""
    n, w = rows.shape
    padded = np.concatenate((np.zeros(kl), x, np.zeros(w - 1 - kl)))
    s = padded.strides[0]
    return np.einsum("ik,ik->i", rows, as_strided(padded, (n, w), (s, s), writeable=False))


def _mv(M, x):
    """The stacked products M[p] @ x[p]."""
    return (M @ x[:, :, None])[:, :, 0]


def band_solver(rows, kl, border=None):
    """Factor A = (band rows with kl subdiagonals) + e_0 border^T once and
    return solve(f) = A^-1 f.

    In blocks of b = kl + ku rows, and of b columns from column -kl, block
    row I touches column blocks I and I+1 only.  Each level of cyclic
    reduction eliminates column block 2p+1 from block rows 2p and 2p+1, the
    only two that touch it, by a Householder QR of that 2b x b column
    (Wright, SIAM J. Sci. Stat. Comput. 13, 1992): rotations pivot across
    rows, and a nonsingular A leaves every R nonsingular.  Identity rows pad
    the block count to 2^L times at most 8, and those last rows are solved
    densely.  The border's entries in row 0's band, columns 0..ku, are band
    entries, added to row 0 before the factorization; only the rest enters
    by Sherman-Morrison (none when n <= ku + 1), so no cancellation through
    a tiny band diagonal loses digits.  Each solve takes one step of
    iterative refinement, its residual summed in np.longdouble
    (Moler, J. ACM 14, 1967; Skeel's fixed-precision step, Math. Comp. 35,
    1980, where longdouble is double).  A singular band, a Sherman-Morrison
    denominator below 1e-8 of its terms, a solution whose normwise backward
    error exceeds 1e-12, or one with ||A|| ||x|| > ||f|| / (n eps) (infinity
    norms: the matrix is singular to working precision) raises DomainError.
    """
    rows = np.asarray(rows, dtype=float)
    n, w = rows.shape
    if not 0 <= kl < w:
        raise DomainError(f"band rows of width {w} cannot have {kl} subdiagonals")
    c = np.zeros(n)
    if border is not None:
        inband = min(w - kl, n)
        rows = rows.copy()
        rows[0, kl : kl + inband] += border[:inband]
        c[inband:] = border[inband:]
    b = max(w - 1, 1)
    blocks = -(-n // b)
    L = max(0, (-(-blocks // _TAIL) - 1).bit_length())
    N = -(-blocks >> L) << L
    W = np.zeros((N * b, 2 * b))
    for r in range(b):
        W[r:n:b, r : r + w] = rows[r::b]
    pad = np.arange(n, N * b)
    W[pad, pad % b + kl] = 1.0
    W = W.reshape(N, b, 2 * b)
    E, F = W[:, :, :b], W[:, :, b:]
    stages = []
    try:
        with np.errstate(all="ignore"):  # a near-singular matrix is refused by solve
            for _ in range(L):
                M = np.concatenate((F[0::2], E[1::2]), axis=1)
                Q, R = np.linalg.qr(M, mode="complete")
                Qt = Q.transpose(0, 2, 1)
                left, right = Qt[:, :, :b] @ E[0::2], Qt[:, :, b:] @ F[1::2]
                Rinv = np.linalg.inv(R[:, :b])
                # the top b rows give the eliminated block, the bottom b the next level
                Qt[:, :b] = Rinv @ Qt[:, :b]
                stages.append((Qt, Rinv @ left[:, :b], Rinv @ right[:, :b]))
                E, F = left[:, b:], right[:, b:]
            t = N >> L
            G = np.zeros((t, b, t + 1, b))
            G[np.arange(t), :, np.arange(t)] = E
            G[np.arange(t), :, np.arange(1, t + 1)] = F
            tail = np.linalg.inv(G.reshape(t * b, -1)[:, kl : kl + t * b])
    except np.linalg.LinAlgError:
        raise DomainError("the banded matrix is singular") from None

    def reduced(f):
        g = np.zeros(N * b)
        g[:n] = f
        tops = []
        for Qt, _, _ in stages:
            g = _mv(Qt, g.reshape(-1, 2 * b))
            tops.append(g[:, :b])
            g = g[:, b:]
        # column blocks 0..N; the tail solves every 2^L-th, each level below
        # the blocks halfway between the ones it knows
        X = np.zeros((N + 1, b))
        known = np.zeros((t + 1) * b)
        known[kl : kl + t * b] = tail @ g.ravel()
        X[:: 1 << L] = known.reshape(-1, b)
        for level in reversed(range(L)):
            _, left, right = stages[level]
            step = 2 << level
            X[step // 2 :: step] = tops[level] - _mv(left, X[:-1:step]) - _mv(right, X[step::step])
        return X.ravel()[kl : kl + n]

    if not c.any():
        base = reduced
    else:
        with np.errstate(all="ignore"):
            q = reduced(np.eye(1, n).ravel())
            den = 1.0 + c @ q
        if not abs(den) > 1e-8 * (1.0 + np.abs(c) @ np.abs(q)):
            raise DomainError(f"the bordered matrix is singular (denominator {den:.3g})")

        def base(f):
            y = reduced(f)
            return y - q * ((c @ y) / den)

    norm = np.abs(rows).sum(axis=1)
    norm[0] += np.abs(c).sum()
    norm = norm.max()
    wide = rows.astype(np.longdouble), c.astype(np.longdouble)

    def residual(x, f, rows, c):
        x = x.astype(rows.dtype, copy=False)
        r = f - band_matvec(rows, kl, x)
        r[0] -= c @ x
        return r.astype(float, copy=False)

    def solve(f):
        with np.errstate(all="ignore"):  # a near-singular matrix is refused below
            x = base(f)
            x = x + base(residual(x, f, *wide))
            error = np.max(np.abs(residual(x, f, rows, c)))
            size, scale = norm * np.max(np.abs(x)), np.max(np.abs(f))
        # the normwise backward error: a wrong solution is refused, never returned
        if not error <= 1e-12 * (size + scale):
            raise DomainError("the banded solve lost its accuracy: the matrix is near singular")
        # |A| |x| / |f| bounds the condition number from below; past 1/(n eps)
        # the matrix is singular to working precision, however small the error
        if not size <= scale / (n * np.finfo(float).eps):
            raise DomainError("the banded matrix is singular to working precision")
        return x

    return solve
