import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flks.banded import band_matvec, band_solver
from flks.errors import DomainError


def _dense(rows, kl):
    """The n x n matrix of the band rows: row i holds A[i, i - kl + k]."""
    n, w = rows.shape
    A = np.zeros((n, n + w - 1))
    for k in range(w):
        A[np.arange(n), np.arange(n) + k] = rows[:, k]
    return A[:, kl : kl + n]


def _band_rows(rng, n, kl, ku, diagonal):
    rows = rng.standard_normal((n, kl + ku + 1))
    if diagonal == "zero":
        rows[:, kl] = 0.0  # elimination without row swaps meets a zero pivot at once
    elif diagonal == "tiny":
        rows[:, kl] *= 1e-8
    j = np.arange(n)[:, None] + np.arange(kl + ku + 1) - kl
    rows[(j < 0) | (j >= n)] = 0.0
    return rows


@settings(max_examples=150, deadline=None)
@given(
    kl=st.integers(1, 5),
    ku=st.integers(1, 5),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    diagonal=st.sampled_from(["zero", "tiny", "random"]),
    bordered=st.booleans(),
)
# a tiny diagonal under a border: when the border's band entries went
# through Sherman-Morrison too, these missed the backward-error bound
# (6.4e-14 and 4.8e-14) or were refused as inaccurate although
# cond(A) = 1 at n = 1
@example(kl=3, ku=3, n=1, seed=1628000, diagonal="tiny", bordered=True)
@example(kl=1, ku=1, n=1, seed=25, diagonal="tiny", bordered=True)
@example(kl=5, ku=5, n=1, seed=35, diagonal="tiny", bordered=True)
@example(kl=1, ku=1, n=3, seed=18, diagonal="tiny", bordered=True)
def test_band_solver_matches_a_dense_solve(kl, ku, n, seed, diagonal, bordered):
    # n below the block size kl + ku and n off every power of two included;
    # over 3,246 such draws (of 4,000, the rest too ill-conditioned) the worst
    # normwise backward error was 2.1e-16 and the worst forward error 6.4e-17
    # times the condition number
    rng = np.random.default_rng(seed)
    rows = _band_rows(rng, n, kl, ku, diagonal)
    B = _dense(rows, kl)
    A = B.copy()
    border = rng.standard_normal(n) if bordered else None
    if bordered:
        A[0] += border
    # the border's out-of-band rest enters by Sherman-Morrison, which needs
    # a regular band
    assume(np.linalg.cond(B) < 1e10 and np.linalg.cond(A) < 1e10)
    f = rng.standard_normal(n)
    x = band_solver(rows, kl, border)(f)
    norm_A = np.max(np.abs(A).sum(axis=1))
    assert np.max(np.abs(f - A @ x)) <= 1e-14 * (norm_A * np.max(np.abs(x)) + np.max(np.abs(f)))
    ref = np.linalg.solve(A, f)
    cond = norm_A * np.max(np.abs(np.linalg.inv(A)).sum(axis=1))
    assert np.max(np.abs(x - ref)) <= 1e-13 * cond * np.max(np.abs(ref))


def test_band_matvec_is_the_dense_product():
    rng = np.random.default_rng(7)
    rows = _band_rows(rng, 37, 3, 2, "random")
    x = rng.standard_normal(37)
    assert np.allclose(band_matvec(rows, 3, x), _dense(rows, 3) @ x, rtol=0, atol=1e-13)


def test_band_solver_refuses_a_singular_matrix():
    rows = np.zeros((20, 3))
    rows[:, 1] = 1.0
    rows[7, 1] = 0.0  # an empty row
    with pytest.raises(DomainError):
        band_solver(rows, 1)(np.ones(20))
    # the border makes row 0 zero: I + e_0 border^T with border = -e_0
    border = np.zeros(20)
    border[0] = -1.0
    with pytest.raises(DomainError):
        band_solver(np.tile([0.0, 1.0, 0.0], (20, 1)), 1, border)
    with pytest.raises(DomainError):
        band_solver(rows, 3)


def test_band_solver_refuses_an_exactly_singular_band():
    # the Neumann Laplacian annihilates constants; its computed solution,
    # about -3.5e16 everywhere, has a normwise backward error of ~7e-17
    rows = np.tile([1.0, -2.0, 1.0], (20, 1))
    rows[0, :2] = [0.0, -1.0]
    rows[-1, 1:] = [-1.0, 0.0]
    with pytest.raises(DomainError, match="singular to working precision"):
        band_solver(rows, 1)(np.arange(20.0))


def test_band_solver_refuses_a_solution_that_misses_its_equations():
    # x = 1e10 / 1e-300 overflows, so its residual is not finite
    solve = band_solver(np.full((5, 1), 1e-300), 0)
    with pytest.raises(DomainError, match="lost its accuracy"):
        solve(np.full(5, 1e10))


def test_band_solver_keeps_its_factors_across_solves():
    rng = np.random.default_rng(3)
    rows = _band_rows(rng, 50, 2, 2, "zero")
    solve = band_solver(rows, 2, rng.standard_normal(50))
    fs = rng.standard_normal((3, 50))
    first = [solve(f) for f in fs]
    assert all(np.array_equal(solve(f), x) for f, x in zip(fs, first))
