"""Discrete equivariance of the PDE solver.

``pde_solver._Operator`` is the operator that ``run`` marches and whose
zeros are the steady states, so it must commute with the grid maps of the
symmetries it admits: a periodic shift by whole cells (X1), a shift of the
start time under constant decay (X2), the reflection x -> -x on [-L, L]
when the limiter is odd, and, with the flux off, the scaling x -> 2x,
t -> 4t, u -> u/2, v -> 2v under power-law decay (X3).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flks.core import ConstantDecay, FieldPair, Grid1D, ModelParams, PowerLawDecay
from flks.limiters import AlgebraicSqrtLimiter, TanhLimiter, TanhLogLimiter
from flks.pde_solver import SolverConfig, run, stable_dt

N = 64
STEPS = 160
ODD_LIMITERS = [TanhLimiter(1.1, 1.4), AlgebraicSqrtLimiter(1.1)]


def _final(u, v, limiter, bc, t0=0.0):
    params = ModelParams(D=0.8, tau=0.1, limiter=limiter, decay=ConstantDecay(0.5))
    grid = Grid1D(-4.0, 4.0, N)
    dt = stable_dt(params, SolverConfig(grid, t_end=1.0, bc=bc))
    config = SolverConfig(grid, t_end=t0 + STEPS * dt, bc=bc, output_stride=10 * STEPS)
    traj = run(FieldPair(u, v, t0), params, config)
    assert traj.steps_taken >= STEPS
    return traj.us[-1], traj.vs[-1]


def _random_state(seed, periodic):
    rng = np.random.default_rng(seed)
    u = 1.0 + 0.5 * rng.random(N + 1)
    v = 2.0 + rng.standard_normal(N + 1)
    if periodic:
        # node n aliases node 0
        u[-1], v[-1] = u[0], v[0]
    return u, v


def _shift(f, k):
    # shift the n distinct periodic nodes by k cells; node n repeats node 0
    g = np.roll(f[:-1], k)
    return np.append(g, g[0])


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, N - 1))
@pytest.mark.parametrize("limiter", ODD_LIMITERS, ids=["tanh", "algebraic_sqrt"])
def test_periodic_whole_cell_shift_is_bit_exact(limiter, seed, k):
    u, v = _random_state(seed, periodic=True)
    u1, v1 = _final(u, v, limiter, "periodic")
    u2, v2 = _final(_shift(u, k), _shift(v, k), limiter, "periodic")
    assert np.array_equal(u2, _shift(u1, k))
    assert np.array_equal(v2, _shift(v1, k))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("limiter", ODD_LIMITERS, ids=["tanh", "algebraic_sqrt"])
def test_reflection_with_odd_limiter(limiter, bc, seed):
    # not bit for bit: the three-point v_xx sums (v[i-1] - 2 v[i]) + v[i+1],
    # whose reflection adds the outer nodes in the other order (~1e-15)
    u, v = _random_state(seed, periodic=bc == "periodic")
    u1, v1 = _final(u, v, limiter, bc)
    u2, v2 = _final(u[::-1], v[::-1], limiter, bc)
    assert np.max(np.abs(u2 - u1[::-1])) < 1e-13
    assert np.max(np.abs(v2 - v1[::-1])) < 1e-13


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_start_time_shift_under_constant_decay(bc, seed):
    # X2: with kappa constant the system is autonomous, so a run from t = 3
    # is the run from t = 0; only the rounding of the stage times differs
    u, v = _random_state(seed, periodic=bc == "periodic")
    limiter = TanhLimiter(1.1, 1.4)
    u1, v1 = _final(u, v, limiter, bc)
    u2, v2 = _final(u, v, limiter, bc, t0=3.0)
    assert np.max(np.abs(u2 - u1)) < 1e-11
    assert np.max(np.abs(v2 - v1)) < 1e-11


def _power_law_final(u, v, lam):
    # power-law decay from t = lam^2 to 1.1 lam^2 on [-4 lam, 4 lam]; the
    # flux is off, so the advective step bound never binds
    params = ModelParams(D=0.8, tau=0.1, limiter=TanhLogLimiter(1e-300, 0.51),
                         decay=PowerLawDecay(0.5))
    grid = Grid1D(-4.0 * lam, 4.0 * lam, N)
    config = SolverConfig(grid, t_end=1.1 * lam * lam, output_stride=10**6)
    traj = run(FieldPair(u, v, lam * lam), params, config)
    return traj.us[-1], traj.vs[-1], traj.steps_taken


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flux_off_scaling_is_bit_exact(seed):
    # X3 with lambda = 2: x -> 2x, t -> 4t, u -> u/2, v -> 2v maps the run on
    # [-4, 4] onto the run on [-8, 8] at the same n.  Every factor is a power
    # of two and the step sequence scales with t, so the map is exact
    u, v = _random_state(seed, periodic=False)
    u1, v1, steps1 = _power_law_final(u, v, 1.0)
    u2, v2, steps2 = _power_law_final(u / 2.0, 2.0 * v, 2.0)
    assert steps1 == steps2 > 0
    assert np.array_equal(u2, u1 / 2.0)
    assert np.array_equal(v2, 2.0 * v1)
