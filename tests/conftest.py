import dataclasses

import pytest

from flks.core import ConstantDecay, Grid1D, ModelParams
from flks.limiters import TanhLimiter
from flks.verify import pde_residual


@pytest.fixture
def fig_params():
    """Model constants of the traveling-wave figure runs."""
    return ModelParams(
        D=0.8,
        tau=0.1,
        limiter=TanhLimiter(v_max=1.1, s0=1.4),
        decay=ConstantDecay(0.5),
    )


def rk4_scalar_ode(f, t0, y0, t1, n):
    """Plain RK4 reference integrator for scalar ODEs y' = f(t, y)."""
    t, y = t0, y0
    h = (t1 - t0) / n
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


class _Negated:
    """The limiter F -> -F: the repulsive flux of the case II closure."""

    def __init__(self, limiter):
        self.limiter = limiter

    def F(self, s):
        return -self.limiter.F(s)


def case2_pde_residuals(sol, params):
    """Sup PDE residuals of a case II wave on x in [-5, 5] (n = 128) at
    t = 0, 1, 2: under F -> -F, then under the configured limiter."""
    grid = Grid1D(-5.0, 5.0, 128)
    repulsive = dataclasses.replace(params, limiter=_Negated(params.limiter))
    return tuple(pde_residual(sol, p, grid, (0.0, 1.0, 2.0)).sup_norm for p in (repulsive, params))
