"""Validation harness: PDE residuals, comparisons, convergence-order fits and
finite-transform invariance checks.

Residuals use fourth-order central differences in x and t so the measurement
noise sits well below the second-order solver errors being judged.  One
residual kernel serves every input: 5 time levels padded by 4 nodes on each
side.  Evaluable solutions are sampled on the padded nodes directly; sampled
trajectories supply their stored frames (which must be uniformly spaced in
time), wrapped around for periodic ones and with the outer 4 nodes as the
padding otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    GridMismatch,
    UnsupportedGenerator,
    ValidationError,
)
from .quadrature import central_d1, d1_uniform, d2_uniform


@dataclass(frozen=True)
class ResidualReport:
    """Norms of the PDE residual over a sampled space-time window."""

    sup_norm: float
    l2_norm: float
    grid: object
    t_samples: tuple
    worst_location: tuple


def _transformed_pair(sol, kind, eps, lam=0.0):
    """Finite symmetry transform applied to an evaluable solution."""
    if kind == "X1":
        return (lambda x, t: sol.eval_u(np.asarray(x) - eps, t),
                lambda x, t: sol.eval_v(np.asarray(x) - eps, t))
    if kind == "X2":
        return (lambda x, t: sol.eval_u(x, t - eps),
                lambda x, t: sol.eval_v(x, t - eps))
    if kind == "X4":
        scale = math.exp(-lam * eps)
        return (lambda x, t: sol.eval_u(x, t - eps),
                lambda x, t: scale * np.asarray(sol.eval_v(x, t - eps)))
    raise UnsupportedGenerator(f"no finite transform for {kind!r}")


_PAD = 4


def _residual(samples, params, ht, grid, x_loc):
    """Residual norms over (t, levels_u, levels_v) samples.

    Each sample holds the fields at the 5 time levels t + k ht, k = -2..2,
    on the nodes x_loc padded by _PAD nodes on each side; the residual is
    measured on x_loc only, where the padded 4th-order stencils are central.
    """
    dx = grid.dx
    D, tau, lim = params.D, params.tau, params.limiter
    sl = slice(_PAD, -_PAD)
    sup = -1.0
    worst = (math.nan, math.nan)
    sq_sum = 0.0
    count = 0
    ts = []
    for t, levels_u, levels_v in samples:
        u_t = central_d1(levels_u, ht)
        v_t = central_d1(levels_v, ht)
        u = levels_u[2]
        v = levels_v[2]
        u_xx = d2_uniform(u, dx)
        v_xx = d2_uniform(v, dx)
        g_x = d1_uniform(u * lim.F(d1_uniform(v, dx)), dx)
        kap = params.decay.kappa(t)
        R_u = (u_t - D * u_xx + g_x)[sl]
        R_v = (tau * v_t - v_xx + kap * v - u)[sl]
        both = np.maximum(np.abs(R_u), np.abs(R_v))
        j = int(np.argmax(both))
        if both[j] > sup:
            sup = float(both[j])
            worst = (float(x_loc[j]), float(t))
        sq_sum += float(np.sum(R_u**2) + np.sum(R_v**2))
        count += 2 * R_u.size
        ts.append(float(t))
    return ResidualReport(
        sup_norm=sup,
        l2_norm=math.sqrt(sq_sum / count),
        grid=grid,
        t_samples=tuple(ts),
        worst_location=worst,
    )


def _callable_samples(eval_u, eval_v, grid, t_samples, ht):
    dx = grid.dx
    xp = np.concatenate(
        [
            grid.x_lo + dx * np.arange(-_PAD, 0),
            grid.nodes(),
            grid.x_hi + dx * np.arange(1, _PAD + 1),
        ]
    )
    for t in t_samples:
        times = [t + k * ht for k in (-2, -1, 0, 1, 2)]
        yield (
            t,
            [np.asarray(eval_u(xp, tt), dtype=float) for tt in times],
            [np.asarray(eval_v(xp, tt), dtype=float) for tt in times],
        )


def _residual_from_trajectory(traj, params):
    times = traj.times
    us, vs = traj.us, traj.vs
    # a clipped final step may break frame uniformity; drop ragged tails
    dts = np.diff(times)
    while dts.size > 4 and not math.isclose(dts[-1], dts[0], rel_tol=1e-8):
        times, us, vs = times[:-1], us[:-1], vs[:-1]
        dts = np.diff(times)
    if times.size < 5:
        raise ValidationError("need at least 5 uniformly spaced frames")
    if not np.allclose(dts, dts[0], rtol=1e-8, atol=1e-14):
        raise ValidationError("trajectory frames must be uniformly spaced in time")
    xs = traj.grid.nodes()
    if traj.bc == "periodic":
        # node n aliases node 0: pad the n unique nodes by wrapping around
        x_loc = xs[:-1]
        us = np.pad(us[:, :-1], ((0, 0), (_PAD, _PAD)), mode="wrap")
        vs = np.pad(vs[:, :-1], ((0, 0), (_PAD, _PAD)), mode="wrap")
    else:
        # the outer nodes serve as padding; residuals are interior only
        x_loc = xs[_PAD:-_PAD]
    samples = (
        (float(times[k]), us[k - 2:k + 3], vs[k - 2:k + 3]) for k in range(2, times.size - 2)
    )
    return _residual(samples, params, float(dts[0]), traj.grid, x_loc)


def pde_residual(sol, params, grid=None, t_samples=None, ht=5e-4):
    """Residual of the full system for an evaluable solution or trajectory.

    R_u = u_t - D u_xx + (u F(v_x))_x and R_v = tau v_t - v_xx + kappa v - u,
    measured with 4th-order stencils at the grid nodes.  A Neumann trajectory
    leaves out its 4 outer nodes on each side, which pad the stencils; a
    periodic one is measured at nodes 0..n-1 (node n is node 0).  For
    evaluable solutions the caller chooses the grid, time samples and
    temporal stencil step ht (the samples, padded by 4 dx and 2 ht, must stay
    inside the solution's validity domain).
    """
    if hasattr(sol, "times") and hasattr(sol, "us"):
        return _residual_from_trajectory(sol, params)
    if grid is None or t_samples is None:
        raise ValidationError("evaluable solutions need an explicit grid and t_samples")
    samples = _callable_samples(sol.eval_u, sol.eval_v, grid, t_samples, ht)
    return _residual(samples, params, ht, grid, grid.nodes())


def compare(a, b):
    """Elementwise difference norms of two sampled field pairs.

    Accepts anything with .u and .v arrays (FieldPair, frames).  Returns a
    dict with sup/l2/relative entries per field; mismatched shapes raise
    GridMismatch.
    """
    ua, va = np.asarray(a.u, float), np.asarray(a.v, float)
    ub, vb = np.asarray(b.u, float), np.asarray(b.v, float)
    if ua.shape != ub.shape or va.shape != vb.shape:
        raise GridMismatch(f"sampled fields differ in shape: {ua.shape} vs {ub.shape}")
    out = {}
    for name, fa, fb in (("u", ua, ub), ("v", va, vb)):
        diff = fa - fb
        sup = float(np.max(np.abs(diff)))
        l2 = float(np.sqrt(np.mean(diff**2)))
        scale = float(np.max(np.abs(fa)))
        out[name] = {
            "sup": sup,
            "l2": l2,
            "relative": sup / scale if scale > 0.0 else (0.0 if sup == 0.0 else math.inf),
        }
    return out


def convergence_order(pairs):
    """Least-squares slope of log(error) against log(dx).

    Needs at least 3 (dx, error) points with positive errors above the
    round-off floor 1e-14; returns (order, r_squared).
    """
    pts = [(float(h), float(e)) for h, e in pairs]
    if len(pts) < 3:
        raise ValidationError("need at least 3 (dx, error) points")
    if any(e <= 0.0 for _, e in pts):
        raise ValidationError("errors must be positive")
    if any(e < 1e-14 for _, e in pts):
        raise DegenerateFit("errors at the round-off floor cannot support a fit")
    logh = np.log([h for h, _ in pts])
    loge = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(logh, loge, 1)
    fit = slope * logh + intercept
    ss_res = float(np.sum((loge - fit) ** 2))
    ss_tot = float(np.sum((loge - np.mean(loge)) ** 2))
    r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0.0 else 0.0)
    return float(slope), r2


@dataclass(frozen=True)
class InvarianceReport:
    """Residuals before and after a finite symmetry transform."""

    generator: str
    eps: float
    baseline: ResidualReport
    transformed: ResidualReport

    @property
    def ratio(self):
        if self.baseline.sup_norm == 0.0:
            return math.inf if self.transformed.sup_norm > 0.0 else 1.0
        return self.transformed.sup_norm / self.baseline.sup_norm


def _generator_name(generator):
    if isinstance(generator, str):
        return generator
    # match a lie_toolkit VectorField against the catalog shapes
    from .lie_toolkit import x1, x2

    if generator == x1():
        return "X1"
    if generator == x2():
        return "X2"
    comps = generator.components()
    if (
        not comps[0].is_zero()
        and comps[1].is_zero()
        and comps[2].is_zero()
        and not comps[3].is_zero()
    ):
        return "X4"
    raise UnsupportedGenerator(f"unsupported generator {generator!r}")


def group_invariance_check(generator, sol, params, eps, grid=None, t_samples=None, ht=5e-4):
    """Apply a finite transform of X1/X2/X4 to a solution and re-measure the
    PDE residual; the transformed field of an admitted symmetry must remain a
    solution (residual comparable to baseline).

    X1 on a periodic trajectory shifts by whole cells; the evaluable path
    supports all three generators.  X3 has no grid-compatible finite
    transform here and is rejected.  X4 requires an exponential decay law
    (its rescaling rate is the law's lam).
    """
    name = _generator_name(generator)
    if name == "X3":
        raise UnsupportedGenerator("X3 rescales the grid; use the reduced solvers")
    if name not in ("X1", "X2", "X4"):
        raise UnsupportedGenerator(f"unsupported generator {name!r}")

    if hasattr(sol, "times") and hasattr(sol, "us"):
        if name != "X1":
            raise UnsupportedGenerator(
                "trajectory transforms support X1 only; pass an evaluable solution"
            )
        if sol.bc != "periodic":
            raise ValidationError("X1 trajectory shifts need periodic boundaries")
        dx = sol.grid.dx
        k = max(1, int(round(eps / dx)))
        eps_eff = k * dx
        import copy

        shifted = copy.copy(sol)
        shifted.us = np.concatenate(
            [np.roll(sol.us[:, :-1], k, axis=1), sol.us[:, :1]], axis=1
        )
        shifted.vs = np.concatenate(
            [np.roll(sol.vs[:, :-1], k, axis=1), sol.vs[:, :1]], axis=1
        )
        shifted.us[:, -1] = shifted.us[:, 0]
        shifted.vs[:, -1] = shifted.vs[:, 0]
        base = pde_residual(sol, params)
        trans = pde_residual(shifted, params)
        return InvarianceReport(name, eps_eff, base, trans)

    lam = 0.0
    if name == "X4":
        lam = getattr(params.decay, "lam", None)
        if lam is None:
            raise ValidationError("X4 needs an exponential decay law")
    eu, ev = _transformed_pair(sol, name, eps, lam)

    class _Wrapper:
        eval_u = staticmethod(eu)
        eval_v = staticmethod(ev)

    base = pde_residual(sol, params, grid, t_samples, ht)
    trans = pde_residual(_Wrapper(), params, grid, t_samples, ht)
    return InvarianceReport(name, eps, base, trans)
