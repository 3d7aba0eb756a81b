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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    EvaluationError,
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


_PAD = 4


def _residual(samples, params, ht, grid, x_loc):
    """Residual norms over (t, levels_u, levels_v) samples.

    Each sample holds the fields at the 5 time levels t + k ht, k = -2..2,
    on the nodes x_loc padded by _PAD nodes on each side; the residual is
    measured on x_loc only, where the padded 4th-order stencils are central.
    A non-finite residual raises EvaluationError naming its (x, t).
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
        j = int(np.argmax(both))  # the first NaN, if there is one
        if not np.isfinite(both[j]):
            raise EvaluationError(f"non-finite residual at x={float(x_loc[j]):g}, t={float(t):g}")
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
    temporal stencil step ht, positive and finite (the samples, padded by
    4 dx and 2 ht, must stay inside the solution's validity domain).  A
    non-finite residual raises EvaluationError.
    """
    if hasattr(sol, "times") and hasattr(sol, "us"):
        return _residual_from_trajectory(sol, params)
    if grid is None or t_samples is None or not len(t_samples):
        raise ValidationError("evaluable solutions need an explicit grid and t_samples")
    if not 0.0 < ht < math.inf:  # NaN included
        raise ValidationError(f"ht must be positive and finite, got {ht!r}")
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


_FLOW_MONOMIALS = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _flow_rates(field):
    """(a, b, c, d) of a field a d/dt + b d/dx + c u d/du + d v d/dv with
    constant a, b, c, d; any other field has no grid-compatible flow."""
    rates = []
    for comp, mono in zip(field.components(), _FLOW_MONOMIALS):
        if set(comp.terms) - {mono}:
            raise UnsupportedGenerator(
                f"{field!r} rescales the grid or mixes variables; only t/x translations "
                "with constant u, v rescaling have a finite transform here"
            )
        rates.append(float(comp.terms.get(mono, 0)))
    return rates


def group_invariance_check(generator, sol, params, eps, grid=None, t_samples=None, ht=5e-4):
    """Apply the finite transform of a generator to a solution and re-measure
    the PDE residual; the transformed field of an admitted symmetry must
    remain a solution (residual comparable to baseline).

    ``generator`` is a ``lie_toolkit.VectorField`` or a name in
    ``lie_toolkit.catalog(lam)``, lam being the decay law's rate ("X4" needs
    an exponential law).  The transform is the field's flow: for
    a d/dt + b d/dx + c u d/du + d v d/dv with constant a, b, c, d it maps
    (u, v)(x, t) to (e^(c eps) u, e^(d eps) v)(x - b eps, t - a eps).  Any
    other field, X3 and XD included, rescales the grid and is rejected.  On a
    periodic trajectory only x-shifts apply, rounded to whole cells.  The
    report names the catalog entry the field equals, else the field's repr.
    """
    from .lie_toolkit import catalog

    lam = getattr(params.decay, "lam", None)
    named = catalog(lam or 0)
    if isinstance(generator, str):
        if generator == "X4" and lam is None:
            raise ValidationError("X4 needs an exponential decay law")
        if generator not in named:
            raise UnsupportedGenerator(f"unsupported generator {generator!r}")
        field, name = named[generator], generator
    else:
        field = generator
        name = next((k for k, f in named.items() if f == field), repr(field))
    a, b, c, d = _flow_rates(field)

    if hasattr(sol, "times") and hasattr(sol, "us"):
        if a or c or d or not b:
            raise UnsupportedGenerator(
                "trajectory transforms support x-shifts only; pass an evaluable solution"
            )
        if sol.bc != "periodic":
            raise ValidationError("trajectory x-shifts need periodic boundaries")
        dx = sol.grid.dx
        shift = b * eps
        k = int(math.copysign(max(1, round(abs(shift) / dx)), shift))
        us, vs = (np.roll(f[:, :-1], k, axis=1) for f in (sol.us, sol.vs))
        shifted = dataclasses.replace(
            sol,
            us=np.concatenate([us, us[:, :1]], axis=1),
            vs=np.concatenate([vs, vs[:, :1]], axis=1),
        )
        base = pde_residual(sol, params)
        trans = pde_residual(shifted, params)
        return InvarianceReport(name, k * dx / b, base, trans)

    su, sv = math.exp(c * eps), math.exp(d * eps)

    def eu(x, t):
        return su * np.asarray(sol.eval_u(np.asarray(x) - b * eps, t - a * eps))

    def ev(x, t):
        return sv * np.asarray(sol.eval_v(np.asarray(x) - b * eps, t - a * eps))

    base = pde_residual(sol, params, grid, t_samples, ht)
    trans = _residual(_callable_samples(eu, ev, grid, t_samples, ht), params, ht, grid, grid.nodes())
    return InvarianceReport(name, eps, base, trans)
