"""Catalog of flux-limiting functions.

Each limiter supplies the flux potential F(s) = f(s)*s that enters the cell
equation as (u*F(v_x))_x, together with its analytic derivative.  Tanh and
AlgebraicSqrt are odd and respect the hard bound |F| < v_max; WeberFechnerLog
is even with logarithmic growth (no hard bound); TanhLog is even and bounded.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


class FluxLimiter:
    """Base type; concrete limiters implement F and dF."""

    #: whether |F| <= v_max holds for all s
    bounded = None
    #: the gradient scale of F (its s0 where it has one); not a step bound
    gradient_scale = 1.0

    def F(self, s):
        raise NotImplementedError

    def dF(self, s):
        raise NotImplementedError


def _check_positive(name, value):
    if not (np.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class TanhLimiter(FluxLimiter):
    """F(s) = v_max * tanh(s / s0)."""

    v_max: float
    s0: float

    bounded = True

    def __post_init__(self):
        _check_positive("v_max", self.v_max)
        _check_positive("s0", self.s0)

    @property
    def gradient_scale(self):
        return self.s0

    def F(self, s):
        return self.v_max * np.tanh(np.asarray(s, dtype=float) / self.s0)

    def dF(self, s):
        # sech^2 written via exp(-|x|) so large arguments cannot overflow
        x = np.abs(np.asarray(s, dtype=float)) / self.s0
        e = np.exp(-x)
        sech = 2.0 * e / (1.0 + e * e)
        return (self.v_max / self.s0) * sech * sech


@dataclass(frozen=True)
class AlgebraicSqrtLimiter(FluxLimiter):
    """F(s) = v_max * s / sqrt(1 + s^2)."""

    v_max: float

    bounded = True
    gradient_scale = 1.0

    def __post_init__(self):
        _check_positive("v_max", self.v_max)

    def F(self, s):
        # clip shields the |F| <= v_max bound from one-ulp hypot rounding
        s = np.asarray(s, dtype=float)
        return self.v_max * np.clip(s / np.hypot(1.0, s), -1.0, 1.0)

    def dF(self, s):
        s = np.asarray(s, dtype=float)
        return self.v_max / np.hypot(1.0, s) ** 3


@dataclass(frozen=True)
class WeberFechnerLogLimiter(FluxLimiter):
    """F(s) = v_max * ln(1 + s^2/s0^2); even, nonnegative, log growth only."""

    v_max: float
    s0: float

    bounded = False

    def __post_init__(self):
        _check_positive("v_max", self.v_max)
        _check_positive("s0", self.s0)

    @property
    def gradient_scale(self):
        return self.s0

    def F(self, s):
        s = np.asarray(s, dtype=float)
        return self.v_max * np.log1p((s / self.s0) ** 2)

    def dF(self, s):
        s = np.asarray(s, dtype=float)
        return self.v_max * 2.0 * s / (self.s0 * self.s0 + s * s)


@dataclass(frozen=True)
class TanhLogLimiter(FluxLimiter):
    """F(s) = v_max * tanh(ln(1 + a*s^2)); even, 0 <= F < v_max.

    The a parameter is the primitive sensitivity scale (a = scale^2/s0^2 in
    the alternative parameterization).  tanh(ln w) is evaluated through the
    algebraic identity (w^2-1)/(w^2+1), exact and overflow-free for any
    representable w.
    """

    v_max: float
    a: float

    bounded = True
    gradient_scale = 1.0

    def __post_init__(self):
        _check_positive("v_max", self.v_max)
        _check_positive("a", self.a)

    def F(self, s):
        # tanh(ln w) = (w^2-1)/(w^2+1) with w = 1 + a s^2; the numerator is
        # formed as d*(2+d) so small s keep full relative accuracy
        s = np.asarray(s, dtype=float)
        d = self.a * s * s
        with np.errstate(over="ignore", invalid="ignore"):
            t = d * (2.0 + d)
            out = np.where(np.isfinite(t), t / (t + 2.0), 1.0)
        return self.v_max * out

    def dF(self, s):
        # d/ds tanh(ln w) = sech^2(ln w) * w'/w = 8*a*s*w / (w^2+1)^2
        s = np.asarray(s, dtype=float)
        d = self.a * s * s
        with np.errstate(over="ignore", invalid="ignore"):
            t2 = d * (2.0 + d) + 2.0
            val = 8.0 * self.a * s * (1.0 + d) / (t2 * t2)
            out = np.where(np.isfinite(val), val, 0.0)
        return self.v_max * out


_LIMITER_KINDS = {
    "tanh": (TanhLimiter, ("v_max", "s0")),
    "algebraic_sqrt": (AlgebraicSqrtLimiter, ("v_max",)),
    "weber_fechner_log": (WeberFechnerLogLimiter, ("v_max", "s0")),
    "tanh_log": (TanhLogLimiter, ("v_max", "a")),
}


def limiter_from_config(kind, **params):
    """Build a limiter by name; unknown names or parameters are errors.

    Given no parameters at all, each parameter of the kind is 1.0.
    """
    try:
        cls, names = _LIMITER_KINDS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown limiter kind {kind!r}; expected one of {sorted(_LIMITER_KINDS)}"
        ) from None
    params = params or dict.fromkeys(names, 1.0)
    extra = set(params) - set(names)
    if extra:
        raise ValidationError(f"limiter {kind!r} does not accept {sorted(extra)}")
    missing = set(names) - set(params)
    if missing:
        raise ValidationError(f"limiter {kind!r} requires {sorted(missing)}")
    return cls(**{k: float(v) for k, v in params.items()})
