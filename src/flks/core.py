"""Shared domain types: decay laws, model parameters, grids and discrete states.

Everything here is immutable after construction (``FieldPair`` arrays are the
one exception: they belong to the solver run that owns them).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ValidationError


#: The most intervals a grid, a reduction or a run takes: each is at least one
#: array entry, and often a CSV row, so a larger count is refused before
#: anything is allocated.
MAX_STEPS = 10**7


class CaseTag(Enum):
    """Symmetry-classification case of a decay law."""

    I_ARBITRARY = "I"
    II_CONSTANT = "II"
    III_POWER_LAW = "III"
    IV_EXPONENTIAL = "IV"


class DecayLaw:
    """Base for the kappa(t) family.

    Concrete laws implement ``kappa(t)`` and its exact integral
    ``cumulative(a, b)`` over [a, b], which the integrating factor of the
    uniform relaxation tau v' + kappa(t) v = C is built from.  Both take
    floats or arrays (a and b broadcast); a float in gives a float out.
    ``start`` is the time a run under the law begins at: 0, unless the law
    is undefined there.  Both raise DomainError at a time outside the law's
    domain; ``check_times`` turns that into a config error.
    """

    start = 0.0

    def kappa(self, t):
        raise NotImplementedError

    def cumulative(self, a, b):
        raise NotImplementedError

    def check_times(self, times, what):
        """ValidationError naming ``what`` when a time of ``times`` lies outside
        the law's domain.  Every domain is an interval, so the end points of
        the times a work evaluates the law at suffice."""
        try:
            with np.errstate(all="ignore"):
                self.kappa(np.asarray(times, dtype=float))
        except DomainError as exc:
            raise ValidationError(f"{what} is outside the decay law's domain: {exc}") from None


def _require_finite(name, value):
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def _reject_nan(*ts):
    """DomainError when a time is NaN.  A scalar is tested with t != t, which
    stays cheap on the PDE path (kappa runs twice per step)."""
    for t in ts:
        if (t != t) if isinstance(t, float) else np.isnan(t).any():
            raise DomainError("decay time must not be NaN, got t=nan")


def _require_positive(t):
    """DomainError naming, as one float, the first time of t (in C order)
    that is not > 0, NaN included: the power law's domain."""
    inside = np.greater(t, 0.0)
    if not np.all(inside):
        bad = float(np.asarray(t, dtype=float)[~inside][0])
        raise DomainError(f"power-law decay is defined for t > 0, got t={bad!r}")


@dataclass(frozen=True)
class ConstantDecay(DecayLaw):
    """kappa(t) = kappa0 for all t."""

    kappa0: float

    def __post_init__(self):
        _require_finite("kappa0", self.kappa0)

    def kappa(self, t):
        _reject_nan(t)
        return self.kappa0 * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.kappa0

    def cumulative(self, a, b):
        """Exact integral of kappa over [a, b]."""
        _reject_nan(a, b)
        return self.kappa0 * (b - a)


@dataclass(frozen=True)
class PowerLawDecay(DecayLaw):
    """kappa(t) = mu / t, defined for t > 0 only; runs start at t = 1."""

    mu: float
    start = 1.0

    def __post_init__(self):
        _require_finite("mu", self.mu)

    def kappa(self, t):
        _require_positive(t)
        return self.mu / t

    def cumulative(self, a, b):
        _require_positive(a)
        _require_positive(b)
        return self.mu * np.log(b / a)


@dataclass(frozen=True)
class ExponentialDecay(DecayLaw):
    """kappa(t) = kappa0 * exp(lam * t)."""

    kappa0: float
    lam: float

    def __post_init__(self):
        _require_finite("kappa0", self.kappa0)
        _require_finite("lam", self.lam)

    def kappa(self, t):
        _reject_nan(t)
        return self.kappa0 * np.exp(self.lam * np.asarray(t, dtype=float)) if np.ndim(t) \
            else self.kappa0 * np.exp(self.lam * t)

    def cumulative(self, a, b):
        _reject_nan(a, b)
        if self.lam == 0.0:
            return self.kappa0 * (b - a)
        return self.kappa0 * (np.exp(self.lam * b) - np.exp(self.lam * a)) / self.lam


@dataclass(frozen=True)
class TabulatedDecay(DecayLaw):
    """Piecewise-linear kappa through strictly increasing (t, kappa) samples.

    Evaluation outside the sample range is a DomainError; no extrapolation.
    """

    times: tuple
    values: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(k) for k in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) != len(values):
            raise ValidationError("times and values must have equal length")
        if len(times) < 2:
            raise ValidationError("tabulated decay needs at least two samples")
        if not all(np.isfinite(times)) or not all(np.isfinite(values)):
            raise ValidationError("tabulated samples must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("tabulated times must be strictly increasing")
        # the knots, and the integrals of the interpolant from times[0] to
        # each knot, as read-only arrays, so neither kappa nor cumulative
        # converts the tuples on every call
        seg = np.cumsum(0.5 * np.add(values[1:], values[:-1]) * np.diff(times))
        for name, arr in (("_t", np.array(times)), ("_k", np.array(values)),
                          ("_seg", np.concatenate([[0.0], seg]))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def start(self):
        """Runs start at the first sample."""
        return self.times[0]

    def kappa(self, t):
        out = np.interp(self._inside(t), self._t, self._k)
        return out if np.ndim(t) else float(out)

    def cumulative(self, a, b):
        """Exact integral of the interpolant over [a, b] (DomainError outside)."""
        out = self._cum_at(self._inside(b)) - self._cum_at(self._inside(a))
        return out if out.ndim else float(out)

    def _inside(self, t):
        """t as a float array; DomainError naming the first time outside the samples."""
        arr = np.asarray(t, dtype=float)
        inside = (arr >= self.times[0]) & (arr <= self.times[-1])  # NaN is not
        if not np.all(inside):
            raise DomainError(f"t={float(arr[~inside][0])!r} outside tabulated range "
                              f"[{self.times[0]}, {self.times[-1]}]")
        return arr

    def _cum_at(self, t):
        # exact integral of the interpolant from times[0]; i is t's knot interval
        ts, ks = self._t, self._k
        i = np.searchsorted(ts[1:-1], t, side="right")
        dt = t - ts[i]
        slope = (ks[i + 1] - ks[i]) / (ts[i + 1] - ts[i])
        return self._seg[i] + ks[i] * dt + 0.5 * slope * dt * dt


#: Admitted generator names per classification case, in table row order.
_GENERATORS = {
    CaseTag.I_ARBITRARY: ("X1",),
    CaseTag.II_CONSTANT: ("X1", "X2"),
    CaseTag.III_POWER_LAW: ("X1", "X3"),
    CaseTag.IV_EXPONENTIAL: ("X1", "X4"),
}


def classify(law):
    """Map a decay law onto its symmetry case and admitted generator names.

    The classification is a pure function of the variant: numeric values are
    validated at construction but never change the case.  An exponential law
    with lam = 0 still classifies as case IV.
    """
    if isinstance(law, ConstantDecay):
        tag = CaseTag.II_CONSTANT
    elif isinstance(law, PowerLawDecay):
        tag = CaseTag.III_POWER_LAW
    elif isinstance(law, ExponentialDecay):
        tag = CaseTag.IV_EXPONENTIAL
    elif isinstance(law, TabulatedDecay):
        tag = CaseTag.I_ARBITRARY
    else:
        raise ValidationError(f"unknown decay law {law!r}")
    return tag, _GENERATORS[tag]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with n cells and n+1 nodes including both endpoints."""

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        ends = f"x_lo = {self.x_lo!r}, x_hi = {self.x_hi!r}"
        if not (np.isfinite(self.x_lo) and np.isfinite(self.x_hi)):
            raise ValidationError(f"grid endpoints must be finite, got {ends}")
        if self.x_hi <= self.x_lo:
            raise ValidationError(f"grid needs x_lo < x_hi, got {ends}")
        if not np.isfinite(self.x_hi - self.x_lo):
            raise ValidationError(f"grid width x_hi - x_lo overflows, got {ends}")
        if self.n < 8:
            raise ValidationError(f"grid needs at least 8 cells, got n = {self.n!r}")
        if self.n > MAX_STEPS:
            raise ValidationError(f"grid has {self.n} cells, more than {MAX_STEPS}")

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / self.n

    def nodes(self):
        return np.linspace(self.x_lo, self.x_hi, self.n + 1)


class FieldPair:
    """Discrete (u, v) state sampled on the nodes of a Grid1D at time t."""

    __slots__ = ("u", "v", "t")

    def __init__(self, u, v, t=0.0):
        u = np.asarray(u, dtype=float).copy()
        v = np.asarray(v, dtype=float).copy()
        if u.shape != v.shape or u.ndim != 1:
            raise ValidationError("u and v must be 1D arrays of equal length")
        self.u = u
        self.v = v
        self.t = float(t)

    def __repr__(self):
        return f"FieldPair(n={self.u.size - 1}, t={self.t:g})"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants plus the limiter/decay selections of one model."""

    D: float
    tau: float
    limiter: object
    decay: DecayLaw

    def __post_init__(self):
        if not (np.isfinite(self.D) and self.D > 0.0):
            raise ValidationError(f"D must be positive, got {self.D!r}")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ValidationError(f"tau must be positive, got {self.tau!r}")
        if self.limiter is None:
            raise ValidationError("limiter must be specified")
        if self.decay is None:
            raise ValidationError("decay law must be specified")
