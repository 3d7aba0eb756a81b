"""Exact vector-field algebra for the symmetry-generator catalog.

Fields live on (t, x, u, v) and are affine with rational coefficients; the
bracket is the augmented-matrix commutator, so commutators, adjoint series and
the classifying residual carry no floating tolerance at all.  The adjoint
convention is Ad(exp(eps*X))Y = exp(eps*ad_X)Y with ad_X(Y) = [X, Y], which
sends X1 to exp(-eps/2)*X1 under the flow of the scaling generator X3.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, sub

import numpy as np

from .core import (
    _GENERATORS,
    CaseTag,
    ConstantDecay,
    ExponentialDecay,
    PowerLawDecay,
    TabulatedDecay,
    classify,
)
from .errors import DomainError, ValidationError

_RATIONAL = (int, Fraction)


@dataclass(frozen=True)
class VectorField:
    """Affine generator xi_t d/dt + xi_x d/dx + eta_u d/du + eta_v d/dv.

    ``rows[i]`` holds the coefficients of t, x, u and v in the i-th component
    (d/dt, d/dx, d/du, d/dv), followed by its constant.  Entries are exact
    rationals, ints or Fractions; anything else is converted with Fraction.
    The default is the zero field.
    """

    rows: tuple = ((0,) * 5,) * 4

    def __post_init__(self):
        rows = tuple(
            tuple(c if type(c) in _RATIONAL else Fraction(c) for c in row)
            for row in self.rows
        )
        if len(rows) != 4 or any(len(row) != 5 for row in rows):
            raise ValidationError("an affine field needs 4 rows of 5 coefficients")
        object.__setattr__(self, "rows", rows)

    def is_zero(self):
        return not any(map(any, self.rows))

    def __add__(self, other):
        return VectorField(tuple(map(add, r, s)) for r, s in zip(self.rows, other.rows))

    def scaled(self, k):
        k = Fraction(k)
        return VectorField(tuple(c * k if c else 0 for c in row) for row in self.rows)

    def __repr__(self):
        names = ("d/dt", "d/dx", "d/du", "d/dv")
        parts = [f"({_affine_repr(row)}) {n}" for row, n in zip(self.rows, names) if any(row)]
        return " + ".join(parts) or "0"


def _affine_repr(row):
    """One component's text: its constant, then its v, u, x and t terms, with
    unit coefficients elided."""
    terms = [
        ({1: "", -1: "-"}.get(c, f"{c}*") if z else str(c)) + z
        for c, z in zip(reversed(row), ("", "v", "u", "x", "t"))
        if c
    ]
    return " + ".join(terms).replace("+ -", "- ")


def _diagonal(scale=(0, 0, 0, 0), shift=(0, 0, 0, 0)):
    """The field sum_i (scale_i z_i + shift_i) d/dz_i over z = (t, x, u, v)."""
    return VectorField(
        tuple(a if i == j else 0 for j in range(4)) + (b,)
        for i, (a, b) in enumerate(zip(scale, shift))
    )


def x1():
    """Space translation d/dx."""
    return _diagonal(shift=(0, 1, 0, 0))


def x2():
    """Time translation d/dt."""
    return _diagonal(shift=(1, 0, 0, 0))


def dilation(p, q):
    """t d/dt + x/2 d/dx + p u d/du + q v d/dv with rational weights."""
    return _diagonal((1, Fraction(1, 2), p, q))


def x3():
    """Scaling generator with the similarity weights p = -1/2, q = 1/2."""
    return dilation(Fraction(-1, 2), Fraction(1, 2))


def x4(lam):
    """Time translation with signal rescaling: d/dt - lam v d/dv."""
    return _diagonal((0, 0, 0, -Fraction(lam)), (1, 0, 0, 0))


def catalog(lam=Fraction(1, 5)):
    """Named generator catalog; lam only affects X4."""
    return {"X1": x1(), "X2": x2(), "X3": x3(), "X4": x4(lam), "XD": dilation(0, 0)}


def _product(P, Q):
    """Rows of the augmented product [[A, b], [0, 0]] of P and Q, zero
    entries skipped; Q's zero last row drops out of every sum."""
    out = [[0] * 5 for _ in range(4)]
    for row, p_row in zip(out, P):
        for p, q_row in zip(p_row, Q):
            if p:
                for j, q in enumerate(q_row):
                    if q:
                        row[j] += p * q
    return out


def commutator(X, Y):
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i), exact.

    For affine fields with augmented matrices M = [[A, b], [0, 0]] this is
    M_[X,Y] = M_Y M_X - M_X M_Y.
    """
    yx = _product(Y.rows, X.rows)
    xy = _product(X.rows, Y.rows)
    return VectorField(tuple(map(sub, r, s)) for r, s in zip(yx, xy))


@dataclass
class AdjointResult:
    """Partial sum of Ad(exp(eps X))Y through the requested order."""

    field: VectorField
    exact: bool


def adjoint(X, Y, eps, order=30):
    """Ad(exp(eps X))Y = sum_n (eps^n / n!) ad_X^n(Y), truncated at `order`.

    With a Fraction eps the partial sum is exact rational arithmetic.  The
    `exact` flag reports whether the ad-series terminated (nilpotent bracket)
    before the order cap, in which case the truncation is the full series.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    eps = Fraction(eps)
    total = Y
    current = Y
    coeff = Fraction(1)
    exact = False
    for n in range(1, order + 1):
        current = commutator(X, current)
        if current.is_zero():
            exact = True
            break
        coeff = coeff * eps / n
        total = total + current.scaled(coeff)
    return AdjointResult(total, exact)


@dataclass
class ClassifyingResidual:
    """Sampled residual of the classifying decay ODE."""

    max_abs: float
    t_samples: np.ndarray
    residual: np.ndarray


def classifying_residual(law, c1, c2, lambda_g):
    """Residual R(t) = (c1 t + c2) kappa'(t) + (c1 - lambda_g) kappa(t).

    kappa' is formed analytically per decay variant and the bracket is
    simplified before evaluation, so the admitted (law, c1, c2, lambda_g)
    combinations vanish identically in floating point as well.  It is
    sampled at 181 times on [0.1, 5] ([0.5, 5] for a power law).  Tabulated
    laws have no derivative and are rejected.
    """
    if isinstance(law, TabulatedDecay):
        raise DomainError("classifying residual needs a differentiable decay law")
    t = np.linspace(0.5 if isinstance(law, PowerLawDecay) else 0.1, 5.0, 181)
    c1 = float(c1)
    c2 = float(c2)
    lg = float(lambda_g)
    if isinstance(law, ConstantDecay):
        # kappa' = 0
        res = (c1 - lg) * law.kappa0 * np.ones_like(t)
    elif isinstance(law, PowerLawDecay):
        # (c1 t + c2)(-mu/t^2) + (c1 - lg) mu/t = mu (-c2/t^2 - lg/t)
        res = law.mu * (-c2 / (t * t) - lg / t)
    elif isinstance(law, ExponentialDecay):
        # kappa' = lam kappa: bracket = (c1 t + c2) lam + c1 - lg
        res = law.kappa(t) * ((c1 * t + c2) * law.lam + (c1 - lg))
    else:
        raise ValidationError(f"unsupported decay law {law!r}")
    return ClassifyingResidual(float(np.max(np.abs(res))), t, res)


# ---------------------------------------------------------------------------
# optimal-system verification
# ---------------------------------------------------------------------------

@dataclass
class CheckEntry:
    name: str
    passed: bool
    detail: str


@dataclass
class OptimalSystemReport:
    case: CaseTag
    representatives: list
    checks: list

    @property
    def all_ok(self):
        return all(c.passed for c in self.checks)


def _proportional(X, Y):
    """True when Y = k X for some rational k (or both vanish)."""
    if X.is_zero() or Y.is_zero():
        return X.is_zero() and Y.is_zero()
    cx, cy = next((a, b) for a, b in zip(chain(*X.rows), chain(*Y.rows)) if a)
    return X.scaled(Fraction(cy) / cx) == Y


def verify_optimal_system(case):
    """Check the one-dimensional optimal system of the case's algebra.

    The basis is the case's row of ``core._GENERATORS``, each generator taken
    from ``catalog()`` (X4 at its default lam; the checks hold for any lam).
    For each case the report records (a) that the listed representatives are
    pairwise non-conjugate under the computed adjoint action and scalings,
    and (b) that a generic element reduces to a listed representative by the
    stated normalizations.  Discrepancies become failing entries, never
    exceptions.
    """
    if case not in _GENERATORS:
        raise ValidationError(f"unknown case {case!r}")
    fields = catalog()
    X1 = fields["X1"]
    a, b = Fraction(5), Fraction(-3, 2)  # the generic element a X1 + b X_B
    checks = []

    if len(_GENERATORS[case]) == 1:
        reps = ["<X1>"]
        checks.append(
            CheckEntry(
                "single_subalgebra",
                _proportional(X1.scaled(a), X1),
                "a X1 rescales to X1 for any a != 0",
            )
        )
        return OptimalSystemReport(case, reps, checks)

    name = _GENERATORS[case][1]
    XB = fields[name]
    if case is not CaseTag.III_POWER_LAW:
        reps = ["<X1>", f"<{name}>", f"<X1 + alpha {name}>"]
        com = commutator(X1, XB)
        checks.append(
            CheckEntry("abelian", com.is_zero(), f"[X1, {name}] = 0 so the adjoint action is trivial")
        )
        # trivial adjoint: conjugation never mixes directions
        ad1 = adjoint(X1, XB, Fraction(3, 7), order=5)
        ad2 = adjoint(XB, X1, Fraction(-2, 3), order=5)
        checks.append(
            CheckEntry(
                "adjoint_trivial",
                ad1.exact and ad1.field == XB and ad2.exact and ad2.field == X1,
                "Ad(exp(eps Xi))Xj = Xj for the commuting pair",
            )
        )
        checks.append(
            CheckEntry(
                "representatives_inequivalent",
                not _proportional(X1, XB)
                and not _proportional(X1, X1 + XB.scaled(a))
                and not _proportional(XB, X1 + XB.scaled(a)),
                "X1, the time generator, and a mixed direction are pairwise non-proportional",
            )
        )
        generic = X1.scaled(a) + XB.scaled(b)
        reduced = generic.scaled(Fraction(1, 1) / a)
        checks.append(
            CheckEntry(
                "generic_normalizes",
                reduced == X1 + XB.scaled(b / a),
                f"a X1 + b {name} scales to X1 + (b/a) {name} for a != 0",
            )
        )
        return OptimalSystemReport(case, reps, checks)

    # case III: X1 and the scaling generator XB = X3
    reps = ["<X1>", "<X3>"]
    checks.append(
        CheckEntry(
            "bracket_halves_x1",
            commutator(X1, XB) == X1.scaled(Fraction(1, 2)),
            "[X1, X3] = X1/2 drives the adjoint scaling of X1",
        )
    )
    # orbit structure: ad_X3^n(X1) = (-1/2)^n X1, so the series sums to
    # exp(-eps/2) X1; verify the pattern exactly through order 8
    pattern_ok = True
    cur = X1
    for n in range(1, 9):
        cur = commutator(XB, cur)
        if cur != X1.scaled(Fraction(-1, 2) ** n):
            pattern_ok = False
            break
    checks.append(
        CheckEntry(
            "adjoint_orbit_geometric",
            pattern_ok,
            "ad_X3^n(X1) = (-1/2)^n X1, hence Ad(exp(eps X3))X1 = e^(-eps/2) X1",
        )
    )
    # numeric eps = 2 ln|a| sends the X1 coefficient of X3 + a X1 to sign(a)
    eps = 2.0 * math.log(abs(float(a)))
    coeff = float(a) * math.exp(-eps / 2.0)
    checks.append(
        CheckEntry(
            "eps_map_normalizes_coefficient",
            abs(coeff - math.copysign(1.0, float(a))) < 1e-14,
            "eps = 2 ln|c| maps X3 + c X1 to X3 + sign(c) X1",
        )
    )
    # exact elimination: Ad(exp(delta X1)) shifts the X1 coefficient by
    # delta/2 (nilpotent series), so delta = -2a removes it entirely
    Y = XB + X1.scaled(a)
    elim = adjoint(X1, Y, -2 * a, order=5)
    checks.append(
        CheckEntry(
            "x1_flow_eliminates",
            elim.exact and elim.field == XB,
            "Ad(exp(-2c X1))(X3 + c X1) = X3 exactly (nilpotent bracket)",
        )
    )
    checks.append(
        CheckEntry(
            "representatives_inequivalent",
            not _proportional(X1, XB),
            "adjoint orbits keep span{X1} invariant and X3 is not in it",
        )
    )
    return OptimalSystemReport(case, reps, checks)


def table_rows():
    """The admitted (c1, c2, lambda_g) classifying combinations per case."""
    return {
        CaseTag.II_CONSTANT: (0.0, 1.0, 0.0),
        CaseTag.III_POWER_LAW: (1.0, 0.0, 0.0),
        CaseTag.IV_EXPONENTIAL: (0.0, 1.0, None),  # lambda_g = lam of the law
    }


def classification_report():
    """Bundle classify() plus residual checks for one law of each kind."""
    laws = [
        ConstantDecay(0.5),
        PowerLawDecay(0.5),
        ExponentialDecay(0.5, 0.2),
        TabulatedDecay((0.0, 1.0, 2.0), (0.5, 0.6, 0.7)),
    ]
    rows = []
    for law in laws:
        tag, gens = classify(law)
        entry = {"law": repr(law), "case": tag.value, "generators": list(gens)}
        if tag in table_rows():
            c1, c2, lg = table_rows()[tag]
            if lg is None:
                lg = law.lam
            entry["classifying_max_residual"] = classifying_residual(law, c1, c2, lg).max_abs
        rows.append(entry)
    return rows
