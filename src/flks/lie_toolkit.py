"""Exact vector-field algebra for the symmetry-generator catalog.

Fields live on (t, x, u, v) with polynomial coefficients over the rationals,
so commutators, adjoint series and the classifying residual carry no floating
tolerance at all.  The adjoint convention is Ad(exp(eps*X))Y = exp(eps*ad_X)Y
with ad_X(Y) = [X, Y], which sends X1 to exp(-eps/2)*X1 under the flow of the
scaling generator X3.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

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

_VARS = ("t", "x", "u", "v")


class PolyExpr:
    """Polynomial in (t, x, u, v) with Fraction coefficients.

    Stored as a dict mapping exponent 4-tuples to nonzero Fractions;
    canonical form is maintained by every operation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = self._from_pairs(
            (tuple(int(e) for e in m), Fraction(c)) for m, c in (terms or {}).items()
        ).terms

    @classmethod
    def _from_pairs(cls, pairs):
        """The sum of (monomial, coefficient) pairs, zero coefficients dropped."""
        sums = {}
        for m, c in pairs:
            sums[m] = sums.get(m, 0) + c
        res = cls.__new__(cls)
        res.terms = {m: c for m, c in sums.items() if c != 0}
        return res

    @staticmethod
    def constant(c):
        return PolyExpr({(0, 0, 0, 0): c})

    @staticmethod
    def variable(name):
        i = _VARS.index(name)
        mono = [0, 0, 0, 0]
        mono[i] = 1
        return PolyExpr({tuple(mono): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return self._from_pairs([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self._from_pairs((m, -c) for m, c in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        k = Fraction(k)
        return self._from_pairs((m, c * k) for m, c in self.terms.items())

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return self._from_pairs(
            (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def partial(self, name):
        i = _VARS.index(name)
        return self._from_pairs(
            (m[:i] + (m[i] - 1,) + m[i + 1 :], c * m[i]) for m, c in self.terms.items() if m[i]
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            body = "".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(_VARS, mono)
                if e > 0
            )
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = PolyExpr()


@dataclass(frozen=True)
class VectorField:
    """Generator xi_t d/dt + xi_x d/dx + eta_u d/du + eta_v d/dv."""

    xi_t: PolyExpr
    xi_x: PolyExpr
    eta_u: PolyExpr
    eta_v: PolyExpr

    def components(self):
        return (self.xi_t, self.xi_x, self.eta_u, self.eta_v)

    def apply(self, f):
        """Directional derivative X(f) of a PolyExpr."""
        out = PolyExpr()
        for comp, var in zip(self.components(), _VARS):
            if not comp.is_zero():
                out = out + comp * f.partial(var)
        return out

    def is_zero(self):
        return all(c.is_zero() for c in self.components())

    def __add__(self, other):
        return VectorField(*(a + b for a, b in zip(self.components(), other.components())))

    def __sub__(self, other):
        return VectorField(*(a - b for a, b in zip(self.components(), other.components())))

    def scaled(self, k):
        return VectorField(*(c.scaled(k) for c in self.components()))

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return all(a == b for a, b in zip(self.components(), other.components()))

    def __repr__(self):
        names = ("d/dt", "d/dx", "d/du", "d/dv")
        parts = [
            f"({c!r}) {n}" for c, n in zip(self.components(), names) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def zero_field():
    return VectorField(_ZERO, _ZERO, _ZERO, _ZERO)


def x1():
    """Space translation d/dx."""
    return VectorField(_ZERO, PolyExpr.constant(1), _ZERO, _ZERO)


def x2():
    """Time translation d/dt."""
    return VectorField(PolyExpr.constant(1), _ZERO, _ZERO, _ZERO)


def dilation(p, q):
    """t d/dt + x/2 d/dx + p u d/du + q v d/dv with rational weights."""
    return VectorField(
        PolyExpr.variable("t"),
        PolyExpr.variable("x").scaled(Fraction(1, 2)),
        PolyExpr.variable("u").scaled(Fraction(p)),
        PolyExpr.variable("v").scaled(Fraction(q)),
    )


def x3():
    """Scaling generator with the similarity weights p = -1/2, q = 1/2."""
    return dilation(Fraction(-1, 2), Fraction(1, 2))


def x4(lam):
    """Time translation with signal rescaling: d/dt - lam v d/dv."""
    return VectorField(
        PolyExpr.constant(1),
        _ZERO,
        _ZERO,
        PolyExpr.variable("v").scaled(-Fraction(lam)),
    )


def catalog(lam=Fraction(1, 5)):
    """Named generator catalog; lam only affects X4."""
    return {"X1": x1(), "X2": x2(), "X3": x3(), "X4": x4(lam), "XD": dilation(0, 0)}


def commutator(X, Y):
    """[X, Y] = X(Y-coefficients) - Y(X-coefficients), exact."""
    return VectorField(
        *(X.apply(yc) - Y.apply(xc) for xc, yc in zip(X.components(), Y.components()))
    )


@dataclass
class AdjointResult:
    """Partial sum of Ad(exp(eps X))Y through the requested order."""

    field: VectorField
    exact: bool
    terms_used: int


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
    used = 0
    for n in range(1, order + 1):
        current = commutator(X, current)
        if current.is_zero():
            exact = True
            break
        coeff = coeff * eps / n
        total = total + current.scaled(coeff)
        used = n
    return AdjointResult(total, exact, used)


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
    ratio = None
    for cx, cy in zip(X.components(), Y.components()):
        if cx.is_zero() != cy.is_zero():
            return False
        if cx.is_zero():
            continue
        if set(cx.terms) != set(cy.terms):
            return False
        for mono, c in cx.terms.items():
            r = cy.terms[mono] / c
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


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


def classification_report(laws=None):
    """Bundle classify() plus residual checks for a set of laws."""
    if laws is None:
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
