import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flks.core import (
    CaseTag,
    ConstantDecay,
    ExponentialDecay,
    PowerLawDecay,
    TabulatedDecay,
)
from flks.errors import DomainError, ValidationError
from flks.lie_toolkit import (
    VectorField,
    adjoint,
    catalog,
    classifying_residual,
    commutator,
    dilation,
    verify_optimal_system,
    x1,
    x2,
    x3,
    x4,
)


def test_commutator_table_relations():
    assert commutator(x1(), x2()).is_zero()
    assert commutator(x1(), x4(Fraction(1, 5))).is_zero()
    assert commutator(x1(), x3()) == x1().scaled(Fraction(1, 2))


def test_commutator_antisymmetry_exact():
    fields = list(catalog(Fraction(2, 7)).values())
    for X, Y in permutations(fields, 2):
        assert commutator(X, Y) == commutator(Y, X).scaled(-1)


def _at(field, z):
    """The field's components at the point z = (t, x, u, v)."""
    return [sum(c * w for c, w in zip(row, (*z, 1))) for row in field.rows]


def _bracket_by_definition(X, Y, z):
    """[X, Y]^i(z) = sum_j (X^j d_j Y^i - Y^j d_j X^i)(z); an affine
    component's d_j is its exact difference along the j-th unit step."""
    def d(F, j):
        step = [w + (k == j) for k, w in enumerate(z)]
        return [a - b for a, b in zip(_at(F, step), _at(F, z))]

    xz, yz = _at(X, z), _at(Y, z)
    return [sum(xz[j] * d(Y, j)[i] - yz[j] * d(X, j)[i] for j in range(4)) for i in range(4)]


_RATIONALS = st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=4))
_FIELDS = st.lists(_RATIONALS, min_size=20, max_size=20).map(
    lambda e: VectorField(tuple(e[i : i + 5]) for i in range(0, 20, 5))
)


@settings(max_examples=60, deadline=None)
@given(_FIELDS, _FIELDS, st.lists(st.tuples(*[_RATIONALS] * 4), min_size=1, max_size=5))
def test_commutator_is_the_bracket_by_definition(X, Y, points):
    bracket = commutator(X, Y)
    for z in points:
        assert _at(bracket, z) == _bracket_by_definition(X, Y, z)


def test_jacobi_identity_exact():
    fields = list(catalog(Fraction(3, 11)).values()) + [dilation(Fraction(1, 4), Fraction(-2, 3))]
    for X, Y, Z in combinations(fields, 3):
        total = (
            commutator(commutator(X, Y), Z)
            + commutator(commutator(Y, Z), X)
            + commutator(commutator(Z, X), Y)
        )
        assert total.is_zero()


def test_adjoint_identity_at_zero_and_first_order():
    res0 = adjoint(x3(), x1(), Fraction(0), order=10)
    assert res0.field == x1()
    res1 = adjoint(x3(), x1(), Fraction(1), order=1)
    assert res1.field == x1() + commutator(x3(), x1())


def test_adjoint_commuting_pair_is_exact_identity():
    res = adjoint(x1(), x2(), Fraction(5, 3), order=4)
    assert res.exact
    assert res.field == x2()


def test_adjoint_x3_scales_x1_like_exp_minus_half_eps():
    # partial sums of the exponential series, exact rationals
    for order in (1, 3, 8, 30):
        res = adjoint(x3(), x1(), Fraction(1), order=order)
        coeff = res.field.rows[1][4]
        expected = sum(Fraction(-1, 2) ** n / math.factorial(n) for n in range(order + 1))
        assert coeff == expected
    res30 = adjoint(x3(), x1(), Fraction(1), order=30)
    assert abs(float(res30.field.rows[1][4]) - math.exp(-0.5)) < 1e-12


def test_adjoint_eps_map_sends_coefficient_to_sign():
    c = 5.0
    eps = 2.0 * math.log(abs(c))
    # orbit closed form from the verified geometric ad-pattern
    assert c * math.exp(-eps / 2.0) == pytest.approx(1.0, abs=1e-15)
    res = adjoint(x1(), x3() + x1().scaled(Fraction(5)), Fraction(-10), order=3)
    assert res.exact and res.field == x3()


def test_classifying_residual_constant():
    r = classifying_residual(ConstantDecay(0.5), c1=0.0, c2=1.0, lambda_g=0.0)
    assert r.max_abs == 0.0


def test_classifying_residual_power_law():
    r = classifying_residual(PowerLawDecay(2.0), c1=1.0, c2=0.0, lambda_g=0.0)
    assert r.max_abs == 0.0


def test_classifying_residual_exponential():
    law = ExponentialDecay(0.5, 0.3)
    assert classifying_residual(law, 0.0, 1.0, 0.3).max_abs == 0.0
    assert classifying_residual(law, 0.0, 1.0, 0.31).max_abs > 0.0


def test_classifying_residual_perturbed_combinations():
    perturb = 1e-2
    assert classifying_residual(ConstantDecay(0.5), 0.0, 1.0, perturb).max_abs > 1e-3
    assert classifying_residual(PowerLawDecay(0.5), 1.0, 0.0, perturb).max_abs > 1e-3
    law = ExponentialDecay(0.5, 0.2)
    assert classifying_residual(law, 0.0, 1.0, 0.2 + perturb).max_abs > 1e-3


def test_classifying_residual_rejects_tabulated():
    with pytest.raises(DomainError):
        classifying_residual(TabulatedDecay((0.0, 1.0), (1.0, 2.0)), 0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "case",
    [CaseTag.I_ARBITRARY, CaseTag.II_CONSTANT, CaseTag.III_POWER_LAW, CaseTag.IV_EXPONENTIAL],
)
def test_verify_optimal_system_all_cases(case):
    report = verify_optimal_system(case)
    assert report.all_ok, [c for c in report.checks if not c.passed]
    assert report.representatives[0] == "<X1>"


def test_verify_optimal_system_case3_entries():
    report = verify_optimal_system(CaseTag.III_POWER_LAW)
    names = {c.name for c in report.checks}
    assert {"bracket_halves_x1", "adjoint_orbit_geometric", "x1_flow_eliminates"} <= names
    assert report.representatives == ["<X1>", "<X3>"]


def test_zero_field_and_repr():
    assert VectorField().is_zero()
    with pytest.raises(ValidationError):
        VectorField(((0, 0, 0, 1),) * 4)  # a constant column is missing
    assert "d/dx" in repr(x1())
