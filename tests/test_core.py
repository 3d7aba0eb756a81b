import numpy as np
import pytest

from flks.core import (
    CaseTag,
    ConstantDecay,
    DecayLaw,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
    classify,
)
from flks.errors import DomainError, ValidationError
from flks.limiters import TanhLimiter
from flks.quadrature import integrate_adaptive

_KNOTS = np.linspace(0.0, 2.0, 9)
_TABULATED = TabulatedDecay(times=tuple(_KNOTS), values=tuple(0.5 + 0.2 * np.sin(3.0 * _KNOTS)))


def test_constant_decay_value():
    # Fig-scale constant kappa0 = 0.5
    assert ConstantDecay(0.5).kappa(7.3) == 0.5


def test_power_law_decay_value():
    assert PowerLawDecay(mu=2.0).kappa(2.0) == 1.0


def test_exponential_decay_lambda_zero_degenerates_to_constant():
    assert ExponentialDecay(0.5, 0.0).kappa(3.0) == 0.5
    for t in np.linspace(-4.0, 9.0, 40):
        assert ExponentialDecay(0.5, 0.0).kappa(t) == ConstantDecay(0.5).kappa(t)


def test_power_law_domain_error():
    with pytest.raises(DomainError):
        PowerLawDecay(2.0).kappa(0.0)
    with pytest.raises(DomainError):
        PowerLawDecay(2.0).kappa(-1.0)


def test_each_law_starts_where_it_is_defined():
    assert ConstantDecay(0.5).start == ExponentialDecay(0.5, 0.2).start == 0.0
    assert PowerLawDecay(0.5).start == 1.0
    law = TabulatedDecay(times=(0.5, 2.0), values=(0.5, 0.7))
    assert law.start == 0.5
    assert law.kappa(law.start) == 0.5


def test_tabulated_interpolation_and_range():
    law = TabulatedDecay(times=(0.0, 1.0, 2.0), values=(1.0, 3.0, 3.0))
    assert law.kappa(0.5) == 2.0
    assert law.kappa(2.0) == 3.0
    with pytest.raises(DomainError):
        law.kappa(2.5)
    with pytest.raises(DomainError):
        law.kappa(-0.1)


def test_tabulated_scalar_and_array_inputs_agree():
    knots = np.linspace(0.0, 5.0, 201)
    law = TabulatedDecay(tuple(knots), tuple(0.5 + 0.2 * np.sin(knots)))
    ts = np.concatenate([knots, np.random.default_rng(0).uniform(0.0, 5.0, 500)])
    by_float = [law.kappa(float(t)) for t in ts]
    assert all(type(k) is float for k in by_float)
    assert np.array_equal(by_float, law.kappa(ts))
    assert np.array_equal(by_float, [law.kappa(np.asarray(t)) for t in ts])
    for bad in (float("nan"), -1e-12, 5.0 + 1e-12):
        with pytest.raises(DomainError):
            law.kappa(bad)
        with pytest.raises(DomainError):
            law.kappa(np.array([1.0, bad]))


@pytest.mark.parametrize(
    "law, a, b",
    [
        (ConstantDecay(0.5), -1.0, 3.0),
        (PowerLawDecay(1.5), 0.5, 4.0),
        (ExponentialDecay(0.5, 0.3), -1.0, 3.0),
        (ExponentialDecay(0.5, 0.0), 0.0, 2.0),
        (_TABULATED, 0.0, 2.0),
        (_TABULATED, 0.3, 1.7),
    ],
)
def test_cumulative_is_exact_integral_of_kappa(law, a, b):
    ref = integrate_adaptive(law.kappa, a, b, tol=1e-13).value
    assert abs(law.cumulative(a, b) - ref) <= 1e-10
    assert abs(law.cumulative(b, a) + ref) <= 1e-10


def test_tabulated_cumulative_range():
    for a, b in ((-0.1, 1.0), (0.5, 2.5), (np.nan, 1.0), (0.5, np.nan),
                 (np.array([0.5, 2.5]), 1.0), (0.5, np.array([[1.0, 1.5], [-0.1, 1.0]]))):
        with pytest.raises(DomainError):
            _TABULATED.cumulative(a, b)
    with pytest.raises(NotImplementedError):
        DecayLaw().cumulative(0.0, 1.0)


_ALL_LAWS = [ConstantDecay(0.5), PowerLawDecay(0.5), ExponentialDecay(0.5, 0.3), _TABULATED]


@pytest.mark.parametrize("law", _ALL_LAWS, ids=lambda law: type(law).__name__)
def test_array_cumulative_matches_scalar_calls(law):
    # the same arithmetic per element: equal to the last bit, a float per
    # scalar call, and a and b broadcast
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.5, 2.0, (2, 3, 4))
    by_float = [law.cumulative(float(lo), float(hi)) for lo, hi in zip(a.ravel(), b.ravel())]
    assert all(isinstance(c, float) for c in by_float)
    np.testing.assert_array_equal(law.cumulative(a, b), np.reshape(by_float, a.shape))
    np.testing.assert_array_equal(law.cumulative(0.5, b[:, :1]),
                                  [[law.cumulative(0.5, float(hi))] for hi in b[:, 0]])
    assert law.cumulative(a[:, :, None], b[:, None, :]).shape == (3, 4, 4)


@pytest.mark.parametrize("law", _ALL_LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize(
    "call",
    [
        lambda law: law.kappa(float("nan")),
        lambda law: law.kappa(np.float64("nan")),
        lambda law: law.kappa(np.array([0.5, np.nan])),
        lambda law: law.cumulative(0.5, float("nan")),
        lambda law: law.cumulative(float("nan"), 0.5),
        lambda law: law.cumulative(np.array([0.5, 0.6]), np.array([1.0, np.nan])),
        lambda law: law.cumulative(np.array([[0.5], [np.nan]]), 1.0),
    ],
    ids=["kappa", "kappa-np-scalar", "kappa-array", "cumulative-hi", "cumulative-lo",
         "cumulative-array-hi", "cumulative-array-lo"],
)
def test_nan_time_raises_domain_error(law, call):
    with pytest.raises(DomainError):
        call(law)
    assert np.isfinite(law.kappa(0.5)) and np.isfinite(law.cumulative(0.5, 1.0))


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        TabulatedDecay(times=(0.0, 0.0), values=(1.0, 2.0))
    with pytest.raises(ValidationError):
        TabulatedDecay(times=(0.0,), values=(1.0,))
    with pytest.raises(ValidationError):
        TabulatedDecay(times=(0.0, np.nan), values=(1.0, 2.0))


def test_classify_table_rows():
    assert classify(ConstantDecay(0.5)) == (CaseTag.II_CONSTANT, ("X1", "X2"))
    assert classify(TabulatedDecay((0.0, 1.0), (1.0, 2.0))) == (
        CaseTag.I_ARBITRARY,
        ("X1",),
    )
    assert classify(ExponentialDecay(1.0, -0.3)) == (CaseTag.IV_EXPONENTIAL, ("X1", "X4"))
    assert classify(PowerLawDecay(0.2)) == (CaseTag.III_POWER_LAW, ("X1", "X3"))


def test_classify_ignores_numeric_values():
    # pure function of the variant tag: lam = 0 stays case IV
    assert classify(ExponentialDecay(2.0, 0.0))[0] == CaseTag.IV_EXPONENTIAL
    assert classify(ConstantDecay(123.0))[0] == CaseTag.II_CONSTANT


def test_grid_invariants():
    g = Grid1D(-1.0, 1.0, 10)
    assert g.dx == pytest.approx(0.2)
    nodes = g.nodes()
    assert nodes.size == 11
    assert np.allclose(np.diff(nodes), g.dx)
    with pytest.raises(ValidationError):
        Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValidationError):
        Grid1D(1.0, 0.0, 16)


def test_field_pair_validity():
    # a state owns copies of its arrays: the explicit-march oracle copies a
    # state by constructing one
    u = np.ones(9)
    fp = FieldPair(u, np.zeros(9), t=1.0)
    u[3] = np.nan
    assert np.isfinite(fp.u).all() and fp.t == 1.0
    with pytest.raises(ValidationError):
        FieldPair(np.ones(4), np.ones(5))


def test_model_params_validation():
    lim = TanhLimiter(1.1, 1.4)
    decay = ConstantDecay(0.5)
    p = ModelParams(D=0.8, tau=0.1, limiter=lim, decay=decay)
    with pytest.raises(ValidationError):
        ModelParams(D=0.0, tau=0.1, limiter=lim, decay=decay)
    with pytest.raises(ValidationError):
        ModelParams(D=0.8, tau=-1.0, limiter=lim, decay=decay)
    with pytest.raises(ValidationError):
        ModelParams(D=0.8, tau=0.1, limiter=None, decay=decay)
