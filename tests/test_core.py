import warnings

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


def test_domain_errors_name_the_first_time_outside_on_one_line():
    # an array of times was printed whole, over several lines; the message
    # names the first time outside the law's domain, in C order, as a float
    table = TabulatedDecay((0.0, 1.5, 3.0), (0.5, 0.7, 0.6))
    power = PowerLawDecay(0.5)
    cases = [
        (lambda: table.cumulative(0.0, np.array([[1.0], [3.0], [5.0]])),
         "t=5.0 outside tabulated range [0.0, 3.0]"),
        (lambda: table.kappa(np.array([3.0005, -1.0])), "t=3.0005 outside tabulated range [0.0, 3.0]"),
        (lambda: power.kappa(np.array([[2.0, -1.0], [0.0, 1.0]])),
         "power-law decay is defined for t > 0, got t=-1.0"),
        (lambda: power.cumulative(np.array([1.0, 2.0]), np.array([[0.5, np.nan]])),
         "power-law decay is defined for t > 0, got t=nan"),
        (lambda: ExponentialDecay(0.5, 0.2).kappa(np.array([1.0, np.nan])),
         "decay time must not be NaN, got t=nan"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "law, outside, message",
    [
        (ConstantDecay(0.5), np.nan, "decay time must not be NaN, got t=nan"),
        (PowerLawDecay(0.5), -1.0, "power-law decay is defined for t > 0, got t=-1.0"),
        (ExponentialDecay(0.5, 0.2), np.nan, "decay time must not be NaN, got t=nan"),
        (TabulatedDecay((0.0, 1.5, 3.0), (0.5, 0.7, 0.6)), 5.0,
         "t=5.0 outside tabulated range [0.0, 3.0]"),
    ],
    ids=["constant", "power_law", "exponential", "tabulated"],
)
def test_check_times_refuses_a_time_outside_the_domain_by_name(law, outside, message):
    # the config door: a time inside the domain passes, as a float or an
    # array; one outside is a ValidationError that names the time's key and
    # then gives the law's own DomainError text
    assert law.check_times(2.0, "t") is None
    assert law.check_times(np.array([law.start, 2.0]), "t") is None
    for times in (outside, np.array([2.0, outside])):
        with pytest.raises(ValidationError) as info:
            law.check_times(times, "exact.t0")
        assert str(info.value) == f"exact.t0 is outside the decay law's domain: {message}"


def test_check_times_does_not_warn_where_kappa_overflows():
    # exp(1e300) overflows to inf, a value check_times does not use; a
    # RuntimeWarning is an error under this suite's warning filters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExponentialDecay(0.5, 1.0).check_times(1e300, "t")
        ExponentialDecay(0.5, 1.0).check_times(np.array([0.0, 1e300]), "t")


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


@pytest.mark.parametrize("args, message", [
    ((0.0, -1.0, 16), "grid needs x_lo < x_hi, got x_lo = 0.0, x_hi = -1.0"),
    ((0.0, np.inf, 16), "grid endpoints must be finite, got x_lo = 0.0, x_hi = inf"),
    ((-1e308, 1e308, 16), "grid width x_hi - x_lo overflows, got x_lo = -1e+308, x_hi = 1e+308"),
    ((0.0, 10.0, 4), "grid needs at least 8 cells, got n = 4"),
], ids=["reversed", "infinite", "overflowing", "few-cells"])
def test_grid_refusals_give_the_values_they_refuse(args, message):
    # a grid built from other keys (the self-similar half line from
    # reduce.xi_max and reduce.n) is refused with the values it was given
    with pytest.raises(ValidationError) as err:
        Grid1D(*args)
    assert str(err.value) == message


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
