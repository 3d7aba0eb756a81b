import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flks.errors import ValidationError
from flks.limiters import (
    AlgebraicSqrtLimiter,
    TanhLimiter,
    TanhLogLimiter,
    WeberFechnerLogLimiter,
    limiter_from_config,
)

ALL_LIMITERS = [
    TanhLimiter(1.1, 1.4),
    AlgebraicSqrtLimiter(1.1),
    WeberFechnerLogLimiter(1.1, 1.4),
    TanhLogLimiter(1.0, 1.0),
]


def test_tanh_values():
    lim = TanhLimiter(1.1, 1.4)
    assert lim.F(0.0) == 0.0
    # frozen from the high-precision tanh oracle: 1.1*tanh(1)
    assert lim.F(1.4) == pytest.approx(0.8377535715513414, rel=1e-14)
    assert lim.dF(0.0) == pytest.approx(1.1 / 1.4, rel=1e-14)


def test_tanh_log_saturates_to_v_max():
    lim = TanhLogLimiter(1.0, 1.0)
    s = np.array([1e2, 1e4, 1e8, 1e150])
    vals = lim.F(s)
    assert np.all(np.diff(lim.F(np.logspace(-3, 3, 200))) > 0.0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(vals <= 1.0)
    assert lim.dF(0.0) == 0.0


def test_weber_fechner_even_and_nonnegative():
    lim = WeberFechnerLogLimiter(1.1, 1.4)
    s = np.linspace(-30.0, 30.0, 101)
    assert np.all(lim.F(s) >= 0.0)
    assert np.allclose(lim.F(s), lim.F(-s), rtol=0, atol=0)


@pytest.mark.parametrize("lim", ALL_LIMITERS, ids=lambda l: type(l).__name__)
def test_parity(lim):
    # the module docstring's symmetries: Tanh and AlgebraicSqrt odd, the two
    # logarithmic forms even
    s = np.linspace(0.0, 50.0, 257)
    sign = -1.0 if isinstance(lim, (TanhLimiter, AlgebraicSqrtLimiter)) else 1.0
    assert np.array_equal(lim.F(-s), sign * lim.F(s))


@pytest.mark.parametrize(
    "lim", [l for l in ALL_LIMITERS if l.bounded], ids=lambda l: type(l).__name__
)
def test_hard_bound_on_dense_sample(lim):
    # 1e6 samples across a wide range; |F| must never exceed v_max
    s = np.concatenate(
        [
            np.linspace(-1e3, 1e3, 500000),
            np.logspace(-8, 12, 250000),
            -np.logspace(-8, 12, 250000),
        ]
    )
    assert np.max(np.abs(lim.F(s))) <= lim.v_max + 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_bound_property_tanh(s):
    lim = TanhLimiter(1.1, 1.4)
    assert abs(lim.F(s)) <= lim.v_max


@pytest.mark.parametrize("lim", ALL_LIMITERS, ids=lambda l: type(l).__name__)
def test_dF_matches_finite_difference(lim):
    h = 1e-5
    s = np.linspace(-50.0, 50.0, 401)
    fd = (lim.F(s + h) - lim.F(s - h)) / (2.0 * h)
    scale = np.maximum(np.abs(lim.dF(s)), 1e-3)
    assert np.max(np.abs(lim.dF(s) - fd) / scale) < 1e-6


def test_dF_at_spot_value_all_variants():
    # derivative at s = 0.37 against a tighter centered difference
    for lim in ALL_LIMITERS:
        h = 1e-5
        fd = (lim.F(0.37 + h) - lim.F(0.37 - h)) / (2.0 * h)
        assert lim.dF(0.37) == pytest.approx(fd, abs=1e-7)


def test_tanh_log_dF_formula():
    # dF = v_max * sech^2(ln(1+a s^2)) * 2 a s / (1 + a s^2)
    lim = TanhLogLimiter(0.7, 0.51)
    for s in (0.1, 1.3, -2.7, 9.0):
        w = 1.0 + lim.a * s * s
        expected = lim.v_max / math.cosh(math.log(w)) ** 2 * 2.0 * lim.a * s / w
        assert lim.dF(s) == pytest.approx(expected, rel=1e-13)


def test_factory_roundtrip_and_errors():
    lim = limiter_from_config("tanh", v_max=1.1, s0=1.4)
    assert isinstance(lim, TanhLimiter)
    with pytest.raises(ValidationError):
        limiter_from_config("nope", v_max=1.0)
    with pytest.raises(ValidationError):
        limiter_from_config("tanh", v_max=1.0)  # missing s0
    with pytest.raises(ValidationError):
        limiter_from_config("algebraic_sqrt", v_max=1.0, s0=2.0)  # extra key
    with pytest.raises(ValidationError):
        TanhLimiter(-1.0, 1.0)


def test_factory_without_parameters_sets_each_to_one():
    assert limiter_from_config("tanh") == TanhLimiter(1.0, 1.0)
    assert limiter_from_config("algebraic_sqrt") == AlgebraicSqrtLimiter(1.0)
    assert limiter_from_config("weber_fechner_log") == WeberFechnerLogLimiter(1.0, 1.0)
    assert limiter_from_config("tanh_log") == TanhLogLimiter(1.0, 1.0)
