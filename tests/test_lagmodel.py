import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifrlag.errors import DomainError
from ifrlag.lagmodel import (
    LagDistribution,
    shift_expectation,
    shift_expectation_elongated,
)

series_strategy = st.lists(
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
).map(lambda xs: np.asarray(xs))

lag_strategy = st.tuples(st.integers(0, 25), st.integers(0, 25)).map(
    lambda ab: LagDistribution(min(ab), max(ab))
)


def test_pmf_values():
    assert LagDistribution(0, 0).pmf_vector().tolist() == [1.0]
    pmf = LagDistribution(3, 13).pmf_vector()
    assert len(pmf) == 14  # P(L = 14) and beyond is zero
    assert pmf[8] == pytest.approx(1 / 11)
    assert pmf[2] == 0.0


def test_pmf_vector_sums_to_one():
    for a, b in [(0, 0), (3, 13), (0, 50), (7, 7)]:
        assert LagDistribution(a, b).pmf_vector().sum() == pytest.approx(1.0)


def test_invalid_lags_rejected():
    with pytest.raises(DomainError):
        LagDistribution(-1, 3)
    with pytest.raises(DomainError):
        LagDistribution(5, 4)
    with pytest.raises(DomainError, match="lag.a must be an integer"):
        LagDistribution(True, 1)


def test_zero_lag_is_identity():
    i = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    out = shift_expectation(i, LagDistribution(0, 0))
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, i)


def test_mass_splits_between_days():
    out = shift_expectation(np.array([10.0, 0.0, 0.0]), LagDistribution(0, 1))
    np.testing.assert_allclose(out, [5.0, 5.0, 0.0])


def test_truncation_drops_overflow():
    out = shift_expectation(np.array([4.0, 8.0]), LagDistribution(1, 1))
    np.testing.assert_allclose(out, [0.0, 4.0])


def test_elongated_keeps_overflow():
    out = shift_expectation_elongated(np.array([4.0, 8.0]), LagDistribution(1, 1))
    np.testing.assert_allclose(out, [0.0, 4.0, 8.0])
    assert len(out) == 2 + 1

    out = shift_expectation_elongated(np.array([10.0, 0.0, 0.0]),
                                      LagDistribution(0, 1))
    np.testing.assert_allclose(out, [5.0, 5.0, 0.0, 0.0])


def test_elongated_zero_lag_adds_no_days():
    i = np.array([2.0, 7.0])
    out = shift_expectation_elongated(i, LagDistribution(0, 0))
    np.testing.assert_allclose(out, i)
    assert len(out) == len(i)


@given(series_strategy, lag_strategy)
def test_point_mass_is_translation(i, lag):
    s = lag.a
    point = LagDistribution(s, s)
    out = shift_expectation(i, point)
    expected = np.zeros(len(i))
    expected[s:] = i[: len(i) - s] if s < len(i) else []
    np.testing.assert_allclose(out, expected, rtol=1e-12)


@given(series_strategy, lag_strategy)
def test_elongated_conserves_mass(i, lag):
    out = shift_expectation_elongated(i, lag)
    assert len(out) == len(i) + lag.b
    total = i.sum()
    assert abs(out.sum() - total) <= 1e-9 * max(total, 1.0)


@given(series_strategy, lag_strategy)
def test_truncated_never_gains_mass(i, lag):
    out = shift_expectation(i, lag)
    assert len(out) == len(i)
    assert out.sum() <= i.sum() * (1 + 1e-12)


@settings(max_examples=30)
@given(series_strategy, series_strategy, lag_strategy,
       st.floats(0, 100), st.floats(0, 100))
def test_shift_is_linear(x, y, lag, alpha, beta):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    for op in (shift_expectation, shift_expectation_elongated):
        combined = op(alpha * x + beta * y, lag)
        separate = alpha * op(x, lag) + beta * op(y, lag)
        np.testing.assert_allclose(combined, separate, rtol=1e-9, atol=1e-6)


def test_monte_carlo_agreement_small():
    # statistically tight version lives in the acceptance suite
    rng = np.random.default_rng(42)
    i = np.array([40000.0, 10000.0, 0.0, 30000.0, 20000.0, 0.0, 0.0, 0.0])
    lag = LagDistribution(1, 3)
    expected = shift_expectation(i, lag)
    simulated = np.zeros(len(i))
    pmf = lag.pmf_vector()[lag.a :]
    for day, count in enumerate(i.astype(int)):
        if count == 0:
            continue
        draws = rng.multinomial(count * 100, pmf) / 100.0
        for offset, mass in enumerate(draws):
            if day + lag.a + offset < len(i):
                simulated[day + lag.a + offset] += mass
    peak = expected.max()
    check = expected >= 0.01 * peak
    np.testing.assert_allclose(simulated[check], expected[check], rtol=0.01)
