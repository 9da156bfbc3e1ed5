import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ORIGIN, make_dataset
from ifrlag.domain import (
    AntibodyAnchor,
    DailySeries,
    Dataset,
    as_values,
    error_metric,
)
from ifrlag.fit import FitConfig, best_fit, closed_form_ifr
from ifrlag.infection import anchor_sum, estimate_infections
from ifrlag.intervals import IntervalConfig, fit_intervals
from ifrlag.lagmodel import LagDistribution, shift_expectation, shift_expectation_elongated
from ifrlag.synth import Regime, Scenario, default_scenario, generate_deaths
from ifrlag.errors import (
    CasesExceedTests,
    DataError,
    DomainError,
    LengthMismatch,
    NegativeValue,
    PopulationExceeded,
)

finite_counts = st.lists(
    st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


def test_cases_exceeding_tests_names_the_day():
    with pytest.raises(CasesExceedTests, match="day 1"):
        make_dataset(cases=[5], tests=[3])


def test_length_mismatch_detected():
    with pytest.raises(LengthMismatch):
        make_dataset(cases=[1, 2, 3], tests=[10, 20, 30], deaths=[0, 0])


def test_tests_above_population_rejected():
    with pytest.raises(PopulationExceeded):
        make_dataset(cases=[1], tests=[2_000_000])


def test_negative_values_rejected_at_construction():
    with pytest.raises(NegativeValue, match="day 2"):
        DailySeries(ORIGIN, [1.0, -3.0])
    with pytest.raises(DomainError, match="non-finite value nan at day 1"):
        DailySeries(ORIGIN, [np.nan])


def test_series_is_immutable():
    s = DailySeries(ORIGIN, [1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 7.0


def test_day_index_and_date_round_trip():
    s = DailySeries(ORIGIN, np.ones(30))
    assert s.day_index(ORIGIN) == 1
    assert s.day_index(dt.date(2020, 3, 15)) == 15
    with pytest.raises(DomainError):
        s.day_index(dt.date(2020, 2, 28))
    with pytest.raises(DomainError):
        s.day_index(dt.date(2020, 5, 1))


def test_anchor_requires_positive_count():
    with pytest.raises(DomainError):
        AntibodyAnchor(day_index=5, infected_count=0.0)
    with pytest.raises(DomainError):
        AntibodyAnchor(day_index=0, infected_count=10.0)


def test_error_metric_hand_values():
    assert error_metric([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert error_metric([1.0, 2.0], [3.0, 5.0]) == 13.0


def test_error_metric_length_mismatch():
    with pytest.raises(LengthMismatch):
        error_metric([1.0], [1.0, 2.0])


@given(finite_counts, finite_counts)
def test_error_metric_symmetric_and_nonnegative(xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.asarray(xs[:n]), np.asarray(ys[:n])
    d = error_metric(x, y)
    assert d >= 0.0
    assert d == error_metric(y, x)
    assert error_metric(x, x) == 0.0


@given(finite_counts, st.randoms(use_true_random=False))
def test_error_metric_permutation_invariant(xs, rand):
    x = np.asarray(xs)
    y = np.asarray([rand.uniform(0, 100) for _ in xs])
    perm = np.asarray(rand.sample(range(len(x)), len(x)))
    assert error_metric(x[perm], y[perm]) == pytest.approx(
        error_metric(x, y), rel=1e-12
    )


# public entry points and how many series each takes
SERIES_CALLS = {
    "best_fit": (lambda i, d: best_fit(i, d, FitConfig(max_lag=3)), 2),
    "fit_intervals": (lambda i, d: fit_intervals(i, d, IntervalConfig(width=5)), 2),
    "closed_form_ifr": (closed_form_ifr, 2),
    "error_metric": (error_metric, 2),
    "shift_expectation": (lambda i: shift_expectation(i, LagDistribution(1, 2)), 1),
    "shift_expectation_elongated": (
        lambda i: shift_expectation_elongated(i, LagDistribution(1, 2)), 1),
}


@pytest.mark.parametrize("name", sorted(SERIES_CALLS))
def test_empty_input_rejected(name):
    fn, n_series = SERIES_CALLS[name]
    with pytest.raises(LengthMismatch, match="empty series"):
        fn(*[np.zeros(0) for _ in range(n_series)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(SERIES_CALLS))
def test_non_finite_input_rejected(name, bad):
    fn, n_series = SERIES_CALLS[name]
    for position in range(n_series):
        series = [np.linspace(1.0, 10.0, 10) for _ in range(n_series)]
        series[position][3] = bad
        with pytest.raises(DataError, match="non-finite value .* at day 4"):
            fn(*series)


def two_days():
    return make_dataset(cases=[1, 2], tests=[10, 20])


def one_day_series(origin=ORIGIN, value=1.0):
    return DailySeries(origin, [value])


NEXT_DAY = ORIGIN + dt.timedelta(days=1)

# each ill-formed input and the one DataError subclass its owner raises
BAD_INPUTS = {
    "series_nan": (lambda: DailySeries(ORIGIN, [1.0, np.nan]), DomainError),
    "series_2d": (lambda: as_values(np.ones((2, 2))), DomainError),
    "dataset_origins": (
        lambda: Dataset(one_day_series(), one_day_series(NEXT_DAY),
                        one_day_series(value=10.0), 1000), LengthMismatch),
    # dates: one rule, owned by domain.require_date
    "series_origin_string": (lambda: DailySeries("2020-03-01", [1, 2]), DomainError),
    "series_origin_datetime": (lambda: DailySeries(dt.datetime(2020, 3, 1), [1.0]),
                               DomainError),
    "day_index_string": (lambda: one_day_series().day_index("2020-03-01"),
                         DomainError),
    "day_index_datetime": (
        lambda: one_day_series().day_index(dt.datetime(2020, 3, 1)), DomainError),
    # records that hold records check their type
    "regime_lag_not_distribution": (lambda: default_scenario(lag="x"), DomainError),
    "scenario_regime_not_regime": (
        lambda: Scenario(one_day_series(), (1,), 1000, one_day_series(value=10.0), 2.0),
        DomainError),
    "scenario_origins": (
        lambda: Scenario(one_day_series(), (Regime(1, 1, 0.1, LagDistribution(0, 0)),),
                         1000, one_day_series(NEXT_DAY, 10.0), 2.0), LengthMismatch),
    "scenario_test_curve_length": (
        lambda: Scenario(one_day_series(), (Regime(1, 1, 0.1, LagDistribution(0, 0)),),
                         1000, DailySeries(ORIGIN, [10.0, 10.0]), 2.0), LengthMismatch),
    # one population rule for Dataset and Scenario: domain.require_int up to
    # domain.MAX_POPULATION
    "scenario_population_too_large": (
        lambda: Scenario(one_day_series(), (Regime(1, 1, 0.1, LagDistribution(0, 0)),),
                         10**20, one_day_series(value=10.0), 2.0), DomainError),
    # a label is echoed in titles and reports, so it must be a string
    "dataset_label_not_str": (
        lambda: make_dataset(cases=[1], tests=[1], label=5), DomainError),
    "scenario_label_not_str": (
        lambda: Scenario(one_day_series(), (Regime(1, 1, 0.1, LagDistribution(0, 0)),),
                         1000, one_day_series(value=10.0), 2.0, label=None), DomainError),
    "regime_start_day_zero": (lambda: Regime(0, 5, 0.1, LagDistribution(0, 0)),
                              DomainError),
    "regime_end_before_start": (lambda: Regime(5, 4, 0.1, LagDistribution(0, 0)),
                                DomainError),
    "default_scenario_too_few_rates": (
        lambda: default_scenario(k=250, window=50, ifrs=(0.01,) * 4), DomainError),
    # m past the float range or not a number: one rule, owned by domain.require_real
    "estimate_infections_m_too_large": (
        lambda: estimate_infections(two_days(), 10**400), DomainError),
    "estimate_infections_m_string": (lambda: estimate_infections(two_days(), "3"),
                                     DomainError),
    "anchor_sum_m_too_large": (lambda: anchor_sum(two_days(), 10**400, 2), DomainError),
    "anchor_sum_day_not_int": (lambda: anchor_sum(two_days(), 2.0, 1.5), DomainError),
    "anchor_sum_day_bool": (lambda: anchor_sum(two_days(), 2.0, True), DomainError),
    "generate_deaths_seed_not_int": (
        lambda: generate_deaths(default_scenario(), "sampled", seed=1.5), DomainError),
    "anchor_infected_count_not_number": (lambda: AntibodyAnchor(2, "5"), DomainError),
    "anchor_infected_count_inf": (lambda: AntibodyAnchor(2, float("inf")),
                                  DomainError),
    "fit_intervals_lengths": (lambda: fit_intervals(np.ones(10), np.ones(9)),
                              LengthMismatch),
    "best_fit_lengths": (lambda: best_fit(np.ones(10), np.ones(9)), LengthMismatch),
    "not_numeric": (lambda: as_values("abc"), DomainError),
    "lag_negative": (lambda: LagDistribution(-1, 3), DomainError),
    "fit_max_lag": (lambda: FitConfig(-1), DomainError),
    "interval_width": (lambda: IntervalConfig(width=1), DomainError),
    "fit_max_lag_not_int": (lambda: FitConfig(max_lag=2.5), DomainError),
    "fit_max_lag_bool": (lambda: FitConfig(max_lag=True), DomainError),
    "interval_width_not_int": (lambda: IntervalConfig(width=5.5), DomainError),
    "interval_min_trailing_not_int": (lambda: IntervalConfig(min_trailing=2.5),
                                      DomainError),
    "interval_max_lag_not_int": (lambda: IntervalConfig(max_lag=2.5), DomainError),
    "anchor_day_not_int": (lambda: AntibodyAnchor(2.5, 500.0), DomainError),
    "dataset_cases_over_tests": (lambda: make_dataset(cases=[1, 5], tests=[2, 3]),
                                 CasesExceedTests),
    "dataset_population": (lambda: make_dataset(cases=[1], tests=[1], population=0),
                           DomainError),
    # float(population) is no longer exact past 2**53
    "dataset_population_too_large": (
        lambda: make_dataset(cases=[1], tests=[1], population=2**53 + 1), DomainError),
    "dataset_population_fraction": (
        lambda: make_dataset(cases=[1], tests=[1], population=1e7 + 0.5), DomainError),
    # finite input whose sums overflow: no NaN or inf result
    "best_fit_overflow": (
        lambda: best_fit([1e160] * 5, [1e160] * 5, FitConfig(3)), DomainError),
    "closed_form_ifr_overflow": (
        lambda: closed_form_ifr([1e160] * 5, [1e160] * 5), DomainError),
    "closed_form_ifr_rate_overflow": (
        lambda: closed_form_ifr([1e-160], [1e160]), DomainError),
    "error_metric_overflow": (lambda: error_metric([1e160] * 5, [0.0] * 5),
                              DomainError),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_raises_its_data_error(name):
    build, error = BAD_INPUTS[name]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


# every integer range check is one domain.require_int call, so one message shape
RANGE_MESSAGES = {
    "max_lag": (lambda: FitConfig(-1), "max_lag must be >= 0, got -1"),
    "width": (lambda: IntervalConfig(width=1), "width must be >= 2, got 1"),
    "min_trailing": (lambda: IntervalConfig(min_trailing=0),
                     "min_trailing must be >= 1, got 0"),
    "lag_a": (lambda: LagDistribution(-1, 3), "lag.a must be >= 0, got -1"),
    "lag_b": (lambda: LagDistribution(4, 3), "lag.b must be >= 4, got 3"),
    "start_day": (lambda: Regime(0, 5, 0.1, LagDistribution(0, 0)),
                  "start_day must be >= 1, got 0"),
    "end_day": (lambda: Regime(5, 4, 0.1, LagDistribution(0, 0)),
                "end_day must be >= 5, got 4"),
    "anchor_day_index": (lambda: AntibodyAnchor(0, 500.0),
                         "day_index must be >= 1, got 0"),
    "anchor_sum_day_index": (
        lambda: anchor_sum(make_dataset(cases=[1] * 250, tests=[10] * 250), 2.0, 251),
        "day_index must be in [1, 250], got 251"),
    "seed": (lambda: generate_deaths(default_scenario(), "sampled", seed=-1),
             "seed must be >= 0, got -1"),
    "dataset_population": (lambda: make_dataset(cases=[1], tests=[1], population=0),
                           "population must be in [1, 9007199254740992], got 0"),
    "scenario_population": (
        lambda: Scenario(one_day_series(), (Regime(1, 1, 0.1, LagDistribution(0, 0)),),
                         2**53 + 1, one_day_series(value=10.0), 2.0),
        "population must be in [1, 9007199254740992], got 9007199254740993"),
    "default_scenario_window": (lambda: default_scenario(window=0),
                                "window must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", sorted(RANGE_MESSAGES))
def test_range_check_message(name):
    build, message = RANGE_MESSAGES[name]
    with pytest.raises(DomainError) as info:
        build()
    assert type(info.value) is DomainError
    assert str(info.value) == message
