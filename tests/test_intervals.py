from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bell
from ifrlag.domain import DailySeries
from ifrlag.errors import DomainError, FitError, ZeroInfectionWindow, ZeroShiftedSeries
from ifrlag.fit import FitConfig, best_fit
from ifrlag.intervals import (
    WARN_FIRST_WINDOW,
    WARN_FLAT_DEATHS,
    WARN_NEGATIVE_ADJUSTED,
    WARN_RESIDUAL_OVERFLOW,
    WARN_TRAILING_DROPPED,
    IntervalConfig,
    fit_intervals,
)
from ifrlag.lagmodel import LagDistribution, shift_expectation, shift_expectation_elongated
from ifrlag.synth import (DEFAULT_ORIGIN, Regime, Scenario, default_scenario,
                          generate_deaths)


def scenario_infections(k=100, total=4e5):
    return bell(k, total=total, center_frac=0.45, width_frac=0.18)


def regimes_for(k, w, ifrs, lag):
    return tuple(
        Regime(start_day=n * w + 1, end_day=min((n + 1) * w, k),
               ifr=ifr, lag=lag)
        for n, ifr in enumerate(ifrs)
    )


def make_scenario(i, regimes, population=10_000_000, m_true=2.5):
    k = len(i)
    return Scenario(
        infections=DailySeries(DEFAULT_ORIGIN, i),
        regimes=regimes,
        population=population,
        test_curve=DailySeries(DEFAULT_ORIGIN, np.full(k, 50_000.0)),
        m_true=m_true,
    )


def test_constant_regime_recovered_in_both_windows():
    i = scenario_infections()
    lag = LagDistribution(5, 9)
    sc = make_scenario(i, regimes_for(100, 50, (0.004, 0.004), lag))
    d = generate_deaths(sc, "expected")
    report = fit_intervals(i, d.values, IntervalConfig(width=50))

    assert len(report.windows) == 2
    for w in report.windows:
        assert (w.fit.lag_a, w.fit.lag_b) == (5, 9)
        assert w.fit.ifr == pytest.approx(0.004, rel=1e-9)

    # window 2's adjusted deaths must equal its regenerated current deaths
    current_2 = 0.004 * shift_expectation(i[50:], lag)
    np.testing.assert_allclose(report.windows[1].adjusted_deaths, current_2,
                               rtol=1e-9, atol=1e-12)


def test_regime_change_recovered():
    i = scenario_infections()
    lag = LagDistribution(4, 12)
    sc = make_scenario(i, regimes_for(100, 50, (0.0068, 0.0024), lag))
    d = generate_deaths(sc, "expected")
    report = fit_intervals(i, d.values, IntervalConfig(width=50))

    recovered = [w.fit.ifr for w in report.windows]
    assert recovered[0] == pytest.approx(0.0068, rel=0.01)
    assert recovered[1] == pytest.approx(0.0024, rel=0.01)
    for w in report.windows:
        assert (w.fit.lag_a, w.fit.lag_b) == (4, 12)


def test_candidate_deaths_reproduce_noise_free_input():
    i = scenario_infections()
    sc = make_scenario(i, regimes_for(100, 50, (0.005, 0.002),
                                      LagDistribution(3, 8)))
    d = generate_deaths(sc, "expected").values
    report = fit_intervals(i, d, IntervalConfig(width=50))
    np.testing.assert_allclose(report.candidate_deaths, d, rtol=1e-9, atol=1e-12)


def test_residual_out_empty_when_no_lag_overflow():
    i = scenario_infections()
    report = fit_intervals(i, 0.01 * i, IntervalConfig(width=50))
    assert [w.fit.lag_b for w in report.windows] == [0, 0]
    assert all(len(w.residual_out) == 0 for w in report.windows)


def test_residual_out_single_unit_shift():
    # day-49 infections die on day 50, so only U(1, 1) fits exactly and the
    # day-50 infections' deaths are the one residual day past the window
    i = np.zeros(50)
    i[-2:] = 10.0
    d = np.zeros(50)
    d[-1] = 1.0
    (window,) = fit_intervals(i, d, IntervalConfig(width=50)).windows
    assert (window.fit.lag_a, window.fit.lag_b) == (1, 1)
    assert window.fit.ifr == pytest.approx(0.1)
    np.testing.assert_allclose(window.residual_out, [1.0])


def test_residual_mass_identity():
    rng = np.random.default_rng(3)
    i = rng.uniform(0, 1000, 50)
    d = 0.007 * shift_expectation(i, LagDistribution(2, 11))
    (window,) = fit_intervals(i, d, IntervalConfig(width=50)).windows
    fit = window.fit
    assert (fit.lag_a, fit.lag_b) == (2, 11)
    residuals = window.residual_out
    assert len(residuals) == fit.lag_b
    truncated = fit.ifr * shift_expectation(
        i, LagDistribution(fit.lag_a, fit.lag_b))
    expected_mass = fit.ifr * i.sum() - truncated.sum()
    assert residuals.sum() == pytest.approx(expected_mass, rel=1e-9)


@pytest.mark.parametrize("k, trailing", [(262, "fitted"), (255, "dropped")])
def test_candidate_deaths_sum_all_elongated_shifts(k, trailing):
    # U(10, 30) residuals outrun a 12-day trailing window (k=262), or land
    # in a 5-day tail too short to fit (k=255); either way the candidate
    # deaths are every window's full elongated shift, cut at day k
    i = scenario_infections(k=k, total=4e6)
    n = (k + 49) // 50
    sc = make_scenario(i, regimes_for(k, 50, (0.004,) * n, LagDistribution(10, 30)))
    d = generate_deaths(sc, "expected").values
    report = fit_intervals(i, d, IntervalConfig(width=50, min_trailing=10))

    if trailing == "fitted":
        assert len(report.windows) == 6 and report.windows[-1].end_day == k
        assert WARN_RESIDUAL_OVERFLOW in report.windows[-1].warnings
        assert len(report.windows[-2].residual_out) > 12
    else:
        assert len(report.windows) == 5 and report.windows[-1].end_day == 250
        assert any(WARN_TRAILING_DROPPED in w for w in report.warnings)
        tail = report.candidate_deaths[250:]
        np.testing.assert_array_equal(tail, report.windows[-1].residual_out[:5])
        assert tail.sum() > 0

    expected = np.zeros(k + 50)
    for w in report.windows:
        s, e = w.start_day - 1, w.end_day
        full = w.fit.ifr * shift_expectation_elongated(
            i[s:e], LagDistribution(w.fit.lag_a, w.fit.lag_b))
        expected[s : s + len(full)] += full
    np.testing.assert_allclose(report.candidate_deaths, expected[:k],
                               rtol=1e-12, atol=1e-12 * d.max())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_deaths_equal_expected_deaths_of_the_fitted_regimes(seed):
    # the two death writers, fit_intervals and generate_deaths, place the same
    # scaled shifts in the same order: the fitted windows, replayed as regimes
    # of the criterion-7 scenario, give the candidate deaths bit for bit
    scenario = default_scenario(total_infections=1e8, population=500_000_000)
    iv = scenario.infections.values
    deaths = generate_deaths(scenario, "sampled", seed=seed).values
    report = fit_intervals(iv, deaths, IntervalConfig(width=50))
    fitted = replace(scenario, regimes=tuple(
        Regime(w.start_day, w.end_day, w.fit.ifr,
               LagDistribution(w.fit.lag_a, w.fit.lag_b))
        for w in report.windows))
    assert np.array_equal(report.candidate_deaths,
                          generate_deaths(fitted, "expected").values)


def test_per_window_mass_accounting():
    i = scenario_infections(k=150)
    sc = make_scenario(
        i, regimes_for(150, 50, (0.006, 0.004, 0.002), LagDistribution(2, 9)))
    d = generate_deaths(sc, "expected").values
    report = fit_intervals(i, d, IntervalConfig(width=50))
    for n, w in enumerate(report.windows):
        i_win = i[w.start_day - 1 : w.end_day]
        fitted_current = w.fit.ifr * shift_expectation(
            i_win, LagDistribution(w.fit.lag_a, w.fit.lag_b))
        total = w.fit.ifr * i_win.sum()
        assert fitted_current.sum() + w.residual_out.sum() == pytest.approx(
            total, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 130), width=st.integers(2, 30),
       min_trailing=st.integers(1, 15), lag=st.tuples(st.integers(0, 29),
                                                     st.integers(0, 29)),
       seed=st.integers(0, 2**32 - 1))
@example(k=112, width=25, min_trailing=10, lag=(8, 24), seed=1)  # trailing fitted
@example(k=105, width=25, min_trailing=10, lag=(8, 24), seed=2)  # trailing dropped
def test_mass_balance(k, width, min_trailing, lag, seed):
    # every window's death mass ifr * sum(i_win) ends up in the candidate
    # deaths or past the last day, whatever the windowing does with the tail
    a, b = min(lag), max(lag)
    assume(b < width and (k >= width or k >= min_trailing))
    rng = np.random.default_rng(seed)
    i = rng.uniform(1.0, 1000.0, k)
    d = 0.005 * shift_expectation(i, LagDistribution(a, b)) * rng.uniform(0.5, 1.5, k)
    report = fit_intervals(i, d, IntervalConfig(width=width, min_trailing=min_trailing))

    ifr_total, past_k = 0.0, 0.0
    for w in report.windows:
        i_win = i[w.start_day - 1 : w.end_day]
        ifr_mass = w.fit.ifr * i_win.sum()
        current = w.fit.ifr * shift_expectation(
            i_win, LagDistribution(w.fit.lag_a, w.fit.lag_b))
        assert current.sum() + w.residual_out.sum() == pytest.approx(
            ifr_mass, rel=1e-9, abs=1e-12)
        ifr_total += ifr_mass
        past_k += w.residual_out[max(0, k - w.end_day) :].sum()
    assert report.candidate_deaths.sum() + past_k == pytest.approx(
        ifr_total, rel=1e-9, abs=1e-12)


def test_zero_overflow_windows_match_independent_fits():
    i = scenario_infections()
    sc = make_scenario(i, regimes_for(100, 50, (0.004, 0.002),
                                      LagDistribution(0, 0)))
    d = generate_deaths(sc, "expected").values
    report = fit_intervals(i, d, IntervalConfig(width=50))
    assert all(w.fit.lag_b == 0 for w in report.windows)
    for w in report.windows:
        alone = best_fit(i[w.start_day - 1 : w.end_day],
                         d[w.start_day - 1 : w.end_day],
                         FitConfig(max_lag=49))
        assert (w.fit.lag_a, w.fit.lag_b, w.fit.ifr, w.fit.error) == (
            alone.lag_a, alone.lag_b, alone.ifr, alone.error)



@pytest.mark.parametrize("k, max_lag",
                         [(30, 0), (40, 39), (100, 12), (250, 50), (20, 35)])
def test_whole_period_window_is_best_fit(k, max_lag):
    # a window as wide as the series is the whole-period fit, bit for bit
    i = scenario_infections(k)
    sc = make_scenario(i, regimes_for(k, k, (0.004,), LagDistribution(3, 9)))
    d = generate_deaths(sc, "sampled", seed=k).values
    (window,) = fit_intervals(i, d, IntervalConfig(width=k, max_lag=max_lag)).windows
    assert window.fit == best_fit(i, d, FitConfig(max_lag))


def test_short_trailing_window_searches_only_its_own_lags():
    # in the 13-day tail every U(5, b >= 12) fits alike, its IFR scaled by
    # (b - 4) / 8 and its error apart only in rounding, so only lags inside
    # the window identify the IFR
    sc = default_scenario(k=263, ifrs=(0.0068, 0.0056, 0.0037, 0.0024, 0.0024, 0.002))
    i = sc.infections.values
    report = fit_intervals(i, generate_deaths(sc, "sampled", seed=1).values)
    for w in report.windows:
        assert w.fit.lag_b <= w.end_day - w.start_day
    last = report.windows[-1]
    assert last.end_day - last.start_day + 1 == 13
    assert last.fit == best_fit(i[last.start_day - 1 :], last.adjusted_deaths,
                                FitConfig(12))


def test_first_window_is_flagged():
    i = scenario_infections()
    d = 0.004 * shift_expectation(i, LagDistribution(3, 7))
    report = fit_intervals(i, d, IntervalConfig(width=50))
    assert WARN_FIRST_WINDOW in report.windows[0].warnings
    assert WARN_FIRST_WINDOW not in report.windows[1].warnings


def test_negative_adjusted_deaths_flagged_not_clamped():
    i = scenario_infections()
    lag = LagDistribution(4, 12)
    sc = make_scenario(i, regimes_for(100, 50, (0.02, 0.02), lag))
    d = generate_deaths(sc, "expected").values.copy()
    d[50:] = 0.0  # second window has fewer deaths than the incoming residuals
    report = fit_intervals(i, d, IntervalConfig(width=50))
    w2 = report.windows[1]
    assert WARN_NEGATIVE_ADJUSTED in w2.warnings
    assert np.any(w2.adjusted_deaths < 0)


def test_flat_deaths_window_flagged():
    i = scenario_infections()
    d = np.full(100, 25.0)
    report = fit_intervals(i, d, IntervalConfig(width=50))
    assert WARN_FLAT_DEATHS in report.windows[0].warnings


def test_short_trailing_window_dropped_with_warning():
    i = scenario_infections(k=105)
    d = 0.005 * shift_expectation(i, LagDistribution(2, 6))
    report = fit_intervals(i, d, IntervalConfig(width=50, min_trailing=10))
    assert len(report.windows) == 2
    assert report.windows[-1].end_day == 100
    assert any(WARN_TRAILING_DROPPED in w for w in report.warnings)
    # a series shorter than min_trailing drops its only window
    with pytest.raises(FitError, match="length 5 leaves no fittable window"):
        fit_intervals(np.ones(5), np.ones(5), IntervalConfig(width=50, min_trailing=10))


def test_long_trailing_window_processed():
    i = scenario_infections(k=120)
    d = 0.005 * shift_expectation(i, LagDistribution(2, 6))
    report = fit_intervals(i, d, IntervalConfig(width=50, min_trailing=10))
    assert len(report.windows) == 3
    assert report.windows[-1].start_day == 101
    assert report.windows[-1].end_day == 120
    assert report.warnings == ()


def test_zero_infection_window_is_an_error():
    i = scenario_infections()
    i = i.copy()
    i[50:] = 0.0
    d = np.ones(100)
    with pytest.raises(ZeroInfectionWindow, match="window 2"):
        fit_intervals(i, d, IntervalConfig(width=50))


def test_window_fit_error_names_the_window():
    # window 2's infections are so small that every shifted norm underflows
    i = np.array([1e3] * 20 + [5e-324] * 20)
    with pytest.raises(ZeroShiftedSeries,
                       match=r"^window 2 \(days 21\.\.40\): every lag pair"):
        fit_intervals(i, np.ones(40), IntervalConfig(width=20, min_trailing=10, max_lag=5))


def test_windows_are_contiguous_and_nonoverlapping():
    i = scenario_infections(k=250)
    d = 0.003 * shift_expectation(i, LagDistribution(1, 5))
    report = fit_intervals(i, d, IntervalConfig(width=50))
    bounds = [(w.start_day, w.end_day) for w in report.windows]
    assert bounds[0][0] == 1
    for (s1, e1), (s2, e2) in zip(bounds, bounds[1:]):
        assert s2 == e1 + 1
    assert bounds[-1][1] == 250


def test_interval_config_validation():
    with pytest.raises(DomainError):
        IntervalConfig(width=1)
    with pytest.raises(DomainError):
        IntervalConfig(width=50, min_trailing=0)
    with pytest.raises(DomainError, match="max_lag must be >= 0"):
        IntervalConfig(max_lag=-1)
