import json

import numpy as np
import pytest

from ifrlag.domain import DailySeries
from ifrlag.errors import ConfigError, DomainError, LengthMismatch, PopulationExceeded
from ifrlag.infection import estimate_infections
from ifrlag.lagmodel import LagDistribution
from ifrlag.synth import (
    DEFAULT_ORIGIN,
    Regime,
    Scenario,
    default_scenario,
    generate_deaths,
    generate_observables,
    ramp_test_curve,
    two_peak_curve,
)


def flat_scenario(k=250, daily=4000.0, ifr=0.005, lag=LagDistribution(3, 9),
                  population=50_000_000):
    """Integer-valued infections so sampled mode rounds nothing."""
    return Scenario(
        infections=DailySeries(DEFAULT_ORIGIN, np.full(k, daily)),
        regimes=(Regime(1, k, ifr, lag),),
        population=population,
        test_curve=DailySeries(DEFAULT_ORIGIN, np.full(k, 100_000.0)),
        m_true=3.0,
    )


def test_zero_ifr_means_zero_deaths():
    sc = flat_scenario(ifr=0.0)
    assert generate_deaths(sc, "expected").values.sum() == 0.0
    assert generate_deaths(sc, "sampled", seed=4).values.sum() == 0.0


def test_identity_regime_reproduces_infections():
    sc = default_scenario(ifrs=(1.0,) * 5, lag=LagDistribution(0, 0))
    d = generate_deaths(sc, "expected")
    np.testing.assert_allclose(d.values, sc.infections.values, rtol=1e-12)


def test_sampled_stream_is_pinned():
    # zero-count days, a zero-rate regime and lags that land past day k
    # each draw nothing or are cut, and leave the PCG64 stream in place
    sc = Scenario(
        infections=DailySeries(DEFAULT_ORIGIN, [0] * 5 + [40] * 20 + [0] * 5),
        regimes=(Regime(1, 10, 0.3, LagDistribution(0, 3)),
                 Regime(11, 20, 0.0, LagDistribution(2, 5)),
                 Regime(21, 30, 0.5, LagDistribution(4, 12))),
        population=1000,
        test_curve=DailySeries(DEFAULT_ORIGIN, [100] * 30),
        m_true=2.0,
    )
    deaths = generate_deaths(sc, "sampled", seed=3).values
    assert deaths.tolist() == [0, 0, 0, 0, 0, 5, 3, 6, 11, 12, 8, 9, 1, 0, 0,
                               0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 9, 11, 12, 9]


def test_sampled_death_total_concentrates():
    # 1e6 infections at ifr 0.005: sigma = sqrt(1e6 * 0.005 * 0.995) ~ 70.5
    # infections end 50 days before the period does, so no death is truncated
    values = np.zeros(250)
    values[:200] = 5000.0
    sc = Scenario(
        infections=DailySeries(DEFAULT_ORIGIN, values),
        regimes=(Regime(1, 250, 0.005, LagDistribution(3, 9)),),
        population=50_000_000,
        test_curve=DailySeries(DEFAULT_ORIGIN, np.full(250, 100_000.0)),
        m_true=3.0,
    )
    total = generate_deaths(sc, "sampled", seed=123).values.sum()
    assert abs(total - 5000.0) <= 3 * 70.5


def test_sampled_mode_deterministic_per_seed():
    sc = flat_scenario(k=60)
    a = generate_deaths(sc, "sampled", seed=9).values
    b = generate_deaths(sc, "sampled", seed=9).values
    c = generate_deaths(sc, "sampled", seed=10).values
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_expected_vs_sampled_agree_at_scale():
    # compare 10-day block sums: daily counts are too small for a 5% bound
    sc = default_scenario(total_infections=1e8, population=500_000_000)
    expected = generate_deaths(sc, "expected").values
    sampled = generate_deaths(sc, "sampled", seed=77).values
    blocks_e = expected.reshape(25, 10).sum(axis=1)
    blocks_s = sampled.reshape(25, 10).sum(axis=1)
    busy = blocks_e >= 0.1 * blocks_e.max()
    np.testing.assert_allclose(blocks_s[busy], blocks_e[busy], rtol=0.05)


def test_unknown_mode_rejected():
    with pytest.raises(DomainError):
        generate_deaths(flat_scenario(k=10), "bogus")


def test_full_testing_makes_cases_equal_infections():
    sc = flat_scenario(population=100_000)
    sc = Scenario(
        infections=sc.infections,
        regimes=sc.regimes,
        population=100_000,
        test_curve=DailySeries(DEFAULT_ORIGIN, np.full(250, 100_000.0)),
        m_true=2.0,
    )
    ds = generate_observables(sc)
    np.testing.assert_allclose(ds.cases.values, sc.infections.values, rtol=1e-12)


def test_single_day_inversion():
    sc = Scenario(
        infections=DailySeries(DEFAULT_ORIGIN, [1000.0]),
        regimes=(Regime(1, 1, 0.0, LagDistribution(0, 0)),),
        population=1_000_000,
        test_curve=DailySeries(DEFAULT_ORIGIN, [10_000.0]),
        m_true=2.0,
    )
    ds = generate_observables(sc)
    assert ds.cases.values[0] == pytest.approx(100.0)


def test_observables_round_trip_through_estimator():
    sc = default_scenario(m_true=2.5)
    ds = generate_observables(sc)
    back = estimate_infections(ds, sc.m_true).values
    iv = sc.infections.values
    # a product and a quotient by the same factor: at most one ulp per day
    assert np.all(np.abs(back - iv) <= np.spacing(iv))


def test_full_pipeline_recovers_all_planted_parameters():
    """Observables out, estimates back in: the complete noise-free loop."""
    from ifrlag.domain import AntibodyAnchor
    from ifrlag.infection import calibrate_m
    from ifrlag.intervals import IntervalConfig, fit_intervals

    ifrs = (0.0068, 0.0056, 0.0037, 0.0024, 0.0024)
    sc = default_scenario(m_true=2.5, ifrs=ifrs, total_infections=2e7,
                          population=100_000_000)
    ds = generate_observables(sc, mode="expected")

    anchor_day = 150
    anchor = AntibodyAnchor(anchor_day,
                            float(sc.infections.values[:anchor_day].sum()))
    calibration = calibrate_m(ds, anchor)
    assert calibration.m == pytest.approx(2.5, abs=1e-4)

    infections = estimate_infections(ds, calibration.m)
    report = fit_intervals(infections, ds.deaths, IntervalConfig(width=50))
    for window, (regime, ifr) in zip(report.windows, zip(sc.regimes, ifrs)):
        assert (window.fit.lag_a, window.fit.lag_b) == (regime.lag.a,
                                                        regime.lag.b)
        assert window.fit.ifr == pytest.approx(ifr, rel=1e-6)


def test_scenario_json_round_trip(tmp_path):
    sc = default_scenario(k=100, window=50, ifrs=(0.004, 0.002))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_dict()))
    loaded = Scenario.from_json(path)
    assert loaded.m_true == sc.m_true
    assert loaded.population == sc.population
    assert loaded.regimes == sc.regimes
    np.testing.assert_array_equal(loaded.infections.values, sc.infections.values)
    np.testing.assert_array_equal(loaded.test_curve.values, sc.test_curve.values)


def test_scenario_lag_kind_must_be_uniform():
    data = default_scenario(k=100, window=50, ifrs=(0.004, 0.002)).to_dict()
    assert [r["lag"]["kind"] for r in data["regimes"]] == ["uniform", "uniform"]
    data["regimes"][1]["lag"]["kind"] = "lognormal"
    with pytest.raises(DomainError, match="lognormal"):
        Scenario.from_dict(data)


@pytest.mark.parametrize("change", [
    lambda data: data.pop("m_true"),
    lambda data: data.update(regimes=5),
], ids=["m_true_missing", "regimes_not_a_list"])
def test_scenario_of_the_wrong_shape_is_a_config_error(change):
    data = default_scenario(k=100, window=50, ifrs=(0.004, 0.002)).to_dict()
    change(data)
    with pytest.raises(ConfigError, match="bad scenario"):
        Scenario.from_dict(data)


def test_unreadable_scenario_file_is_a_config_error(tmp_path):
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "latin1.json").write_bytes(b'{"label": "\xe9"}')
    # nested past the parser's recursion limit
    (tmp_path / "nested.json").write_text("[" * 200_000 + "]" * 200_000)
    for path in (tmp_path / "bad.json", tmp_path / "latin1.json",
                 tmp_path / "nested.json", tmp_path / "missing.json"):
        with pytest.raises(ConfigError, match="cannot read scenario"):
            Scenario.from_json(path)


def test_scenario_numbers_must_be_numbers():
    i = DailySeries(DEFAULT_ORIGIN, np.ones(5))
    t = DailySeries(DEFAULT_ORIGIN, np.full(5, 10.0))
    lag = LagDistribution(0, 0)
    with pytest.raises(DomainError, match="ifr must be a number"):
        Regime(1, 5, "0.1", lag)
    with pytest.raises(DomainError, match="m_true must be a number"):
        Scenario(i, (Regime(1, 5, 0.1, lag),), 1000, t, m_true="3.3")
    with pytest.raises(DomainError, match="m_true must be finite"):
        Scenario(i, (Regime(1, 5, 0.1, lag),), 1000, t, m_true=10**400)
    # both are stored as floats, an int included
    sc = Scenario(i, (Regime(1, 5, 1, lag),), 1000, t, m_true=3)
    assert (type(sc.regimes[0].ifr), type(sc.m_true)) == (float, float)


def test_regimes_must_tile_the_period():
    i = DailySeries(DEFAULT_ORIGIN, np.ones(10))
    t = DailySeries(DEFAULT_ORIGIN, np.full(10, 100.0))
    lag = LagDistribution(0, 1)
    with pytest.raises(DomainError):
        Scenario(i, (Regime(1, 4, 0.1, lag), Regime(6, 10, 0.1, lag)),
                 1000, t, 2.0)
    with pytest.raises(DomainError):
        Scenario(i, (Regime(1, 9, 0.1, lag),), 1000, t, 2.0)


def test_scenario_field_validation():
    i = DailySeries(DEFAULT_ORIGIN, np.ones(5))
    t = DailySeries(DEFAULT_ORIGIN, np.full(5, 10.0))
    lag = LagDistribution(0, 0)
    with pytest.raises(DomainError):
        Regime(1, 5, 1.5, lag)
    with pytest.raises(DomainError):
        Scenario(i, (Regime(1, 5, 0.1, lag),), 1000, t, m_true=1.0)
    with pytest.raises(PopulationExceeded, match="day 1"):
        Scenario(i, (Regime(1, 5, 0.1, lag),), 5, t, m_true=2.0)  # tests > N
    with pytest.raises(DomainError, match="test curve must be positive"):
        Scenario(i, (Regime(1, 5, 0.1, lag),), 1000,
                 DailySeries(DEFAULT_ORIGIN, [10.0, 0.0, 10.0, 10.0, 10.0]), m_true=2.0)
    with pytest.raises(LengthMismatch, match="series lengths differ: infections=5 tests=4"):
        Scenario(i, (Regime(1, 5, 0.1, lag),), 1000,
                 DailySeries(DEFAULT_ORIGIN, np.full(4, 10.0)), m_true=2.0)


def test_curve_helpers():
    curve = two_peak_curve(250, total=1e6)
    assert curve.sum() == pytest.approx(1e6)
    assert np.all(curve >= 0)
    tests = ramp_test_curve(250, population=1_000_000)
    assert np.all(tests > 0)
    assert np.all(tests <= 1_000_000)
    assert tests[-1] > tests[0]
