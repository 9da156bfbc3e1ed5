"""Exact metamorphic relations of the pipeline.

Multiplying an input by a power of two is exact in IEEE arithmetic, in any
summation order, unless a value under- or overflows. So these relations hold
with == on every CPU and for any correct grid algorithm, and a change that
makes a choice depend on an absolute size (a tie tolerance, an absolute
threshold) breaks them:

* cases, deaths and the anchor count times 2^s (tests unchanged): the same m,
  bisection steps, lag pairs, IFRs and warnings; infections and candidate
  deaths times 2^s, window errors times 4^s;
* deaths alone times 2^s: the same pairs, IFRs times 2^s, errors times 4^s;
* infections alone times 2^s: the same pairs and errors, IFRs times 2^-s.

The single-series relations take |s| up to 20, which moves window errors by
up to 4^20 (about 1e12) and still leaves every value far from under- and
overflow; the first keeps |s| <= 3, where 2^s x cases stays within tests.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifrlag.domain import AntibodyAnchor, DailySeries, Dataset
from ifrlag.infection import calibrate_m, estimate_infections
from ifrlag.intervals import IntervalConfig, fit_intervals
from ifrlag.synth import default_scenario, generate_observables


@st.composite
def runs(draw):
    """A sampled default-scenario dataset, an anchor at its true cumulative
    infections and a window config."""
    width = draw(st.integers(20, 50))
    k = draw(st.integers(2 * width, 4 * width))
    n_windows = -(-k // width)
    ifrs = draw(st.lists(st.floats(0.001, 0.01), min_size=n_windows,
                         max_size=n_windows))
    scenario = default_scenario(
        k=k, window=width, ifrs=ifrs,
        total_infections=draw(st.floats(2e5, 5e6)),
        m_true=draw(st.floats(1.5, 4.0)),
    )
    dataset = generate_observables(scenario, mode="sampled",
                                   seed=draw(st.integers(0, 2**16)))
    day = draw(st.integers(width, k))
    anchor = AntibodyAnchor(day, float(scenario.infections.values[:day].sum()))
    config = IntervalConfig(width=width, max_lag=draw(st.integers(5, width - 1)))
    return dataset, anchor, config


def _scaled(dataset: Dataset, factor: float) -> Dataset:
    def series(s):
        return DailySeries(s.origin_day, s.values * factor)

    return Dataset(cases=series(dataset.cases), deaths=series(dataset.deaths),
                   tests=dataset.tests, population=dataset.population)


def _pipeline(dataset: Dataset, anchor: AntibodyAnchor, config: IntervalConfig):
    calibration = calibrate_m(dataset, anchor)
    infections = estimate_infections(dataset, calibration.m).values
    return calibration, infections, fit_intervals(infections, dataset.deaths, config)


def _pairs(report):
    return [(w.fit.lag_a, w.fit.lag_b, w.warnings) for w in report.windows]


def _ifrs(report):
    return [w.fit.ifr for w in report.windows]


def _errors(report):
    return [w.fit.error for w in report.windows]


@settings(max_examples=30, deadline=None)
@given(runs(), st.integers(-3, 3))
def test_scaling_counts_and_anchor_scales_outputs_exactly(run, s):
    dataset, anchor, config = run
    f = 2.0**s
    assume(np.all(dataset.cases.values * f <= dataset.tests.values))
    base_cal, base_inf, base = _pipeline(dataset, anchor, config)
    cal, inf, report = _pipeline(
        _scaled(dataset, f), AntibodyAnchor(anchor.day_index, anchor.infected_count * f),
        config)
    assert (cal.m, cal.iterations) == (base_cal.m, base_cal.iterations)
    assert cal.achieved_sum == base_cal.achieved_sum * f
    assert np.array_equal(inf, base_inf * f)
    assert _pairs(report) == _pairs(base)
    assert _ifrs(report) == _ifrs(base)
    assert _errors(report) == [e * f * f for e in _errors(base)]
    assert np.array_equal(report.candidate_deaths, base.candidate_deaths * f)
    assert report.warnings == base.warnings


@settings(max_examples=30, deadline=None)
@given(runs(), st.integers(-20, 20))
def test_scaling_deaths_scales_ifr_exactly(run, s):
    dataset, anchor, config = run
    f = 2.0**s
    _, infections, base = _pipeline(dataset, anchor, config)
    report = fit_intervals(infections, dataset.deaths.values * f, config)
    assert _pairs(report) == _pairs(base)
    assert _ifrs(report) == [r * f for r in _ifrs(base)]
    assert _errors(report) == [e * f * f for e in _errors(base)]


@settings(max_examples=30, deadline=None)
@given(runs(), st.integers(-20, 20))
def test_scaling_infections_scales_ifr_inversely(run, s):
    dataset, anchor, config = run
    f = 2.0**s
    _, infections, base = _pipeline(dataset, anchor, config)
    report = fit_intervals(infections * f, dataset.deaths, config)
    assert _pairs(report) == _pairs(base)
    assert _ifrs(report) == [r / f for r in _ifrs(base)]
    assert _errors(report) == _errors(base)
