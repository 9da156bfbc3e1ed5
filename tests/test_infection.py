import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ifrlag.domain import AntibodyAnchor
from ifrlag.errors import (
    CasesExceedTests,
    DegenerateSeries,
    DomainError,
    InfeasibleAnchorHigh,
    InfeasibleAnchorLow,
)
from ifrlag.infection import anchor_sum, calibrate_m, estimate_infections


def single_day_dataset(cases=100.0, coverage=0.01, population=1_000_000):
    return make_dataset(cases=[cases], tests=[coverage * population],
                        population=population)


def test_zero_cases_give_zero_infections():
    ds = make_dataset(cases=[0, 0], tests=[0, 500])
    out = estimate_infections(ds, m=3.0)
    np.testing.assert_array_equal(out.values, [0.0, 0.0])


def test_full_coverage_gives_cases_back():
    ds = make_dataset(cases=[500], tests=[1_000_000], population=1_000_000)
    for m in (1.5, 2.0, 10.0):
        assert estimate_infections(ds, m).values[0] == pytest.approx(500.0)


def test_hand_computed_inflation():
    # coverage 1%, m=2: inflation factor 1/sqrt(0.01) = 10
    ds = single_day_dataset(cases=100.0, coverage=0.01)
    assert estimate_infections(ds, 2.0).values[0] == pytest.approx(1000.0)


def test_m_at_most_one_rejected():
    ds = single_day_dataset()
    for m in (1.0, 0.5, np.nan, np.inf):
        with pytest.raises(DomainError, match="must be finite and > 1"):
            estimate_infections(ds, m)
        with pytest.raises(DomainError, match="must be finite and > 1"):
            anchor_sum(ds, m, 1)


def test_positive_cases_with_zero_tests_rejected():
    # the Dataset refuses it, so the estimator never divides by zero coverage
    with pytest.raises(CasesExceedTests, match="day 1"):
        make_dataset(cases=[5.0], tests=[0.0])


@settings(max_examples=50)
@given(
    st.lists(st.floats(0, 1e4, allow_nan=False), min_size=1, max_size=40),
    st.floats(1.01, 50.0),
)
def test_infections_dominate_cases(case_values, m):
    cases = np.asarray(case_values)
    rng = np.random.default_rng(5)
    tests = np.maximum(cases, rng.uniform(1, 1e5, len(cases)))
    ds = make_dataset(cases=cases, tests=tests, population=10_000_000)
    out = estimate_infections(ds, m).values
    assert np.all(out >= cases * (1 - 1e-12))


def test_inflation_fades_as_coverage_approaches_full():
    coverages = np.array([0.01, 0.1, 0.5, 0.9, 0.99, 1.0])
    ds = make_dataset(cases=np.full(6, 100.0), tests=coverages * 1_000_000)
    ratios = estimate_infections(ds, 3.0).values / 100.0
    assert np.all(np.diff(ratios) < 0)  # shrinking as coverage grows
    assert ratios[-1] == pytest.approx(1.0)
    assert ratios[-2] == pytest.approx(1.0, abs=0.01)


def test_anchor_sum_empty_epidemic():
    ds = make_dataset(cases=[0, 0, 0], tests=[100, 100, 100])
    for m in (1.5, 3.0, 30.0):
        assert anchor_sum(ds, m, 3) == 0.0


def test_anchor_sum_hand_values():
    ds = single_day_dataset(cases=100.0, coverage=0.01)
    assert anchor_sum(ds, 2.0, 1) == pytest.approx(1000.0)
    assert anchor_sum(ds, 4.0, 1) == pytest.approx(100.0 / 0.01 ** 0.25)  # ~316.23


def test_anchor_sum_approaches_case_total_from_above():
    ds = make_dataset(cases=[100, 50], tests=[5000, 8000])
    total_cases = 150.0
    huge_m = anchor_sum(ds, 1e6, 2)
    assert huge_m > total_cases
    assert huge_m == pytest.approx(total_cases, rel=1e-4)


def test_anchor_sum_strictly_decreasing_in_m():
    ds = make_dataset(cases=[100, 200, 50], tests=[1000, 4000, 2000])
    sums = [anchor_sum(ds, m, 3) for m in np.linspace(1.1, 40, 60)]
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_anchor_sum_day_bounds():
    ds = single_day_dataset()
    with pytest.raises(DomainError):
        anchor_sum(ds, 2.0, 0)
    with pytest.raises(DomainError):
        anchor_sum(ds, 2.0, 2)


def test_calibrate_closed_form_single_day():
    # coverage 0.01 and target 10x cases: (0.01)^(1/m) = 0.1 iff m = 2
    ds = single_day_dataset(cases=100.0, coverage=0.01)
    result = calibrate_m(ds, AntibodyAnchor(1, 1000.0))
    assert result.m == pytest.approx(2.0, abs=1e-6)
    assert result.achieved_sum == pytest.approx(1000.0, rel=1e-6)
    assert result.iterations <= 200


def test_anchor_at_case_total_is_infeasible():
    ds = make_dataset(cases=[100, 50], tests=[5000, 8000])
    with pytest.raises(InfeasibleAnchorLow):
        calibrate_m(ds, AntibodyAnchor(2, 150.0))


def test_anchor_below_reach_of_m_cap_is_infeasible():
    # attainable only with m far above the bracket ceiling
    ds = make_dataset(cases=[100], tests=[10000], population=1_000_000)
    floor = anchor_sum(ds, 100.0, 1)
    with pytest.raises(InfeasibleAnchorLow):
        calibrate_m(ds, AntibodyAnchor(1, floor * 0.999))


def test_anchor_above_max_is_infeasible():
    ds = single_day_dataset(cases=100.0, coverage=0.01)
    ceiling = anchor_sum(ds, 1.0 + 1e-9, 1)
    with pytest.raises(InfeasibleAnchorHigh):
        calibrate_m(ds, AntibodyAnchor(1, ceiling * 1.01))


def test_full_coverage_everywhere_is_degenerate():
    ds = make_dataset(cases=[10, 20], tests=[1_000_000, 1_000_000],
                      population=1_000_000)
    with pytest.raises(DegenerateSeries):
        calibrate_m(ds, AntibodyAnchor(2, 40.0))


def test_anchor_day_past_dataset_rejected():
    ds = single_day_dataset()
    with pytest.raises(DomainError):
        calibrate_m(ds, AntibodyAnchor(2, 500.0))


def random_dataset(rng, population):
    """120 days of random cases, each at most its day's tests."""
    cases = rng.uniform(0, 2000, 120)
    tests = np.maximum(cases, rng.uniform(2000, 80_000, 120))
    return make_dataset(cases=cases, tests=tests, population=population)


@pytest.mark.parametrize("m_true", [1.2, 1.9, 3.3, 7.5, 20.0])
def test_round_trip_recovers_m(m_true, rng):
    # at m_true 1.2 the planted anchor is 0.66 of this population
    ds = random_dataset(rng, 1_000_000_000)
    target = anchor_sum(ds, m_true, 100)
    result = calibrate_m(ds, AntibodyAnchor(100, target))
    assert result.m == pytest.approx(m_true, abs=1e-4)


def test_anchor_above_population_rejected(rng):
    # a planted m of 1.2 over a population of 10,000,000 puts 1.42 N infected
    # by day 100: no m may reach it
    ds = random_dataset(rng, 10_000_000)
    target = anchor_sum(ds, 1.2, 100)
    assert target > 1.4 * ds.population
    with pytest.raises(DomainError) as info:
        calibrate_m(ds, AntibodyAnchor(100, target))
    assert str(info.value) == f"anchor {target:g} exceeds population 10000000"
