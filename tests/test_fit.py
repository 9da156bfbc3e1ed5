import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifrlag
from conftest import bell
from ifrlag.domain import FitResult, as_pair, error_metric
from ifrlag import fit as fit_module
from ifrlag.errors import (
    DataError,
    DomainError,
    FitError,
    LengthMismatch,
    NegativeValue,
    ZeroInfectionSeries,
    ZeroShiftedSeries,
)
from ifrlag.fit import FitConfig, best_fit, closed_form_ifr
from ifrlag.intervals import fit_intervals
from ifrlag.lagmodel import LagDistribution, shift_expectation


def test_closed_form_hand_values():
    assert closed_form_ifr([100.0, 200.0], [0.0, 0.0]) == 0.0
    shifted = np.array([3.0, 1.0, 4.0])
    assert closed_form_ifr(shifted, shifted) == pytest.approx(1.0)
    assert closed_form_ifr([100.0, 200.0], [1.0, 2.0]) == pytest.approx(0.01)


def test_closed_form_rejects_zero_series():
    with pytest.raises(ZeroShiftedSeries):
        closed_form_ifr([0.0, 0.0], [1.0, 2.0])


def test_closed_form_length_mismatch():
    with pytest.raises(LengthMismatch):
        closed_form_ifr([1.0], [1.0, 2.0])


def test_closed_form_may_go_negative_or_above_one():
    assert closed_form_ifr([1.0], [5.0]) == pytest.approx(5.0)
    # negative deaths can arise from residual adjustment; unconstrained r
    assert closed_form_ifr(np.array([1.0, 1.0]), np.array([-1.0, -1.0])) == -1.0


def test_best_fit_all_zero_deaths_takes_first_pair():
    i = bell(30)
    result = best_fit(i, np.zeros(30), FitConfig(max_lag=5))
    assert (result.lag_a, result.lag_b, result.ifr, result.error) == (0, 0, 0.0, 0.0)


def test_best_fit_zero_infections_rejected():
    with pytest.raises(ZeroInfectionSeries):
        best_fit(np.zeros(10), np.ones(10))


def test_negative_infections_rejected_naming_the_day():
    # infections are counts; deaths may be negative after residual adjustment
    i = np.array([1.0, -0.999, 1.0, -0.999, 1.0])
    d = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    with pytest.raises(NegativeValue, match="at day 2"):
        best_fit(i, d, FitConfig(max_lag=4))
    with pytest.raises(NegativeValue, match="at day 2"):
        fit_intervals(i, d)


def test_gram_table_built_once_with_negative_deaths(monkeypatch):
    calls = []
    surfaces = fit_module._surfaces

    def counted(*args):
        calls.append(args)
        return surfaces(*args)

    monkeypatch.setattr(fit_module, "_surfaces", counted)
    i = bell(30)
    d = 0.01 * shift_expectation(i, LagDistribution(2, 6)) - 5.0
    assert np.any(d < 0)
    best_fit(i, d, FitConfig(max_lag=10))
    assert len(calls) == 1


def test_best_fit_recovers_planted_parameters_exactly():
    i = bell(100)
    lag = LagDistribution(3, 13)
    d = 0.005 * shift_expectation(i, lag)
    result = best_fit(i, d, FitConfig(max_lag=20))
    assert (result.lag_a, result.lag_b) == (3, 13)
    assert result.ifr == pytest.approx(0.005, rel=1e-12)
    assert result.error <= 1e-12


def test_best_fit_error_matches_metric():
    rng = np.random.default_rng(7)
    i = bell(60)
    d = 0.01 * shift_expectation(i, LagDistribution(2, 9))
    d = d + rng.uniform(0, 0.02 * d.max(), 60)
    result = best_fit(i, d, FitConfig(max_lag=12))
    lag = LagDistribution(result.lag_a, result.lag_b)
    fitted = result.ifr * shift_expectation(i, lag)
    assert result.error == pytest.approx(error_metric(fitted, d), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a, 8))
    ),
    st.floats(1e-4, 0.2),
)
def test_exact_recovery_on_any_grid_point(ab, r_true):
    a, b = ab
    i = bell(50)
    d = r_true * shift_expectation(i, LagDistribution(a, b))
    result = best_fit(i, d, FitConfig(max_lag=8))
    assert (result.lag_a, result.lag_b) == (a, b)
    assert result.ifr == pytest.approx(r_true, rel=1e-9)
    assert result.error <= 1e-12 * max(1.0, float(d @ d))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.001, 1000.0))
def test_scaling_infections_rescales_ifr(alpha):
    rng = np.random.default_rng(31)
    i = bell(40)
    d = 0.02 * shift_expectation(i, LagDistribution(1, 6))
    d = d + rng.uniform(0, 0.05 * d.max(), 40)
    base = best_fit(i, d, FitConfig(max_lag=8))
    scaled = best_fit(alpha * i, d, FitConfig(max_lag=8))
    assert (scaled.lag_a, scaled.lag_b) == (base.lag_a, base.lag_b)
    assert scaled.ifr == pytest.approx(base.ifr / alpha, rel=1e-9)
    assert scaled.error == pytest.approx(base.error, rel=1e-9)


def test_pairs_with_empty_window_shift_are_skipped():
    # all mass on the last day: any a >= 1 shifts everything out of window
    i = np.array([0.0, 0.0, 10.0])
    d = np.array([0.0, 0.0, 1.0])
    result = best_fit(i, d, FitConfig(max_lag=10))
    assert (result.lag_a, result.lag_b) == (0, 0)
    assert result.ifr == pytest.approx(0.1)


def test_all_pairs_filtered_raises():
    # a positive series whose shifts all have a squared norm underflowing to 0
    i = np.array([1e-170, 0.0, 0.0])
    d = np.array([1.0, 1.0, 1.0])
    with pytest.raises(ZeroShiftedSeries):
        best_fit(i, d, FitConfig(max_lag=3))


def test_mesh_search_oracle_small():
    # the 100-instance version is acceptance criterion 1
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(8, 40))
        i = rng.uniform(0, 100, k)
        d = rng.uniform(0, 5, k)
        a = int(rng.integers(0, 6))
        b = int(rng.integers(a, 6))
        shifted = shift_expectation(i, LagDistribution(a, b))
        step = 1e-5
        r_hi = 2 * d.max() / shifted.max()
        mesh = np.arange(0.0, r_hi + step, step)
        errors = ((mesh[:, None] * shifted[None, :] - d[None, :]) ** 2).sum(axis=1)
        r_mesh = mesh[int(np.argmin(errors))]
        assert abs(closed_form_ifr(shifted, d) - r_mesh) <= step


def loop_best_fit(i, d, config: FitConfig = FitConfig()) -> FitResult:
    """The oracle: score every pair with the per-pair path, in lexicographic
    order, keeping strict improvements (best_fit before its filter).

    A squared norm, rate or error past the float range raises DomainError,
    as closed_form_ifr and error_metric do."""
    iv, dv = as_pair(i, d)
    k = len(iv)
    if not np.any(iv > 0):
        raise ZeroInfectionSeries("infection series has no positive entry")
    best = None
    for a in range(config.max_lag + 1):
        for b in range(a, config.max_lag + 1):
            ip = np.convolve(iv, LagDistribution(a, b).pmf_vector())[:k]
            with np.errstate(over="ignore", invalid="ignore"):
                denom = float(ip @ ip)
                if denom == 0.0:
                    continue
                r = float(ip @ dv) / denom
                resid = r * ip - dv
                m = float(resid @ resid)
            if not (math.isfinite(denom) and math.isfinite(r) and math.isfinite(m)):
                raise DomainError("a sum overflows the float range")
            if best is None or m < best.error:
                best = FitResult(lag_a=a, lag_b=b, ifr=r, error=m)
    if best is None:
        raise ZeroShiftedSeries(
            "every lag pair leaves the shifted series identically zero"
        )
    return best


def _outcome(search, i, d, config):
    try:
        return search(i, d, config)
    except (DataError, FitError) as exc:
        return type(exc)


@st.composite
def fit_cases(draw):
    """Short windows (max_lag may reach past k-1) and infections from 1e-3 to
    1e6 after a lead of zero or 1e-3 days, which brings pairs to near-ties;
    deaths planted at a pair, integer counts (exact ties between pairs),
    signed (negative adjusted deaths) or none at all."""
    k = draw(st.integers(1, 30))
    max_lag = draw(st.integers(0, 35))
    lead = draw(st.integers(0, k - 1))
    i = np.array(
        [draw(st.sampled_from([0.0, 1e-3]))] * lead
        + draw(st.lists(st.floats(1e-3, 1e6), min_size=k - lead, max_size=k - lead))
    )
    kind = draw(st.sampled_from(["planted", "integers", "signed", "zero"]))
    if kind == "planted":
        a = draw(st.integers(0, max_lag))
        b = draw(st.integers(a, max_lag))
        d = draw(st.floats(1e-4, 1.0)) * shift_expectation(i, LagDistribution(a, b))
    elif kind == "integers":
        counts = draw(st.lists(st.integers(-2, 5), min_size=k, max_size=k))
        d = draw(st.floats(1e-3, 1e3)) * np.array(counts, dtype=float)
    elif kind == "signed":
        d = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k)))
    else:
        d = np.zeros(k)
    return i, d, FitConfig(max_lag=max_lag)


@settings(max_examples=400, deadline=None)
@given(fit_cases())
# every shifted norm underflows to zero
@example((np.array([1e-170, 0.0, 0.0]), np.ones(3), FitConfig(max_lag=3)))
# no deaths: every pair ties at error 0
@example((np.array([0.0, 0.0, 10.0]), np.zeros(3), FitConfig(max_lag=5)))
# k = 2 with max_lag >= k
@example((np.array([1.0, 1.0]), np.array([1.0, 0.0]), FitConfig(max_lag=4)))
# U(1, 4) rounds to error 0 in a 4-day window, below U(1, 3), which fits
# alike in exact arithmetic
@example((np.array([2.0, 6.0, 5.0, 3.0]), np.array([0.0, 6.0, 24.0, 39.0]),
          FitConfig(max_lag=4)))
# a bound far past the window, and past what np.arange can allocate
@example((np.ones(5), np.ones(5), FitConfig(max_lag=10**20)))
# two near-exact fits, closer than the surface's rounding
@example((np.array([1e-3, 34.0]), np.array([1e-3, 34.0]), FitConfig(max_lag=1)))
# the same near-tie with negative deaths (a negative IFR)
@example((np.array([1e-3, 34.0]), np.array([-1e-3, -34.0]), FitConfig(max_lag=1)))
# U(1, 2) fits best, but the square of its lag sum num, about 1e-340, falls
# below the float range
@example((np.array([1e-100, 0.0, 1.0]), np.array([0.0, 1e-70, 5e-71]),
          FitConfig(max_lag=2)))
# deaths so small that dd and every product with d fall below the normal
# range, where rounding is no longer relative
@example((np.array([0.004, 4.56]), np.array([2.7e-158, 0.0]), FitConfig(max_lag=1)))
# Gram entries below the normal range: U(0, 0)'s den is far off, and U(0, 1)
# is re-scored in its place
@example((np.array([1e-167, 1e-159]), np.ones(2), FitConfig(max_lag=1)))
def test_best_fit_equals_per_pair_search(case):
    # best_fit searches no lag of k days or more, whatever max_lag is
    i, d, config = case
    capped = FitConfig(min(config.max_lag, len(i) - 1))
    assert _outcome(best_fit, i, d, config) == _outcome(loop_best_fit, i, d, capped)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(fit_cases(), st.integers(-250, 250), st.integers(-250, 250))
# dd overflows and U(0, 0) misses d, so its bounds are inf - inf: no
# RuntimeWarning may escape
@example((np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1e200]), FitConfig(max_lag=1)),
         0, 0)
def test_best_fit_equals_per_pair_search_at_extreme_scales(case, e_i, e_d):
    # infections and deaths scaled apart by up to 10**500: squared norms and
    # rates overflow, and products with d fall below the normal range, where
    # _error_bounds' guards act
    i, d, config = case
    i, d = i * 10.0**e_i, d * 10.0**e_d
    capped = FitConfig(min(config.max_lag, len(i) - 1))
    assert _outcome(best_fit, i, d, config) == _outcome(loop_best_fit, i, d, capped)


def bound_cases():
    """(i, d, max_lag): windows of up to 250 days with max_lag up to 249,
    infections a noisy bell after a zero lead, deaths signed, non-negative,
    integer or planted at a pair; then the underflow case above, and a
    600-day window whose U(0, 0) fits exactly (error 0), while its surface
    value is about 12 g dd off: a margin without the aa / den term misses it."""
    rng = np.random.default_rng(2021)
    for k, max_lag in ((250, 249), (250, 40), (120, 119), (30, 35), (5, 4)):
        lead = int(rng.integers(0, k // 4 + 1))
        i = np.concatenate([np.zeros(lead), bell(k - lead) * rng.uniform(0.5, 1.5, k - lead)])
        a = int(rng.integers(0, 8))
        lag = LagDistribution(a, a + int(rng.integers(0, 8)))
        yield i, rng.uniform(-10, 10, k), max_lag
        yield i, rng.uniform(0, 10, k), max_lag
        yield i, rng.integers(-2, 30, k).astype(float), max_lag
        yield i, rng.uniform(1e-3, 1e-2) * shift_expectation(i, lag), max_lag
    yield np.array([1e-100, 0.0, 1.0]), np.array([0.0, 1e-70, 5e-71]), 2
    i = 1 + np.random.default_rng(2).uniform(0, 1, 600)
    yield i, i / 2, 599


def test_error_bounds_contain_every_pair():
    # every pair of a short window; of a long one, each one-lag pair (whose
    # aa / den is largest) and 300 more, drawn once
    rng = np.random.default_rng(7)
    for i, d, max_lag in bound_cases():
        a, b, lo, hi = fit_module._error_bounds(i, d, max_lag)
        pairs = np.arange(len(a))
        if len(pairs) > 600:
            pairs = np.union1d(pairs[a == b], rng.choice(pairs, 300, replace=False))
        for p in pairs:
            fit = fit_module._score(i, d, int(a[p]), int(b[p]))
            if fit is not None:
                assert lo[p] <= fit.error <= hi[p], (len(i), max_lag, a[p], b[p])


# the formulas whose rounding follows the BLAS kernel, and the one function
# each is written in: every other caller goes through it
FORMULA_OWNERS = {"np.convolve": {"shift_expectation_elongated"},
                  "@": {"closed_form_ifr", "error_metric"}}


def _formulas(node):
    for sub in ast.walk(node):
        if isinstance(getattr(sub, "op", None), ast.MatMult):
            yield "@"
        elif isinstance(sub, ast.Call) and ast.unparse(sub.func) == "np.convolve":
            yield "np.convolve"


def test_each_formula_has_one_owner():
    found = {formula: set() for formula in FORMULA_OWNERS}
    for path in Path(ifrlag.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for formula in _formulas(node):
                found[formula].add(getattr(node, "name", "<module>"))
    assert found == FORMULA_OWNERS
