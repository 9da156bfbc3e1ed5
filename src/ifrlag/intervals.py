"""Time-varying estimation over consecutive windows with residual carryover.

Deaths observed in a window come from two sources: infections inside the
window ("current" deaths) and late deaths of infections from the previous
window ("residual" deaths). Windows are processed left to right; each
window's fit runs on its deaths minus the incoming residuals. Its elongated
shift, scaled by the fitted rate, is then placed whole from its start day in
one candidate-death buffer padded by k - 1 days, which is cut once, at day k;
the shift's tail past the window end is the window's residual_out. best_fit
never reaches past its window, so residuals span at most one boundary.

The first window necessarily attributes every death to its own infections,
which tends to overestimate its rate; it is flagged rather than corrected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import FitResult, as_pair, require_int, require_nonnegative, require_type
from .errors import FitError, ZeroInfectionWindow
from .fit import FitConfig, best_fit
from .lagmodel import LagDistribution, shift_expectation_elongated

FLAT_DEATHS_VARIANCE_RATIO = 1e-3

WARN_FIRST_WINDOW = "first_window_edge_effect"
WARN_NEGATIVE_ADJUSTED = "negative_adjusted_deaths"
WARN_NEGATIVE_IFR = "negative_ifr"
WARN_FLAT_DEATHS = "flat_deaths_window"
WARN_RESIDUAL_OVERFLOW = "residual_overflow_dropped"
WARN_TRAILING_DROPPED = "trailing_window_dropped"


@dataclass(frozen=True)
class IntervalConfig:
    """Window width, handling of the leftover tail and the lag bound.

    Trailing remainders shorter than min_trailing days are dropped (too few
    days to support a lag grid); longer remainders are fitted like any other
    window. max_lag bounds every window's lag search, which best_fit also
    stops at the window's own length minus one.
    """

    width: int = 50
    min_trailing: int = 10
    max_lag: int = FitConfig().max_lag

    def __post_init__(self):
        require_int("width", self.width, 2)
        require_int("min_trailing", self.min_trailing, 1)
        FitConfig(self.max_lag)


@dataclass(frozen=True)
class WindowResult:
    """One window's fit plus its residual bookkeeping trace."""

    start_day: int  # 1-based, inclusive
    end_day: int  # 1-based, inclusive
    fit: FitResult
    residual_out: np.ndarray
    adjusted_deaths: np.ndarray
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class IntervalReport:
    """Ordered per-window results over contiguous, non-overlapping windows."""

    windows: tuple[WindowResult, ...]
    candidate_deaths: np.ndarray
    warnings: tuple[str, ...]

    def to_rows(self) -> list[dict]:
        return [
            {
                "start_day": w.start_day,
                "end_day": w.end_day,
                "lag_a": w.fit.lag_a,
                "lag_b": w.fit.lag_b,
                "ifr": w.fit.ifr,
                "error": w.fit.error,
                "warnings": list(w.warnings),
            }
            for w in self.windows
        ]


def _is_flat(deaths: np.ndarray) -> bool:
    # ndarray.mean and ndarray.var's steps, without their Python wrappers
    mean = float(deaths.sum()) / len(deaths)
    dev = deaths - mean
    var = float((dev * dev).sum()) / len(deaths)
    return var == 0.0 or var < FLAT_DEATHS_VARIANCE_RATIO * mean * mean


def fit_intervals(i, d, config: IntervalConfig = IntervalConfig()) -> IntervalReport:
    """Windowed fit on infections >= 0 with left-to-right residual-death carryover.

    Each window: subtract the previous window's residuals (by then the only
    candidate deaths in it) from its raw deaths, fit lag and rate on the
    adjusted deaths, then add its own candidate deaths. Negative adjusted
    deaths pass through unclamped (least squares tolerates them; clamping
    would bias the rate upward) and are flagged, as are negative fitted rates
    and near-flat death windows where the lag is poorly identified.
    """
    require_type("config", config, IntervalConfig)
    iv, dv = as_pair(i, d)
    require_nonnegative(iv)
    k, w = len(iv), config.width

    starts = list(range(0, k, w))
    report_warnings: list[str] = []
    tail_days = k - starts[-1]
    if tail_days < w and tail_days < config.min_trailing:
        dropped = starts.pop()
        report_warnings.append(
            f"{WARN_TRAILING_DROPPED}: days {dropped + 1}..{k} "
            f"({tail_days} < {config.min_trailing})"
        )
    if not starts:
        raise FitError(f"series of length {k} leaves no fittable window")

    fit_config = FitConfig(config.max_lag)
    # padded by the longest lag a window can fit (k - 1 days), cut once at k
    candidate = np.zeros(2 * k)
    windows: list[WindowResult] = []
    for n, s in enumerate(starts, start=1):
        e = min(s + w, k)
        i_win = iv[s:e]
        warnings: list[str] = []
        if n == 1:
            warnings.append(WARN_FIRST_WINDOW)

        adjusted = dv[s:e] - candidate[s:e]
        if windows and windows[-1].fit.lag_b > e - s:
            warnings.append(WARN_RESIDUAL_OVERFLOW)
        if (adjusted < 0).any():
            warnings.append(WARN_NEGATIVE_ADJUSTED)
        if _is_flat(adjusted):
            warnings.append(WARN_FLAT_DEATHS)

        if not (i_win > 0).any():
            raise ZeroInfectionWindow(
                f"window {n} (days {s + 1}..{e}) has no positive infections; "
                "start date_range at or after the first reported case, "
                "or use a smaller width"
            )
        try:
            fit = best_fit(i_win, adjusted, fit_config)
        except FitError as exc:
            raise type(exc)(f"window {n} (days {s + 1}..{e}): {exc}") from exc
        if fit.ifr < 0:
            warnings.append(WARN_NEGATIVE_IFR)

        # the scaled elongated shift: current deaths, then lag_b residual days
        full = fit.ifr * shift_expectation_elongated(
            i_win, LagDistribution(fit.lag_a, fit.lag_b)
        )
        candidate[s : s + len(full)] += full

        windows.append(
            WindowResult(
                start_day=s + 1,
                end_day=e,
                fit=fit,
                residual_out=full[e - s :],
                adjusted_deaths=adjusted,
                warnings=tuple(warnings),
            )
        )

    return IntervalReport(
        windows=tuple(windows),
        candidate_deaths=candidate[:k],
        warnings=tuple(report_warnings),
    )
