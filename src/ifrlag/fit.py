"""Least-squares fit of a lag-shifted, scaled infection series to deaths.

For a fixed lag law the best vertical scaling has a closed form: the error
sum_j (r * i'_j - d_j)^2 is quadratic in r with unique minimizer
r = (i' . d) / ||i'||^2. The lag parameters themselves are found by
exhaustive search over every integer pair a <= b <= max_lag.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import FitResult, as_pair, require_int
from .errors import DomainError, ZeroInfectionSeries, ZeroShiftedSeries
from .lagmodel import LagDistribution


@dataclass(frozen=True)
class FitConfig:
    """Grid bound for the lag search."""

    max_lag: int = 50

    def __post_init__(self):
        require_int(max_lag=self.max_lag)
        if self.max_lag < 0:
            raise DomainError(f"max_lag must be >= 0, got {self.max_lag}")


def closed_form_ifr(shifted, d) -> float:
    """Unique minimizer r of sum((r * shifted - d)^2).

    Unconstrained: the result may be negative or exceed 1 if the data
    demand it; callers interpret.
    """
    ip, dv = as_pair(shifted, d)
    denom = float(ip @ ip)
    if denom == 0.0:
        raise ZeroShiftedSeries("shifted series is identically zero")
    return float(ip @ dv) / denom


def best_fit(i, d, config: FitConfig = FitConfig()) -> FitResult:
    """Exhaustive search over Uniform(a, b) lags, a <= b <= max_lag.

    For each pair the scaling is the closed-form minimizer and the error is
    the squared distance of the scaled truncated shift to d. Ties are broken
    by strict improvement only, so the first pair visited in lexicographic
    (a, b) order wins. Pairs whose shift is identically zero inside the
    window (all mass pushed past the end) are skipped.
    """
    iv, dv = as_pair(i, d)
    k = len(iv)
    if not np.any(iv > 0):
        raise ZeroInfectionSeries("infection series has no positive entry")

    best: FitResult | None = None
    for a in range(config.max_lag + 1):
        for b in range(a, config.max_lag + 1):
            # shift_expectation(iv, ...) without re-checking iv for every pair
            ip = np.convolve(iv, LagDistribution(a, b).pmf_vector())[:k]
            denom = float(ip @ ip)
            if denom == 0.0:
                continue
            r = float(ip @ dv) / denom
            resid = r * ip - dv
            m = float(resid @ resid)
            if best is None or m < best.error:
                best = FitResult(lag_a=a, lag_b=b, ifr=r, error=m)
    if best is None:
        raise ZeroShiftedSeries(
            "every lag pair leaves the shifted series identically zero"
        )
    return best

