"""Discrete lag laws and the expected-value time-shift operators.

A lag of ℓ days moves a unit of the input series from day j to day j+ℓ.
Shifting a whole series by a random lag L and taking expectations per day
is a discrete convolution of the series with the pmf of L.

Two variants exist on purpose and must not be conflated:

* the truncated shift keeps the output the same length as the input, so
  mass shifted past the last day is dropped (this is what the window fit
  compares against observed deaths);
* the elongated shift extends the output by the maximum lag, conserving
  total mass exactly (this is what residual-death bookkeeping needs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import as_values, require_int, require_type


@dataclass(frozen=True)
class LagDistribution:
    """Discrete uniform lag law on the integer days {a, ..., b}."""

    a: int
    b: int

    def __post_init__(self):
        require_int("lag.a", self.a, 0)
        require_int("lag.b", self.b, self.a)

    def pmf_vector(self) -> np.ndarray:
        """pmf over lags 0..b as a dense vector (sums to 1)."""
        v = np.zeros(self.b + 1)
        v[self.a :] = 1.0 / (self.b - self.a + 1)
        return v


def shift_expectation(i, lag: LagDistribution) -> np.ndarray:
    """Expected shifted series, truncated to the input length.

    out[j] = sum_w i[w] * P(L = j - w); mass landing past the last input
    day is dropped.
    """
    out = shift_expectation_elongated(i, lag)
    return out[: len(out) - lag.b]


def shift_expectation_elongated(i, lag: LagDistribution) -> np.ndarray:
    """Expected shifted series extended by lag.b days; conserves total mass.

    The output has len(i) + lag.b entries.
    """
    require_type("lag", lag, LagDistribution)
    return np.convolve(as_values(i), lag.pmf_vector())
