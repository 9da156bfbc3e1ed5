"""Back-estimation of daily infections from cases and tests.

Reported cases undercount infections, and the shortfall depends on how much
testing happened that day. The estimator inflates each day's cases by a
power of the test coverage:

    infections[j] = cases[j] / (tests[j] / N) ** (1/m)

with m > 1. When nearly everyone is tested (tests/N near 1) cases approach
infections; when testing is scarce the inflation is large. The exponent m is
the single free parameter and is calibrated so that cumulative estimated
infections through one serology-study day match the study's count, by
bisection (the cumulative sum is strictly decreasing in m whenever any case
day had partial test coverage).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (AntibodyAnchor, DailySeries, Dataset, require_int, require_real,
                     require_type)
from .errors import (CalibrationFailed, DegenerateSeries, DomainError,
                     InfeasibleAnchorHigh, InfeasibleAnchorLow)

M_LO_DEFAULT = 1.0 + 1e-9
M_HI_DEFAULT = 100.0
SUM_TOLERANCE = 1e-6
M_BRACKET_TOLERANCE = 1e-9
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated exponent m and the anchor sum it achieves."""

    m: float
    achieved_sum: float
    anchor: AntibodyAnchor
    iterations: int


def _infections(dataset: Dataset, m: float, days: int) -> np.ndarray:
    """Infection estimates at exponent m for the first `days` days."""
    m = require_real("m", m, 1, open_lo=True)
    cases, tests = dataset.cases.values[:days], dataset.tests.values[:days]
    positive = cases > 0  # Dataset guarantees cases <= tests, so tests > 0 here
    out = np.zeros_like(cases)
    coverage = tests[positive] / float(dataset.population)
    out[positive] = cases[positive] / coverage ** (1.0 / m)
    return out


def estimate_infections(dataset: Dataset, m: float) -> DailySeries:
    """Per-day infection estimates at exponent m.

    Days with zero cases yield zero infections regardless of tests (avoids
    0/0); estimates dominate cases elementwise since tests <= N.
    """
    require_type("dataset", dataset, Dataset)
    return DailySeries(dataset.cases.origin_day, _infections(dataset, m, len(dataset)))


def anchor_sum(dataset: Dataset, m: float, day_index: int) -> float:
    """Cumulative estimated infections through the given 1-based day."""
    require_type("dataset", dataset, Dataset)
    require_int("day_index", day_index, 1, len(dataset))
    return float(_infections(dataset, m, day_index).sum())


def calibrate_m(dataset: Dataset, anchor: AntibodyAnchor) -> CalibrationResult:
    """Bisect m over [M_LO_DEFAULT, M_HI_DEFAULT] to match the serology count.

    Converges when the achieved sum is within 1e-6 relative of the anchor
    and the m bracket has collapsed below 1e-9 (the sum tolerance alone can
    stop early on weakly m-sensitive series). Deterministic. An anchor
    count above the population raises DomainError.
    """
    require_type("dataset", dataset, Dataset)
    require_type("anchor", anchor, AntibodyAnchor)
    ell, target = anchor.day_index, anchor.infected_count
    if target > dataset.population:
        raise DomainError(f"anchor {target:g} exceeds population {dataset.population}")
    m_lo, m_hi = M_LO_DEFAULT, M_HI_DEFAULT
    sum_lo = anchor_sum(dataset, m_lo, ell)  # rejects an anchor day past the end
    sum_hi = anchor_sum(dataset, m_hi, ell)

    cases_through = float(dataset.cases.values[:ell].sum())
    if target <= cases_through:
        raise InfeasibleAnchorLow(
            f"anchor {target:g} <= cumulative cases {cases_through:g} through day "
            f"{ell}; estimated infections can never be fewer than cases"
        )
    if abs(sum_lo - sum_hi) <= 1e-12 * max(sum_lo, 1.0):
        raise DegenerateSeries(
            "anchor sum does not vary with m (full test coverage on all case days)"
        )
    if target > sum_lo * (1.0 + SUM_TOLERANCE):
        raise InfeasibleAnchorHigh(
            f"anchor {target:g} exceeds maximum attainable sum {sum_lo:g} at m={m_lo}"
        )
    if target < sum_hi * (1.0 - SUM_TOLERANCE):
        raise InfeasibleAnchorLow(
            f"anchor {target:g} below attainable sum {sum_hi:g} at m={m_hi}; "
            f"no m <= {m_hi} reaches it"
        )

    lo, hi = m_lo, m_hi
    for iteration in range(1, MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        achieved = anchor_sum(dataset, mid, ell)
        if (
            abs(achieved - target) <= SUM_TOLERANCE * target
            and hi - lo <= M_BRACKET_TOLERANCE
        ):
            return CalibrationResult(mid, achieved, anchor, iteration)
        if achieved > target:
            lo = mid  # sum decreasing in m: root is to the right
        else:
            hi = mid
    raise CalibrationFailed(
        f"bisection did not reach tolerance after {MAX_ITERATIONS} iterations"
    )
