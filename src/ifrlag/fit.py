"""Least-squares fit of a lag-shifted, scaled infection series to deaths.

For a fixed lag law the best vertical scaling has a closed form: the error
sum_j (r * i'_j - d_j)^2 is quadratic in r with unique minimizer
r = (i' . d) / ||i'||^2, and its minimum is ||d||^2 - (i' . d)^2 / ||i'||^2.
The lag pair is the best over every integer a <= b <= min(max_lag, k-1)
for k days: a lag of k days or more lands nothing inside the window, so the
data cannot tell such pairs apart. It is found by a filter and a re-score.
The filter reads every pair's minimum off two surfaces, both from one
(L+1) x k product of suffix lag sums: O(k L^2) arithmetic and O(k L + L^2)
memory (L the lag bound, at most k-1), with a bound on its rounding from
the deaths' norm by Cauchy-Schwarz (infections are counts, never negative).
The per-pair path, the three owners of the formulas (shift_expectation,
closed_form_ifr and error_metric), then scores only the pairs whose
interval reaches the lowest upper bound, so the result is the exhaustive
per-pair search's, bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (FitResult, as_pair, error_metric, require_int, require_nonnegative,
                     require_type)
from .errors import DomainError, ZeroInfectionSeries, ZeroShiftedSeries
from .lagmodel import LagDistribution, shift_expectation


@dataclass(frozen=True)
class FitConfig:
    """Bound on the lag search; best_fit also stops at k-1 for k days."""

    max_lag: int = 50

    def __post_init__(self):
        require_int("max_lag", self.max_lag, 0)


def closed_form_ifr(shifted, d) -> float:
    """Unique minimizer r of sum((r * shifted - d)^2).

    Unconstrained: the result may be negative or exceed 1 if the data
    demand it; callers interpret. A squared norm or a rate past the float
    range raises DomainError.
    """
    ip, dv = as_pair(shifted, d)
    with np.errstate(over="ignore", invalid="ignore"):
        denom, num = float(ip @ ip), float(ip @ dv)
    if denom == 0.0:
        raise ZeroShiftedSeries("shifted series is identically zero")
    r = num / denom
    if not (math.isfinite(denom) and math.isfinite(r)):
        raise DomainError("least-squares rate overflows the float range")
    return r


def _score(iv: np.ndarray, dv: np.ndarray, a: int, b: int) -> FitResult | None:
    """The per-pair path: U(a, b)'s fit, or None when its shift is zero."""
    ip = shift_expectation(iv, LagDistribution(a, b))
    try:
        r = closed_form_ifr(ip, dv)
    except ZeroShiftedSeries:
        return None
    return FitResult(lag_a=a, lag_b=b, ifr=r, error=error_metric(r * ip, dv))


def _surfaces(iv: np.ndarray, dv: np.ndarray, n: int):
    """The suffix lag sums C_a = sum_{l=a}^{n-1} shift_l(i) over days j < k,
    and both surfaces read off them: XR[a] = C_a . d and the summed-area
    table of the lag Gram G[l, l'] = sum_j i[j-l] i[j-l'], flattened,
    R[a * (n+1) + a'] = C_a . C_a' = sum_{l >= a, l' >= a'} G[l, l'], both
    zero-padded at index n.

    With i >= 0 every term of C and of C . C^T is non-negative, so in any
    summation order R[a, a] rounds within g R[a, a], and XR[a] within
    g sum_j |d[j]| C_a[j] <= g sqrt(dd R[a, a]) (Cauchy-Schwarz), g as in
    _error_bounds.
    """
    k = len(iv)
    # row t is shift_{n-1-t}(i), a strided view (sliding_window_view goes
    # through __array_interface__, which left about 1 MiB allocated after
    # some thousand calls); the cumsum's row t is C_{n-1-t}, contiguous, so
    # the products run on it and only their small results are reversed
    C = np.ndarray((n, k), buffer=np.concatenate([np.zeros(n - 1), iv]),
                   strides=(iv.itemsize, iv.itemsize)).cumsum(axis=0)
    R = np.zeros((n + 1, n + 1))
    R[:n, :n] = (C @ C.T)[::-1, ::-1]
    return np.append((C @ dv)[::-1], 0.0), R.ravel()


@functools.lru_cache(maxsize=4)
def _pair_index(n: int, last_a: int):
    """The pairs a <= b <= n-1, a <= last_a, in lexicographic order; their
    ends, rows a and e = b + 1 (the first lag past the pair); and the flat
    indices of their corners R[a, a], R[a, e], R[e, a] and R[e, e], one row
    each. Read-only and cached, since every full window of a sweep has the
    same n and last_a."""
    a, b = np.nonzero(np.arange(n) >= np.arange(last_a + 1)[:, None])
    ends = np.array((a, b + 1))
    corners = ends[[0, 0, 1, 1]] * (n + 1) + ends[[0, 1, 0, 1]]
    for index in (a, b, ends, corners):
        index.flags.writeable = False
    return a, b, ends, corners


def _error_bounds(iv: np.ndarray, dv: np.ndarray, max_lag: int):
    """Pairs (a, b) in lexicographic order and bounds lo <= err <= hi on the
    error err the per-pair path computes for each, for infections iv >= 0.

    The pairs are a <= b <= n-1, n = min(max_lag, k-1) + 1, with
    a <= k-1-f, f the first day with non-zero infections: a larger a shifts
    every infection past the window, which the per-pair path skips.

    With S = sum_{l=a}^{b} shift_l(i) the exact error is dd - (S.d)^2 / S.S,
    and i >= 0 gives S.S <= aa = R[a, a]. The surface has den = S.S within
    g aa and num = S.d within g sqrt(dd aa) (see _surfaces), g bounding the
    relative rounding of any sum here or in the per-pair path 8 times over.
    As (S.d)^2 <= dd S.S (Cauchy-Schwarz), num^2 / den is within
    4 g dd aa / den_lo of (S.d)^2 / S.S, den_lo = den - g aa; dd and the
    per-pair path round within g dd. So lo, hi = dd - num^2 / den -/+ margin
    with margin = g dd (8 + 4 aa / den_lo). They are -inf and inf instead
    where den_lo <= n^2 2^-900 (the per-pair squared norm, (b-a+1)^2 <= n^2
    times smaller, may underflow), where dd <= 2^-900 (so may products with
    d; all-zero deaths tie every pair) or where either side is not finite.
    """
    k = len(iv)
    n = min(max_lag, k - 1) + 1
    last_a = min(n - 1, k - 1 - int(np.flatnonzero(iv)[0]))
    a, b, ends, corners = _pair_index(n, last_a)

    with np.errstate(all="ignore"):
        XR, R = _surfaces(iv, dv, n)
        aa, ae, ea, ee = R.take(corners)
        den = aa - ae - ea + ee
        xa, xe = XR.take(ends)
        num = xa - xe
        dd = float((dv * dv).sum())
        g = 8 * 2.0**-53 * (k + 2 * n + 10)
        den_lo = den - g * aa
        m = dd - num * (num / den)  # num * num may fall below the float range
        margin = g * dd * (8 + 4 * aa / den_lo)
        safe = ((den_lo > n**2 * 2.0**-900) & (dd > 2.0**-900)
                & np.isfinite(m) & np.isfinite(margin))
        return a, b, np.where(safe, m - margin, -np.inf), np.where(safe, m + margin, np.inf)


def best_fit(i, d, config: FitConfig = FitConfig()) -> FitResult:
    """Least-squares Uniform(a, b) lag and scaling over a <= b <= L,
    L = min(max_lag, k-1) for k days; infections must be non-negative.

    Lags of k days or more land nothing inside the window, so the search
    never reaches past it. For each pair the scaling is the closed-form
    minimizer and the error is the squared distance of the scaled truncated
    shift to d. Ties are broken by strict improvement only, so the first
    pair in lexicographic (a, b) order wins. Pairs whose shift is
    identically zero inside the window (all mass pushed past the end) are
    skipped.

    The search filters, then re-scores. _error_bounds brackets the error of
    every pair off two surfaces, both from one (L+1) x k product: O(k L^2)
    arithmetic and O(k L + L^2) memory. Only the pairs whose
    interval reaches the lowest upper bound, usually one, are scored by the
    per-pair path, in lexicographic order with strict improvement, at O(k L)
    each. Every other pair is worse than one of them, so the winner, its
    IFR and its error are the ones the per-pair path gives when it scores
    all pairs.
    """
    require_type("config", config, FitConfig)
    iv, dv = as_pair(i, d)
    require_nonnegative(iv)
    if not (iv > 0).any():
        raise ZeroInfectionSeries("infection series has no positive entry")

    a, b, lo, hi = _error_bounds(iv, dv, config.max_lag)
    best: FitResult | None = None
    for p in np.flatnonzero(lo <= hi.min()):
        fit = _score(iv, dv, int(a[p]), int(b[p]))
        if fit is not None and (best is None or fit.error < best.error):
            best = fit
    if best is None:
        raise ZeroShiftedSeries(
            "every lag pair leaves the shifted series identically zero"
        )
    return best
