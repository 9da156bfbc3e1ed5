"""Least-squares fit of a lag-shifted, scaled infection series to deaths.

For a fixed lag law the best vertical scaling has a closed form: the error
sum_j (r * i'_j - d_j)^2 is quadratic in r with unique minimizer
r = (i' . d) / ||i'||^2, and its minimum is ||d||^2 - (i' . d)^2 / ||i'||^2.
The lag pair is the best over every integer a <= b <= min(max_lag, k-1)
for k days: a lag of k days or more lands nothing inside the window, so the
data cannot tell such pairs apart. It is found by a filter and a re-score.
The filter reads every pair's minimum, with a bound on its rounding from
the same sums over |d| (infections are counts, never negative), off
summed-area tables of lag sums in O(k L + L^2) time and memory (L the lag
bound, at most k-1). The per-pair path, the three owners of the
formulas (shift_expectation, closed_form_ifr and error_metric), then scores
only the pairs whose interval reaches the lowest upper bound, so the result
is the exhaustive per-pair search's, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import FitResult, as_pair, error_metric, require_int, require_nonnegative
from .errors import DomainError, ZeroInfectionSeries, ZeroShiftedSeries
from .lagmodel import LagDistribution, shift_expectation


@dataclass(frozen=True)
class FitConfig:
    """Bound on the lag search; best_fit also stops at k-1 for k days."""

    max_lag: int = 50

    def __post_init__(self):
        require_int(max_lag=self.max_lag)
        if self.max_lag < 0:
            raise DomainError(f"max_lag must be >= 0, got {self.max_lag}")


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
    """Suffix sums over the lags l, l' < n of x_l = sum_j d[j] i[j-l] and of
    the lag Gram G[l, l'] = sum_j i[j-l] i[j-l'] (days j < k).

    Returns XR[a] = sum_{l >= a} x_l, the same over |d| (XR bit for bit when
    d >= 0) and the summed-area table, flattened,
    R[a * (n+1) + a'] = sum_{l >= a, l' >= a'} G[l, l'], all zero-padded at
    index n. Summing from the long lags keeps a block's rounding relative to
    the Gram entries of the lags at and after it, which are the smaller ones.
    """
    k = len(iv)

    def later(x):
        """later(x)[t, j] = x[j + t], zero past the end, as a strided view
        (sliding_window_view goes through __array_interface__, which left
        about 1 MiB allocated after some thousand calls)."""
        return np.ndarray((n, k), buffer=np.concatenate([x, np.zeros(n)]),
                          strides=(x.itemsize, x.itemsize))

    XR = np.zeros((2, n + 1))  # x_l = sum_j d[j+l] i[j], then over |d|
    for row, x in zip(XR, (dv, abs(dv))):
        row[:n] = (later(x) * iv).sum(axis=1)[::-1].cumsum()[::-1]
    # i[j + t] i[j], summed over j <= m in place: csum[t, m], so that
    # G[l, l'] = csum[|l - l'|, k - 1 - max(l, l')]
    csum = later(iv) * iv
    np.cumsum(csum, axis=1, out=csum)
    lags = np.arange(n)
    gram = np.take(csum, abs(lags[:, None] - lags) * k + k - 1
                   - np.maximum(lags[:, None], lags))
    R = np.zeros((n + 1, n + 1))
    R[:n, :n] = gram[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    return XR[0], XR[1], R.ravel()


def _error_bounds(iv: np.ndarray, dv: np.ndarray, max_lag: int):
    """Pairs (a, b) in lexicographic order and bounds lo <= m <= hi on the
    error m the per-pair path computes for each, for infections iv >= 0.

    The pairs are a <= b <= n-1, n = min(max_lag, k-1) + 1, with
    a <= k-1-f, f the first day with non-zero infections: a larger a shifts
    every infection past the window, which the per-pair path skips. A pair
    whose surface value may have under- or overflowed gets lo = -inf,
    hi = inf.
    """
    k = len(iv)
    n = min(max_lag, k - 1) + 1
    last_a = min(n - 1, k - 1 - int(np.flatnonzero(iv)[0]))
    a, b = np.nonzero(np.arange(n) >= np.arange(last_a + 1)[:, None])
    e = b + 1
    corners = (a * (n + 1) + a, a * (n + 1) + e, e * (n + 1) + a, e * (n + 1) + e)

    with np.errstate(all="ignore"):
        XR, XRa, R = _surfaces(iv, dv, n)
        aa, ae, ea, ee = (np.take(R, c) for c in corners)
        den = aa - ae - ea + ee
        num = np.take(XR, a) - np.take(XR, e)
        # |d| bounds every rounding below; i >= 0 is its own absolute value
        num_abs = np.take(XRa, a) - np.take(XRa, e)
        dd = float(np.sum(dv * dv))
        # g: the relative rounding of every sum here and in the per-pair path,
        # 8 times over; tiny: products that fall below the normal range
        g = 8 * 2.0**-53 * (k + 2 * n + 10)
        tiny = 8 * (k + 2 * n + 10) * 2.0**-1022
        # the exact minimum dd - num^2 / den, with num and den known to within
        # err_num and err_den, lies in [dd (1-g) - q_hi, dd (1+g) - q_lo]
        err_num = g * np.take(XRa, a) + tiny
        err_den = g * aa
        den_lo = den - err_den
        q_hi = (abs(num) + err_num) ** 2 / den_lo
        q_lo = np.maximum(abs(num) - err_num, 0.0) ** 2 / (den + err_den)
        # the per-pair path's own rounding, of its residual sum, its shifted
        # series and its scaling; with i >= 0, rho is only a shade over 1
        rho = (den + err_den) / den_lo
        slack = (g * dd * (2 + 4 * np.sqrt(rho))
                 + g * g * ((num_abs + err_num) ** 2 / den_lo + dd) + tiny)
        lo = dd * (1 - g) - q_hi - slack
        hi = dd * (1 + g) - q_lo + slack
        # the per-pair path's squared norm is (b-a+1)^2 <= n^2 times smaller
        # than den: this far from underflow, it comes out non-zero
        safe = ((den_lo > n**2 * 2.0**-900)
                & np.isfinite(lo) & np.isfinite(hi))
    return a, b, np.where(safe, lo, -np.inf), np.where(safe, hi, np.inf)


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
    every pair in O(k L + L^2) time and memory. Only the pairs whose
    interval reaches the lowest upper bound, usually one, are scored by the
    per-pair path, in lexicographic order with strict improvement, at O(k L)
    each. Every other pair is worse than one of them, so the winner, its
    IFR and its error are the ones the per-pair path gives when it scores
    all pairs.
    """
    iv, dv = as_pair(i, d)
    require_nonnegative(iv)
    if not np.any(iv > 0):
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
