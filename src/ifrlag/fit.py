"""Least-squares fit of a lag-shifted, scaled infection series to deaths.

For a fixed lag law the best vertical scaling has a closed form: the error
sum_j (r * i'_j - d_j)^2 is quadratic in r with unique minimizer
r = (i' . d) / ||i'||^2, and its minimum is ||d||^2 - (i' . d)^2 / ||i'||^2.
The lag pair is the best over every integer a <= b <= min(max_lag, k-1)
for k days: a lag of k days or more lands nothing inside the window, so the
data cannot tell such pairs apart. It is found by a filter and a re-score.
The filter reads every pair's minimum off summed-area tables of lag sums in
O(k L + L^2) time and memory (L the lag bound, at most k-1), with a bound
on its rounding from the deaths' norm by Cauchy-Schwarz (infections are
counts, never negative). The per-pair path, the three owners of the
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
    """Suffix sums over the lags l, l' < n of x_l = sum_j d[j] i[j-l] and of
    the lag Gram G[l, l'] = sum_j i[j-l] i[j-l'] (days j < k).

    Returns XR[a] = sum_{l >= a} x_l and the summed-area table, flattened,
    R[a * (n+1) + a'] = sum_{l >= a, l' >= a'} G[l, l'], both zero-padded at
    index n. Summed from the long lags, with i >= 0, R[a, a] rounds within
    g R[a, a] and XR[a] within g sum_j |d[j]| S_a[j] <= g sqrt(dd R[a, a])
    (Cauchy-Schwarz), S_a = sum_{l >= a} shift_l(i), g as in _error_bounds.
    """
    k = len(iv)

    def later(x):
        """later(x)[t, j] = x[j + t], zero past the end, as a strided view
        (sliding_window_view goes through __array_interface__, which left
        about 1 MiB allocated after some thousand calls)."""
        return np.ndarray((n, k), buffer=np.concatenate([x, np.zeros(n)]),
                          strides=(x.itemsize, x.itemsize))

    XR = np.append((later(dv) * iv).sum(axis=1)[::-1].cumsum()[::-1], 0.0)
    # i[j + t] i[j], summed over j <= m in place: csum[t, m], so that
    # G[l, l'] = csum[|l - l'|, k - 1 - max(l, l')]
    csum = later(iv) * iv
    np.cumsum(csum, axis=1, out=csum)
    lags = np.arange(n)
    gram = np.take(csum, abs(lags[:, None] - lags) * k + k - 1
                   - np.maximum(lags[:, None], lags))
    R = np.zeros((n + 1, n + 1))
    R[:n, :n] = gram[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    return XR, R.ravel()


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
    a, b = np.nonzero(np.arange(n) >= np.arange(last_a + 1)[:, None])
    e = b + 1
    corners = (a * (n + 1) + a, a * (n + 1) + e, e * (n + 1) + a, e * (n + 1) + e)

    with np.errstate(all="ignore"):
        XR, R = _surfaces(iv, dv, n)
        aa, ae, ea, ee = (np.take(R, c) for c in corners)
        den = aa - ae - ea + ee
        num = np.take(XR, a) - np.take(XR, e)
        dd = float(np.sum(dv * dv))
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
