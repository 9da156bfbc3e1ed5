"""Ground-truth scenario generation for round-trip validation.

A scenario fixes the true daily infections, a piecewise-constant fatality
rate and lag law, a test curve and the true case-ascertainment exponent.
From it we can generate the observable dataset (cases via the inverted
coverage relation, deaths by expectation or by per-infection sampling) and
check that every estimator recovers the planted truth.

Sampling uses numpy's PCG64 generator, so identical seeds reproduce
identical output across platforms.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .domain import (MAX_POPULATION, DailySeries, Dataset, as_exponent, known_keys,
                     read_json, require_int, require_number, require_record)
from .errors import ConfigError, DomainError
from .lagmodel import LagDistribution, shift_expectation_elongated

DEFAULT_ORIGIN = dt.date(2020, 3, 1)


@dataclass(frozen=True)
class Regime:
    """Constant fatality rate and lag law over days [start_day, end_day]."""

    start_day: int  # 1-based, inclusive
    end_day: int  # 1-based, inclusive
    ifr: float
    lag: LagDistribution

    def __post_init__(self):
        require_int("start_day", self.start_day, 1)
        require_int("end_day", self.end_day, self.start_day)
        require_number(ifr=self.ifr)
        if not 0.0 <= self.ifr <= 1.0:
            raise DomainError(f"regime ifr {self.ifr} outside [0, 1]")
        object.__setattr__(self, "ifr", float(self.ifr))


@dataclass(frozen=True)
class Scenario:
    """The planted truth: daily infections, fatality regimes, test curve and m.

    require_record checks the record as it does a Dataset's, the test curve
    as its tests. Then the regimes must tile the period, the test curve be
    positive and m_true a finite number > 1.
    """

    infections: DailySeries
    regimes: tuple[Regime, ...]
    population: int
    test_curve: DailySeries
    m_true: float
    label: str = "synthetic"

    def __post_init__(self):
        require_record(self.population, self.label, self.test_curve,
                       infections=self.infections)
        object.__setattr__(self, "regimes", tuple(self.regimes))
        expected_start = 1
        for r in self.regimes:
            if r.start_day != expected_start:
                raise DomainError(
                    f"regimes must tile the period: gap/overlap at day {r.start_day}"
                )
            expected_start = r.end_day + 1
        k = len(self.infections)
        if expected_start != k + 1:
            raise DomainError(f"regimes end at day {expected_start - 1}, need {k}")
        if np.any(self.test_curve.values <= 0):
            raise DomainError("test curve must be positive")
        object.__setattr__(self, "m_true", as_exponent("m_true", self.m_true))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "origin_day": self.infections.origin_day.isoformat(),
            "population": self.population,
            "m_true": self.m_true,
            "infections": self.infections.values.tolist(),
            "test_curve": self.test_curve.values.tolist(),
            "regimes": [
                {
                    "start_day": r.start_day,
                    "end_day": r.end_day,
                    "ifr": r.ifr,
                    "lag": {"kind": "uniform", "a": r.lag.a, "b": r.lag.b},
                }
                for r in self.regimes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of to_dict; ConfigError for a missing key or a wrong shape."""
        known_keys(data, "scenario", ("label", "origin_day", "population", "m_true",
                                      "infections", "test_curve", "regimes"))
        try:
            origin = dt.date.fromisoformat(data["origin_day"])
            regimes = []
            for r in data["regimes"]:
                known_keys(r, "regime", ("start_day", "end_day", "ifr", "lag"))
                known_keys(r["lag"], "lag", ("kind", "a", "b"))
                kind = r["lag"].get("kind", "uniform")
                if kind != "uniform":
                    raise DomainError(f"unsupported lag kind {kind!r}")
                regimes.append(Regime(r["start_day"], r["end_day"], r["ifr"],
                                      LagDistribution(r["lag"]["a"], r["lag"]["b"])))
            return cls(
                infections=DailySeries(origin, data["infections"]),
                regimes=regimes,
                population=data["population"],
                test_curve=DailySeries(origin, data["test_curve"]),
                m_true=data["m_true"],
                label=data.get("label", "synthetic"),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "Scenario":
        """from_dict of a JSON file; ConfigError if it cannot be read or parsed."""
        return cls.from_dict(read_json(path, "scenario"))


def two_peak_curve(k: int, total: float, peaks=(0.18, 0.66),
                   widths=(0.10, 0.14), mix=(0.45, 0.55)) -> np.ndarray:
    """Smooth two-peak daily curve with the given total mass.

    Peak positions and widths are fractions of the period length. The
    defaults put substantial mass in every fifth of the period, so each
    window of a five-window split carries a statistically useful signal.
    Any non-negative series works.
    """
    days = np.arange(k, dtype=float)
    curve = np.zeros(k)
    for pos, width, weight in zip(peaks, widths, mix):
        center, sigma = pos * k, max(width * k, 1.0)
        curve += weight * np.exp(-0.5 * ((days - center) / sigma) ** 2)
    return total * curve / curve.sum()


def ramp_test_curve(k: int, population: int) -> np.ndarray:
    """Daily tests ramping from 0.04% to 1.2% of the population per day."""
    frac = np.geomspace(0.0004, 0.012, k)
    return np.clip(frac * population, 1.0, float(population))


def default_scenario(
    k: int = 250,
    window: int = 50,
    ifrs=(0.0068, 0.0056, 0.0037, 0.0024, 0.0024),
    lag: LagDistribution = LagDistribution(4, 12),
    population: int = 50_000_000,
    total_infections: float = 5e6,
    m_true: float = 3.3,
) -> Scenario:
    """Two-peak scenario with one fatality regime per window, from DEFAULT_ORIGIN."""
    require_int("k", k, 1)
    require_int("window", window, 1)
    require_int("population", population, 1, MAX_POPULATION)
    require_number(total_infections=total_infections)
    n_regimes = (k + window - 1) // window
    if len(ifrs) != n_regimes:
        raise DomainError(f"need {n_regimes} regime rates for k={k}, w={window}")
    regimes = tuple(
        Regime(
            start_day=n * window + 1,
            end_day=min((n + 1) * window, k),
            ifr=float(ifrs[n]),
            lag=lag,
        )
        for n in range(n_regimes)
    )
    return Scenario(
        infections=DailySeries(DEFAULT_ORIGIN, two_peak_curve(k, total_infections)),
        regimes=regimes,
        population=population,
        test_curve=DailySeries(DEFAULT_ORIGIN, ramp_test_curve(k, population)),
        m_true=m_true,
    )


def generate_deaths(scenario: Scenario, mode: str = "expected",
                    seed: int = 0) -> DailySeries:
    """Daily deaths implied by the scenario, truncated to the period.

    expected: per-regime elongated expectation shift scaled by the regime
    rate, regimes summed. sampled: infections are rounded to integers, each
    draws a Bernoulli(ifr) death and each death an integer lag from the
    regime's law; deterministic per seed (PCG64), and a zero count or zero
    rate draws nothing from the stream. Both modes fill one buffer padded by
    the longest lag and cut it once, at day k: later deaths are unobserved.
    """
    k = len(scenario.infections)
    iv = scenario.infections.values
    out = np.zeros(k + max(r.lag.b for r in scenario.regimes))
    if mode == "expected":
        for r in scenario.regimes:
            s = r.start_day - 1
            full = r.ifr * shift_expectation_elongated(iv[s : r.end_day], r.lag)
            out[s : s + len(full)] += full
    elif mode == "sampled":
        rng = np.random.default_rng(require_int("seed", seed, 0))
        counts = np.rint(iv).astype(np.int64)
        for r in scenario.regimes:
            for day in range(r.start_day - 1, r.end_day):
                n_deaths = rng.binomial(counts[day], r.ifr)
                lags = rng.integers(r.lag.a, r.lag.b + 1, size=n_deaths)
                out += np.bincount(day + lags, minlength=len(out))
    else:
        raise DomainError(f"unknown mode {mode!r}; use 'expected' or 'sampled'")
    return DailySeries(scenario.infections.origin_day, out[:k])


def generate_observables(scenario: Scenario, mode: str = "expected",
                         seed: int = 0) -> Dataset:
    """Observable dataset consistent with the scenario's ground truth.

    Cases invert the coverage relation at m_true:
    cases[j] = infections[j] * (tests[j]/N) ** (1/m_true), so estimating
    infections back at m_true divides by the same factor and returns each
    day's truth to within one ulp, not exactly: the product and the
    quotient each round.
    """
    iv = scenario.infections.values
    coverage = scenario.test_curve.values / float(scenario.population)
    cases = iv * coverage ** (1.0 / scenario.m_true)
    origin = scenario.infections.origin_day
    return Dataset(
        cases=DailySeries(origin, cases),
        deaths=generate_deaths(scenario, mode=mode, seed=seed),
        tests=scenario.test_curve,
        population=scenario.population,
        label=scenario.label,
    )
