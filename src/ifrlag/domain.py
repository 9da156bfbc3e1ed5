"""Core value types shared by every stage of the pipeline.

Counts are stored as float64 even when they originate as reported integers:
every downstream estimate (infections, expected deaths) is non-integral.
Integrality of reported series is checked at ingest, before widening.

Day indices are 1-based everywhere they are user-facing (errors, reports,
CSV/JSON output); internal numpy arrays are 0-based as usual.
"""
from __future__ import annotations

import datetime as dt
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CasesExceedTests,
    ConfigError,
    DomainError,
    LengthMismatch,
    NegativeValue,
    PopulationExceeded,
)


def as_values(x) -> np.ndarray:
    """Coerce a DailySeries or array-like to a non-empty finite float64 vector."""
    try:
        v = np.asarray(getattr(x, "values", x), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a numeric series: {exc}") from None
    if v.ndim != 1:
        raise DomainError(f"expected a 1-D series, got shape {v.shape}")
    if len(v) < 1:
        raise LengthMismatch("empty series")
    if not np.isfinite(v).all():
        day = int(np.flatnonzero(~np.isfinite(v))[0]) + 1
        raise DomainError(f"non-finite value {v[day - 1]} at day {day}")
    return v


MAX_POPULATION = 2**53  # every integer up to 2**53 is an exact float


def require_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """value, if it is an int (not a bool) in [lo, hi]; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        bounds = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be {bounds}, got {value}")
    return value


def require_type(name: str, value, cls: type):
    """value, if it is an instance of cls; else DomainError."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def require_date(name: str, value) -> dt.date:
    """value, if it is a dt.date and not a dt.datetime; else DomainError."""
    if isinstance(value, dt.datetime) or not isinstance(value, dt.date):
        raise DomainError(f"{name} must be a date, got {value!r}")
    return value


def read_json(path, what: str):
    """The value in the UTF-8 JSON file at path; ConfigError naming what the
    file is when it cannot be read, decoded or parsed, or nests too deeply."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def known_keys(section: dict, name: str, keys) -> dict:
    """section, if it is a dict whose keys are all in keys; else ConfigError."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return section


def require_real(name: str, value, lo: float = -sys.float_info.max,
                 hi: float = sys.float_info.max, *, open_lo: bool = False) -> float:
    """value as a float, if it is an int or a float (not a bool) in [lo, hi],
    or in (lo, hi] when open_lo; else DomainError.

    The comparison runs before any float conversion, so NaN, an infinity and
    an int past the float range are rejected rather than overflowing.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    if not ((lo < value) if open_lo else (lo <= value)) or not value <= hi:
        if hi < sys.float_info.max:
            bounds = f"in {'(' if open_lo else '['}{lo:g}, {hi:g}]"
        elif lo > -sys.float_info.max:
            bounds = f"finite and {'>' if open_lo else '>='} {lo:g}"
        else:
            bounds = "a finite number"
        raise DomainError(f"{name} must be {bounds}, got {value}")
    return float(value)


def require_nonnegative(v: np.ndarray) -> None:
    """Raise NegativeValue naming the first negative entry's 1-based day."""
    if (v < 0).any():
        day = int(np.flatnonzero(v < 0)[0]) + 1
        raise NegativeValue(f"negative value {v[day - 1]} at day {day}")


def as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """as_values of two series that must have the same length."""
    xv, yv = as_values(x), as_values(y)
    if len(xv) != len(yv):
        raise LengthMismatch(f"length {len(xv)} vs {len(yv)}")
    return xv, yv


@dataclass(frozen=True)
class DailySeries:
    """One value per calendar day, starting at origin_day. Immutable."""

    origin_day: dt.date
    values: np.ndarray

    def __post_init__(self):
        require_date("origin_day", self.origin_day)
        v = as_values(self.values)
        require_nonnegative(v)
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def day_index(self, day: dt.date) -> int:
        """1-based index of a calendar date. Dates before origin are rejected."""
        idx = (require_date("day", day) - self.origin_day).days + 1
        if idx < 1:
            raise DomainError(f"{day} precedes series origin {self.origin_day}")
        if idx > len(self):
            raise DomainError(f"{day} is past the end of the series")
        return idx


def require_record(population, label, bounded: str, **series: DailySeries) -> None:
    """Raise on the first broken rule of daily series for one population, each
    named by its field: each a DailySeries, one length and origin, population
    in [1, MAX_POPULATION], a str label, and series[bounded] <= population
    (naming the day)."""
    for name, s in series.items():
        require_type(name, s, DailySeries)
    if len({len(s) for s in series.values()}) > 1:
        raise LengthMismatch("series lengths differ: " + " ".join(
            f"{name}={len(s)}" for name, s in series.items()))
    if len({s.origin_day for s in series.values()}) > 1:
        raise LengthMismatch("series origins differ")
    require_int("population", population, 1, MAX_POPULATION)
    require_type("label", label, str)
    over = np.flatnonzero(series[bounded].values > population)
    if len(over):
        raise PopulationExceeded(
            f"{bounded} exceed population at day {int(over[0]) + 1}")


@dataclass(frozen=True)
class Dataset:
    """Aligned daily cases, deaths and tests for one region.

    Construction checks every invariant and raises a structured error naming
    the first violated one and its 1-based day index. Finite, non-negative
    values are already guaranteed by DailySeries. The rules it shares with
    synth.Scenario are require_record's; cases <= tests is its own.
    """

    cases: DailySeries
    deaths: DailySeries
    tests: DailySeries
    population: int
    label: str = ""

    def __post_init__(self):
        c, t = self.cases, self.tests
        require_record(self.population, self.label, "tests",
                       cases=c, deaths=self.deaths, tests=t)
        over = np.flatnonzero(c.values > t.values)
        if len(over):
            day = int(over[0]) + 1
            raise CasesExceedTests(
                f"cases ({c.values[day - 1]:g}) exceed tests ({t.values[day - 1]:g}) "
                f"at day {day}"
            )

    def __len__(self) -> int:
        return len(self.cases)


@dataclass(frozen=True)
class AntibodyAnchor:
    """Cumulative infections from one serology study: A infected by day ℓ."""

    day_index: int
    infected_count: float

    def __post_init__(self):
        require_int("day_index", self.day_index, 1)
        require_real("infected_count", self.infected_count, 0, open_lo=True)


@dataclass(frozen=True)
class FitResult:
    """Best-fit lag bounds, scaling factor (the IFR) and squared error.

    ifr may be negative: the minimizer is unconstrained and downstream code
    flags rather than clamps (clamping would bias residual bookkeeping).
    """

    lag_a: int
    lag_b: int
    ifr: float
    error: float


def error_metric(x, y) -> float:
    """Sum of squared elementwise differences between two same-length series.

    A sum past the float range raises DomainError.
    """
    xv, yv = as_pair(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = xv - yv
        m = float(diff @ diff)
    if not math.isfinite(m):
        raise DomainError("squared error overflows the float range")
    return m
