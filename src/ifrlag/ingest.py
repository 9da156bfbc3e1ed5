"""CSV ingestion with configurable column mapping and deterministic repair.

Input is RFC 4180 CSV, UTF-8, header row required, ISO-8601 dates. Rows are
selected by an inclusive date range; dates missing inside the range count as
rows with every field missing and are repaired like any other gap.

Repair rules (all logged):
* missing cases or deaths become 0 (case/death feeds are near-complete, so
  a hole is treated as a zero-report day);
* missing tests are linearly interpolated between the nearest observed
  values, never extrapolated past the first/last observation;
* days where cases exceed tests (including zero-test days with positive
  cases) get tests raised to cases, since the downstream estimator divides
  by test coverage and requires every case to come from a test.

Identical bytes and configuration always produce the identical dataset and
repair log.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import json
from dataclasses import dataclass

import numpy as np

from .domain import DailySeries, Dataset
from .errors import (
    ConfigError,
    GapUnrepairable,
    MissingColumn,
    PolicyViolation,
    UnparseableRow,
)

MISSING_TOKENS = {"", "na", "nan", "null", "none"}


@dataclass(frozen=True)
class ColumnMapping:
    date_column: str
    cases_column: str
    deaths_column: str
    tests_column: str

    def __post_init__(self):
        names = [
            self.date_column,
            self.cases_column,
            self.deaths_column,
            self.tests_column,
        ]
        if len(set(names)) != 4:
            raise ConfigError(f"column names must be distinct, got {names}")


@dataclass(frozen=True)
class RepairPolicy:
    test_gap_fill: str = "interpolate"  # or "error"
    negative_value: str = "reject"
    case_exceeds_test: str = "raise_tests"  # or "error"

    def __post_init__(self):
        if self.test_gap_fill not in ("interpolate", "error"):
            raise ConfigError(f"bad test_gap_fill {self.test_gap_fill!r}")
        if self.negative_value != "reject":
            raise ConfigError(f"bad negative_value {self.negative_value!r}")
        if self.case_exceeds_test not in ("raise_tests", "error"):
            raise ConfigError(f"bad case_exceeds_test {self.case_exceeds_test!r}")


@dataclass(frozen=True)
class RepairEntry:
    day: int  # 1-based within the date range
    field: str
    action: str
    value: float

    def to_json(self) -> str:
        return json.dumps(
            {"day": self.day, "field": self.field, "action": self.action,
             "value": self.value},
            allow_nan=False,
        )


def _parse_count(raw: str, field: str, line_no: int) -> float | None:
    token = raw.strip()
    if token.lower() in MISSING_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError:
        raise UnparseableRow(
            f"line {line_no}: {field} value {raw!r} is not numeric"
        ) from None
    if not np.isfinite(value):
        raise UnparseableRow(f"line {line_no}: {field} value {raw!r} is not finite")
    if value < 0:
        raise PolicyViolation(f"line {line_no}: negative {field} value {value:g}")
    if abs(value - round(value)) > 1e-9 * max(1.0, abs(value)):
        raise UnparseableRow(
            f"line {line_no}: {field} value {raw!r} is not a whole count"
        )
    return float(round(value))


def _read_rows(csv_source, mapping: ColumnMapping) -> dict[dt.date, tuple]:
    """Structural pass: locate columns, parse dates, reject duplicates.

    Cell values stay raw strings here; they are validated later and only
    for rows inside the requested date range, so junk in irrelevant rows
    (negative corrections a year later, say) cannot sink a load.
    """
    if isinstance(csv_source, (str, bytes)):
        data = csv_source.encode() if isinstance(csv_source, str) else csv_source
    else:
        data = csv_source.read()
        if isinstance(data, str):
            data = data.encode()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UnparseableRow(f"CSV is not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise UnparseableRow(f"line {reader.line_num}: {exc}") from None
    if not records:
        raise UnparseableRow("empty CSV: no header row")
    header = [h.strip() for h in records[0]]
    columns = {}
    for name in (mapping.date_column, mapping.cases_column,
                 mapping.deaths_column, mapping.tests_column):
        if name not in header:
            raise MissingColumn(f"column {name!r} not in header {header}")
        columns[name] = header.index(name)
    needed = max(columns.values())

    rows: dict[dt.date, tuple] = {}
    for line_no, row in enumerate(records[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= needed:
            raise UnparseableRow(f"line {line_no}: {len(row)} cells, expected "
                                 f"at least {needed + 1}")
        try:
            day = dt.date.fromisoformat(row[columns[mapping.date_column]].strip())
        except ValueError:
            raise UnparseableRow(
                f"line {line_no}: bad date "
                f"{row[columns[mapping.date_column]]!r}"
            ) from None
        if day in rows:
            raise UnparseableRow(f"line {line_no}: duplicate date {day}")
        rows[day] = (
            line_no,
            row[columns[mapping.cases_column]],
            row[columns[mapping.deaths_column]],
            row[columns[mapping.tests_column]],
        )
    return rows


def _fill_test_gaps(tests: list[float | None], policy: RepairPolicy,
                    log: list[RepairEntry]) -> np.ndarray:
    observed = [j for j, v in enumerate(tests) if v is not None]
    missing = [j for j, v in enumerate(tests) if v is None]
    if not missing:
        return np.asarray(tests, dtype=float)
    if policy.test_gap_fill == "error":
        raise PolicyViolation(
            f"tests missing on day {missing[0] + 1} with test_gap_fill=error"
        )
    if not observed:
        raise GapUnrepairable("tests column has no observed values to interpolate")
    if missing[0] < observed[0] or missing[-1] > observed[-1]:
        edge = missing[0] if missing[0] < observed[0] else missing[-1]
        raise GapUnrepairable(
            f"tests missing at day {edge + 1} with no flanking observation"
        )
    filled = np.array(tests, dtype=float)  # None becomes nan
    filled[missing] = np.interp(missing, observed, filled[observed])
    for j in missing:
        log.append(RepairEntry(day=j + 1, field="tests", action="interpolate",
                               value=float(filled[j])))
    return filled


def load_dataset(
    csv_source,
    mapping: ColumnMapping,
    policy: RepairPolicy,
    population: int,
    date_range: tuple[dt.date, dt.date],
    label: str = "",
) -> tuple[Dataset, list[RepairEntry]]:
    """Parse, repair and validate one region's daily series.

    csv_source is a byte stream (or bytes/str). Returns the validated
    dataset, whose origin is the start of the range, together with the
    ordered repair log.
    """
    start, end = date_range
    if end < start:
        raise ConfigError(f"date range end {end} precedes start {start}")
    rows = _read_rows(csv_source, mapping)

    k = (end - start).days + 1
    days = [start + dt.timedelta(days=j) for j in range(k)]
    raw = []
    for day in days:
        if day in rows:
            line_no, c_raw, d_raw, t_raw = rows[day]
            raw.append((_parse_count(c_raw, "cases", line_no),
                        _parse_count(d_raw, "deaths", line_no),
                        _parse_count(t_raw, "tests", line_no)))
        else:
            raw.append((None, None, None))

    log: list[RepairEntry] = []
    cases = np.zeros(k)
    deaths = np.zeros(k)
    for j, (c, d, _) in enumerate(raw):
        for field, value, target in (("cases", c, cases), ("deaths", d, deaths)):
            if value is None:
                log.append(RepairEntry(day=j + 1, field=field, action="fill_zero",
                                       value=0.0))
                value = 0.0
            target[j] = value

    tests = _fill_test_gaps([r[2] for r in raw], policy, log)

    short = np.flatnonzero(cases > tests)
    for j in short:
        if policy.case_exceeds_test == "error":
            raise PolicyViolation(
                f"cases {cases[j]:g} exceed tests {tests[j]:g} on day {j + 1}"
            )
        tests[j] = cases[j]
        log.append(RepairEntry(day=int(j) + 1, field="tests", action="raise_tests",
                               value=float(cases[j])))

    dataset = Dataset(
        cases=DailySeries(start, cases),
        deaths=DailySeries(start, deaths),
        tests=DailySeries(start, tests),
        population=population,
        label=label,
    )
    return dataset, log


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset as date,cases,deaths,tests CSV, which load_dataset reads.

    Reported series must be whole counts on ingest, so fractional synthetic
    values are rounded.
    """
    rows = zip(dataset.cases.values, dataset.deaths.values, dataset.tests.values)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "cases", "deaths", "tests"])
        for j, (c, d, t) in enumerate(rows):
            day = dataset.cases.origin_day + dt.timedelta(days=j)
            c, d, t = round(c), round(d), round(t)
            t = max(t, c)  # rounding must not break cases <= tests
            writer.writerow([day.isoformat(), str(c), str(d), str(t)])
