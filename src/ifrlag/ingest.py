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
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from .domain import DailySeries, Dataset, require_date, require_type
from .errors import (
    ConfigError,
    DomainError,
    GapUnrepairable,
    IngestError,
    MissingColumn,
    PolicyViolation,
    UnparseableRow,
)

MISSING_TOKENS = {"", "na", "nan", "null", "none"}
COLUMNS = ("date", "cases", "deaths", "tests")  # a dataset CSV's header
FIELDS = COLUMNS[1:]


@dataclass(frozen=True)
class ColumnMapping:
    date_column: str
    cases_column: str
    deaths_column: str
    tests_column: str

    def __post_init__(self):
        names = list(astuple(self))
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
        return json.dumps(asdict(self), allow_nan=False)


def _parse_count(raw: str, field: str, line_no: int) -> float:
    """A cell's whole count, or NaN when the cell is missing."""
    token = raw.strip()
    if token.lower() in MISSING_TOKENS:
        return np.nan
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


def _records(csv_source: bytes):
    """(line it starts on, from 1; cells) for each CSV record; a bad file raises."""
    if not isinstance(csv_source, bytes):
        raise IngestError(f"CSV source must be bytes, got {type(csv_source).__name__}")
    try:
        text = csv_source.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UnparseableRow(f"CSV is not UTF-8: {exc}") from None
    reader, start = csv.reader(io.StringIO(text)), 1
    try:
        for cells in reader:
            yield start, cells
            start = reader.line_num + 1
    except csv.Error as exc:
        raise UnparseableRow(f"line {reader.line_num}: {exc}") from None


def load_dataset(
    csv_source: bytes,
    mapping: ColumnMapping,
    policy: RepairPolicy,
    population: int,
    date_range: tuple[dt.date, dt.date],
    label: str = "",
) -> tuple[Dataset, list[RepairEntry]]:
    """Parse, repair and validate one region's daily series.

    csv_source is the CSV file's bytes. Every row must have its mapped
    cells, a valid date and a date no other row has; cell values are
    checked only for rows inside the range, so junk in irrelevant rows
    (negative corrections a year later, say) cannot sink a load. Returns
    the validated dataset, whose origin is the start of the range,
    together with the ordered repair log.
    """
    require_type("mapping", mapping, ColumnMapping)
    require_type("policy", policy, RepairPolicy)
    try:
        start, end = date_range
    except (TypeError, ValueError):
        raise DomainError(f"date_range must be a (start, end) pair, "
                          f"got {date_range!r}") from None
    require_date("date_range start", start)
    require_date("date_range end", end)
    if end < start:
        raise ConfigError(f"date range end {end} precedes start {start}")
    records = _records(csv_source)
    _, header = next(records, (1, None))
    if header is None:
        raise UnparseableRow("empty CSV: no header row")
    header = [h.strip() for h in header]
    columns = []
    for name in astuple(mapping):
        if name not in header:
            raise MissingColumn(f"column {name!r} not in header {header}")
        columns.append(header.index(name))
    needed = max(columns)

    k = (end - start).days + 1
    table = np.full((k, 3), np.nan)  # cases, deaths, tests; NaN = missing
    seen = set()
    for line_no, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= needed:
            raise UnparseableRow(f"line {line_no}: {len(row)} cells, expected "
                                 f"at least {needed + 1}")
        try:
            day = dt.date.fromisoformat(row[columns[0]].strip())
        except ValueError:
            raise UnparseableRow(
                f"line {line_no}: bad date {row[columns[0]]!r}"
            ) from None
        if day in seen:
            raise UnparseableRow(f"line {line_no}: duplicate date {day}")
        seen.add(day)
        j = (day - start).days
        if 0 <= j < k:
            table[j] = [_parse_count(row[c], field, line_no)
                        for c, field in zip(columns[1:], FIELDS)]

    cases, deaths, tests = table.T  # views: writing them writes the table
    missing = np.isnan(table)
    log = [RepairEntry(day=int(j) + 1, field=FIELDS[f], action="fill_zero", value=0.0)
           for j, f in zip(*np.nonzero(missing[:, :2]))]
    cases[missing[:, 0]] = 0.0
    deaths[missing[:, 1]] = 0.0

    gaps = np.flatnonzero(missing[:, 2])
    if len(gaps):
        if policy.test_gap_fill == "error":
            raise PolicyViolation(
                f"tests missing on day {gaps[0] + 1} with test_gap_fill=error"
            )
        observed = np.flatnonzero(~missing[:, 2])
        if not len(observed):
            raise GapUnrepairable("tests column has no observed values to interpolate")
        if gaps[0] < observed[0] or gaps[-1] > observed[-1]:
            edge = gaps[0] if gaps[0] < observed[0] else gaps[-1]
            raise GapUnrepairable(
                f"tests missing at day {edge + 1} with no flanking observation"
            )
        tests[gaps] = np.interp(gaps, observed, tests[observed])
        log += [RepairEntry(day=int(j) + 1, field="tests", action="interpolate",
                            value=float(tests[j])) for j in gaps]

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


def csv_text(rows) -> str:
    """rows as CSV text, each line ended by CRLF (the csv module's default)."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def dataset_csv(dataset: Dataset) -> str:
    """A dataset as CSV text with the COLUMNS header, which load_dataset reads.

    Reported series must be whole counts on ingest, so fractional synthetic
    values are rounded.
    """
    require_type("dataset", dataset, Dataset)
    rows = [COLUMNS]
    values = zip(dataset.cases.values, dataset.deaths.values, dataset.tests.values)
    for j, (c, d, t) in enumerate(values):
        day = dataset.cases.origin_day + dt.timedelta(days=j)
        c, d, t = round(c), round(d), round(t)
        t = max(t, c)  # rounding must not break cases <= tests
        rows.append([day.isoformat(), str(c), str(d), str(t)])
    return csv_text(rows)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write dataset_csv(dataset) to path."""
    Path(path).write_bytes(dataset_csv(dataset).encode("utf-8"))
