"""Command-line surface: fit-intervals and simulate.

`fit-intervals` is the whole pipeline: it takes a JSON run configuration
(paths inside it resolve relative to the config file), calibrates m against
the antibody anchor, estimates infections and fits every window. `simulate`
writes a synthetic dataset from a scenario JSON. Both build all their
artifacts in memory and only then write them into the output directory, so
a run that fails before writing leaves that directory as it was. Outputs are
deterministic for identical inputs, config and seed.

Exit codes: 0 success (warnings allowed), 2 input, validation or file-system
error, 3 infeasible calibration, 4 fit failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .domain import AntibodyAnchor, Dataset, known_keys, read_json, require_real
from .errors import CalibrationError, ConfigError, DataError, FitError
from .fit import FitConfig
from .infection import calibrate_m, estimate_infections
from .ingest import (COLUMNS, ColumnMapping, RepairPolicy, csv_text, dataset_csv,
                     load_dataset)
from .intervals import IntervalConfig, IntervalReport, fit_intervals
from .svgchart import line_chart
from .synth import Scenario, generate_observables

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CALIBRATION = 3
EXIT_FIT = 4

# the top-level keys of a run config; "notes" is free text for the reader
KEYS = ("label", "notes", "dataset", "population", "anchor", "date_range",
        "intervals", "max_lag", "output_dir")


@dataclass(frozen=True)
class RunConfig:
    """A run configuration.

    settings is the config JSON with every default filled in and each value
    normalised; report.json echoes it verbatim. Paths resolve relative
    to the config file, but the echo keeps the dataset path as written: the
    dataset's sha256 identifies the data. Each value is checked by the type
    that owns its rule, most of them when the config is read.
    """

    settings: dict
    csv_path: Path
    output_dir: Path
    columns: ColumnMapping
    repair: RepairPolicy
    date_range: tuple[dt.date, dt.date]
    anchor_date: dt.date
    intervals: IntervalConfig

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        path = Path(path)
        data = read_json(path, "config")
        base = path.parent
        try:
            known_keys(data, "config", KEYS)
            ds, anchor, rng = data["dataset"], data["anchor"], data["date_range"]
            known_keys(ds, "dataset", ("path", "columns", "repair"))
            known_keys(anchor, "anchor", ("date", "fraction", "count"))
            known_keys(rng, "date_range", ("start", "end"))
            names = known_keys(ds.get("columns", {}), "dataset.columns", COLUMNS)
            columns = ColumnMapping(*(names.get(k, k) for k in COLUMNS))
            numbers = {k: require_real(f"anchor.{k}", anchor[k]) if k in anchor else None
                       for k in ("fraction", "count")}
            if ("fraction" in anchor) == ("count" in anchor):
                raise ConfigError("anchor: give exactly one of fraction or count")
            repair = RepairPolicy(**ds.get("repair", {}))
            start, end = (dt.date.fromisoformat(rng[k]) for k in ("start", "end"))
            anchor_date = dt.date.fromisoformat(anchor["date"])
            intervals = IntervalConfig(**known_keys(data.get("intervals", {}), "intervals",
                                                    ("width", "min_trailing")),
                                       max_lag=data.get("max_lag", FitConfig().max_lag))
            settings = {
                "label": data.get("label", path.stem),
                "dataset": {
                    "path": ds["path"],
                    "columns": dict(zip(COLUMNS, dataclasses.astuple(columns))),
                    "repair": dataclasses.asdict(repair),
                },
                "population": data["population"],
                "anchor": {"date": anchor_date.isoformat(), **numbers},
                "date_range": {"start": start.isoformat(), "end": end.isoformat()},
                "intervals": {"width": intervals.width,
                              "min_trailing": intervals.min_trailing},
                "max_lag": intervals.max_lag,
            }
            return cls(settings, (base / ds["path"]).resolve(),
                       (base / data.get("output_dir", "out")).resolve(),
                       columns, repair, (start, end), anchor_date, intervals)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _publish(out: Path, files: dict[str, str]) -> None:
    """Write a command's artifacts, {file name: text}, into out.

    Called once, after every artifact is built, so a command that raises
    writes nothing. Every file is staged as out/.<name>.tmp before any is
    moved into place with os.replace: a failed write replaces nothing, a
    failed move keeps the files moved before it, and no .tmp file remains.
    """
    out.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in files.items():
            (out / f".{name}.tmp").write_bytes(text.encode("utf-8"))
        for name in files:
            os.replace(out / f".{name}.tmp", out / name)
    finally:
        for name in files:
            (out / f".{name}.tmp").unlink(missing_ok=True)


def _charts(dataset: Dataset, infections, report: IntervalReport) -> dict[str, str]:
    boundaries = tuple(w.end_day for w in report.windows[:-1])
    return {
        "infections.svg": line_chart(
            f"{dataset.label}: reported cases vs estimated infections",
            [("cases", dataset.cases.values),
             ("estimated infections", infections.values)],
            y_label="people per day",
        ),
        "tests.svg": line_chart(
            f"{dataset.label}: daily tests",
            [("tests", dataset.tests.values)],
            y_label="tests per day",
        ),
        "deaths_fit.svg": line_chart(
            f"{dataset.label}: reported vs fitted deaths",
            [("reported deaths", dataset.deaths.values),
             ("fitted deaths", report.candidate_deaths)],
            y_label="deaths per day",
            day_markers=boundaries,
        ),
    }


def cmd_fit_intervals(config: RunConfig) -> None:
    s = config.settings
    raw = config.csv_path.read_bytes()
    dataset, repairs = load_dataset(raw, config.columns, config.repair,
                                    s["population"], config.date_range, label=s["label"])
    fraction, count = s["anchor"]["fraction"], s["anchor"]["count"]
    count = count if fraction is None else fraction * dataset.population
    calibration = calibrate_m(dataset, AntibodyAnchor(
        dataset.cases.day_index(config.anchor_date), count))
    infections = estimate_infections(dataset, calibration.m)
    report = fit_intervals(infections, dataset.deaths, config.intervals)
    rows = report.to_rows()
    files = {"repairs.jsonl": "".join(e.to_json() + "\n" for e in repairs)}
    files["report.json"] = _json({
        "config": s,
        "provenance": {"tool": "ifrlag", "version": __version__,
                       "dataset_sha256": hashlib.sha256(raw).hexdigest()},
        "calibration": {"m": calibration.m,
                        "achieved_sum": calibration.achieved_sum},
        "windows": rows,
        "series": {
            "cases": dataset.cases.values.tolist(),
            "tests": dataset.tests.values.tolist(),
            "infections": infections.values.tolist(),
            "deaths": dataset.deaths.values.tolist(),
            "candidate_deaths": report.candidate_deaths.tolist(),
        },
        "report_warnings": list(report.warnings),
    })
    files["intervals.csv"] = csv_text([
        ["start_day", "end_day", "lag_a", "lag_b", "ifr", "error", "warnings"],
        *([row["start_day"], row["end_day"], row["lag_a"], row["lag_b"],
           f"{row['ifr']:.10g}", f"{row['error']:.10g}", ";".join(row["warnings"])]
          for row in rows),
    ])
    files |= _charts(dataset, infections, report)
    _publish(config.output_dir, files)

    print(f"{s['label']}: m = {calibration.m:.4f} "
          f"(anchor sum {calibration.achieved_sum:,.0f} at day "
          f"{calibration.anchor.day_index}, {calibration.iterations} iterations)")
    print(f"{'days':>12}  {'lag':>10}  {'IFR':>8}  {'error':>12}  warnings")
    for w in report.windows:
        days = f"{w.start_day}..{w.end_day}"
        lag = f"U({w.fit.lag_a},{w.fit.lag_b})"
        print(f"{days:>12}  {lag:>10}  {w.fit.ifr * 100:7.3f}%  "
              f"{w.fit.error:12.4g}  {';'.join(w.warnings)}")
    for warning in report.warnings:
        print(f"note: {warning}")


def cmd_simulate(scenario_path, output_dir, seed: int, mode: str) -> None:
    scenario = Scenario.from_json(scenario_path)
    dataset = generate_observables(scenario, mode=mode, seed=seed)
    out = Path(output_dir)
    cumulative = np.cumsum(scenario.infections.values)
    _publish(out, {"dataset.csv": dataset_csv(dataset),
                   "ground_truth.json": _json({
                       "scenario": scenario.to_dict(),
                       "mode": mode,
                       "seed": seed,
                       "cumulative_infections": cumulative.tolist(),
                       "total_deaths": float(dataset.deaths.values.sum()),
                   })})
    print(f"wrote {out / 'dataset.csv'} ({len(dataset)} days, mode={mode}, "
          f"seed={seed}) and ground_truth.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifrlag",
        description="Estimate a time-varying infection fatality rate and "
                    "case-to-death lag from daily case/test/death counts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-intervals", help="calibrate m, estimate infections "
                       "and fit lag and IFR per window")
    p.add_argument("--config", required=True, help="run configuration JSON")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("expected", "sampled"), default="expected")
    p.add_argument("--output-dir", default="out/simulated")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.scenario, args.output_dir, args.seed, args.mode)
        else:
            cmd_fit_intervals(RunConfig.from_json(args.config))
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return EXIT_OK
    except BrokenPipeError:
        # the reader of stdout left after every artifact was published. Close
        # stdout, dropping the summary it still buffers, so that the flush at
        # interpreter exit does not fail again with a traceback
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return EXIT_OK
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
