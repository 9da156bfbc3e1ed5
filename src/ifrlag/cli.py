"""Command-line surface: calibrate, fit, fit-intervals, estimate-infections,
simulate.

Every command takes a JSON run configuration (paths inside it resolve
relative to the config file), builds all its artifacts in memory and only
then writes them into the configured output directory, so a run that fails
before writing leaves that directory as it was. Outputs are deterministic
for identical inputs, config and seed.

Exit codes: 0 success (warnings allowed), 2 input, validation or file-system
error, 3 infeasible calibration, 4 fit failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .domain import Dataset, anchor_from_study, require_int
from .errors import CalibrationError, ConfigError, DataError, DomainError, FitError
from .fit import FitConfig, best_fit
from .infection import calibrate_m, estimate_infections
from .ingest import ColumnMapping, RepairPolicy, load_dataset, write_dataset_csv
from .intervals import IntervalConfig, IntervalReport, fit_intervals
from .svgchart import line_chart
from .synth import Scenario, generate_observables

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CALIBRATION = 3
EXIT_FIT = 4

COLUMNS = ("date", "cases", "deaths", "tests")


def _iso_date(value) -> str:
    return dt.date.fromisoformat(value).isoformat()


@dataclass(frozen=True)
class RunConfig:
    """A run configuration.

    settings is the config JSON with every default filled in and each value
    normalised; the JSON artifacts echo it verbatim. Paths resolve relative
    to the config file, but the echo keeps the dataset path as written: the
    dataset's sha256 identifies the data.
    """

    settings: dict
    csv_path: Path
    output_dir: Path

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        base = path.parent
        try:
            ds, anchor, rng = data["dataset"], data["anchor"], data["date_range"]
            columns, repair = ds.get("columns", {}), ds.get("repair", {})
            intervals = data.get("intervals", {})
            settings = {
                "label": data.get("label", path.stem),
                "dataset": {
                    "path": ds["path"],
                    "columns": {k: columns.get(k, k) for k in COLUMNS},
                    "repair": {k: repair.get(k, v) for k, v
                               in dataclasses.asdict(RepairPolicy()).items()},
                },
                "population": data["population"],
                "anchor": {
                    "date": _iso_date(anchor["date"]),
                    "fraction": (
                        float(anchor["fraction"]) if "fraction" in anchor else None
                    ),
                    "count": float(anchor["count"]) if "count" in anchor else None,
                },
                "date_range": {"start": _iso_date(rng["start"]),
                               "end": _iso_date(rng["end"])},
                "intervals": {k: intervals.get(k, getattr(IntervalConfig(), k))
                              for k in ("width", "min_trailing")},
                "max_lag": data.get("max_lag", FitConfig().max_lag),
            }
            # JSON integers only: no fraction, float or true/false
            require_int(population=settings["population"],
                        max_lag=settings["max_lag"],
                        **{f"intervals.{k}": v for k, v in settings["intervals"].items()})
            cfg = cls(settings, (base / ds["path"]).resolve(),
                      (base / data.get("output_dir", "out")).resolve())
        except (AttributeError, DomainError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
        anchor, rng = settings["anchor"], settings["date_range"]
        if not rng["start"] <= anchor["date"] <= rng["end"]:  # ISO dates sort as text
            raise ConfigError(
                f"anchor date {anchor['date']} outside range "
                f"[{rng['start']}, {rng['end']}]"
            )
        if (anchor["fraction"] is None) == (anchor["count"] is None):
            raise ConfigError("anchor needs exactly one of fraction or count")
        return cfg

    @property
    def label(self) -> str:
        return self.settings["label"]


def _prepare(config: RunConfig, m: float | None = None):
    """The front of every config command: load, log repairs, calibrate, estimate.

    Calibrates m against the antibody anchor unless m is given, and estimates
    infections at m. Returns the dataset, the calibration (None when m is
    given), the infections, the head every JSON artifact starts from
    (config, provenance and, when calibrated, calibration) and the files
    built so far: the repair log.
    """
    s = config.settings
    columns, anchor, rng = s["dataset"]["columns"], s["anchor"], s["date_range"]
    raw = config.csv_path.read_bytes()
    dataset, repairs = load_dataset(
        raw,
        ColumnMapping(*(columns[k] for k in COLUMNS)),
        RepairPolicy(**s["dataset"]["repair"]),
        s["population"],
        (dt.date.fromisoformat(rng["start"]), dt.date.fromisoformat(rng["end"])),
        label=s["label"],
    )
    files = {"repairs.jsonl": "".join(e.to_json() + "\n" for e in repairs)}
    head = {"config": s,
            "provenance": {"tool": "ifrlag", "version": __version__,
                           "dataset_sha256": hashlib.sha256(raw).hexdigest()}}
    calibration = None
    if m is None:
        calibration = calibrate_m(dataset, anchor_from_study(
            dataset, dt.date.fromisoformat(anchor["date"]),
            fraction=anchor["fraction"], count=anchor["count"]))
        m = calibration.m
        head["calibration"] = {"m": calibration.m,
                               "achieved_sum": calibration.achieved_sum}
    return dataset, calibration, estimate_infections(dataset, m), head, files


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


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


def cmd_calibrate(config: RunConfig) -> None:
    _, result, _, head, files = _prepare(config)
    head["calibration"] |= {"anchor_day": result.anchor.day_index,
                            "anchor_count": result.anchor.infected_count,
                            "iterations": result.iterations}
    files["calibration.json"] = _json(head)
    _publish(config.output_dir, files)
    print(f"{config.label}: m = {result.m:.4f} "
          f"(anchor sum {result.achieved_sum:,.0f} at day {result.anchor.day_index},"
          f" {result.iterations} iterations)")


def cmd_fit(config: RunConfig) -> None:
    fit_config = FitConfig(max_lag=config.settings["max_lag"])
    dataset, _, infections, head, files = _prepare(config)
    fit = best_fit(infections, dataset.deaths, fit_config)
    files["fit.json"] = _json({
        **head,
        "fit": {
            "lag_a": fit.lag_a,
            "lag_b": fit.lag_b,
            "mean_lag": fit.mean_lag,
            "ifr": fit.ifr,
            "error": fit.error,
        },
    })
    _publish(config.output_dir, files)
    print(f"{config.label}: lag Uniform({fit.lag_a},{fit.lag_b}) "
          f"mean {fit.mean_lag:.1f} d, IFR {fit.ifr * 100:.3f}%, "
          f"error {fit.error:,.1f}")


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
    interval_config = IntervalConfig(**s["intervals"], max_lag=s["max_lag"])
    dataset, calibration, infections, head, files = _prepare(config)
    report = fit_intervals(infections, dataset.deaths, interval_config)
    rows = report.to_rows()
    files["report.json"] = _json({
        **head,
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
    files["intervals.csv"] = _csv([
        ["start_day", "end_day", "lag_a", "lag_b", "ifr", "error", "warnings"],
        *([row["start_day"], row["end_day"], row["lag_a"], row["lag_b"],
           f"{row['ifr']:.10g}", f"{row['error']:.10g}", ";".join(row["warnings"])]
          for row in rows),
    ])
    files |= _charts(dataset, infections, report)
    _publish(config.output_dir, files)

    print(f"{config.label}: m = {calibration.m:.4f}")
    print(f"{'days':>12}  {'lag':>10}  {'IFR':>8}  {'error':>12}  warnings")
    for w in report.windows:
        days = f"{w.start_day}..{w.end_day}"
        lag = f"U({w.fit.lag_a},{w.fit.lag_b})"
        print(f"{days:>12}  {lag:>10}  {w.fit.ifr * 100:7.3f}%  "
              f"{w.fit.error:12.4g}  {';'.join(w.warnings)}")
    for warning in report.warnings:
        print(f"note: {warning}")


def cmd_estimate_infections(config: RunConfig, m: float) -> None:
    dataset, _, infections, _, files = _prepare(config, m)
    files["infections.csv"] = _csv([
        ["day", "date", "cases", "tests", "infections"],
        *([j + 1, dataset.cases.date_of(j + 1).isoformat(),
           f"{dataset.cases.values[j]:.0f}",
           f"{dataset.tests.values[j]:.0f}",
           f"{infections.values[j]:.6f}"]
          for j in range(len(dataset))),
    ])
    _publish(config.output_dir, files)
    total_c, total_i = dataset.cases.values.sum(), infections.values.sum()
    print(f"{config.label}: m = {m:g}, total cases {total_c:,.0f}, "
          f"estimated infections {total_i:,.0f} (x{total_i / max(total_c, 1):.2f})")


def cmd_simulate(scenario_path, output_dir, seed: int, mode: str) -> None:
    try:
        scenario = Scenario.from_json(scenario_path)
    except (OSError, AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"cannot read scenario {scenario_path}: {exc}") from exc
    dataset = generate_observables(scenario, mode=mode, seed=seed)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(dataset, out / "dataset.csv")
    cumulative = np.cumsum(scenario.infections.values)
    _publish(out, {"ground_truth.json": _json({
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

    for name, help_text in (
        ("calibrate", "calibrate the case-ascertainment exponent m"),
        ("fit", "whole-period lag and IFR fit"),
        ("fit-intervals", "windowed lag and IFR fit with residual carryover"),
        ("estimate-infections", "emit the infection estimates at a fixed m"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration JSON")
        if name == "estimate-infections":
            p.add_argument("--m", type=float, required=True,
                           help="ascertainment exponent (> 1)")

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
            config = RunConfig.from_json(args.config)
            if args.command == "fit-intervals":
                cmd_fit_intervals(config)
            elif args.command == "calibrate":
                cmd_calibrate(config)
            elif args.command == "fit":
                cmd_fit(config)
            elif args.command == "estimate-infections":
                cmd_estimate_infections(config, args.m)
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
