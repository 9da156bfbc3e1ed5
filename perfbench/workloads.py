"""The benchmark's workloads: inputs built from the seed, one op, and the
per-op correctness gate.

Each workload is a closed loop with one client and one op in flight:
`setup()` builds the inputs (timed, and repeated to report a median),
`op(i, tracer)` runs op number i and returns an Outcome. Only the library
calls, or the CLI process, sit inside an op's timed region; gates run
after it.
"""
from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ifrlag import fit, intervals, synth
from ifrlag.domain import DailySeries
from ifrlag.ingest import write_dataset_csv
from ifrlag.lagmodel import LagDistribution
from spans import Tracer, recording

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"

# The criterion-7 scenario: five 50-day regimes, lag U(4,12), 1e8 infections.
IFRS = (0.0068, 0.0056, 0.0037, 0.0024, 0.0024)
LAG = LagDistribution(4, 12)


@dataclass(frozen=True)
class Outcome:
    seconds: float
    ok: bool  # passed the correctness gate
    recovered: bool  # estimates within the workload's tolerance of the truth
    why: str = ""


def criterion7_scenario() -> synth.Scenario:
    return synth.default_scenario(k=250, window=50, ifrs=IFRS, lag=LAG,
                                  total_infections=1e8, population=500_000_000)


def recovered(ifrs, tolerance: float) -> bool:
    """Every window's IFR within `tolerance` (relative) of the planted one."""
    return len(ifrs) == len(IFRS) and all(
        abs(f - t) <= tolerance * t for f, t in zip(ifrs, IFRS))


class WindowSweep:
    """Fresh sampled deaths on the criterion-7 scenario, then fit_intervals."""

    name = "window_sweep"
    in_process = True
    tolerance = 0.05  # criterion 7's rule

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.scenario = criterion7_scenario()
        self.infections = self.scenario.infections.values
        self.config = intervals.IntervalConfig(width=50)

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        op_seed = self.seed * 1_000_000 + i
        with recording(tracer, i):
            start = time.perf_counter()
            deaths = synth.generate_deaths(self.scenario, "sampled", seed=op_seed)
            report = intervals.fit_intervals(self.infections, deaths.values, self.config)
            seconds = time.perf_counter() - start
        ifrs = [w.fit.ifr for w in report.windows]
        ok = len(ifrs) == 5 and all(np.isfinite(f) and f > 0 for f in ifrs)
        return Outcome(seconds, ok, ok and recovered(ifrs, self.tolerance),
                       "" if ok else f"op seed {op_seed}: window IFRs {ifrs}")


class GridStress:
    """Whole-period best_fit on a 1,000-day expected-mode series, max_lag 100."""

    name = "grid_stress"
    in_process = True
    days = 1000
    max_lag = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.ifr = float(rng.uniform(0.002, 0.01))
        weight = float(rng.uniform(0.3, 0.7))
        curve = synth.two_peak_curve(
            self.days, 1e8, peaks=tuple(np.sort(rng.uniform(0.1, 0.9, 2))),
            widths=tuple(rng.uniform(0.04, 0.15, 2)), mix=(weight, 1.0 - weight))
        origin, population = synth.DEFAULT_ORIGIN, 500_000_000
        scenario = synth.Scenario(
            infections=DailySeries(origin, curve),
            regimes=(synth.Regime(1, self.days, self.ifr, LAG),),
            population=population,
            test_curve=DailySeries(origin, synth.ramp_test_curve(self.days, population)),
            m_true=3.3,
        )
        self.infections = curve
        self.deaths = synth.generate_deaths(scenario, "expected").values
        self.config = fit.FitConfig(max_lag=self.max_lag)

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        with recording(tracer, i):
            start = time.perf_counter()
            result = fit.best_fit(self.infections, self.deaths, self.config)
            seconds = time.perf_counter() - start
        # criterion 6: the planted lag exactly, the IFR within 1e-6 relative
        ok = ((result.lag_a, result.lag_b) == (LAG.a, LAG.b)
              and abs(result.ifr - self.ifr) <= 1e-6 * self.ifr)
        return Outcome(seconds, ok, ok, "" if ok else
                       f"got U({result.lag_a},{result.lag_b}) ifr {result.ifr!r}, "
                       f"planted U({LAG.a},{LAG.b}) ifr {self.ifr!r}")


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of intervals.csv, and of report.json without the dataset path.

    The CLI echoes the dataset's absolute path, which differs between
    checkouts, so it is left out of the report digest.
    """
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["config"]["dataset"].pop("path", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return {
        "intervals_csv_sha256": hashlib.sha256((out / "intervals.csv").read_bytes()).hexdigest(),
        "report_json_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


class CliCold:
    """One `python -m ifrlag fit-intervals` process per op, on the same input."""

    name = "cli_cold"
    in_process = False
    # Looser than criterion 7: calibration and interpolated test gaps add
    # error on top of the sampling noise (worst of 80 seeds: 5.4%).
    tolerance = 0.10
    anchor_day = 150
    blanked_tests = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.out = workdir / "out"
        src = str(BENCH.parent / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[self.name]
        self.golden = golden["digests"] if golden["seed"] == seed else None
        self.reference: dict[str, str] | None = None
        self.peak_rss_kib = 0

    def setup(self) -> None:
        """Sampled-deaths CSV with a few blanked test cells, and its config."""
        scenario = criterion7_scenario()
        dataset = synth.generate_observables(scenario, mode="sampled", seed=self.seed)
        csv_path = self.workdir / "dataset.csv"
        write_dataset_csv(dataset, csv_path)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        # interior days only, so ingest can interpolate every blank
        rng = np.random.default_rng(self.seed)
        for day in rng.choice(np.arange(2, len(dataset) - 1), self.blanked_tests, replace=False):
            rows[day][3] = ""
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)

        origin = scenario.infections.origin_day
        cumulative = np.cumsum(scenario.infections.values)
        config = {
            "label": "perfbench cli_cold",
            "dataset": {"path": csv_path.name},
            "population": scenario.population,
            "anchor": {
                "date": (origin + dt.timedelta(days=self.anchor_day - 1)).isoformat(),
                "count": float(cumulative[self.anchor_day - 1]),
            },
            "date_range": {
                "start": origin.isoformat(),
                "end": (origin + dt.timedelta(days=len(dataset) - 1)).isoformat(),
            },
            "intervals": {"width": 50, "min_trailing": 10},
            "max_lag": 50,
            "output_dir": self.out.name,
        }
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        cli = ["fit-intervals", "--config", str(self.config_path)]
        spans_path = self.workdir / "spans.json"
        if tracer is None:
            args = [sys.executable, "-m", "ifrlag", *cli]
        else:
            args = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), *cli]
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.workdir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)

        if proc.returncode != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-300:]
            return Outcome(seconds, False, False, f"exit {proc.returncode}: {tail}")
        if tracer is not None:
            tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")), i)
            files = [p for p in self.out.rglob("*") if p.is_file()]
            tracer.count(i, "cli.files", len(files))
            tracer.count(i, "cli.out_bytes", sum(p.stat().st_size for p in files))
        try:
            digests = output_digests(self.out)
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(seconds, False, False, f"unreadable outputs: {exc!r}")
        if self.reference is None:
            self.reference = digests
        if digests != self.reference:
            return Outcome(seconds, False, False, f"outputs differ from the first op: {digests}")
        if self.golden is not None and digests != self.golden:
            return Outcome(seconds, False, False,
                           f"outputs differ from {GOLDEN.name} for seed {self.seed}: {digests}")
        ifrs = [w["ifr"] for w in report["windows"]]
        return Outcome(seconds, True, recovered(ifrs, self.tolerance))


WORKLOAD_CLASSES = {w.name: w for w in (CliCold, WindowSweep, GridStress)}
