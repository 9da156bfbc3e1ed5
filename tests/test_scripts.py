"""The runnable scripts are shipped artifacts; keep them working."""
import csv
import datetime as dt
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifrlag import intervals, synth
from ifrlag.domain import DailySeries
from ifrlag.lagmodel import LagDistribution
from ifrlag.synth import Regime, Scenario, generate_deaths, two_peak_curve

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"
# child Pythons import the package from this checkout, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


def run_script(name, *args, root=REPO):
    """Run root/scripts/name from root."""
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, cwd=root, env=CHILD_ENV,
    )


def checkout_files():
    """Size and mtime of every file under the checkout's data/ and out/."""
    return {str(p.relative_to(REPO)): (p.stat().st_size, p.stat().st_mtime_ns)
            for top in ("data", "out") for p in sorted((REPO / top).rglob("*"))}


@pytest.fixture
def reproduction_copy(tmp_path):
    """The reproduction script and configs, copied beside an empty data/.

    The script writes data/ and out/ next to its own scripts/ directory, so
    running the copy leaves the checkout as it was.
    """
    root = tmp_path / "repo"
    (root / "scripts").mkdir(parents=True)
    (root / "configs").mkdir()
    (root / "data").mkdir()
    shutil.copy(SCRIPTS / "reproduce_published.py", root / "scripts")
    for config in (REPO / "configs").glob("*.json"):
        shutil.copy(config, root / "configs")
    before = checkout_files()
    yield root
    assert checkout_files() == before


def test_demo_recovers_planted_parameters(tmp_path):
    proc = run_script("demo_synthetic.py", "--out", str(tmp_path / "demo"))
    assert proc.returncode == 0, proc.stderr
    assert "planted m: 3.3   recovered: 3.3000" in proc.stdout
    assert (tmp_path / "demo/run/report.json").exists()
    assert (tmp_path / "demo/run/deaths_fit.svg").exists()


def us_like_snapshot(path):
    """Multi-country daily CSV whose US series has planted parameters."""
    population = 382_000_000
    ifrs = (0.0068, 0.0056, 0.0037, 0.0024, 0.0024)
    k, origin = 250, dt.date(2020, 3, 1)
    shape = two_peak_curve(k, 1.0)
    total = 0.09 * population / shape[:153].sum()  # 9% infected by Jul 31
    infections = shape * total
    tests = np.clip(np.geomspace(120_000, 1_600_000, k), 1, population)
    cases = infections * (tests / population) ** (1 / 3.3)
    regimes = tuple(
        Regime(n * 50 + 1, (n + 1) * 50, ifrs[n], LagDistribution(4, 12))
        for n in range(5)
    )
    scenario = Scenario(
        infections=DailySeries(origin, infections),
        regimes=regimes,
        population=population,
        test_curve=DailySeries(origin, tests),
        m_true=3.3,
    )
    deaths = generate_deaths(scenario, "expected").values

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "date", "new_cases", "new_deaths",
                         "new_tests"])
        for location in ("United States", "Somewhere Else"):
            for j in range(k):
                day = origin + dt.timedelta(days=j)
                c, d, t = round(cases[j]), round(deaths[j]), round(tests[j])
                writer.writerow([location, day.isoformat(), c, d, max(t, c)])
    return ifrs


def test_reproduction_script_on_planted_snapshot(tmp_path, reproduction_copy):
    snapshot = tmp_path / "snapshot.csv"
    us_like_snapshot(snapshot)
    proc = run_script(
        "reproduce_published.py", "--snapshot", str(snapshot),
        "--countries", "united_states", root=reproduction_copy,
    )
    assert proc.returncode == 0, proc.stderr
    assert "=== United States ===" in proc.stdout
    assert "published m: 3.3   this run: 3.30" in proc.stdout
    assert "this run 0.68%" in proc.stdout
    assert "this run 0.24%" in proc.stdout
    assert (reproduction_copy / "data/united_states.csv").exists()
    assert (reproduction_copy / "out/united_states/report.json").exists()


def test_reproduction_script_skips_missing_countries(reproduction_copy):
    proc = run_script("reproduce_published.py", "--countries", "denmark",
                      root=reproduction_copy)
    assert proc.returncode == 0, proc.stderr
    assert "skipping denmark" in proc.stdout


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_pairs_summary():
    bench = load_bench_pairs()
    metrics = [{"name": "op_s_p50", "better": "lower", "bound": 0.24},
               {"name": "ops_per_s", "better": "higher", "bound": 0.24}]
    pairs = [
        {"parent": {"op_s_p50": 0.10, "ops_per_s": 10.0},
         "change": {"op_s_p50": 0.02, "ops_per_s": 6.0}},
        {"parent": {"op_s_p50": 0.12, "ops_per_s": 8.0},
         "change": {"op_s_p50": 0.03, "ops_per_s": 5.0}},
    ]
    out = bench.summarize(pairs, metrics)

    p50 = out["op_s_p50"]
    assert p50["parent"] == {"values": [0.10, 0.12], "median": pytest.approx(0.11),
                             "q1": pytest.approx(0.105), "q3": pytest.approx(0.115)}
    assert p50["change"]["median"] == pytest.approx(0.025)
    assert (p50["wins"], p50["win_frac"], p50["gain"]) == (2, 1.0, True)
    assert p50["median_ratio"] == pytest.approx(0.025 / 0.11)
    assert p50["within_bound"]
    # higher is better: the change loses both pairs, and its median (5.5)
    # is 39% below the parent's (9.0), past the 0.24 bound
    rate = out["ops_per_s"]
    assert (rate["wins"], rate["win_frac"], rate["gain"]) == (0, 0.0, False)
    assert not rate["within_bound"]
    # the parent's interquartile range (0.01 and 1.0) is 9% and 11% of its
    # median, inside the 0.24 bound, so both metrics are resolved
    assert not p50["unresolved"] and not rate["unresolved"]


def test_bench_pairs_marks_noise_as_unresolved():
    bench = load_bench_pairs()
    metric = [{"name": "setup_s", "better": "lower", "bound": 0.25}]

    def summary(parent, change):
        pairs = [{"parent": {"setup_s": p}, "change": {"setup_s": c}}
                 for p, c in zip(parent, change)]
        return bench.summarize(pairs, metric)["setup_s"]

    # the parent's runs spread over 4.0 of a 10.0 median, past the bound: a
    # change 30% slower is unresolved, not worse
    noisy = summary([6.0, 8.0, 10.0, 12.0, 14.0], [7.0, 10.0, 13.0, 15.0, 16.0])
    assert (noisy["within_bound"], noisy["unresolved"]) == (False, True)
    # ... unless every run of the change beats every run of the parent
    better = summary([6.0, 8.0, 10.0, 12.0, 14.0], [2.0, 3.0, 4.0, 5.0, 5.5])
    assert (better["within_bound"], better["unresolved"]) == (True, False)
    # a tight parent leaves the same slowdown resolved
    tight = summary([9.8, 9.9, 10.0, 10.1, 10.2], [12.8, 12.9, 13.0, 13.1, 13.2])
    assert (tight["within_bound"], tight["unresolved"]) == (False, False)


def test_bench_pairs_alternates_traced_runs(monkeypatch, tmp_path):
    bench = load_bench_pairs()
    end_to_end = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def perfbench(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, trace))
        value = float(len(calls))
        names = ["fit.best_fit.s"] if trace else end_to_end
        return {"correct": 1, "attempted": 1, "failed": 0,
                "metrics": {name: value for name in names}}

    monkeypatch.setattr(bench, "_perfbench", perfbench)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "change")
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change",
        str(tmp_path / "change"), "--set", "window_sweep:0:2", "--out", str(out)])
    assert bench.main() == 0
    # two pairs, then three traced runs per side, each round alternating
    assert calls == [("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                     ("parent", 1), ("change", 1), ("change", 1), ("parent", 1),
                     ("parent", 1), ("change", 1)]
    traced = json.loads(out.read_text())["traces"]["window_sweep"]
    assert traced["parent"] == {"fit.best_fit.s": {"values": [5.0, 8.0, 9.0], "median": 8.0}}
    assert traced["change"] == {"fit.best_fit.s": {"values": [6.0, 7.0, 10.0], "median": 7.0}}


def test_perfbench_probes_see_one_call_per_window(monkeypatch, tmp_path):
    """perfbench's probes wrap ifrlag.intervals.best_fit and
    shift_expectation_elongated and ifrlag.synth.generate_deaths, so traced
    counts compare across changes only while fit_intervals calls the first
    two once per window and a window_sweep op reaches all three there."""
    calls = []
    for module, name in ((intervals, "best_fit"),
                         (intervals, "shift_expectation_elongated"),
                         (synth, "generate_deaths")):
        def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    i = two_peak_curve(120, 1e6)
    report = intervals.fit_intervals(i, 0.01 * i, intervals.IntervalConfig(width=40))
    assert len(report.windows) == 3
    assert sorted(calls) == ["best_fit"] * 3 + ["shift_expectation_elongated"] * 3

    calls.clear()
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    sweep = importlib.import_module("workloads").WindowSweep(0, tmp_path)
    sweep.setup()
    assert sweep.op(0, None).ok
    assert calls == ["generate_deaths"] + ["best_fit", "shift_expectation_elongated"] * 5
