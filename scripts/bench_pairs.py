#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts: a parent and a change.

For each set WORKLOAD:SEED:PAIRS, runs `perfbench/run.py` (unmodified) in
both checkouts PAIRS times, alternating which side runs first, then, once per
workload, TRACED_RUNS `--trace 1` runs per side, alternating the same way.
Every run lasts BENCHMARK.json's `run_seconds`. Writes every run's end-to-end
metrics, each side's median and quartiles, the fraction of pairs the change
wins and, per side, every traced run's value of each per-layer metric with
their median to one JSON file.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --set cli_cold:0:10 --set window_sweep:0:10 --out BENCH_11.json

A metric shows a gain when the change wins at least 9 of 10 pairs (ties
count for neither) and the medians differ, in the better direction, by more
than the parent's interquartile range. It is within its bound when the
change's median is worse than the parent's by at most the bound that
BENCHMARK.json sets (relative to the parent's median). It is unresolved
when the parent's interquartile range, relative to its median, is wider than
the bound, unless every run of the change reads better than every run of the
parent: such a metric is neither a pass nor a regression.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_RUNS = 3  # per side and workload: one traced run is one sample


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per metric: each side's values, median and quartiles, the change's win
    fraction, the gain rule, the bound check and whether noise leaves it
    unresolved.

    pairs holds one {"parent": {metric: value}, "change": {metric: value}}
    per pair of runs; spec is BENCHMARK.json's end_to_end list.
    """
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: _quartiles([p[side][name] for p in pairs]) for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in ((p["parent"][name], p["change"][name]) for p in pairs))
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        gain = parent - change if lower else change - parent
        worse = -gain / parent if parent else 0.0
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        p_runs, c_runs = sides["parent"]["values"], sides["change"]["values"]
        all_better = (max(c_runs) < min(p_runs)) if lower else (min(c_runs) > max(p_runs))
        out[name] = {
            **sides,
            "wins": wins,
            "win_frac": wins / len(pairs),
            "median_ratio": change / parent if parent else None,
            "gain": wins >= 0.9 * len(pairs) and gain > spread,
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
            "unresolved": bool(parent) and spread / parent > metric["bound"]
            and not all_better,
        }
    return out


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench_pairs: no result from {checkout} {workload}: {proc.stderr[-800:]}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _orders(n: int):
    """The side order of each of n rounds: parent first, then change first."""
    return [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(n)]


def _traced(checkouts: dict, workload: str, seed: int, seconds: float) -> dict:
    """Per side, each per-layer metric's values over TRACED_RUNS alternating
    `--trace 1` runs and their median (a metric a run lacks is left out)."""
    runs = {side: [] for side in SIDES}
    for order in _orders(TRACED_RUNS):
        for side in order:
            runs[side].append(_perfbench(checkouts[side], workload, seed, seconds,
                                         1)["metrics"])
    out = {"seed": seed, "seconds": seconds}
    for side, metrics in runs.items():
        out[side] = {}
        for name in dict.fromkeys(n for m in metrics for n in m):
            values = [m[name] for m in metrics if name in m]
            out[side][name] = {"values": values, "median": statistics.median(values)}
    return out


def _host() -> dict:
    """The machine and interpreter both sides ran on, and whether Python may
    write bytecode caches: without them every fresh process compiles each
    module again, which lengthens a cold op."""
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def _identity(checkout: Path) -> dict:
    """The git commit (with a dirty flag) and a digest of src/ifrlag/*.py."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "ifrlag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = ["git", "-C", str(checkout)]
    commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    dirty = bool(subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout.strip())
    return {"commit": commit, "dirty": dirty if commit else None,
            "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=REPO)
    parser.add_argument("--set", dest="sets", action="append", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]

    sets, traced = [], {}
    for item in args.sets:
        workload, seed, n = item.split(":")
        seed, n = int(seed), int(n)
        pairs = []
        for k, order in enumerate(_orders(n)):
            runs = {side: _perfbench(checkouts[side], workload, seed, seconds, 0)
                    for side in order}
            pairs.append({"first": order[0], **runs})
            print(f"{workload} seed {seed} pair {k + 1}/{n}: " + ", ".join(
                f"{side} p50 {runs[side]['metrics']['op_s_p50']:.4f} s"
                for side in SIDES), flush=True)
        sets.append({
            "workload": workload, "seed": seed, "seconds": seconds,
            "pairs": pairs,
            "summary": summarize([{s: p[s]["metrics"] for s in SIDES} for p in pairs],
                                 spec),
        })
        if workload not in traced:
            traced[workload] = _traced(checkouts, workload, seed, seconds)

    args.out.write_text(json.dumps({
        "host": _host(),
        **{side: _identity(path) for side, path in checkouts.items()},
        "sets": sets,
        "traces": traced,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
