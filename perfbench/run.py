#!/usr/bin/env python3
"""ifrlag benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cli_cold --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; ifrlag is imported from its src/. With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from spans
recorded around calls into ifrlag's modules, on every other op (the ops
between them are untraced, to measure the tracing overhead). Each run also
writes its environment, metrics and spans to perfbench/runs/. The exit
code is 1 when any op fails its correctness gate. --smoke runs every
workload briefly in both modes and checks that each metric named in
BENCHMARK.json is emitted with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
WORKLOADS = ("cli_cold", "window_sweep", "grid_stress")
SETUP_REPEATS = 5  # at least; set-up repeats until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; start = time.perf_counter(); import ifrlag.cli; "
                "print(time.perf_counter() - start)")


def fresh_import_seconds() -> float:
    """Time of `import ifrlag.cli` in a fresh interpreter (median of several)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
        "seed": seed,
        "platform": platform.platform(),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: the 11th
    slowest op, and its percentile rank. With ten ops or fewer, the slowest."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import ifrlag

    if SRC not in Path(ifrlag.__file__).resolve().parents:
        sys.exit(f"perfbench: imported ifrlag from {ifrlag.__file__}, not from {SRC}")
    from spans import Tracer, layer_metrics
    from workloads import WORKLOAD_CLASSES, Outcome

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        wl = WORKLOAD_CLASSES[workload](seed, workdir)
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(setup_times)
        import_s = None
        if wl.in_process:
            import_s = fresh_import_seconds()
            setup_s += import_s
        wl.op(0, None)  # untimed warm-up: compiled bytecode, first-call paths

        tracer = Tracer() if trace else None
        outcomes: list[Outcome] = []
        traced: list[int] = []
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while time.perf_counter() < deadline or i < (2 if trace else 1):
            recording = trace and i % 2 == 0
            t0 = time.perf_counter()
            try:
                outcome = wl.op(i, tracer if recording else None)
            except Exception:  # a crashing op is a failed op, not a crashed run
                outcome = Outcome(time.perf_counter() - t0, False, False,
                                  traceback.format_exc(limit=3))
            outcomes.append(outcome)
            if recording:
                traced.append(i)
            i += 1
        loop_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(outcomes)
    failures = [o.why for o in outcomes if not o.ok]
    detail: dict = {"ops": n, "loop_s": loop_s, "setup_s": setup_times,
                    "import_s": import_s, "op_s": [o.seconds for o in outcomes],
                    "failures": failures[:5]}
    lines = []
    if trace:
        traced_s = statistics.median(outcomes[k].seconds for k in traced)
        untraced_s = statistics.median(o.seconds for k, o in enumerate(outcomes) if k % 2)
        fixed = {"trace.overhead_s": traced_s - untraced_s}
        if import_s is not None:
            fixed["import.s"] = import_s
        metrics = layer_metrics(tracer, traced, fixed)
        absent = sorted(LAYER_METRICS.keys() - metrics.keys())
        detail.update(traced_ops=len(traced), absent=absent)
        if absent:
            lines.append(f"absent (probe missing or counter broken): {', '.join(absent)}")
    else:
        times = [o.seconds for o in outcomes]
        tail_s, tail_pct = tail(times)
        peak_kib = (wl.peak_rss_kib if not wl.in_process
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": n / loop_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
            "pass_frac": {"value": 1 - len(failures) / n, "unit": "fraction"},
            "recovery_frac": {"value": sum(o.recovered for o in outcomes) / n,
                              "unit": "fraction"},
        }
        detail.update(tail_percentile=tail_pct, fail_frac=len(failures) / n)
        lines.append(f"op_s_tail is p{tail_pct:.1f} of {n} ops"
                     + (": the 11th slowest" if n > 10 else ": the slowest"))
        lines.append(f"fail_frac {len(failures) / n:g} ({len(failures)} of {n} ops)")

    env = environment(seed)
    result = {"correct": not failures, "attempted": n, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": workload, "trace": trace, "seconds": seconds, "env": env,
              "detail": detail, "result": result}
    if trace:
        record["spans"] = tracer.spans
    out = RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"{workload}: {n} ops in {loop_s:.1f} s, seed {seed}, trace {int(trace)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for line in lines:
        print(line)
    for why in failures[:5]:
        print(f"FAILED: {why}")
    print(f"env {json.dumps(env)}")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 1 if failures else 0


def smoke() -> int:
    """Run every workload for a second in both modes; check that each emits
    the metric names and units BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            tag = f"{workload} trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: no result (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{tag}: exit {proc.returncode}, result {result}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, units "
                                f"{[k for k in want.keys() & got.keys() if want[k] != got[k]]}")
            print(f"smoke {tag}: {result['attempted']} ops, {len(got)} metrics")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "ifrlag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ifrlag sources under {SRC}; run from a full checkout")
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
