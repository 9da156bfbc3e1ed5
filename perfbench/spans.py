"""In-memory span recorder that wraps ifrlag module attributes.

A probe names a module attribute, i.e. a public function as the calling
module sees it, and the span its calls are recorded under. Installing the
probes swaps each attribute for a timing wrapper; uninstalling puts the
originals back, so no file of ifrlag changes and untraced ops run the
unwrapped code. Spans are (name, start, end, parent, op) tuples held in
memory; the benchmark writes them out once, when the run ends.

A probe whose attribute no longer exists (a refactor removed it) is
skipped, and the metrics only it would feed are reported as absent.

Only the standard library is imported here, so the traced CLI child can
time `import ifrlag.cli` in an otherwise fresh interpreter.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _fit_pairs(args, result):
    max_lag = args["config"].max_lag
    pairs = (max_lag + 1) * (max_lag + 2) // 2
    return {"fit.pairs": pairs, "fit.pair_days": pairs * len(args["i"])}


def _ingest(args, result):
    dataset, repairs = result
    source = args["csv_source"]
    return {"ingest.rows": len(dataset), "ingest.repairs": len(repairs),
            "ingest.bytes": len(source) if isinstance(source, (bytes, str)) else 0}


def _iterations(args, result):
    return {"infection.calibrate_m.iterations": result.iterations}


def _windows(args, result):
    return {"intervals.windows": len(result.windows)}


def _deaths(args, result):
    return {"synth.deaths": float(result.values.sum())}


# (module, attribute, span name, counter, count names). A counter maps the
# bound call arguments and the result to per-op counts.
PROBES = (
    ("ifrlag.cli", "main", "cli.main", None, ()),
    ("ifrlag.cli", "load_dataset", "ingest.load_dataset", _ingest,
     ("ingest.rows", "ingest.repairs", "ingest.bytes")),
    ("ifrlag.cli", "calibrate_m", "infection.calibrate_m", _iterations,
     ("infection.calibrate_m.iterations",)),
    ("ifrlag.cli", "estimate_infections", "infection.estimate_infections", None, ()),
    ("ifrlag.cli", "fit_intervals", "intervals.fit_intervals", _windows,
     ("intervals.windows",)),
    ("ifrlag.cli", "line_chart", "svgchart.line_chart", None, ()),
    ("ifrlag.intervals", "fit_intervals", "intervals.fit_intervals", _windows,
     ("intervals.windows",)),
    ("ifrlag.intervals", "best_fit", "fit.best_fit", _fit_pairs,
     ("fit.pairs", "fit.pair_days")),
    ("ifrlag.intervals", "shift_expectation_elongated",
     "lagmodel.shift_expectation_elongated", None, ()),
    ("ifrlag.fit", "best_fit", "fit.best_fit", _fit_pairs,
     ("fit.pairs", "fit.pair_days")),
    ("ifrlag.synth", "generate_deaths", "synth.generate_deaths", _deaths,
     ("synth.deaths",)),
)

# Per-layer metric -> (unit, per-op key). A key "<span>.s" is the summed
# duration of that span in one op, "<span>.calls" its call count and
# "<span>.self_s" its duration minus its direct child spans. Metrics with
# no key are computed over the whole run.
LAYER_METRICS = {
    "import.s": ("s", "import.s"),
    "cli.self_s": ("s", "cli.main.self_s"),
    "cli.out_bytes": ("bytes", "cli.out_bytes"),
    "cli.files": ("count", "cli.files"),
    "svgchart.line_chart.calls": ("count", "svgchart.line_chart.calls"),
    "svgchart.line_chart.s": ("s", "svgchart.line_chart.s"),
    "ingest.load_dataset.s": ("s", "ingest.load_dataset.s"),
    "ingest.rows": ("count", "ingest.rows"),
    "ingest.repairs": ("count", "ingest.repairs"),
    "ingest.bytes": ("bytes", "ingest.bytes"),
    "infection.calibrate_m.s": ("s", "infection.calibrate_m.s"),
    "infection.calibrate_m.iterations": ("count", "infection.calibrate_m.iterations"),
    "infection.estimate_infections.s": ("s", "infection.estimate_infections.s"),
    "fit.best_fit.calls": ("count", "fit.best_fit.calls"),
    "fit.best_fit.s": ("s", "fit.best_fit.s"),
    "fit.pairs": ("count", "fit.pairs"),
    "fit.ns_per_pair_day": ("ns", None),
    "intervals.fit_intervals.s": ("s", "intervals.fit_intervals.s"),
    "intervals.self_s": ("s", "intervals.fit_intervals.self_s"),
    "intervals.windows": ("count", "intervals.windows"),
    "lagmodel.shift_expectation_elongated.calls":
        ("count", "lagmodel.shift_expectation_elongated.calls"),
    "lagmodel.shift_expectation_elongated.s":
        ("s", "lagmodel.shift_expectation_elongated.s"),
    "synth.generate_deaths.s": ("s", "synth.generate_deaths.s"),
    "synth.deaths": ("count", "synth.deaths"),
    "trace.overhead_s": ("s", None),
}


def _keys(span, count_names):
    return {f"{span}.s", f"{span}.calls", f"{span}.self_s", *count_names}


class Tracer:
    """Records spans and per-op counts around calls to the probed attributes.

    Calls are single-threaded, so a span's children never overlap and its
    self time is its duration minus the sum of its direct children.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.broken: set[str] = set()  # count names whose counter raised
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = 0

    def absent(self) -> set[str]:
        """Per-op keys that no installable probe produces, or whose counter broke."""
        declared, present = set(), set()
        for module, attr, span, _, count_names in PROBES:
            keys = _keys(span, count_names)
            declared |= keys
            if hasattr(importlib.import_module(module), attr):
                present |= keys
        return (declared - present) | self.broken

    def install(self, op: int) -> None:
        self._op = op
        for module_name, attr, span, counter, count_names in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, counter, count_names))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span, counter, count_names):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span, start, end, parent, self._op)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result).items():
                        self.counts[self._op][key] += value
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.broken.update(count_names)
            return result

        return wrapper

    def count(self, op: int, key: str, value: float) -> None:
        self.counts[op][key] += value

    def merge(self, payload: dict, op: int) -> None:
        """Adopt the spans and counts a traced child process recorded."""
        offset = len(self.spans)
        for name, start, end, parent, _ in payload["spans"]:
            self.spans.append(
                (name, start, end, None if parent is None else parent + offset, op))
        for key, value in payload["counts"].items():
            self.counts[op][key] += value
        self.broken.update(payload["broken"])

    def child_payload(self) -> dict:
        return {"spans": self.spans,
                "counts": dict(self.counts[self._op]),
                "broken": sorted(self.broken)}

    def op_values(self) -> dict[int, dict[str, float]]:
        """Per-op key -> value for every op that recorded anything."""
        values: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child_s: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            v = values[op]
            v[f"{name}.s"] += end - start
            v[f"{name}.calls"] += 1
            v[f"{name}.self_s"] += end - start - child_s[index]
        for op, counts in self.counts.items():
            values[op].update(counts)
        return values


@contextmanager
def recording(tracer: Tracer | None, op: int):
    """Trace the calls of one op; does nothing when tracer is None."""
    if tracer is None:
        yield
        return
    tracer.install(op)
    try:
        yield
    finally:
        tracer.uninstall()


def layer_metrics(tracer: Tracer, ops: list[int], fixed: dict[str, float]) -> dict:
    """Median per-op value of every per-layer metric over the traced ops.

    `fixed` supplies run-level values (import time measured in set-up,
    tracing overhead). Layers a workload never enters read 0; metrics fed
    only by absent probes are left out.
    """
    values = tracer.op_values()
    absent = tracer.absent()
    metrics = {}
    for name, (unit, key) in LAYER_METRICS.items():
        if name in fixed:
            value = fixed[name]
        elif name == "fit.ns_per_pair_day":
            if {"fit.best_fit.s", "fit.pair_days"} & absent:
                continue
            seconds = sum(values[op]["fit.best_fit.s"] for op in ops)
            pair_days = sum(values[op]["fit.pair_days"] for op in ops)
            value = 1e9 * seconds / pair_days if pair_days else 0.0
        elif key is None or key in absent:
            continue
        else:
            value = statistics.median(values[op][key] for op in ops)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
