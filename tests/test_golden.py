"""Byte-for-byte golden outputs of both CLI commands on the demo scenario.

For each death mode, `simulate` runs on configs/scenario_two_wave.json
(seed 7, as in scripts/demo_synthetic.py), then `fit-intervals` runs on the
simulated CSV with the demo's run config. Every artifact must match tests/golden/<mode>/ exactly,
except that JSON artifacts are compared without `config.dataset.path`, so
the goldens do not depend on where the config is written.

Regenerate the goldens, only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""
import datetime as dt
import json
import tempfile
from pathlib import Path

import pytest

from ifrlag.cli import main
from ifrlag.synth import Scenario

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIO = REPO / "configs" / "scenario_two_wave.json"
SEED = 7
ANCHOR_DAY = 150
MODES = ("expected", "sampled")


def _without_dataset_path(raw: bytes) -> bytes:
    payload = json.loads(raw)
    payload.get("config", {}).get("dataset", {}).pop("path", None)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def run_commands(mode: str, root: Path) -> dict[str, bytes]:
    """Run both commands under root; map artifact name to its bytes."""
    sim, run = root / "sim", root / "run"
    assert main(["simulate", "--scenario", str(SCENARIO), "--seed", str(SEED),
                 "--mode", mode, "--output-dir", str(sim)]) == 0
    scenario = Scenario.from_json(SCENARIO)
    truth = json.loads((sim / "ground_truth.json").read_text(encoding="utf-8"))
    origin = scenario.infections.origin_day
    config = {
        "label": "two-wave demo",
        "dataset": {"path": "sim/dataset.csv"},
        "population": scenario.population,
        "anchor": {
            "date": (origin + dt.timedelta(days=ANCHOR_DAY - 1)).isoformat(),
            "count": truth["cumulative_infections"][ANCHOR_DAY - 1],
        },
        "date_range": {
            "start": origin.isoformat(),
            "end": (origin + dt.timedelta(
                days=len(scenario.infections) - 1)).isoformat(),
        },
        "intervals": {"width": 50, "min_trailing": 10},
        "max_lag": 50,
        "output_dir": run.name,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    assert main(["fit-intervals", "--config", str(config_path)]) == 0

    artifacts = {}
    for directory in (sim, run):
        for path in sorted(directory.iterdir()):
            raw = path.read_bytes()
            if path.suffix == ".json":
                raw = _without_dataset_path(raw)
            artifacts[f"{directory.name}/{path.name}"] = raw
    return artifacts


def _first_difference(got: bytes, want: bytes) -> str:
    for n, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        if g != w:
            return f"line {n}: got {g[:120]!r}, want {w[:120]!r}"
    return f"lengths differ: got {len(got)} bytes, want {len(want)}"


@pytest.mark.parametrize("mode", MODES)
def test_cli_outputs_match_goldens(mode, tmp_path):
    artifacts = run_commands(mode, tmp_path)
    golden_dir = GOLDEN / mode
    goldens = {str(p.relative_to(golden_dir)): p.read_bytes()
               for p in sorted(golden_dir.rglob("*")) if p.is_file()}
    assert sorted(artifacts) == sorted(goldens)
    for name, raw in artifacts.items():
        assert raw == goldens[name], f"{mode}/{name}: {_first_difference(raw, goldens[name])}"


if __name__ == "__main__":
    for mode in MODES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in run_commands(mode, Path(tmp)).items():
                target = GOLDEN / mode / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(raw)
