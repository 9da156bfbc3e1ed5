import ast
import datetime as dt
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ifrlag import cli
from ifrlag.cli import main
from ifrlag.synth import Scenario, default_scenario

SRC = str(Path(__file__).resolve().parent.parent / "src")
# child Pythons import the package from this checkout, installed or not
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

K = 100
WIDTH = 50
IFRS = (0.006, 0.003)
M_TRUE = 2.4


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario JSON, simulated dataset CSV and a matching run config."""
    root = tmp_path_factory.mktemp("cli")
    scenario = default_scenario(
        k=K, window=WIDTH, ifrs=IFRS, total_infections=2e6, m_true=M_TRUE,
        population=10_000_000,
    )
    scenario_path = root / "scenario.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))

    sim_dir = root / "sim"
    assert main(["simulate", "--scenario", str(scenario_path),
                 "--seed", "3", "--mode", "expected",
                 "--output-dir", str(sim_dir)]) == 0

    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    anchor_day = 80
    anchor_count = truth["cumulative_infections"][anchor_day - 1]
    config = {
        "label": "synthetic",
        "dataset": {"path": "sim/dataset.csv"},
        "population": 10_000_000,
        "anchor": {
            "date": (dt.date(2020, 3, 1) + dt.timedelta(days=anchor_day - 1)
                     ).isoformat(),
            "count": anchor_count,
        },
        "date_range": {"start": "2020-03-01", "end": "2020-06-08"},
        "intervals": {"width": WIDTH, "min_trailing": 10},
        "max_lag": 20,
        "output_dir": "out",
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return root, scenario_path, config_path


def test_simulate_is_deterministic(workspace, tmp_path):
    root, scenario_path, _ = workspace
    for name in ("a", "b"):
        assert main(["simulate", "--scenario", str(scenario_path),
                     "--seed", "11", "--mode", "sampled",
                     "--output-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "a/dataset.csv").read_bytes() == \
        (tmp_path / "b/dataset.csv").read_bytes()
    assert (tmp_path / "a/ground_truth.json").read_bytes() == \
        (tmp_path / "b/ground_truth.json").read_bytes()


def test_calibrate_recovers_planted_m(workspace):
    root, _, config_path = workspace
    assert main(["fit-intervals", "--config", str(config_path)]) == 0
    report = json.loads((root / "out/report.json").read_text())
    # CSV counts are rounded to whole numbers, so recovery is approximate
    assert report["calibration"]["m"] == pytest.approx(M_TRUE, abs=0.05)
    assert report["provenance"]["dataset_sha256"]
    assert report["config"]["population"] == 10_000_000


def test_fit_intervals_outputs(workspace):
    root, _, config_path = workspace
    assert main(["fit-intervals", "--config", str(config_path)]) == 0
    out = root / "out"

    report = json.loads((out / "report.json").read_text())
    assert set(report["series"]) == {
        "cases", "tests", "infections", "deaths", "candidate_deaths"}
    assert all(len(v) == K for v in report["series"].values())
    assert [w["start_day"] for w in report["windows"]] == [1, 51]
    for window, ifr_true in zip(report["windows"], IFRS):
        assert window["ifr"] == pytest.approx(ifr_true, rel=0.05)
        assert {"start_day", "end_day", "lag_a", "lag_b", "ifr", "error",
                "warnings"} <= set(window)
    series = report["series"]
    assert all(i >= c for i, c in zip(series["infections"], series["cases"]))

    lines = (out / "intervals.csv").read_text().splitlines()
    assert lines[0] == "start_day,end_day,lag_a,lag_b,ifr,error,warnings"
    assert len(lines) == 1 + len(report["windows"])

    for name in ("infections.svg", "tests.svg", "deaths_fit.svg"):
        svg = (out / name).read_text()
        root_el = ET.fromstring(svg)  # well-formed XML
        assert root_el.tag.endswith("svg")
    assert (out / "repairs.jsonl").exists()


def test_fit_intervals_deterministic_outputs(workspace, tmp_path):
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    outputs = []
    for name in ("run1", "run2"):
        cfg["output_dir"] = str(tmp_path / name)
        rerun = tmp_path / f"{name}.json"
        rerun.write_text(json.dumps(cfg))
        # paths in the config resolve relative to the config file location
        cfg_local = json.loads(rerun.read_text())
        cfg_local["dataset"]["path"] = str(root / "sim/dataset.csv")
        rerun.write_text(json.dumps(cfg_local))
        assert main(["fit-intervals", "--config", str(rerun)]) == 0
        outputs.append(tmp_path / name)
    for fname in ("report.json", "intervals.csv", "infections.svg",
                  "tests.svg", "deaths_fit.svg"):
        assert (outputs[0] / fname).read_bytes() == \
            (outputs[1] / fname).read_bytes()


def test_outputs_do_not_depend_on_config_location(workspace, tmp_path):
    # two copies of one run, CSV and config side by side, in different
    # directories: the echoed dataset path is the one written in the config
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = "data/dataset.csv"
    runs = [tmp_path / "a", tmp_path / "b" / "nested"]
    for run in runs:
        (run / "data").mkdir(parents=True)
        (run / "data/dataset.csv").write_bytes((root / "sim/dataset.csv").read_bytes())
        (run / "config.json").write_text(json.dumps(cfg))
        assert main(["fit-intervals", "--config", str(run / "config.json")]) == 0
    first, second = ((run / "out/report.json").read_bytes() for run in runs)
    assert first == second
    assert json.loads(first)["config"]["dataset"]["path"] == "data/dataset.csv"


def test_whole_period_fit(workspace, tmp_path):
    # a window at least as wide as the data is one fit over the whole period
    cfg = _config_file(workspace, tmp_path, intervals={"width": K + 5})
    assert main(["fit-intervals", "--config", cfg]) == 0
    (fit,) = json.loads((tmp_path / "out/report.json").read_text())["windows"]
    assert (fit["start_day"], fit["end_day"]) == (1, K)
    assert fit["lag_a"] <= fit["lag_b"] <= 20
    assert 0 < fit["ifr"] < 0.05


def test_summary_names_the_calibration(workspace, tmp_path, capsys):
    assert main(["fit-intervals", "--config", _config_file(workspace, tmp_path)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    calibration = json.loads((tmp_path / "out/report.json").read_text())["calibration"]
    match = re.fullmatch(r"synthetic: m = (\S+) \(anchor sum (\S+) at day 80, "
                         r"(\d+) iterations\)", first)
    assert match, first
    assert match[1] == f"{calibration['m']:.4f}"
    assert match[2] == f"{calibration['achieved_sum']:,.0f}"
    assert int(match[3]) > 0


def test_doubled_counts_scale_outputs_exactly(workspace, tmp_path):
    # cases, deaths and the anchor count doubled, tests unchanged: doubling
    # is exact, so m, lag pairs, IFRs and warnings stay equal, infections and
    # candidate deaths double and window errors quadruple
    root, _, config_path = workspace
    rows = (root / "sim/dataset.csv").read_text().splitlines()
    cols = rows[0].split(",")
    doubled = [rows[0]]
    for row in rows[1:]:
        cells = row.split(",")
        for name in ("cases", "deaths"):
            cells[cols.index(name)] = str(2 * int(cells[cols.index(name)]))
        doubled.append(",".join(cells))
    (tmp_path / "doubled.csv").write_text("\n".join(doubled) + "\n")
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(tmp_path / "doubled.csv")
    cfg["anchor"]["count"] *= 2
    cfg["output_dir"] = str(tmp_path / "out")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(config_path)]) == 0
    assert main(["fit-intervals", "--config", str(tmp_path / "cfg.json")]) == 0
    base = json.loads((root / "out/report.json").read_text())
    report = json.loads((tmp_path / "out/report.json").read_text())

    assert report["calibration"]["m"] == base["calibration"]["m"]
    for name in ("infections", "candidate_deaths"):
        assert report["series"][name] == [2 * v for v in base["series"][name]]
    assert len(report["windows"]) == len(base["windows"])
    for window, base_window in zip(report["windows"], base["windows"]):
        assert window == {**base_window, "error": 4 * base_window["error"]}


def _config_file(workspace, tmp_path, **changes) -> str:
    """The workspace config, changed at the top level, writing to tmp_path/out."""
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(root / "sim/dataset.csv")
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, **changes}))
    return str(path)


def test_width_and_max_lag_overrides(workspace, tmp_path):
    cfg = _config_file(workspace, tmp_path,
                       intervals={"width": 25, "min_trailing": 10}, max_lag=8)
    assert main(["fit-intervals", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert len(report["windows"]) == 4
    assert all(w["lag_b"] <= 8 for w in report["windows"])


def test_dropped_tail_is_a_note_on_stdout(workspace, tmp_path, capsys):
    # 100 days in 45-day windows leave a 10-day tail, under min_trailing
    cfg = _config_file(workspace, tmp_path, intervals={"width": 45, "min_trailing": 15})
    assert main(["fit-intervals", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "note: trailing_window_dropped: days 91..100 (10 < 15)"
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert [w["end_day"] for w in report["windows"]] == [45, 90]


def test_zero_death_series_still_succeeds(workspace, tmp_path):
    root, _, config_path = workspace
    rows = (root / "sim/dataset.csv").read_text().splitlines()
    header, data = rows[0], rows[1:]
    cols = header.split(",")
    d_idx = cols.index("deaths")
    zeroed = [header]
    for row in data:
        cells = row.split(",")
        cells[d_idx] = "0"
        zeroed.append(",".join(cells))
    (tmp_path / "zero.csv").write_text("\n".join(zeroed) + "\n")

    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(tmp_path / "zero.csv")
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert all(w["ifr"] == 0.0 for w in report["windows"])
    assert any(w["warnings"] for w in report["windows"])


def test_range_starting_before_first_case_exits_4(workspace, tmp_path, capsys):
    # 60 zero-case days ahead of the data: the whole first 50-day window
    # has no infections, so the run aborts and names the fix
    root, _, config_path = workspace
    rows = (root / "sim/dataset.csv").read_text().splitlines()
    first = dt.date.fromisoformat(rows[1].split(",")[0])
    lead = [f"{first - dt.timedelta(days=n)},0,0,1000" for n in range(60, 0, -1)]
    (tmp_path / "lead.csv").write_text("\n".join([rows[0], *lead, *rows[1:]]) + "\n")

    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(tmp_path / "lead.csv")
    cfg["date_range"]["start"] = (first - dt.timedelta(days=60)).isoformat()
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert "window 1 (days 1..50) has no positive infections" in err
    assert "start date_range at or after the first reported case" in err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["fit-intervals", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_width_exits_2(workspace, tmp_path, capsys):
    cfg = _config_file(workspace, tmp_path, intervals={"width": 1})
    assert main(["fit-intervals", "--config", cfg]) == 2
    assert "error" in capsys.readouterr().err


def _dataset_with(cfg, **changes):
    return {**cfg, "dataset": {**cfg["dataset"], **changes}}


# each maps the good config to a malformed one
BAD_CONFIGS = {
    "intervals_not_object": lambda cfg: {**cfg, "intervals": 5},
    "columns_not_object": lambda cfg: _dataset_with(cfg, columns=5),
    "repair_not_object": lambda cfg: _dataset_with(cfg, repair=[1]),
    "dataset_not_object": lambda cfg: {**cfg, "dataset": 5},
    "max_lag_negative": lambda cfg: {**cfg, "max_lag": -1},
    "max_lag_fraction": lambda cfg: {**cfg, "max_lag": 8.7},
    "max_lag_bool": lambda cfg: {**cfg, "max_lag": True},
    "width_fraction": lambda cfg: {**cfg, "intervals": {"width": 25.9}},
    "min_trailing_string": lambda cfg: {**cfg, "intervals": {"min_trailing": "10"}},
    "population_fraction": lambda cfg: {**cfg, "population": 1e7 + 0.5},
    "population_float": lambda cfg: {**cfg, "population": 1e7},
    "population_infinite": lambda cfg: {**cfg, "population": float("inf")},
    "population_too_large": lambda cfg: {**cfg, "population": 10**400},
    "intervals_unknown_key": lambda cfg: {**cfg, "intervals": {"widht": 25}},
    "intervals_max_lag": lambda cfg: {**cfg, "intervals": {"max_lag": 5}},
    "repair_unknown_key": lambda cfg: _dataset_with(cfg, repair={"gap_fill": "error"}),
    "top_level_unknown_key": lambda cfg: {**cfg, "max_lags": 10},
    "dataset_unknown_key": lambda cfg: _dataset_with(cfg, sha256="0"),
    "columns_unknown_key": lambda cfg: _dataset_with(cfg, columns={"case": "x"}),
    "anchor_unknown_key": lambda cfg: {**cfg, "anchor": {**cfg["anchor"], "day": 80}},
    "date_range_unknown_key": lambda cfg: {
        **cfg, "date_range": {**cfg["date_range"], "stop": "2020-06-08"}},
    "anchor_count_string": lambda cfg: {
        **cfg, "anchor": {**cfg["anchor"], "count": str(cfg["anchor"]["count"])}},
    "anchor_fraction_bool": lambda cfg: {
        **cfg, "anchor": {"date": cfg["anchor"]["date"], "fraction": True}},
    "anchor_count_nan": lambda cfg: {
        **cfg, "anchor": {**cfg["anchor"], "count": float("nan")}},
    "anchor_fraction_infinite": lambda cfg: {
        **cfg, "anchor": {"date": cfg["anchor"]["date"], "fraction": float("inf")}},
    "anchor_fraction_and_count": lambda cfg: {
        **cfg, "anchor": {**cfg["anchor"], "fraction": 0.1}},
    "anchor_without_fraction_or_count": lambda cfg: {
        **cfg, "anchor": {"date": cfg["anchor"]["date"]}},
    # calibrate_m rejects an anchor count above the population
    "anchor_fraction_above_one": lambda cfg: {
        **cfg, "anchor": {"date": cfg["anchor"]["date"], "fraction": 1.5}},
    "label_number": lambda cfg: {**cfg, "label": 5},
    "label_null": lambda cfg: {**cfg, "label": None},
}

# the part of the error message a case must give, where the case pins one
BAD_CONFIG_MESSAGES = {
    "intervals_unknown_key": "unknown key(s) in intervals: widht",
    "intervals_max_lag": "unknown key(s) in intervals: max_lag",
    "anchor_count_nan": "anchor.count must be a finite number, got nan",
    "anchor_fraction_infinite": "anchor.fraction must be a finite number, got inf",
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_malformed_config_exits_2(workspace, tmp_path, capsys, name):
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(root / "sim/dataset.csv")
    cfg["output_dir"] = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_CONFIGS[name](cfg)))
    assert main(["fit-intervals", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert BAD_CONFIG_MESSAGES.get(name, "") in err


def test_anchor_rule_checked_before_the_csv_is_read(workspace, tmp_path, capsys):
    _, _, config_path = workspace
    for anchor, message in (
            ({"fraction": 0.1}, "give exactly one of fraction or count"),
            ({"count": float("nan")}, "anchor.count must be a finite number, got nan")):
        cfg = json.loads(config_path.read_text())
        cfg["dataset"]["path"] = str(tmp_path / "missing.csv")
        cfg["anchor"].update(anchor)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["fit-intervals", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err


def test_fraction_anchor_equals_count_anchor(workspace, tmp_path):
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(root / "sim/dataset.csv")
    reports = []
    for name, anchor in (("fraction", {"fraction": 0.25}),
                         ("count", {"count": 0.25 * cfg["population"]})):
        run = {**cfg, "anchor": {"date": cfg["anchor"]["date"], **anchor},
               "output_dir": str(tmp_path / name)}
        (tmp_path / f"{name}.json").write_text(json.dumps(run))
        assert main(["fit-intervals", "--config", str(tmp_path / f"{name}.json")]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    for key in ("calibration", "windows"):
        assert reports[0][key] == reports[1][key]


def _first_regime_with(scenario, regime):
    return {**scenario, "regimes": [regime, *scenario["regimes"][1:]]}


# each maps the good scenario to a malformed one
BAD_SCENARIOS = {
    "regimes_not_list": lambda sc: {**sc, "regimes": 5},
    "regime_as_list": lambda sc: _first_regime_with(sc, [1, 50, 0.006]),
    "lag_as_list": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "lag": [4, 12]}),
    "lag_reversed": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "lag": {"a": 12, "b": 4}}),
    "infections_not_numeric": lambda sc: {**sc, "infections": "abc"},
    "top_level_list": lambda sc: [sc],
    "population_infinite": lambda sc: {**sc, "population": float("inf")},
    "population_fraction": lambda sc: {**sc, "population": sc["population"] + 0.9},
    "lag_fraction": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "lag": {"a": 4.7, "b": 12.9}}),
    "lag_bool": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "lag": {"a": True, "b": True}}),
    "end_day_fraction": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "end_day": sc["regimes"][0]["end_day"] + 0.5}),
    "ifr_string": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "ifr": str(sc["regimes"][0]["ifr"])}),
    "m_true_string": lambda sc: {**sc, "m_true": str(sc["m_true"])},
    "top_level_unknown_key": lambda sc: {**sc, "m_ture": sc["m_true"]},
    "label_misspelt": lambda sc: {**sc, "lable": "x"},
    "label_number": lambda sc: {**sc, "label": 5},
    "label_null": lambda sc: {**sc, "label": None},
    "regime_unknown_key": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "ifrr": 0.5}),
    "lag_unknown_key": lambda sc: _first_regime_with(
        sc, {**sc["regimes"][0], "lag": {**sc["regimes"][0]["lag"], "kindd": "x"}}),
}


@pytest.mark.parametrize("name", sorted(BAD_SCENARIOS))
def test_malformed_scenario_exits_2(workspace, tmp_path, capsys, name):
    _, scenario_path, _ = workspace
    scenario = json.loads(scenario_path.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_SCENARIOS[name](scenario)))
    assert main(["simulate", "--scenario", str(bad),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_negative_sampling_seed_exits_2(workspace, tmp_path, capsys):
    _, scenario_path, _ = workspace
    assert main(["simulate", "--scenario", str(scenario_path), "--seed", "-1",
                 "--mode", "sampled", "--output-dir", str(tmp_path / "out")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_non_utf8_csv_exits_2(workspace, tmp_path, capsys):
    root, _, config_path = workspace
    data = (root / "sim/dataset.csv").read_bytes()
    (tmp_path / "latin1.csv").write_bytes(data.replace(b"date", b"d\xe4te", 1))
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(tmp_path / "latin1.csv")
    cfg["output_dir"] = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(bad)]) == 2
    assert "error: CSV is not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    (tmp_path / "cfg.json").write_bytes(b'\xff{"max_lag": 5}')
    assert main(["fit-intervals", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # past the parser's recursion limit: a ConfigError, not a traceback
    (tmp_path / "cfg.json").write_text("[" * 200_000 + "]" * 200_000)
    assert main(["fit-intervals", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_configs_parse(path):
    # reading a run config resolves its dataset path but opens no data file
    if path.name.startswith("scenario"):
        assert Scenario.from_json(path).label
    else:
        assert cli.RunConfig.from_json(path).settings["label"]


def test_negative_max_lag_override_exits_2(workspace, tmp_path, capsys):
    cfg = _config_file(workspace, tmp_path, max_lag=-1)
    assert main(["fit-intervals", "--config", cfg]) == 2
    assert "error: max_lag must be >= 0" in capsys.readouterr().err


def _file_at(path: Path) -> Path:
    path.write_text("a file, not a directory\n")
    return path


def _dataset_is_directory(workspace, tmp_path):
    cfg = _config_file(workspace, tmp_path, dataset={"path": str(tmp_path)})
    return ["fit-intervals", "--config", cfg]


def _output_dir_under_file(workspace, tmp_path):
    out = _file_at(tmp_path / "blocker") / "out"
    cfg = _config_file(workspace, tmp_path, output_dir=str(out))
    return ["fit-intervals", "--config", cfg]


def _simulate_output_dir_under_file(workspace, tmp_path):
    out = _file_at(tmp_path / "blocker") / "out"
    return ["simulate", "--scenario", str(workspace[1]), "--output-dir", str(out)]


def _report_is_directory(workspace, tmp_path):
    (tmp_path / "out/report.json").mkdir(parents=True)
    return ["fit-intervals", "--config", _config_file(workspace, tmp_path)]


# each sets up one file-system fault and returns the command line that meets it
FS_FAULTS = {
    "dataset_is_directory": _dataset_is_directory,
    "output_dir_under_file": _output_dir_under_file,
    "simulate_output_dir_under_file": _simulate_output_dir_under_file,
    "report_is_directory": _report_is_directory,
}


@pytest.mark.parametrize("name", sorted(FS_FAULTS))
def test_file_system_error_exits_2(workspace, tmp_path, capsys, name):
    assert main(FS_FAULTS[name](workspace, tmp_path)) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_simulate_keeps_the_old_dataset(workspace, tmp_path, capsys):
    # a sampled dataset.csv must not land beside the old expected-mode truth
    _, scenario_path, _ = workspace
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario_path),
                 "--output-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / ".ground_truth.json.tmp").mkdir()
    assert main(["simulate", "--scenario", str(scenario_path), "--mode", "sampled",
                 "--seed", "5", "--output-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before


def test_infeasible_anchor_exits_3(workspace, tmp_path):
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(root / "sim/dataset.csv")
    cfg["anchor"] = {"date": cfg["anchor"]["date"], "count": 1.0}
    cfg["output_dir"] = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(bad)]) == 3


def _huge_deaths(cfg):
    """The config on a copy of its CSV, written beside its output directory,
    whose deaths are all 10**160: every window's squared error overflows."""
    rows = Path(cfg["dataset"]["path"]).read_text().splitlines()
    d_idx = rows[0].split(",").index("deaths")
    huge = [rows[0]]
    for row in rows[1:]:
        cells = row.split(",")
        cells[d_idx] = str(10**160)
        huge.append(",".join(cells))
    path = Path(cfg["output_dir"]).parent / "huge.csv"
    path.write_text("\n".join(huge) + "\n")
    return {**cfg, "dataset": {"path": str(path)}}


# each maps the good config to a failing run: (config, exit)
FAILING_RUNS = {
    "fit_intervals_infeasible_anchor": lambda cfg: (
        {**cfg, "anchor": {"date": cfg["anchor"]["date"], "count": 1.0}}, 3),
    "fit_intervals_negative_max_lag": lambda cfg: ({**cfg, "max_lag": -1}, 2),
    "fit_intervals_overflowing_deaths": lambda cfg: (_huge_deaths(cfg), 2),
}


@pytest.mark.parametrize("name", sorted(FAILING_RUNS))
def test_failed_run_leaves_output_dir_as_it_was(workspace, tmp_path, name):
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(root / "sim/dataset.csv")
    cfg["output_dir"] = str(tmp_path / "out")
    cfg, code = FAILING_RUNS[name](cfg)
    out = tmp_path / "out"
    out.mkdir()
    before = {"repairs.jsonl": b"old\n", "report.json": b"{}\n"}
    for fname, raw in before.items():
        (out / fname).write_bytes(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(bad)]) == code
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# every file write in cli.py, by the call that makes it, and its one owner
WRITERS = {"open": "_publish", "write_text": "_publish", "write_bytes": "_publish",
           "os.replace": "_publish", "write_dataset_csv": "_publish"}


def _call_names(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr
                if isinstance(func.value, ast.Name):
                    yield f"{func.value.id}.{func.attr}"


def test_only_publish_writes_files():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    found = {(name, getattr(node, "name", "<module>"))
             for node in tree.body for name in _call_names(node) if name in WRITERS}
    assert found <= set(WRITERS.items()), sorted(found)
    assert ("os.replace", "_publish") in found


def test_anchor_outside_range_exits_2(workspace, tmp_path):
    root, _, config_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["path"] = str(root / "sim/dataset.csv")
    cfg["anchor"] = {"date": "2021-01-01", "count": 1000.0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["fit-intervals", "--config", str(bad)]) == 2


def test_module_entry_point(workspace):
    _, scenario_path, _ = workspace
    proc = subprocess.run(
        [sys.executable, "-m", "ifrlag", "--version"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_closed_stdout_exits_0_without_traceback(workspace, tmp_path):
    # as in `ifrlag fit-intervals ... | head -1` once head has left: the
    # summary goes to a pipe nobody reads, after every artifact is published
    cfg = _config_file(workspace, tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ifrlag", "fit-intervals", "--config", cfg],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=CHILD_ENV)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "out/report.json").read_text())["windows"]


def test_cli_import_skips_network_and_mail_modules():
    # svgchart escapes text itself: xml.sax.saxutils would pull these in
    probe = ("import sys, ifrlag.cli; "
             "print(sorted(m for m in ('urllib.request', 'http.client', 'email') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip() == "[]"
