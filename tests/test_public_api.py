"""Size of the public API: every exported name, every defaulted parameter and
every command-line option is something to support.

A new name, parameter or flag must have a caller outside tests; when one is
added or removed on purpose, update PUBLIC_NAMES, DEFAULTED_PARAMETERS or
CLI_OPTIONS. Every public scalar parameter is probed with ill-formed values,
and no module of the package imports a name it never uses.
"""
import argparse
import ast
import dataclasses
import inspect
import math
import pathlib

import pytest

import ifrlag
from ifrlag import cli, svgchart, synth
from ifrlag.errors import CalibrationError, DataError, FitError

PUBLIC_NAMES = 28
DEFAULTED_PARAMETERS = 29
# option strings by subcommand ("ifrlag" is the top level), without -h/--help
CLI_OPTIONS = {
    "ifrlag": ["--version"],
    "fit-intervals": ["--config"],
    "simulate": ["--mode", "--output-dir", "--scenario", "--seed"],
}


def defaulted_parameters() -> list[str]:
    callables = [getattr(ifrlag, name) for name in ifrlag.__all__]
    callables += [svgchart.line_chart, synth.two_peak_curve, synth.ramp_test_curve]
    return sorted(
        f"{obj.__module__}.{obj.__qualname__}({name})"
        for obj in callables
        for name, param in inspect.signature(obj).parameters.items()
        if param.default is not inspect.Parameter.empty
    )


def test_defaulted_parameter_count():
    found = defaulted_parameters()
    assert len(found) == DEFAULTED_PARAMETERS, "\n".join(found)


def test_public_name_count():
    assert len(ifrlag.__all__) == PUBLIC_NAMES, ifrlag.__all__


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(s for action in parser._actions for s in action.option_strings
                  if s not in ("-h", "--help"))


def test_cli_options():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {"ifrlag": _options(parser),
             **{name: _options(p) for name, p in sub.choices.items()}}
    assert found == CLI_OPTIONS


SCALAR_ANNOTATIONS = ("int", "float", "float | None")
# records the library fills in itself; no caller builds one from raw input
RESULT_RECORDS = {"CalibrationResult", "FitResult"}
BAD_SCALARS = [0, -1, 1.5, True, math.nan, math.inf, "3", None]
DAY = synth.DEFAULT_ORIGIN


def scalar_parameters(name: str) -> list[str]:
    params = inspect.signature(getattr(ifrlag, name)).parameters.items()
    return [p for p, param in params if param.annotation in SCALAR_ANNOTATIONS]


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _scenario():
    return ifrlag.default_scenario(k=10, window=10, ifrs=(0.01,), population=10**6,
                                   total_infections=1e4)


def _dataset():
    return ifrlag.generate_observables(_scenario())


# one valid call, as keyword arguments, per public callable with a scalar parameter
VALID_CALLS = {
    "AntibodyAnchor": lambda: dict(day_index=2, infected_count=5.0),
    "Dataset": lambda: _fields(_dataset()),
    "FitConfig": lambda: dict(max_lag=3),
    "IntervalConfig": lambda: dict(width=10, min_trailing=2, max_lag=3),
    "LagDistribution": lambda: dict(a=1, b=3),
    "Regime": lambda: dict(start_day=1, end_day=10, ifr=0.01,
                           lag=ifrlag.LagDistribution(1, 3)),
    "Scenario": lambda: _fields(_scenario()),
    "anchor_from_study": lambda: dict(dataset=_dataset(), study_date=DAY,
                                      fraction=0.001, count=None),
    "anchor_sum": lambda: dict(dataset=_dataset(), m=3.0, day_index=2),
    "default_scenario": lambda: dict(k=10, window=10, ifrs=(0.01,), population=10**6,
                                     total_infections=1e4, m_true=3.3),
    "estimate_infections": lambda: dict(dataset=_dataset(), m=3.0),
    "generate_deaths": lambda: dict(scenario=_scenario(), mode="sampled", seed=0),
    "generate_observables": lambda: dict(scenario=_scenario(), mode="sampled", seed=0),
    "load_dataset": lambda: dict(
        csv_source=b"date,cases,deaths,tests\n2020-03-01,1,0,10\n",
        mapping=ifrlag.ColumnMapping("date", "cases", "deaths", "tests"),
        policy=ifrlag.RepairPolicy(), population=1000, date_range=(DAY, DAY)),
}


def test_every_public_scalar_parameter_is_probed():
    with_scalars = {name for name in ifrlag.__all__ if scalar_parameters(name)}
    assert set(VALID_CALLS) == with_scalars - RESULT_RECORDS
    for name, kwargs in VALID_CALLS.items():
        getattr(ifrlag, name)(**kwargs())


@pytest.mark.parametrize("bad", BAD_SCALARS, ids=repr)
@pytest.mark.parametrize("name,param", [(name, p) for name in sorted(VALID_CALLS)
                                        for p in scalar_parameters(name)])
def test_bad_scalar_returns_or_raises_a_typed_error(name, param, bad):
    kwargs = VALID_CALLS[name]()
    kwargs[param] = bad
    try:
        getattr(ifrlag, name)(**kwargs)
    except (DataError, CalibrationError, FitError):
        pass


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports but never reads; attribute chains count as reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in pathlib.Path(ifrlag.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert [u for path in modules for u in unused_imports(path)] == []
