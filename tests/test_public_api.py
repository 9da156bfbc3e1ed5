"""Size of the public API: every exported name, every defaulted parameter and
every command-line option is something to support.

A new name, parameter or flag must have a caller outside tests; when one is
added or removed on purpose, update PUBLIC_NAMES, DEFAULTED_PARAMETERS or
CLI_OPTIONS. Every public scalar, date or record parameter is probed with
ill-formed values, and no module of the package imports a name it never uses.
"""
import argparse
import ast
import dataclasses
import datetime as dt
import inspect
import math
import os
import pathlib

import pytest

import ifrlag
from ifrlag import cli, svgchart, synth
from ifrlag.errors import CalibrationError, DataError, DomainError, FitError

PUBLIC_NAMES = 27
DEFAULTED_PARAMETERS = 27
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
BAD_DATES = ["2020-03-01", None, dt.datetime(2020, 3, 1), 20200301, (DAY,)]
# the values probed per date annotation: each bad date, and for a range also
# each bad date at either end of an otherwise valid pair
BAD_DATE_VALUES = {
    "dt.date": BAD_DATES,
    "tuple[dt.date, dt.date]": BAD_DATES + [
        pair for bad in BAD_DATES for pair in ((bad, DAY), (DAY, bad))],
}


def scalar_parameters(name: str, annotations=SCALAR_ANNOTATIONS) -> list[str]:
    params = inspect.signature(getattr(ifrlag, name)).parameters.items()
    return [p for p, param in params if param.annotation in annotations]


def date_parameters(name: str) -> list[str]:
    return scalar_parameters(name, BAD_DATE_VALUES)


# the public record types, which a parameter annotated with one must be: each
# is probed with None and with its own field values as a tuple and as a list
RECORD_TYPES = {name for name in ifrlag.__all__
                if dataclasses.is_dataclass(getattr(ifrlag, name))}
BAD_RECORDS = {"None": lambda record: None,
               "tuple": lambda record: tuple(_fields(record).values()),
               "list": lambda record: list(_fields(record).values())}


def record_parameters(name: str) -> list[str]:
    return scalar_parameters(name, RECORD_TYPES)


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _scenario():
    return ifrlag.default_scenario(k=10, window=10, ifrs=(0.01,), population=10**6,
                                   total_infections=1e4)


def _dataset():
    return ifrlag.generate_observables(_scenario())


# one valid call, as keyword arguments, per public callable with a scalar, a
# date or a record parameter; every record parameter is given
VALID_CALLS = {
    "AntibodyAnchor": lambda: dict(day_index=2, infected_count=5.0),
    "DailySeries": lambda: dict(origin_day=DAY, values=[1.0, 2.0]),
    "Dataset": lambda: _fields(_dataset()),
    "FitConfig": lambda: dict(max_lag=3),
    "IntervalConfig": lambda: dict(width=10, min_trailing=2, max_lag=3),
    "LagDistribution": lambda: dict(a=1, b=3),
    "Regime": lambda: dict(start_day=1, end_day=10, ifr=0.01,
                           lag=ifrlag.LagDistribution(1, 3)),
    "Scenario": lambda: _fields(_scenario()),
    "anchor_sum": lambda: dict(dataset=_dataset(), m=3.0, day_index=2),
    "best_fit": lambda: dict(i=[1.0, 2.0, 1.0], d=[0.0, 1.0, 2.0],
                             config=ifrlag.FitConfig(2)),
    "calibrate_m": lambda: dict(dataset=_dataset(),
                                anchor=ifrlag.AntibodyAnchor(10, 1e4)),
    "default_scenario": lambda: dict(k=10, window=10, ifrs=(0.01,),
                                     lag=ifrlag.LagDistribution(1, 3), population=10**6,
                                     total_infections=1e4, m_true=3.3),
    "estimate_infections": lambda: dict(dataset=_dataset(), m=3.0),
    "fit_intervals": lambda: dict(i=[1.0, 2.0, 1.0], d=[0.0, 1.0, 2.0],
                                  config=ifrlag.IntervalConfig(width=3, max_lag=2)),
    "generate_deaths": lambda: dict(scenario=_scenario(), mode="sampled", seed=0),
    "generate_observables": lambda: dict(scenario=_scenario(), mode="sampled", seed=0),
    "load_dataset": lambda: dict(
        csv_source=b"date,cases,deaths,tests\n2020-03-01,1,0,10\n",
        mapping=ifrlag.ColumnMapping("date", "cases", "deaths", "tests"),
        policy=ifrlag.RepairPolicy(), population=1000, date_range=(DAY, DAY)),
    "shift_expectation": lambda: dict(i=[1.0, 2.0], lag=ifrlag.LagDistribution(0, 1)),
    "shift_expectation_elongated": lambda: dict(i=[1.0, 2.0],
                                                lag=ifrlag.LagDistribution(0, 1)),
    "write_dataset_csv": lambda: dict(dataset=_dataset(), path=os.devnull),
}


def test_every_public_scalar_parameter_is_probed():
    probed = {name for name in ifrlag.__all__ if scalar_parameters(name)
              or date_parameters(name) or record_parameters(name)}
    assert set(VALID_CALLS) == probed - RESULT_RECORDS
    for name, kwargs in VALID_CALLS.items():
        assert set(record_parameters(name)) <= set(kwargs()), name
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


@pytest.mark.parametrize("name,param,bad", [
    (name, p, bad) for name in sorted(VALID_CALLS)
    for p, param in inspect.signature(getattr(ifrlag, name)).parameters.items()
    for bad in BAD_DATE_VALUES.get(param.annotation, ())], ids=repr)
def test_bad_date_raises_a_typed_error(name, param, bad):
    kwargs = VALID_CALLS[name]()
    kwargs[param] = bad
    with pytest.raises(DataError):
        getattr(ifrlag, name)(**kwargs)


@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
@pytest.mark.parametrize("name,param", [(name, p) for name in sorted(VALID_CALLS)
                                        for p in record_parameters(name)])
def test_bad_record_raises_a_typed_error(name, param, bad):
    kwargs = VALID_CALLS[name]()
    kwargs[param] = BAD_RECORDS[bad](kwargs[param])
    with pytest.raises(DomainError, match=f"^{param} must be a "):
        getattr(ifrlag, name)(**kwargs)


BAD_REALS = [True, math.nan, math.inf, -1, "3", None]


@pytest.mark.parametrize("bad", BAD_REALS, ids=repr)
@pytest.mark.parametrize("name,param", [(name, p) for name in sorted(VALID_CALLS)
                                        for p in scalar_parameters(name, ("float",))])
def test_bad_real_names_its_parameter(name, param, bad):
    kwargs = VALID_CALLS[name]()
    kwargs[param] = bad
    with pytest.raises(DomainError, match=f"^{param} must be "):
        getattr(ifrlag, name)(**kwargs)


# the calls that parse or write a file format, and the one function each is
# made in: every other reader or writer goes through it
FORMAT_OWNERS = {"json.load": set(), "json.loads": {"domain.read_json"},
                 "csv.writer": {"ingest.csv_text"}, "csv.reader": {"ingest._records"}}


def test_each_file_format_has_one_owner():
    found = {call: set() for call in FORMAT_OWNERS}
    for path in pathlib.Path(ifrlag.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for sub in ast.walk(node):
                call = ast.unparse(sub.func) if isinstance(sub, ast.Call) else None
                if call in found:
                    found[call].add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert found == FORMAT_OWNERS


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
