"""Size of the public API: every exported name, every defaulted parameter and
every command-line option is something to support.

A new name, parameter or flag must have a caller outside tests; when one is
added or removed on purpose, update PUBLIC_NAMES, DEFAULTED_PARAMETERS or
CLI_OPTIONS.
"""
import argparse
import inspect

import ifrlag
from ifrlag import cli, svgchart, synth

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
