"""Size of the public API: every exported name and every defaulted parameter
is something to support.

A new name or option must have a caller outside tests; when one is added or
removed on purpose, update PUBLIC_NAMES or DEFAULTED_PARAMETERS.
"""
import inspect

import ifrlag
from ifrlag import svgchart, synth

PUBLIC_NAMES = 28
DEFAULTED_PARAMETERS = 31


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
