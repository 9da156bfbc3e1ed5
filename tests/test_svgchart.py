"""svgchart: byte-pinned charts the demo goldens never draw, and its imports.

The goldens in tests/golden/ pin the three charts of a demo run. The charts
here reach what those do not: a one-day axis, values below zero, an all-zero
series, fractional ticks, text that needs XML escaping, and day markers on a
250-day axis. Each digest was recorded from the chart writer before its
element writers were factored out; a change to any of them is an output
change.
"""
import ast
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ifrlag.svgchart import line_chart

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ifrlag" / "svgchart.py"

CHARTS = {
    "one_day": lambda: line_chart("one day", [("cases", [5.0])], y_label="people per day"),
    "negative": lambda: line_chart(
        "signed", [("fitted", [-3.0, 2.5, -0.5, 4.0, 1.0]),
                   ("reported", [0.0, 1.0, 2.0, 3.0, 4.0])], y_label="deaths per day"),
    "all_zeros": lambda: line_chart("zeros", [("deaths", np.zeros(10))],
                                    y_label="deaths per day"),
    "fractional": lambda: line_chart("small", [("rate", [0.0012, 0.0031, 0.0007])],
                                     y_label="fraction"),
    "escaped": lambda: line_chart("A & B <x>", [("a<b>&c", [1.0, 2.0, 3.0])],
                                  y_label="p > q & r"),
    "markers_250_days": lambda: line_chart(
        "long", [("cases", np.array([float(j * 37 % 101) for j in range(250)])),
                 ("infections", np.array([float(j * j % 997) for j in range(250)]))],
        y_label="people per day", day_markers=(50, 100, 150, 200)),
}

SHA256 = {
    "one_day": "3527d0561277e1ba340a14a7024329f2ec3dd53522902b40e1491fcea6ca4c04",
    "negative": "78cec6ae78fb2a3dde854b37f1649cdc128b3f47aa8dbc9f4ec6fee34a2690e1",
    "all_zeros": "76e06b53a10c38246c1af5548a10370095af53bd73da9d1eb6ae8454a53dab3c",
    "fractional": "1ae083c0c6b85e1d822bba8059ee673a934eba5e1f229a0dcc5635dddbbf18c8",
    "escaped": "a1e043b548430359b33694a030e9b6383eeef955e722b13cff64b1155f49267e",
    "markers_250_days": "20b5f4464ebada52a27d4c8967fe84c4b9ef1b8487ddcdfb89a07d99978ba98e",
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_bytes_are_pinned(name):
    svg = CHARTS[name]().encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == SHA256[name]


def test_imports_only_the_standard_library():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules <= sys.stdlib_module_names, sorted(modules - sys.stdlib_module_names)
