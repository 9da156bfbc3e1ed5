"""Minimal SVG polyline charts: axes, ticks, legend, optional day markers.

Kept dependency-free on purpose; reports only need simple, deterministic
line plots. Every <line> and <text> element is written by `_line` or
`_text`, so each element's markup and escaping is decided in one place.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 42
MARGIN_BOTTOM = 46
WIDTH = 920
HEIGHT = 430

PALETTE = ("#4455cc", "#8833aa", "#e08020", "#202020", "#2a9060")


def _nice_step(span: float, target_ticks: int) -> float:
    """The first of 1, 2, 2.5, 5, 10 times a power of ten that reaches span/target."""
    raw = span / target_ticks
    power = 10.0 ** math.floor(math.log10(raw))
    return next(m * power for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * power)


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:g}"


def _line(x1, y1, x2, y2, stroke: str, width: str, extra: str = "") -> str:
    """A <line> element; coordinates and width are the text to print."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>')


def _text(x, y, size: int, text: str, anchor: str | None = "middle",
          extra: str = "") -> str:
    """A <text> element; no text-anchor if anchor is None.

    text is XML-escaped, & first so the other entities survive.
    """
    at = f' text-anchor="{anchor}"' if anchor else ""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}"{at} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{text}</text>')


def line_chart(
    title: str,
    series: list[tuple[str, Sequence[float]]],
    y_label: str,
    day_markers: tuple[int, ...] = (),
) -> str:
    """Render labelled day-indexed series (day 1..k) as an SVG document."""
    k = max(len(values) for _, values in series)
    y_max = max(float(max(values)) for _, values in series)
    y_min = min(min(0.0, float(min(values))) for _, values in series)
    if y_max <= y_min:
        y_max = y_min + 1.0
    y_max *= 1.05

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    bottom = MARGIN_TOP + plot_h

    def px(day: float) -> float:
        return MARGIN_LEFT + (day - 1) / max(k - 1, 1) * plot_w

    def py(value: float) -> float:
        return MARGIN_TOP + (y_max - value) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.1f}", 24, 15, title),
    ]

    for tick in _ticks(y_min, y_max):
        y = py(tick)
        parts.append(_line(MARGIN_LEFT, f"{y:.2f}", WIDTH - MARGIN_RIGHT, f"{y:.2f}",
                           "#dddddd", "1"))
        parts.append(_text(MARGIN_LEFT - 6, f"{y + 4:.2f}", 11, _fmt(tick), "end"))
    for tick in _ticks(1, k, target=8):
        x = f"{px(tick):.2f}"
        parts.append(_line(x, bottom, x, bottom + 4, "#202020", "1"))
        parts.append(_text(x, bottom + 18, 11, _fmt(tick)))

    for day in day_markers:
        x = f"{px(day):.2f}"
        parts.append(_line(x, MARGIN_TOP, x, bottom, "#cc3333", "1",
                           ' stroke-dasharray="4,4"'))

    # axes on top of gridlines
    parts.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom, "#202020", "1.5"))
    y0 = f"{py(0.0):.2f}"
    parts.append(_line(MARGIN_LEFT, y0, WIDTH - MARGIN_RIGHT, y0, "#202020", "1.5"))
    parts.append(_text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 8, 12, "day"))
    cy = f"{MARGIN_TOP + plot_h / 2:.1f}"
    parts.append(_text(16, cy, 12, y_label, extra=f' transform="rotate(-90 16 {cy})"'))

    for idx, (label, values) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{px(j + 1):.2f},{py(float(v)):.2f}" for j, v in enumerate(values)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
            f'points="{points}"/>'
        )
        ly = MARGIN_TOP + 14 + 16 * idx
        lx = WIDTH - MARGIN_RIGHT - 150
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, color, "2"))
        parts.append(_text(lx + 28, ly, 11, label, anchor=None))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
