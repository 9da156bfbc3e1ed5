"""Minimal SVG polyline charts: axes, ticks, legend, optional day markers.

Kept dependency-free on purpose; reports only need simple, deterministic
line plots.
"""
from __future__ import annotations

import math

import numpy as np

MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 42
MARGIN_BOTTOM = 46
WIDTH = 920
HEIGHT = 430

PALETTE = ("#4455cc", "#8833aa", "#e08020", "#202020", "#2a9060")


def _escape(text: str) -> str:
    """XML-escape &, < and >; & goes first so the other entities survive."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float, target_ticks: int) -> float:
    raw = span / max(target_ticks, 1)
    power = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


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


def line_chart(
    title: str,
    series: list[tuple[str, np.ndarray]],
    y_label: str = "",
    day_markers: tuple[int, ...] = (),
) -> str:
    """Render labelled day-indexed series (day 1..k) as an SVG document."""
    k = max(len(values) for _, values in series)
    y_max = max(
        (float(np.max(values)) for _, values in series if len(values)), default=1.0
    )
    y_min = min(
        (min(0.0, float(np.min(values))) for _, values in series if len(values)),
        default=0.0,
    )
    if y_max <= y_min:
        y_max = y_min + 1.0
    y_max *= 1.05

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(day: float) -> float:
        return MARGIN_LEFT + (day - 1) / max(k - 1, 1) * plot_w

    def py(value: float) -> float:
        return MARGIN_TOP + (y_max - value) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]

    for tick in _ticks(y_min, y_max):
        y = py(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(1, k, target=8):
        if tick < 1:
            continue
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 4}" stroke="#202020" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )

    for day in day_markers:
        x = px(day)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#cc3333" stroke-width="1" '
            f'stroke-dasharray="4,4"/>'
        )

    # axes on top of gridlines
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="#202020" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{py(0.0):.2f}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{py(0.0):.2f}" stroke="#202020" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 8}" '
        'text-anchor="middle" font-family="sans-serif" font-size="12">day</text>'
    )
    if y_label:
        cy = MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {cy:.1f})">{_escape(y_label)}</text>'
        )

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
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
