"""Minimal deterministic SVG line plots for simulation traces.

Self-contained polyline plots with axes and tick labels; byte-identical
output for identical input, which keeps plot files diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#7f7f7f")
WIDTH, HEIGHT = 640, 420  # px


@dataclass(frozen=True)
class Series:
    points: tuple[tuple[float, float], ...]
    label: str
    color: str | None = None
    dash: str | None = None  # e.g. "6,3" for a dashed line


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2e}"
    return f"{v:.3g}"


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round-valued ticks from ``lo`` to ``hi``."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 4
    if raw < 1e-300:  # near-subnormal spacing: its powers of ten lose precision or vanish
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        if t + step == t:  # a step under half an ulp of t never moves it
            break
        t += step
    return ticks or [lo]


def line_plot(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render series as an SVG document string."""
    ml, mr, mt, mb = 62, 16, 30, 46
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx = 0.02 * (x1 - x0)
    pady = 0.05 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    xspan, yspan = x1 - x0, y1 - y0

    def tx(x):
        return ml + (x - x0) / xspan * pw

    def ty(y):
        return mt + ph - (y - y0) / yspan * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>'
        )
    for t in _ticks(x0 + padx, x1 - padx):
        px = tx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{mt + ph}" x2="{_fmt(px)}" y2="{mt + ph + 4}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{mt + ph + 16}" text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in _ticks(y0 + pady, y1 - pady):
        py = ty(t)
        out.append(
            f'<line x1="{ml - 4}" y1="{_fmt(py)}" x2="{ml}" y2="{_fmt(py)}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{_fmt(py + 3.5)}" text-anchor="end">{_tick_label(t)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{mt + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {mt + ph / 2:.0f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = s.color or PALETTE[i % len(PALETTE)]
        pts = " ".join(
            ["%.2f,%.2f" % (ml + (x - x0) / xspan * pw, mt + ph - (y - y0) / yspan * ph)
             for x, y in s.points]
        )
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"{dash}/>'
        )
        ly = mt + 14 + 14 * i
        out.append(
            f'<line x1="{ml + pw - 110}" y1="{ly - 4}" x2="{ml + pw - 90}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.4"{dash}/>'
        )
        out.append(f'<text x="{ml + pw - 85}" y="{ly}">{s.label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
