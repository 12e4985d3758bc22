"""Static SVG line and bar charts, byte-deterministic.

No external plotting dependency: figures are assembled from a handful of
SVG primitives with fixed-precision coordinates, so identical data always
renders to identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..errors import ParameterError

WIDTH = 640
HEIGHT = 360
MARGIN_LEFT = 62
MARGIN_RIGHT = 18
MARGIN_TOP = 34
MARGIN_BOTTOM = 42

PALETTE = ("#1b6ca8", "#d1495b", "#3a7d44", "#8d5a97", "#c77d1e", "#4f6d7a",
           "#a23e48", "#2e6f95")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _limits(all_values):
    lo = min(all_values)
    hi = max(all_values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("chart values must be finite")
    if hi == lo:
        pad = 1.0 if hi == 0.0 else abs(hi) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _frame_elements(title, y_lo, y_hi, x_first, x_last):
    plot_r = WIDTH - MARGIN_RIGHT
    plot_b = HEIGHT - MARGIN_BOTTOM
    parts = [
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="20" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{_esc(title)}</text>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{plot_b}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{plot_b}" x2="{plot_r}" '
        f'y2="{plot_b}" stroke="#333333" stroke-width="1"/>',
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 4}" font-family="monospace" '
        f'font-size="11" text-anchor="end">{_fmt(y_hi)}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{plot_b + 4}" font-family="monospace" '
        f'font-size="11" text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{MARGIN_LEFT}" y="{plot_b + 16}" font-family="monospace" '
        f'font-size="11" text-anchor="start">{_esc(x_first)}</text>',
        f'<text x="{plot_r}" y="{plot_b + 16}" font-family="monospace" '
        f'font-size="11" text-anchor="end">{_esc(x_last)}</text>',
    ]
    return parts


def _legend(names):
    parts = []
    for k, name in enumerate(names):
        color = PALETTE[k % len(PALETTE)]
        y = MARGIN_TOP + 6 + 14 * k
        x = WIDTH - MARGIN_RIGHT - 150
        parts.append(
            f'<rect x="{x}" y="{y - 8}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 14}" y="{y}" font-family="monospace" font-size="11" '
            f'text-anchor="start">{_esc(name)}</text>'
        )
    return parts


def line_chart(path, title, x_labels, series) -> None:
    """Polyline chart; ``series`` is a list of (name, values) pairs.

    All value lists must match ``x_labels`` in length.
    """
    if not series:
        raise ValueError("line chart needs at least one series")
    n = len(x_labels)
    for name, values in series:
        if len(values) != n:
            raise ValueError(f"series {name!r} length {len(values)} != {n} labels")
    if n < 1:
        raise ValueError("line chart needs at least one point")
    y_lo, y_hi = _limits([float(v) for _, vs in series for v in vs])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(i):
        return MARGIN_LEFT + (plot_w * i / (n - 1) if n > 1 else plot_w / 2)

    def sy(v):
        return MARGIN_TOP + plot_h * (y_hi - float(v)) / (y_hi - y_lo)

    parts = _frame_elements(title, y_lo, y_hi, x_labels[0], x_labels[-1])
    for k, (name, values) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(i))},{_fmt(sy(v))}" for i, v in enumerate(values))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    parts.extend(_legend([name for name, _ in series]))
    _write_svg(path, parts)


def bar_chart(path, title, labels, values) -> None:
    """Vertical bars, one per label; bars below zero hang from the baseline."""
    if len(labels) != len(values) or not labels:
        raise ValueError("bar chart needs matching, non-empty labels and values")
    vals = [float(v) for v in values]
    y_lo, y_hi = _limits(vals + [0.0])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    n = len(vals)
    slot = plot_w / n
    bar_w = slot * 0.7

    def sy(v):
        return MARGIN_TOP + plot_h * (y_hi - v) / (y_hi - y_lo)

    parts = _frame_elements(title, y_lo, y_hi, labels[0], labels[-1])
    base = sy(0.0)
    for k, v in enumerate(vals):
        color = PALETTE[k % len(PALETTE)]
        x = MARGIN_LEFT + slot * k + (slot - bar_w) / 2
        top = min(sy(v), base)
        height = abs(sy(v) - base)
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(height)}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{HEIGHT - MARGIN_BOTTOM + 28}" '
            f'font-family="monospace" font-size="10" text-anchor="middle">'
            f"{_esc(labels[k])}</text>"
        )
    _write_svg(path, parts)


def _write_svg(path, parts) -> None:
    body = "\n".join(parts)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )
    Path(path).write_text(svg)
