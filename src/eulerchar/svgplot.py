"""Minimal deterministic SVG line plots.

Just enough plotting for the experiment outputs: columns of y values drawn
as polylines over one shared x column, on linear or log10 y axes, with 1-2-5
tick ladders, dashed horizontal reference lines, and a legend. Each point is
filtered, transformed and scaled once. Output is plain text with fixed number
formatting, so a rerun with identical data produces an identical file; every
plot ships next to a CSV with the same numbers, the SVG is never the only
record.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import groupby

__all__ = ["line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0


def _nice_step(span: float) -> float:
    """Tick spacing from the 1-2-5 ladder giving four to eight ticks."""
    if span <= 0.0:
        return 1.0
    raw = span / 5.0
    power = math.floor(math.log10(raw))
    base = raw / 10.0**power
    for mult in (1.0, 2.0, 5.0):
        if base <= mult:
            return mult * 10.0**power
    return 10.0 ** (power + 1)


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(
    path,
    title: str,
    xlabel: str,
    ylabel: str,
    xs: Sequence[float],
    columns: Sequence[tuple[str, Sequence[float]]],
    *,
    log_y: bool = False,
    hlines: tuple[float, ...] = (),
) -> None:
    """Write an SVG line plot of (legend label, ys) columns over one x column xs.

    With log_y the y axis shows log10 of the values and only positive finite
    points are drawn; undrawn points split a column into runs, and a run of one
    point is a dot. Dashed lines mark the drawable hlines values; on a linear
    axis they widen the data range, and a line outside the padded range is skipped.
    """

    def plotted(y: float) -> float | None:
        """y on the plot's y axis, or None where it is not drawn."""
        if not math.isfinite(y) or (log_y and y <= 0.0):
            return None
        return math.log10(y) if log_y else y

    runs: list[list[list[tuple[int, float]]]] = []  # per column, runs of (index, plotted y)
    for label, ys in columns:
        if len(ys) != len(xs):
            raise ValueError(f"column {label!r} has {len(ys)} values for {len(xs)} x values")
        cells = [(i, plotted(y) if math.isfinite(x) else None) for i, (x, y) in enumerate(zip(xs, ys))]
        runs.append([list(run) for drawn, run in groupby(cells, lambda c: c[1] is not None) if drawn])
    points = [p for col_runs in runs for run in col_runs for p in run]
    if not points:
        raise ValueError("nothing to plot: no finite data points")
    marks = [v for v in map(plotted, hlines) if v is not None]

    x_drawn = [xs[i] for i, _ in points]
    y_range = [y for _, y in points] + ([] if log_y else marks)
    x_lo, x_hi = min(x_drawn), max(x_drawn)
    y_lo, y_hi = min(y_range), max(y_range)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    if log_y:
        y_ticks = [float(p) for p in range(math.ceil(y_lo), math.floor(y_hi) + 1)]
        if not y_ticks:
            y_ticks = [y_lo + (y_hi - y_lo) * f for f in (0.15, 0.5, 0.85)]
        y_labels = [f"1e{p:.3g}" for p in y_ticks]
    else:
        y_ticks = _linear_ticks(y_lo, y_hi)
        y_labels = [_fmt(v) for v in y_ticks]
    x_ticks = _linear_ticks(x_lo, x_hi)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{_escape(title)}</text>'
    )

    for v, label in zip(y_ticks, y_labels):
        y = sy(v)
        out.append(
            f'<line x1="{_MARGIN_L:.1f}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_R:.1f}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6:.1f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{label}</text>'
        )
    for v in x_ticks:
        x = sx(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T:.1f}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN_B + 16:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_fmt(v)}</text>'
        )

    for y in [sy(hv) for hv in marks if y_lo <= hv <= y_hi]:
        out.append(
            f'<line x1="{_MARGIN_L:.1f}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_R:.1f}" '
            f'y2="{y:.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    out.append(
        f'<rect x="{_MARGIN_L:.1f}" y="{_MARGIN_T:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    px = [f"{sx(x):.2f}" for x in xs]
    for idx, col_runs in enumerate(runs):
        color = _PALETTE[idx % len(_PALETTE)]
        for run in col_runs:
            if len(run) == 1:
                (i, y), = run
                out.append(f'<circle cx="{px[i]}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(f"{px[i]},{sy(y):.2f}" for i, y in run)}" '
                    f'fill="none" stroke="{color}" stroke-width="1.5"/>'
                )

    legend_x = _MARGIN_L + plot_w - 150.0
    legend_y = _MARGIN_T + 10.0
    for idx, (label, _) in enumerate(columns):
        color = _PALETTE[idx % len(_PALETTE)]
        y = legend_y + 16.0 * idx
        out.append(
            f'<line x1="{legend_x:.1f}" y1="{y:.1f}" x2="{legend_x + 22:.1f}" '
            f'y2="{y:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28:.1f}" y="{y + 4:.1f}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )

    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8:.1f}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
    )
    out.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
