"""Plain-text plotting: scatter, line and bar charts for terminal output.

The experiment harness regenerates the paper's *figures*; these renderers
draw them as monospace charts so `python -m repro.experiments figN` and
EXPERIMENTS.md show an actual picture, with no plotting dependency.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.1e}"
    if abs(v) >= 10:
        return f"{v:.0f}"
    return f"{v:.2f}"


def scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 64,
    height: int = 16,
    marker: str = "o",
    logx: bool = False,
    logy: bool = False,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render an x/y scatter as text. NaN/inf points are dropped;
    log-scaled axes clip non-positive values."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    ok = np.isfinite(x) & np.isfinite(y)
    if logx:
        ok &= x > 0
    if logy:
        ok &= y > 0
    x, y = x[ok], y[ok]
    if x.size == 0:
        return f"{title}\n(no finite points)"
    tx = np.log10(x) if logx else x
    ty = np.log10(y) if logy else y
    x_lo, x_hi = float(tx.min()), float(tx.max())
    y_lo, y_hi = float(ty.min()), float(ty.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    cols = np.clip(((tx - x_lo) / (x_hi - x_lo) * (width - 1)).astype(int), 0, width - 1)
    rows = np.clip(((ty - y_lo) / (y_hi - y_lo) * (height - 1)).astype(int), 0, height - 1)
    for c, r in zip(cols, rows):
        grid[height - 1 - r][c] = marker
    out = []
    if title:
        out.append(title)
    y_hi_lbl = _fmt_tick(10 ** y_hi if logy else y_hi)
    y_lo_lbl = _fmt_tick(10 ** y_lo if logy else y_lo)
    lbl_w = max(len(y_hi_lbl), len(y_lo_lbl))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = y_hi_lbl.rjust(lbl_w)
        elif i == height - 1:
            prefix = y_lo_lbl.rjust(lbl_w)
        else:
            prefix = " " * lbl_w
        out.append(f"{prefix} |{''.join(row)}|")
    x_lo_lbl = _fmt_tick(10 ** x_lo if logx else x_lo)
    x_hi_lbl = _fmt_tick(10 ** x_hi if logx else x_hi)
    pad = width - len(x_lo_lbl) - len(x_hi_lbl)
    out.append(" " * (lbl_w + 2) + x_lo_lbl + " " * max(pad, 1) + x_hi_lbl)
    if xlabel or ylabel:
        out.append(" " * (lbl_w + 2) + f"x: {xlabel}   y: {ylabel}".rstrip())
    return "\n".join(out)


def line_chart(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 64,
    height: int = 14,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Multi-series line chart; each series gets its own marker."""
    markers = "ox+*#@%&"
    x = np.asarray(xs, dtype=np.float64)
    if x.size == 0 or not series:
        return f"{title}\n(no data)"
    all_y = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    all_y = all_y[np.isfinite(all_y)]
    if all_y.size == 0:
        return f"{title}\n(no data)"
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), markers):
        y = np.asarray(ys, dtype=np.float64)
        ok = np.isfinite(y)
        cols = np.clip(((x[ok] - x_lo) / (x_hi - x_lo) * (width - 1)).astype(int), 0, width - 1)
        rows = np.clip(((y[ok] - y_lo) / (y_hi - y_lo) * (height - 1)).astype(int), 0, height - 1)
        for c, r in zip(cols, rows):
            grid[height - 1 - r][c] = marker
    out = []
    if title:
        out.append(title)
    lbl_w = max(len(_fmt_tick(y_hi)), len(_fmt_tick(y_lo)))
    for i, row in enumerate(grid):
        prefix = (
            _fmt_tick(y_hi).rjust(lbl_w) if i == 0
            else _fmt_tick(y_lo).rjust(lbl_w) if i == height - 1
            else " " * lbl_w
        )
        out.append(f"{prefix} |{''.join(row)}|")
    x_lo_lbl, x_hi_lbl = _fmt_tick(x_lo), _fmt_tick(x_hi)
    pad = width - len(x_lo_lbl) - len(x_hi_lbl)
    out.append(" " * (lbl_w + 2) + x_lo_lbl + " " * max(pad, 1) + x_hi_lbl)
    legend = "   ".join(f"{m} {n}" for (n, _), m in zip(series.items(), markers))
    out.append(" " * (lbl_w + 2) + legend)
    if xlabel or ylabel:
        out.append(" " * (lbl_w + 2) + f"x: {xlabel}   y: {ylabel}".rstrip())
    return "\n".join(out)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: str = "",
    fmt: str = "{:.3f}",
) -> str:
    """Horizontal bar chart."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return f"{title}\n(no data)"
    v_max = float(np.nanmax(np.abs(vals))) or 1.0
    lbl_w = max(len(str(l)) for l in labels)
    out = [title] if title else []
    for label, v in zip(labels, vals):
        if not math.isfinite(v):
            bar = "?"
        else:
            bar = "#" * max(0, int(abs(v) / v_max * width))
        out.append(f"{str(label).rjust(lbl_w)} | {bar} {fmt.format(v)}")
    return "\n".join(out)
