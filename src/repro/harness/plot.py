"""ASCII figure rendering for experiment series.

The paper's evaluation is figures, not only tables; with no plotting
library available offline, this module renders log-log / lin-lin series
as Unicode scatter charts so ``python -m repro.harness run recon-F1
--plot`` shows the *shape* — the thing the reproduction is checked
against — directly in the terminal.

Example
-------
>>> text = ascii_plot({"rd": [(1, 1.0), (2, 2.0)]}, logx=True, logy=True,
...                   width=20, height=6, title="demo")
>>> "rd" in text
True
"""

from __future__ import annotations

import math
from typing import Sequence

from ..exceptions import ShapeError

__all__ = ["ascii_plot", "plot_experiment"]

_MARKERS = "oxv+*#@%"


def _transform(value: float, log: bool) -> float | None:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    if log:
        if value <= 0:
            return None
        return math.log10(value)
    return float(value)


def _ticks(lo: float, hi: float, log: bool, count: int = 4) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    return [10.0**v if log else v for v in raw]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-2:
        return f"{value:.1e}"
    return f"{value:.3g}"


def ascii_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    *,
    logx: bool = False,
    logy: bool = False,
    width: int = 60,
    height: int = 18,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render named ``(x, y)`` series as a Unicode scatter chart.

    Non-positive values are dropped on log axes; NaNs are skipped.
    Raises :class:`~repro.exceptions.ShapeError` when nothing remains.
    """
    if width < 16 or height < 4:
        raise ShapeError(f"plot must be at least 16x4, got {width}x{height}")
    points: list[tuple[float, float, int]] = []
    names = list(series)
    for s_idx, name in enumerate(names):
        for x, y in series[name]:
            tx = _transform(x, logx)
            ty = _transform(y, logy)
            if tx is not None and ty is not None:
                points.append((tx, ty, s_idx))
    if not points:
        raise ShapeError("no plottable points (all NaN/non-positive?)")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for tx, ty, s_idx in points:
        col = round((tx - xlo) / (xhi - xlo) * (width - 1))
        row = height - 1 - round((ty - ylo) / (yhi - ylo) * (height - 1))
        marker = _MARKERS[s_idx % len(_MARKERS)]
        cell = grid[row][col]
        # Overlapping series show as '&'.
        grid[row][col] = marker if cell in (" ", marker) else "&"

    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(names)
    )
    lines.append(legend)
    ytick_vals = _ticks(ylo, yhi, logy, count=3)
    label_width = max(len(_fmt(v)) for v in ytick_vals)
    for r, row in enumerate(grid):
        if r == 0:
            label = _fmt(ytick_vals[2])
        elif r == height - 1:
            label = _fmt(ytick_vals[0])
        elif r == height // 2:
            label = _fmt(ytick_vals[1])
        else:
            label = ""
        lines.append(f"{label:>{label_width}} |" + "".join(row))
    lines.append(" " * label_width + " +" + "-" * width)
    xticks = _ticks(xlo, xhi, logx, count=3)
    axis = f"{_fmt(xticks[0])}"
    mid = _fmt(xticks[1])
    right = _fmt(xticks[2])
    pad_mid = max(1, width // 2 - len(axis) - len(mid) // 2)
    pad_right = max(1, width - len(axis) - pad_mid - len(mid) - len(right))
    lines.append(
        " " * (label_width + 2) + axis + " " * pad_mid + mid
        + " " * pad_right + right
    )
    footer = []
    if xlabel:
        footer.append(f"x: {xlabel}" + (" (log)" if logx else ""))
    if ylabel:
        footer.append(f"y: {ylabel}" + (" (log)" if logy else ""))
    if footer:
        lines.append("  ".join(footer))
    return "\n".join(lines)


#: Per-experiment figure recipes: (x column, y columns, logx, logy).
_FIGURES: dict[str, tuple[str, tuple[str, ...], bool, bool]] = {
    "recon-F1": ("R", ("rd_vt", "ard_total_vt"), True, True),
    "recon-F2": ("R", ("speedup",), True, True),
    "recon-F3": ("P", ("rd_vt", "ard_total_vt"), True, True),
    "recon-F4": ("N", ("rd_vt", "ard_vt"), True, True),
    "recon-F5": ("M", ("rd_vt", "ard_solve_vt"), True, True),
    "recon-F6": ("predicted_s", ("measured_s",), True, True),
    "recon-F7": ("R", ("rd_wall_s", "ard_wall_s"), True, True),
    "recon-S1": ("growth", ("ard_rel_err", "eps*growth"), True, True),
    "recon-S2": ("growth", ("err_refine0", "err_refine1", "err_refine3"),
                 True, True),
    "abl-A1": ("P", ("virtual_time",), True, True),
    "abl-A2": ("batch", ("total_solve_vt",), True, True),
    "abl-A3": ("P", ("rd_vt", "ard_vt", "thomas_vt"), True, True),
}


def plot_experiment(result) -> str | None:
    """Render the standard figure for an
    :class:`~repro.harness.experiments.ExperimentResult`, or ``None``
    when the experiment has no figure recipe (pure tables)."""
    recipe = _FIGURES.get(result.exp_id)
    if recipe is None:
        return None
    x_col, y_cols, logx, logy = recipe
    xs = result.column(x_col)
    series = {}
    for y_col in y_cols:
        ys = result.column(y_col)
        pts = [
            (x, y) for x, y in zip(xs, ys)
            if isinstance(x, (int, float)) and isinstance(y, (int, float))
        ]
        if pts:
            series[y_col] = pts
    if not series:
        return None
    return ascii_plot(
        series,
        logx=logx,
        logy=logy,
        title=f"[{result.exp_id}] {result.title}",
        xlabel=x_col,
    )
