"""Text-mode rendering of benchmark figures.

The benchmark harness has to regenerate the *shape* of the paper's figures
without any plotting dependency, so the renderers here produce ASCII art and
CSV-ready series that can be inspected directly in the terminal or piped into
an external plotting tool.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def ascii_line_plot(
    x: Sequence[float],
    y: Sequence[float],
    width: int = 70,
    height: int = 20,
    marker: str = "*",
) -> str:
    """Render a scatter/line plot of ``y`` versus ``x`` on a character grid."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.size == 0 or x_arr.size != y_arr.size:
        raise ValueError("x and y must be non-empty and of equal length")
    x_min, x_max = float(x_arr.min()), float(x_arr.max())
    y_min, y_max = float(y_arr.min()), float(y_arr.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for xi, yi in zip(x_arr, y_arr):
        col = int(round((xi - x_min) / x_span * (width - 1)))
        row = int(round((yi - y_min) / y_span * (height - 1)))
        grid[height - 1 - row][col] = marker
    lines = ["".join(row) for row in grid]
    header = f"y: [{y_min:.4g}, {y_max:.4g}]  x: [{x_min:.4g}, {x_max:.4g}]"
    return header + "\n" + "\n".join("|" + line for line in lines) + "\n+" + "-" * width


def ascii_heatmap(
    grid: np.ndarray,
    row_labels: Optional[Sequence] = None,
    col_labels: Optional[Sequence] = None,
    palette: str = " .:-=+*#%@",
) -> str:
    """Render a 2-D array as a character heatmap (dark = low, dense = high).

    NaN cells are rendered as ``'?'``.
    """
    array = np.asarray(grid, dtype=float)
    if array.ndim != 2 or array.size == 0:
        raise ValueError("grid must be a non-empty 2-D array")
    finite = array[np.isfinite(array)]
    low = float(finite.min()) if finite.size else 0.0
    high = float(finite.max()) if finite.size else 1.0
    span = (high - low) or 1.0
    rows, cols = array.shape
    if row_labels is None:
        row_labels = [str(i) for i in range(rows)]
    if col_labels is None:
        col_labels = [str(j) for j in range(cols)]
    label_width = max(len(str(label)) for label in row_labels)
    lines = []
    header = " " * (label_width + 1) + "".join(str(label)[0] for label in col_labels)
    lines.append(header)
    for i in range(rows):
        chars = []
        for j in range(cols):
            value = array[i, j]
            if not np.isfinite(value):
                chars.append("?")
                continue
            level = int((value - low) / span * (len(palette) - 1))
            chars.append(palette[level])
        lines.append(f"{str(row_labels[i]):>{label_width}} " + "".join(chars))
    lines.append(f"scale: '{palette[0]}'={low:.4g} .. '{palette[-1]}'={high:.4g}")
    return "\n".join(lines)


def series_csv(x: Sequence[float], *ys: Sequence[float], header: Optional[Sequence[str]] = None) -> str:
    """Format one or more series as CSV text (for copy/paste into a plotter)."""
    x_arr = np.asarray(x, dtype=float)
    columns = [np.asarray(y, dtype=float) for y in ys]
    for column in columns:
        if column.size != x_arr.size:
            raise ValueError("all series must have the same length as x")
    lines = []
    if header is not None:
        if len(header) != 1 + len(columns):
            raise ValueError("header must name x and every series")
        lines.append(",".join(header))
    for i in range(x_arr.size):
        row = [f"{x_arr[i]:.6g}"] + [f"{column[i]:.6g}" for column in columns]
        lines.append(",".join(row))
    return "\n".join(lines)
