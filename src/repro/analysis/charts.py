"""Plain-text charts for terminal reports.

The benchmark harness regenerates the paper's *figures*; these helpers
make the text output actually look like them: scatter plots (Figures 5,
7, 9), line/step plots for CDFs (Figure 6), and horizontal box plots
(Figure 8).  No plotting dependency is available offline, and ASCII
keeps the output greppable and diffable.

All functions return a string; callers decide where to print it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.analysis.stats import BoxStats

#: Marker characters assigned to series, in order.
SERIES_MARKS = "ox+*#@%&"

#: Columns of a scatter or CDF plot.
PLOT_WIDTH = 64

#: Columns of a box plot, and of the labels left of it.
BOX_WIDTH = 56
BOX_LABEL_WIDTH = 30


def _scale(value: float, low: float, high: float, cells: int) -> int:
    """Map value in [low, high] to a cell index in [0, cells-1]."""
    if high <= low:
        return 0
    fraction = (value - low) / (high - low)
    return min(cells - 1, max(0, int(fraction * (cells - 1) + 0.5)))


def _bounds(values: Sequence[float]) -> Tuple[float, float]:
    low, high = min(values), max(values)
    if low == high:
        pad = abs(low) * 0.1 or 1.0
        return low - pad, high + pad
    return low, high


def scatter(series: Dict[str, Sequence[Tuple[float, float]]], *,
            height: int = 16,
            xlabel: str = "x", ylabel: str = "y",
            y_format: str = "%.0f") -> str:
    """Multi-series ASCII scatter plot, :data:`PLOT_WIDTH` columns wide.

    ``series`` maps a label to its (x, y) points.  Each series gets the
    next marker from :data:`SERIES_MARKS`; overlapping points from
    different series render as ``?``.
    """
    width = PLOT_WIDTH
    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        raise ValueError("nothing to plot")
    x_low, x_high = _bounds([p[0] for p in all_points])
    y_low, y_high = _bounds([p[1] for p in all_points])

    grid = [[" "] * width for _ in range(height)]
    for (label, points), mark in zip(series.items(), SERIES_MARKS):
        for x, y in points:
            column = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(y, y_low, y_high, height)
            cell = grid[row][column]
            grid[row][column] = mark if cell in (" ", mark) else "?"

    lines = []
    y_hi_label = y_format % y_high
    y_lo_label = y_format % y_low
    gutter = max(len(y_hi_label), len(y_lo_label))
    for index, row in enumerate(grid):
        if index == 0:
            label = y_hi_label.rjust(gutter)
        elif index == height - 1:
            label = y_lo_label.rjust(gutter)
        else:
            label = " " * gutter
        lines.append("%s |%s" % (label, "".join(row)))
    lines.append("%s +%s" % (" " * gutter, "-" * width))
    x_lo_label = "%.0f" % x_low
    x_hi_label = "%.0f" % x_high
    lines.append("%s  %s%s%s" % (
        " " * gutter, x_lo_label,
        " " * max(1, width - len(x_lo_label) - len(x_hi_label)),
        x_hi_label))
    legend = "   ".join("%s=%s" % (mark, label)
                        for (label, _), mark in zip(series.items(),
                                                    SERIES_MARKS))
    lines.append("%s  %s  (x: %s, y: %s)"
                 % (" " * gutter, legend, xlabel, ylabel))
    return "\n".join(lines)


def cdf_plot(series: Dict[str, Sequence[Tuple[float, float]]], *,
             xlabel: str = "value") -> str:
    """ASCII CDF plot: y is the cumulative fraction in [0, 1]."""
    converted = {}
    for label, points in series.items():
        converted[label] = [(x, f) for x, f in points]
    return scatter(converted, height=12,
                   xlabel=xlabel, ylabel="fraction <= x",
                   y_format="%.1f")


def hbox_plot(boxes: Sequence[Tuple[str, BoxStats]], *,
              value_format: str = "%.0f") -> str:
    """Horizontal box plots, one row per entry (the Figure-8 shape).

    Whisker ends render as ``|``, the interquartile box as ``=``, and
    the median as ``O``; labels are cut to :data:`BOX_LABEL_WIDTH`.
    """
    width, label_width = BOX_WIDTH, BOX_LABEL_WIDTH
    if not boxes:
        raise ValueError("nothing to plot")
    low = min(box.low_whisker for _, box in boxes)
    high = max(box.high_whisker for _, box in boxes)
    lines = []
    for label, box in boxes:
        cells = [" "] * width
        lo = _scale(box.low_whisker, low, high, width)
        q1 = _scale(box.q1, low, high, width)
        q3 = _scale(box.q3, low, high, width)
        hi = _scale(box.high_whisker, low, high, width)
        med = _scale(box.median, low, high, width)
        for column in range(lo, hi + 1):
            cells[column] = "-"
        for column in range(q1, q3 + 1):
            cells[column] = "="
        cells[lo] = cells[hi] = "|"
        cells[med] = "O"
        lines.append("%s |%s|" % (label[:label_width].ljust(label_width),
                                  "".join(cells)))
    scale_line = "%s  %s .. %s" % (" " * label_width,
                                   value_format % low,
                                   value_format % high)
    lines.append(scale_line)
    return "\n".join(lines)
