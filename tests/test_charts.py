"""Tests for the ASCII chart helpers."""

import pytest

from repro.analysis.charts import BOX_LABEL_WIDTH, cdf_plot, hbox_plot, scatter
from repro.analysis.stats import BoxStats


def test_scatter_renders_all_series():
    text = scatter({"alpha": [(0, 0), (10, 10)],
                    "beta": [(5, 5)]},
                   height=10, xlabel="rtt", ylabel="ms")
    assert "o=alpha" in text
    assert "x=beta" in text
    assert "(x: rtt, y: ms)" in text
    # Corner points appear at the extremes.
    lines = text.splitlines()
    assert "o" in lines[0]          # top row has the (10, 10) point
    assert "o" in lines[9]          # bottom row has the (0, 0) point


def test_scatter_marks_collisions():
    text = scatter({"a": [(1, 1)], "b": [(1, 1)]}, height=5)
    assert "?" in text


def test_scatter_requires_points():
    with pytest.raises(ValueError):
        scatter({"empty": []})


def test_scatter_single_point_degenerate_ranges():
    text = scatter({"only": [(3.0, 7.0)]}, height=6)
    assert "o" in text


def test_cdf_plot_axis_label():
    points = [(i, (i + 1) / 10) for i in range(10)]
    text = cdf_plot({"svc": points}, xlabel="RTT ms")
    assert "fraction <= x" in text
    assert "RTT ms" in text


def test_hbox_plot_shapes():
    boxes = [("node-a", BoxStats(1, 2, 3, 4, 5)),
             ("node-b", BoxStats(2, 3, 4, 5, 6))]
    text = hbox_plot(boxes)
    lines = text.splitlines()
    assert len(lines) == 3
    for line in lines[:2]:
        assert "O" in line          # median marker
        assert "=" in line          # IQR box
        assert line.count("|") >= 2  # whisker ends + frame
    with pytest.raises(ValueError):
        hbox_plot([])


def test_hbox_labels_truncated():
    long_label = "x" * 100
    text = hbox_plot([(long_label, BoxStats(1, 2, 3, 4, 5))])
    assert text.splitlines()[0].startswith("x" * BOX_LABEL_WIDTH + " ")
