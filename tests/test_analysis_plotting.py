"""Tests for repro.analysis.plotting."""

import numpy as np
import pytest

from repro.analysis.plotting import (
    ascii_heatmap,
    ascii_line_plot,
    series_csv,
)


class TestAsciiLinePlot:
    def test_contains_markers_and_ranges(self):
        x = np.linspace(0, 10, 20)
        y = x ** 2
        output = ascii_line_plot(x, y, width=40, height=10)
        assert "*" in output
        assert "100" in output  # y max appears in the header

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_line_plot([1, 2, 3], [1, 2])

    def test_constant_series_does_not_crash(self):
        output = ascii_line_plot([0, 1, 2], [5, 5, 5])
        assert "*" in output


class TestAsciiHeatmap:
    def test_scale_line_present(self):
        grid = np.array([[0.0, 1.0], [2.0, 3.0]])
        output = ascii_heatmap(grid, row_labels=["r0", "r1"], col_labels=["c0", "c1"])
        assert "scale:" in output
        assert output.splitlines()[1].startswith("r0")

    def test_nan_rendered_as_question_mark(self):
        grid = np.array([[np.nan, 1.0]])
        assert "?" in ascii_heatmap(grid)

    def test_rejects_empty_or_1d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.array([]))
        with pytest.raises(ValueError):
            ascii_heatmap(np.array([1.0, 2.0]))


class TestSeriesCsv:
    def test_basic_output(self):
        text = series_csv([1, 2], [10, 20], header=["x", "y"])
        lines = text.splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,10"

    def test_multiple_series(self):
        text = series_csv([1], [2], [3])
        assert text == "1,2,3"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            series_csv([1, 2], [1])
        with pytest.raises(ValueError):
            series_csv([1], [2], header=["x"])
