"""Tests for table formatters and figure series."""

import numpy as np
import pytest

from repro.metrics.figures import (
    FigureSeries,
    combination_figure_series,
    render_ascii_chart,
    vanilla_figure_series,
)
from repro.metrics.tables import (
    format_combination_table,
    format_table1,
    render_table,
    series_row,
)


class TestTables:
    def test_series_row_formats(self):
        row = series_row("label", [0.12345, 0.5])
        assert row == ["label", "0.1235", "0.5000"]

    def test_render_table_aligns(self):
        text = render_table("T", ["col_a", "b"], [["1", "22"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line.rstrip()) <= len(lines[1]) + 2 for line in lines)
        assert "col_a" in lines[1]

    def test_format_table1_structure(self):
        series = {
            "A": {"consider": [0.1, 0.2], "not_consider": [0.15, 0.25]},
            "B": {"consider": [0.1, 0.2], "not_consider": [0.15, 0.25]},
        }
        text = format_table1("Simple NN", series)
        assert "Consider" in text
        assert "Not consider" in text
        assert "0.2500" in text
        assert text.count("Simple NN") == 4  # two clients x two agg types

    def test_format_combination_table_row_order(self):
        series = {
            "A,B,C": [0.3],
            "A": [0.1],
            "B,C": [0.25],
            "A,B": [0.2],
            "A,C": [0.22],
        }
        text = format_combination_table("Simple NN", "A", series)
        lines = [line for line in text.splitlines() if line.startswith("Simple NN")]
        order = [line.split()[2] for line in lines]
        # Solo self first, pairs with self, other pair, then the full set.
        assert order[0] == "A"
        assert order[-1] == "A,B,C"
        assert set(order[1:3]) == {"A,B", "A,C"}
        assert order[3] == "B,C"


class TestFigures:
    def test_vanilla_series_structure(self):
        data = {"A": {"consider": [0.1, 0.2], "not_consider": [0.1, 0.3]}}
        figures = vanilla_figure_series(data)
        assert "Client A" in figures
        labels = [series.label for series in figures["Client A"]]
        assert labels == ["consider", "not_consider"]

    def test_combination_series_sorted_by_size(self):
        data = {"A": {"A,B,C": [0.3], "A": [0.1], "B,C": [0.2]}}
        figures = combination_figure_series(data)
        labels = [series.label for series in figures["Client A"]]
        assert labels == ["A", "B,C", "A,B,C"]

    def test_figure_series_final(self):
        assert FigureSeries("x", [0.1, 0.5]).final() == 0.5
        assert np.isnan(FigureSeries("empty").final())

    def test_render_ascii_chart(self):
        chart = render_ascii_chart(
            [FigureSeries("up", [0.0, 0.5, 1.0]), FigureSeries("flat", [0.5, 0.5, 0.5])],
            title="demo",
        )
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert any("up" in line for line in lines)
        assert "scale:" in lines[-1]

    def test_render_empty(self):
        assert "(no data)" in render_ascii_chart([])
