"""Reporting: table formatters (Tables I-IV) and figure series (Figs 3-4)."""

from repro.metrics.tables import (
    format_table1,
    format_combination_table,
    render_table,
    series_row,
)
from repro.metrics.figures import FigureSeries, vanilla_figure_series, combination_figure_series, render_ascii_chart

__all__ = [
    "format_table1",
    "format_combination_table",
    "render_table",
    "series_row",
    "FigureSeries",
    "vanilla_figure_series",
    "combination_figure_series",
    "render_ascii_chart",
]
