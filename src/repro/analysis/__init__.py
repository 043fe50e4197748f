"""Analysis helpers: units, confidence intervals, plotting and reports."""

from repro.analysis.units import (
    GHZ,
    KELVIN_0C,
    MHZ,
    NS,
    PS,
    US,
    db_to_linear,
    format_engineering,
    format_si,
    linear_to_db,
)
from repro.analysis.statistics import binomial_confidence_95
from repro.analysis.plotting import ascii_heatmap, ascii_line_plot
from repro.analysis.report import ReportTable, TextReport

__all__ = [
    "PS",
    "NS",
    "US",
    "MHZ",
    "GHZ",
    "KELVIN_0C",
    "db_to_linear",
    "linear_to_db",
    "format_si",
    "format_engineering",
    "binomial_confidence_95",
    "ascii_heatmap",
    "ascii_line_plot",
    "TextReport",
    "ReportTable",
]
