"""Analysis helpers: units, confidence intervals, plotting and reports."""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".units": (
        "GHZ", "KELVIN_0C", "MHZ", "NS", "PS", "US", "db_to_linear",
        "format_engineering", "format_si", "linear_to_db",
    ),
    ".statistics": ("binomial_confidence_95",),
    ".plotting": ("ascii_heatmap", "ascii_line_plot"),
    ".report": ("ReportTable", "TextReport"),
})

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
