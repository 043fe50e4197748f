"""Experiment report formatting.

Benchmarks print their reproduced figures/tables through these helpers so the
output of ``pytest benchmarks/ --benchmark-only`` reads like the paper's
evaluation section: one titled report per experiment with aligned tables and
a paper-vs-measured comparison line.

The text-rendering accumulator here is :class:`TextReport`; the structured
data artefact of a scenario run is :class:`repro.scenarios.ExperimentReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence


@dataclass
class ReportTable:
    """A simple aligned text table."""

    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        headers = [str(column) for column in self.columns]
        string_rows = [[_format_cell(value) for value in row] for row in self.rows]
        widths = [len(header) for header in headers]
        for row in string_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        lines.append(" | ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
        lines.append("-+-".join("-" * width for width in widths))
        for row in string_rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@dataclass
class TextReport:
    """Accumulates the text of one reproduced experiment (figure or claim)."""

    experiment_id: str
    title: str
    paper_claim: Optional[str] = None
    sections: List[str] = field(default_factory=list)

    def add_text(self, text: str) -> None:
        self.sections.append(text)

    def add_table(self, table: ReportTable, caption: Optional[str] = None) -> None:
        block = table.render()
        if caption:
            block = f"{caption}\n{block}"
        self.sections.append(block)

    def add_comparison(self, quantity: str, paper_value: str, measured_value: str) -> None:
        self.sections.append(
            f"[paper-vs-measured] {quantity}: paper={paper_value}  measured={measured_value}"
        )

    def render(self) -> str:
        lines = [
            "=" * 72,
            f"{self.experiment_id}: {self.title}",
        ]
        if self.paper_claim:
            lines.append(f"Paper claim: {self.paper_claim}")
        lines.append("=" * 72)
        for section in self.sections:
            lines.append(section)
            lines.append("")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - thin convenience wrapper
        print(self.render())
