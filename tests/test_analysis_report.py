"""Tests for repro.analysis.report."""

import pytest

from repro.analysis.report import ReportTable, TextReport


class TestReportTable:
    def test_render_alignment(self):
        table = ReportTable(columns=["name", "value"])
        table.add_row("alpha", 1.0)
        table.add_row("b", 123456.0)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        # All rows have the same width.
        assert len(set(len(line) for line in lines)) == 1

    def test_wrong_arity_rejected(self):
        table = ReportTable(columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_float_formatting(self):
        table = ReportTable(columns=["v"])
        table.add_row(0.000123456)
        assert "0.0001235" in table.render()

    def test_str_matches_render(self):
        table = ReportTable(columns=["a"])
        table.add_row("x")
        assert str(table) == table.render()


class TestTextReport:
    def test_render_contains_sections(self):
        report = TextReport("FIG3", "TDC DNL", paper_claim="INL below 1 LSB")
        report.add_text("measured something")
        table = ReportTable(columns=["k", "v"])
        table.add_row("dnl", 0.8)
        report.add_table(table, caption="DNL table")
        report.add_comparison("INL", "<1 LSB", "0.9 LSB")
        rendered = report.render()
        assert "FIG3: TDC DNL" in rendered
        assert "Paper claim: INL below 1 LSB" in rendered
        assert "measured something" in rendered
        assert "DNL table" in rendered
        assert "[paper-vs-measured] INL" in rendered

    def test_report_without_claim(self):
        report = TextReport("X", "title")
        assert "Paper claim" not in report.render()
