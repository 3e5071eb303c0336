"""Tests for the report formatting helpers."""

from __future__ import annotations

from repro.harness.report import format_series, format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [("x", 1), ("yyyy", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) >= 5 for line in lines)

    def test_title_included(self):
        text = format_table(["a"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["v"], [(1234.5678,), (0.123456,), (12.3456,), (0.0,)])
        assert "1235" in text
        assert "0.123" in text
        assert "12.35" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert len(text.splitlines()) == 2  # header + rule


class TestFormatSeries:
    def test_basic(self):
        text = format_series("lat", [(0.0, 10.0), (1.0, 20.0)], unit="us")
        assert "lat (us):" in text
        assert len(text.splitlines()) == 3

    def test_no_unit(self):
        text = format_series("x", [(0.0, 1.0)])
        assert text.splitlines()[0] == "x:"
