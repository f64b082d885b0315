"""Tests for repro.analysis.metrics."""

from repro.analysis.metrics import format_table


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            [("a", 1), ("long-name", 22)],
            headers=["name", "value"],
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_format_table_without_headers(self):
        text = format_table([("x", "y")])
        assert text == "x  y"

    def test_format_table_empty(self):
        assert format_table([]) == ""
