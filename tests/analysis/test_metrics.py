"""Tests for repro.analysis.metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.metrics import (
    format_series,
    format_table,
    summary_stats,
)


class TestSummaryStats:
    def test_known_sample(self):
        stats = summary_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)

    def test_odd_median(self):
        assert summary_stats([3.0, 1.0, 2.0]).median == 2.0

    def test_single_sample(self):
        stats = summary_stats([5.0])
        assert stats.std == 0.0
        assert stats.median == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_stats([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=50))
    def test_property_bounds(self, samples):
        stats = summary_stats(samples)
        # Allow float-summation slack: the mean of near-identical values
        # can land an ulp outside [min, max].
        slack = 1e-6 * max(1.0, abs(stats.minimum), abs(stats.maximum))
        assert stats.minimum <= stats.median <= stats.maximum
        assert stats.minimum - slack <= stats.mean <= stats.maximum + slack
        assert stats.std >= 0


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

    def test_format_series(self):
        text = format_series([(1.0, 0.5), (2.0, 0.25)],
                             x_label="difficulty", y_label="seconds")
        assert "difficulty" in text
        assert "0.25" in text
