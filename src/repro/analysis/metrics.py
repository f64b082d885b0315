"""Measurement utilities shared by tests, examples and benchmarks.

Nothing here is paper-specific; it is the plumbing that turns raw node
statistics into the series and tables the evaluation section reports:
summary statistics and plain-text table/series formatting for
benchmark output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "summary_stats",
    "SummaryStats",
    "format_table",
    "format_series",
]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float


def summary_stats(samples: Sequence[float]) -> SummaryStats:
    """Compute :class:`SummaryStats`; raises on an empty sample."""
    if not samples:
        raise ValueError("cannot summarise an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((x - mean) ** 2 for x in ordered) / n
    if n % 2 == 1:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        median=median,
        maximum=ordered[-1],
    )


def format_table(rows: Iterable[Sequence[object]],
                 headers: Optional[Sequence[str]] = None) -> str:
    """Render rows as an aligned plain-text table (benchmark output)."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    if headers is not None:
        materialised.insert(0, [str(h) for h in headers])
    if not materialised:
        return ""
    widths = [
        max(len(row[col]) for row in materialised if col < len(row))
        for col in range(max(len(row) for row in materialised))
    ]
    lines = []
    for index, row in enumerate(materialised):
        padded = [cell.ljust(widths[col]) for col, cell in enumerate(row)]
        lines.append("  ".join(padded).rstrip())
        if headers is not None and index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_series(series: Iterable[Tuple[float, float]], *,
                  x_label: str = "x", y_label: str = "y",
                  precision: int = 4) -> str:
    """Render an (x, y) series as two aligned columns."""
    rows = [
        (f"{x:.{precision}g}", f"{y:.{precision}g}")
        for x, y in series
    ]
    return format_table(rows, headers=[x_label, y_label])
