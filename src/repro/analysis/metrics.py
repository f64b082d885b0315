"""Measurement utilities shared by tests, examples and benchmarks.

Nothing here is paper-specific; it is the plumbing that turns raw node
statistics into the tables the evaluation section reports: plain-text
table formatting for benchmark output.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table"]


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
