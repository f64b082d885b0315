"""Consolidated reproduction report.

:func:`generate_report` runs every figure driver and renders one
markdown document with measured-vs-paper values and pass/fail shape
checks — the artifact a reviewer reads to judge the reproduction
without running the benchmark harness.  The CLI exposes it as
``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .figures import (
    PAPER_FIG9_MEANS,
    PAPER_FIG10_ANCHORS,
    fig7_pow_running_time,
    fig8_credit_trace,
    fig9_pow_comparison,
    fig10_aes_timing,
)
from .metrics import format_table

__all__ = ["ShapeCheck", "generate_report"]


@dataclass(frozen=True)
class ShapeCheck:
    """One verified qualitative property of a reproduced figure."""

    figure: str
    claim: str
    holds: bool

    def render(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        return f"- [{mark}] {self.claim}"


def _fig7_section(checks: List[ShapeCheck]) -> str:
    points = fig7_pow_running_time(samples_per_level=3)
    rows = [
        (p.difficulty, f"{p.expected_seconds:.3f}",
         f"{p.paper_seconds:.3f}" if p.paper_seconds else "-")
        for p in points
    ]
    expected = [p.expected_seconds for p in points]
    checks.append(ShapeCheck(
        "Fig. 7", "PoW time grows monotonically with difficulty",
        expected == sorted(expected)))
    checks.append(ShapeCheck(
        "Fig. 7", "growth is exponential (knee past D=11)",
        expected[13] > 7 * expected[10]))
    return "## Fig. 7 — PoW time vs difficulty\n\n" + format_table(
        rows, headers=["D", "expected (s)", "paper (s)"])


def _fig8_section(checks: List[ShapeCheck]) -> str:
    one = fig8_credit_trace(attack_times=(24.0,))
    two = fig8_credit_trace(attack_times=(24.0, 60.0))
    checks.append(ShapeCheck(
        "Fig. 8", "credit dives sharply at the attack",
        one.minimum_credit < -15.0))
    checks.append(ShapeCheck(
        "Fig. 8", "punished node silent for tens of seconds (paper: 37 s)",
        20.0 < one.longest_transaction_gap < 80.0))
    checks.append(ShapeCheck(
        "Fig. 8", "two attacks recover slower than one",
        len(two.transaction_times) <= len(one.transaction_times)))
    rows = [
        ("one attack", f"{one.minimum_credit:.1f}",
         f"{one.longest_transaction_gap:.1f}", len(one.transaction_times)),
        ("two attacks", f"{two.minimum_credit:.1f}",
         f"{two.longest_transaction_gap:.1f}", len(two.transaction_times)),
    ]
    return "## Fig. 8 — credit dynamics under attack\n\n" + format_table(
        rows, headers=["scenario", "min credit", "longest gap (s)", "txs"])


def _fig9_section(checks: List[ShapeCheck]) -> str:
    regimes = {r.name: r for r in fig9_pow_comparison()}
    rows = [
        (name, f"{r.mean_pow_seconds:.3f}", f"{r.paper_seconds:.3f}")
        for name, r in regimes.items()
    ]
    checks.append(ShapeCheck(
        "Fig. 9", "ordering: normal < original < 1 attack < 2 attacks",
        regimes["credit-normal"].mean_pow_seconds
        < regimes["original-pow"].mean_pow_seconds
        < regimes["credit-1-attack"].mean_pow_seconds
        < regimes["credit-2-attacks"].mean_pow_seconds))
    within = all(
        0.5 < regimes[name].mean_pow_seconds / paper < 2.0
        for name, paper in PAPER_FIG9_MEANS.items()
    )
    checks.append(ShapeCheck(
        "Fig. 9", "every regime within 2x of the paper's value", within))
    return "## Fig. 9 — mean PoW per transaction\n\n" + format_table(
        rows, headers=["regime", "ours (s)", "paper (s)"])


def _fig10_section(checks: List[ShapeCheck]) -> str:
    points = fig10_aes_timing(max_exponent=18)
    rows = [
        (p.message_bytes, f"{p.measured_seconds:.5f}",
         f"{p.modelled_rpi_seconds:.5f}",
         f"{p.paper_seconds:.5f}" if p.paper_seconds else "-")
        for p in points
        if p.message_bytes in (64, 4096, 65536, 262144)
    ]
    measured = {p.message_bytes: p.measured_seconds for p in points}
    checks.append(ShapeCheck(
        "Fig. 10", "AES time linear in message length (upper decades)",
        8 < measured[2 ** 18] / measured[2 ** 14] < 32))
    # The paper's 0.373 s is a Raspberry Pi 3B figure: check it on the
    # Pi model, not on however fast the host running the report is.
    modelled = {p.message_bytes: p.modelled_rpi_seconds
                for p in points}[2 ** 18]
    paper = PAPER_FIG10_ANCHORS[2 ** 18]
    checks.append(ShapeCheck(
        "Fig. 10", "256 KB encrypts in under a second on the Pi model, "
        "within 2x of the paper's value",
        modelled < 1.0 and 0.5 < modelled / paper < 2.0))
    return "## Fig. 10 — AES time vs message length\n\n" + format_table(
        rows, headers=["bytes", "measured (s)", "RPi model (s)", "paper (s)"])


def generate_report() -> str:
    """Run all four figure drivers and render the markdown report."""
    checks: List[ShapeCheck] = []
    sections = [
        "# B-IoT reproduction report",
        "",
        "Generated by `python -m repro report`. Paper: Huang et al., "
        "ICDCS 2019. Simulated-hardware caveats in DESIGN.md §3-4.",
        "",
        _fig7_section(checks),
        "",
        _fig8_section(checks),
        "",
        _fig9_section(checks),
        "",
        _fig10_section(checks),
        "",
        "## Shape checks",
        "",
    ]
    sections.extend(check.render() for check in checks)
    passed = sum(1 for check in checks if check.holds)
    sections.append("")
    sections.append(f"**{passed}/{len(checks)} shape checks pass.**")
    return "\n".join(sections)
