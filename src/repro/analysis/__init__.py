"""Measurement and trace utilities for the evaluation harness."""

from .energy import EnergyBreakdown, energy_for_stats, energy_per_transaction
from .metrics import (
    SummaryStats,
    format_series,
    format_table,
    summary_stats,
)
from .tracing import CreditTracePoint, CreditTracer
from .workloads import ParallelGrowth, confirmation_times, grow_parallel_tangle

__all__ = [
    "ParallelGrowth",
    "grow_parallel_tangle",
    "confirmation_times",
    "SummaryStats",
    "summary_stats",
    "format_table",
    "format_series",
    "CreditTracer",
    "CreditTracePoint",
    "EnergyBreakdown",
    "energy_for_stats",
    "energy_per_transaction",
]
