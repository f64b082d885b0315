"""The declarative fault-campaign DSL.

A :class:`FaultPlan` is an immutable, validated list of timed fault
events — partitions, crash/restart churn, loss/latency/duplication
bursts, clock skew — expressed entirely in simulated seconds relative
to the moment the plan is applied.  Plans carry no behaviour: the
:class:`~repro.faults.injector.FaultInjector` schedules them onto the
event loop, and :meth:`FaultPlan.describe` renders a canonical
plain-data form for reports and golden files.

Build plans with :class:`PlanBuilder`::

    plan = (PlanBuilder("partition-heal")
            .partition(10.0, 25.0, ("gateway-0",), ("gateway-1", "manager"))
            .loss(at=30.0, until=36.0, rate=0.3)
            .build())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FaultEvent",
    "PartitionFault",
    "CrashFault",
    "LossBurst",
    "LatencyBurst",
    "DuplicationBurst",
    "ClockSkewFault",
    "FaultPlan",
    "PlanBuilder",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one injection at simulated offset *at*."""

    at: float

    kind = "fault"

    def __post_init__(self):
        if self.at < 0:
            raise ValueError("fault time must be non-negative")

    def end_time(self) -> Optional[float]:
        """When the fault reverts, or None for permanent faults."""
        return None

    def _check_window(self, end: Optional[float], label: str) -> None:
        if end is not None and end <= self.at:
            raise ValueError(f"{label} must come after the injection time")

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError


@dataclass(frozen=True)
class PartitionFault(FaultEvent):
    """Split the network into named groups: every cross-group link is
    cut at *at* and healed at *heal_at*."""

    groups: Tuple[Tuple[str, ...], ...] = ()
    heal_at: Optional[float] = None

    kind = "partition"

    def __post_init__(self):
        super().__post_init__()
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ValueError("partition groups must be non-empty")
            overlap = seen.intersection(group)
            if overlap:
                raise ValueError(
                    f"address in two partition groups: {sorted(overlap)}")
            seen.update(group)
        self._check_window(self.heal_at, "heal_at")

    def end_time(self) -> Optional[float]:
        return self.heal_at

    def cross_links(self) -> List[Tuple[str, str]]:
        """Every (a, b) pair straddling two groups, deterministic order."""
        pairs: List[Tuple[str, str]] = []
        for i, left in enumerate(self.groups):
            for right in self.groups[i + 1:]:
                for a in left:
                    for b in right:
                        pairs.append((a, b))
        return pairs

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "at": self.at,
                "groups": [list(g) for g in self.groups],
                "heal_at": self.heal_at}


@dataclass(frozen=True)
class CrashFault(FaultEvent):
    """Crash a node at *at*; restart it at *restart_at* (None = never).

    A restarted full node resyncs with its peers (anti-entropy) unless
    *resync_on_restart* is disabled.  With *cold_restart* the node's
    volatile state is rebuilt from its durable store before the resync
    (a process-death restart, not a network blip) — which requires the
    deployment to run a durable storage backend; a cold restart of a
    store-less node is refused rather than silently regenerating
    genesis state.
    """

    address: str = ""
    restart_at: Optional[float] = None
    resync_on_restart: bool = True
    cold_restart: bool = False

    kind = "crash"

    def __post_init__(self):
        super().__post_init__()
        if not self.address:
            raise ValueError("a crash needs a target address")
        self._check_window(self.restart_at, "restart_at")

    def end_time(self) -> Optional[float]:
        return self.restart_at

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "at": self.at, "address": self.address,
                "restart_at": self.restart_at,
                "resync_on_restart": self.resync_on_restart,
                "cold_restart": self.cold_restart}


@dataclass(frozen=True)
class _BurstFault(FaultEvent):
    """Shared shape for windowed link disturbances (``"*"`` = any)."""

    until: float = 0.0
    a: str = "*"
    b: str = "*"

    def __post_init__(self):
        super().__post_init__()
        self._check_window(self.until, "until")

    def end_time(self) -> Optional[float]:
        return self.until


@dataclass(frozen=True)
class LossBurst(_BurstFault):
    """Extra message loss on matching links during the window."""

    rate: float = 0.3

    kind = "loss_burst"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.rate < 1.0:
            raise ValueError("loss rate must be in (0, 1)")

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "at": self.at, "until": self.until,
                "a": self.a, "b": self.b, "rate": self.rate}


@dataclass(frozen=True)
class LatencyBurst(_BurstFault):
    """Extra delay (and reordering jitter) during the window."""

    extra_latency: float = 0.5
    extra_jitter: float = 0.0

    kind = "latency_burst"

    def __post_init__(self):
        super().__post_init__()
        if self.extra_latency < 0 or self.extra_jitter < 0:
            raise ValueError("latency burst delays must be non-negative")
        if self.extra_latency == 0 and self.extra_jitter == 0:
            raise ValueError("a latency burst must add latency or jitter")

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "at": self.at, "until": self.until,
                "a": self.a, "b": self.b,
                "extra_latency": self.extra_latency,
                "extra_jitter": self.extra_jitter}


@dataclass(frozen=True)
class DuplicationBurst(_BurstFault):
    """Probabilistic message duplication during the window."""

    probability: float = 0.5

    kind = "duplication_burst"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.probability < 1.0:
            raise ValueError("duplication probability must be in (0, 1)")

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "at": self.at, "until": self.until,
                "a": self.a, "b": self.b, "probability": self.probability}


@dataclass(frozen=True)
class ClockSkewFault(FaultEvent):
    """Skew one node's local clock by *offset* seconds for the window
    (*until* None = for the rest of the run)."""

    address: str = ""
    offset: float = 0.0
    until: Optional[float] = None

    kind = "clock_skew"

    def __post_init__(self):
        super().__post_init__()
        if not self.address:
            raise ValueError("clock skew needs a target address")
        if self.offset == 0.0:
            raise ValueError("clock skew offset must be non-zero")
        self._check_window(self.until, "until")

    def end_time(self) -> Optional[float]:
        return self.until

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "at": self.at, "address": self.address,
                "offset": self.offset, "until": self.until}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault campaign: events sorted by injection time."""

    events: Tuple[FaultEvent, ...] = ()
    name: str = "empty"

    def __post_init__(self):
        object.__setattr__(
            self, "events",
            tuple(sorted(self.events, key=lambda e: (e.at, e.kind))))

    def last_event_time(self) -> float:
        """The latest injection or heal time in the plan (0 if empty)."""
        latest = 0.0
        for event in self.events:
            latest = max(latest, event.at, event.end_time() or 0.0)
        return latest

    def describe(self) -> List[Dict[str, object]]:
        """Canonical plain-data form (stable across runs)."""
        return [event.describe() for event in self.events]


class PlanBuilder:
    """Fluent construction of a :class:`FaultPlan`."""

    def __init__(self, name: str = "custom"):
        self.name = name
        self._events: List[FaultEvent] = []

    def partition(self, at: float, heal_at: Optional[float],
                  *groups: Tuple[str, ...]) -> "PlanBuilder":
        self._events.append(PartitionFault(
            at=at, groups=tuple(tuple(g) for g in groups), heal_at=heal_at))
        return self

    def crash(self, at: float, address: str, *,
              restart_at: Optional[float] = None,
              resync_on_restart: bool = True,
              cold_restart: bool = False) -> "PlanBuilder":
        self._events.append(CrashFault(
            at=at, address=address, restart_at=restart_at,
            resync_on_restart=resync_on_restart,
            cold_restart=cold_restart))
        return self

    def loss(self, at: float, until: float, rate: float, *,
             a: str = "*", b: str = "*") -> "PlanBuilder":
        self._events.append(LossBurst(at=at, until=until, rate=rate, a=a, b=b))
        return self

    def latency(self, at: float, until: float, extra_latency: float, *,
                extra_jitter: float = 0.0, a: str = "*",
                b: str = "*") -> "PlanBuilder":
        self._events.append(LatencyBurst(
            at=at, until=until, extra_latency=extra_latency,
            extra_jitter=extra_jitter, a=a, b=b))
        return self

    def duplicate(self, at: float, until: float, probability: float, *,
                  a: str = "*", b: str = "*") -> "PlanBuilder":
        self._events.append(DuplicationBurst(
            at=at, until=until, probability=probability, a=a, b=b))
        return self

    def skew(self, at: float, address: str, offset: float, *,
             until: Optional[float] = None) -> "PlanBuilder":
        self._events.append(ClockSkewFault(
            at=at, address=address, offset=offset, until=until))
        return self

    def build(self) -> FaultPlan:
        return FaultPlan(events=tuple(self._events), name=self.name)
