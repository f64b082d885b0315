"""Executes a :class:`~repro.faults.plan.FaultPlan` on the event loop.

The injector is the only component that touches the network's failure
switches: it schedules each event's injection and its heal on the
shared :class:`~repro.network.simulator.EventScheduler`, keeps an
audit log of everything it did, and — because the paper's availability
claim depends on replicas *reconverging* — triggers anti-entropy
resync on the surviving full nodes a beat after every heal or restart.

All fault times are offsets from the moment :meth:`apply` is called,
so the same plan can be replayed against systems whose warm-up phases
took different amounts of simulated time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..network.network import Network
from ..network.transport import LinkOverlay
from ..telemetry.registry import coerce_registry
from .plan import (
    ClockSkewFault,
    CrashFault,
    DuplicationBurst,
    FaultPlan,
    LatencyBurst,
    LossBurst,
    PartitionFault,
)

__all__ = ["FaultInjector"]

DEFAULT_RESYNC_DELAY = 0.5
"""Seconds between a heal/restart and the triggered anti-entropy sync."""


class FaultInjector:
    """Schedules a fault plan against a live network.

    Args:
        network: the fabric whose switches get flipped.
        full_nodes: gateway/manager nodes that should anti-entropy
            resync after heals and restarts (matched by address for
            crash-restart handling).
        resync_delay: seconds after a heal before resync fires.
        telemetry: registry for the ``repro_fault_*`` counters.
    """

    def __init__(self, network: Network, *, full_nodes: Sequence = (),
                 resync_delay: float = DEFAULT_RESYNC_DELAY,
                 telemetry=None):
        self.network = network
        self.full_nodes = list(full_nodes)
        self.resync_delay = resync_delay
        self.telemetry = coerce_registry(telemetry)
        self.injection_log: List[Tuple[float, str, str]] = []
        self.plans_applied = 0
        self._m_injections = self.telemetry.counter(
            "repro_fault_injections_total",
            "Fault events injected, by kind")
        self._m_heals = self.telemetry.counter(
            "repro_fault_heals_total",
            "Fault events healed/reverted, by kind")
        self._m_resyncs = self.telemetry.counter(
            "repro_fault_resyncs_total",
            "Anti-entropy resyncs triggered after heals and restarts")

    @property
    def scheduler(self):
        return self.network.scheduler

    # -- audit -----------------------------------------------------------

    def _log(self, action: str, kind: str, detail: str) -> None:
        now = self.scheduler.clock.now()
        self.injection_log.append((now, f"{action}:{kind}", detail))
        if action == "inject":
            self._m_injections.inc(kind=kind)
        else:
            self._m_heals.inc(kind=kind)

    # -- application -----------------------------------------------------

    def apply(self, plan: FaultPlan) -> None:
        """Schedule every event in *plan*, offsets relative to now."""
        self.plans_applied += 1
        base = self.scheduler.clock.now()
        for event in plan.events:
            if isinstance(event, PartitionFault):
                self._schedule_partition(base, event)
            elif isinstance(event, CrashFault):
                self._schedule_crash(base, event)
            elif isinstance(event, (LossBurst, LatencyBurst,
                                    DuplicationBurst)):
                self._schedule_burst(base, event)
            elif isinstance(event, ClockSkewFault):
                self._schedule_skew(base, event)
            else:  # pragma: no cover - the DSL is closed
                raise TypeError(f"unknown fault event {type(event).__name__}")

    # -- partitions -------------------------------------------------------

    def _schedule_partition(self, base: float, event: PartitionFault) -> None:
        links = event.cross_links()

        def inject() -> None:
            for a, b in links:
                self.network.cut_link(a, b)
            self._log("inject", event.kind,
                      "|".join(",".join(g) for g in event.groups))

        def heal() -> None:
            for a, b in links:
                self.network.heal_link(a, b)
            self._log("heal", event.kind,
                      "|".join(",".join(g) for g in event.groups))
            self._schedule_resync()

        self.scheduler.schedule_at(base + event.at, inject)
        if event.heal_at is not None:
            self.scheduler.schedule_at(base + event.heal_at, heal)

    # -- crash / restart --------------------------------------------------

    def _full_node_at(self, address: str):
        for node in self.full_nodes:
            if node.address == address:
                return node
        return None

    def _schedule_crash(self, base: float, event: CrashFault) -> None:
        def inject() -> None:
            self.network.take_down(event.address)
            self._log("inject", event.kind, event.address)

        def restart() -> None:
            self.network.bring_up(event.address)
            node = self._full_node_at(event.address)
            if event.cold_restart and node is not None:
                replayed = node.cold_restore()
                self._log("heal", event.kind,
                          f"{event.address} cold:{replayed}")
            else:
                self._log("heal", event.kind, event.address)
            if node is not None and event.resync_on_restart:
                self._schedule_resync(only=node)

        self.scheduler.schedule_at(base + event.at, inject)
        if event.restart_at is not None:
            self.scheduler.schedule_at(base + event.restart_at, restart)

    # -- bursts -----------------------------------------------------------

    def _schedule_burst(self, base: float, event) -> None:
        if isinstance(event, LossBurst):
            overlay = LinkOverlay(extra_loss=event.rate)
        elif isinstance(event, LatencyBurst):
            overlay = LinkOverlay(extra_latency=event.extra_latency,
                                  extra_jitter=event.extra_jitter)
        else:
            overlay = LinkOverlay(duplicate_probability=event.probability)
        holder: Dict[str, int] = {}

        def inject() -> None:
            holder["token"] = self.network.add_overlay(
                event.a, event.b, overlay)
            self._log("inject", event.kind, f"{event.a}<->{event.b}")

        def heal() -> None:
            token = holder.pop("token", None)
            if token is not None:
                self.network.remove_overlay(token)
            self._log("heal", event.kind, f"{event.a}<->{event.b}")

        self.scheduler.schedule_at(base + event.at, inject)
        self.scheduler.schedule_at(base + event.until, heal)

    # -- clock skew --------------------------------------------------------

    def _schedule_skew(self, base: float, event: ClockSkewFault) -> None:
        def inject() -> None:
            self.network.node(event.address).clock_offset = event.offset
            self._log("inject", event.kind,
                      f"{event.address}{event.offset:+.3f}s")

        def heal() -> None:
            self.network.node(event.address).clock_offset = 0.0
            self._log("heal", event.kind, event.address)

        self.scheduler.schedule_at(base + event.at, inject)
        if event.until is not None:
            self.scheduler.schedule_at(base + event.until, heal)

    # -- recovery ---------------------------------------------------------

    def _schedule_resync(self, *, only=None) -> None:
        """Queue anti-entropy resync shortly after a heal; crashed nodes
        are skipped (their own restart event resyncs them)."""
        targets = [only] if only is not None else list(self.full_nodes)

        def resync() -> None:
            for node in targets:
                if self.network.is_down(node.address):
                    continue
                node.resync_with_peers()
                self._m_resyncs.inc()

        self.scheduler.schedule(self.resync_delay, resync)
