"""The chaos harness: run a whole B-IoT deployment under a fault plan.

A :class:`ChaosRunner` is the closed loop the availability claim is
tested in: build a deployment from a :class:`~repro.core.biot.
BIoTConfig`, execute the Fig. 6 workflow while a
:class:`~repro.faults.injector.FaultInjector` flips failure switches
underneath it, then restore the fabric and verify that every full-node
replica reconverges to identical tangle/ledger/ACL state.

Determinism is load-bearing: the entire run — key generation, latency
draws, fault jitter, recovery backoff — executes inside
``rand.deterministic(seed)`` with every RNG derived from the campaign
seed, so the emitted :class:`~repro.faults.report.ConvergenceReport`
is byte-identical across invocations.  The convergence phase checks
hashes *before* running any sync round; an empty plan therefore
triggers zero recovery traffic and leaves the ledger bit-identical to
a plain (chaos-free) run of the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.biot import BIoTConfig, BIoTSystem
from ..crypto import rand
from .injector import FaultInjector
from .plan import FaultPlan
from .report import ConvergenceReport

__all__ = ["ChaosRunner", "ChaosSettings"]

MAX_SYNC_ROUNDS = 5
"""All-pairs anti-entropy rounds the convergence phase allows before
declaring divergence."""

SYNC_ROUND_SECONDS = 5.0
"""Simulated time granted to each sync round."""


@dataclass(frozen=True)
class ChaosSettings:
    """Timing knobs for a chaos campaign.

    Attributes:
        report_seconds: how long devices report while faults fire.
        drain_seconds: quiet period after devices stop, letting
            in-flight traffic and armed retries settle.
    """

    report_seconds: float = 60.0
    drain_seconds: float = 15.0

    def __post_init__(self):
        if self.report_seconds <= 0:
            raise ValueError("report_seconds must be positive")
        if self.drain_seconds < 0:
            raise ValueError("drain_seconds must be non-negative")


class ChaosRunner:
    """Executes one fault campaign against a fresh deployment.

    Args:
        config: deployment shape; the runner re-seeds it per campaign
            so one runner can execute several seeds.
        settings: campaign timing (:class:`ChaosSettings`).
    """

    def __init__(self, config: Optional[BIoTConfig] = None, *,
                 settings: Optional[ChaosSettings] = None):
        self.config = config if config is not None else BIoTConfig()
        self.settings = settings if settings is not None else ChaosSettings()

    # -- the campaign ------------------------------------------------------

    def run(self, plan: FaultPlan, *, seed: Optional[int] = None,
            scenario: Optional[str] = None) -> ConvergenceReport:
        """Run *plan* against a fresh deployment; returns the report."""
        name = scenario if scenario is not None else plan.name
        seed = seed if seed is not None else self.config.seed
        with rand.deterministic(f"chaos:{name}:{seed}".encode()):
            return self._run_inner(plan, seed=seed, scenario=name)

    def _run_inner(self, plan: FaultPlan, *, seed: int,
                   scenario: str) -> ConvergenceReport:
        system = BIoTSystem.build(self._reseeded_config(seed))
        try:
            return self._campaign(system, plan, seed=seed,
                                  scenario=scenario)
        finally:
            system.close()

    def _campaign(self, system: BIoTSystem, plan: FaultPlan, *, seed: int,
                  scenario: str) -> ConvergenceReport:
        """The three phases against *system*; the report is built before
        :meth:`_run_inner` closes it."""
        settings = self.settings
        injector = FaultInjector(
            system.network,
            full_nodes=system.full_nodes,
            telemetry=system.telemetry,
        )
        start_time = system.scheduler.clock.now()

        # Phase 1: the Fig. 6 workflow under fire.  The plan's offsets
        # are relative to the start of the reporting window, so the
        # (fault-free) initialization phase is identical across plans.
        system.initialize()
        injector.apply(plan)
        system.start_devices()
        horizon = max(settings.report_seconds, plan.last_event_time() + 1.0)
        system.run_for(horizon)

        # Phase 2: quiesce.  Devices stop issuing, every unhealed fault
        # is cleared, and armed retries/in-flight traffic drain.
        for device in system.devices:
            device.stop()
        system.network.restore_all()
        system.run_for(settings.drain_seconds)

        # Phase 3: converge.  Hashes are checked BEFORE any sync round
        # — a fault-free run must reconcile in zero rounds with zero
        # recovery traffic (the null-path equivalence property).
        converge_start = system.scheduler.clock.now()
        rounds_used, converged = self._converge(system)
        recovery_seconds = system.scheduler.clock.now() - converge_start

        notes: List[str] = []
        if not converged:
            notes.append(
                f"divergent after {MAX_SYNC_ROUNDS} sync rounds")
        return ConvergenceReport.from_nodes(
            scenario=scenario,
            seed=seed,
            nodes=system.full_nodes,
            sync_rounds_used=rounds_used,
            duration=system.scheduler.clock.now() - start_time,
            recovery_seconds=recovery_seconds,
            plan=plan.describe(),
            injections=injector.injection_log,
            counters=self._counters(system, injector),
            notes=notes,
        )

    def _reseeded_config(self, seed: int) -> BIoTConfig:
        if self.config.seed == seed:
            return self.config
        from dataclasses import replace
        return replace(self.config, seed=seed)

    def _converge(self, system: BIoTSystem) -> tuple:
        """Check-then-sync loop; returns (rounds_used, converged)."""
        for round_index in range(MAX_SYNC_ROUNDS + 1):
            if self._replicas_agree(system):
                return round_index, True
            if round_index == MAX_SYNC_ROUNDS:
                break
            for node in system.full_nodes:
                node.resync_with_peers()
            system.run_for(SYNC_ROUND_SECONDS)
        return MAX_SYNC_ROUNDS, False

    @staticmethod
    def _replicas_agree(system: BIoTSystem) -> bool:
        hashes = [node.replica.state_hashes() for node in system.full_nodes]
        return all(h == hashes[0] for h in hashes[1:])

    @staticmethod
    def _counters(system: BIoTSystem, injector: FaultInjector) -> Dict[str, int]:
        network = system.network
        full_nodes = system.full_nodes
        return {
            "messages_sent": network.messages_sent,
            "messages_delivered": network.messages_delivered,
            "messages_dropped": network.messages_dropped,
            "messages_purged": network.messages_purged,
            "messages_duplicated": network.messages_duplicated,
            "faults_injected": sum(
                1 for _, action, _ in injector.injection_log
                if action.startswith("inject:")),
            "faults_healed": sum(
                1 for _, action, _ in injector.injection_log
                if action.startswith("heal:")),
            "keydist_retries": system.manager.keydist_retries,
            "keydist_exhausted": system.manager.keydist_exhausted,
            "keys_distributed":
                system.manager.distributor.completed_distributions,
            "parent_requests_sent": sum(
                n.stats.parent_requests_sent for n in full_nodes),
            "parent_requests_served": sum(
                n.stats.parent_requests_served for n in full_nodes),
            "parent_fetch_recoveries": sum(
                n.stats.parent_fetch_recoveries for n in full_nodes),
            "parent_fetch_exhausted": sum(
                n.stats.parent_fetch_exhausted for n in full_nodes),
            "sync_requests_served": sum(
                n.stats.sync_requests_served for n in full_nodes),
            "submissions_accepted": sum(
                d.stats.submissions_accepted for d in system.devices),
            "device_timeouts": sum(d.timeouts for d in system.devices),
        }
