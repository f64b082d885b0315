"""The Fig. 6 workflow, executed step by step with a verifiable report.

The paper describes the system's operation as five interaction steps
between manager, gateways and IoT devices.  :func:`run_workflow` drives
a :class:`~repro.core.biot.BIoTSystem` through all of them and returns
a :class:`WorkflowReport` whose per-step records assert the observable
postconditions (gateway registered on ledger, devices authorised, keys
installed, transactions attached and replicated).  The integration test
suite and the ``smart_factory`` example are both built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .biot import BIoTSystem

__all__ = ["WorkflowStep", "WorkflowReport", "run_workflow"]


@dataclass(frozen=True)
class WorkflowStep:
    """One executed workflow step and its observed outcome."""

    number: int
    title: str
    ok: bool
    details: Dict[str, object]


@dataclass
class WorkflowReport:
    """The full Fig. 6 run."""

    steps: List[WorkflowStep] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(step.ok for step in self.steps)

    def add(self, number: int, title: str, ok: bool, **details) -> None:
        self.steps.append(WorkflowStep(number=number, title=title, ok=ok,
                                       details=dict(details)))

    def format(self) -> str:
        lines = ["B-IoT workflow (paper Fig. 6)", "=" * 34]
        for step in self.steps:
            status = "ok" if step.ok else "FAILED"
            lines.append(f"step {step.number}: {step.title} [{status}]")
            for key, value in step.details.items():
                lines.append(f"    {key} = {value}")
        return "\n".join(lines)


def run_workflow(system: BIoTSystem, *, report_seconds: float = 30.0,
                 settle_seconds: float = 2.0) -> WorkflowReport:
    """Drive *system* through workflow steps 1–5 and verify each one.

    Args:
        system: a freshly built (not yet initialised) system.
        report_seconds: how long to let devices report in steps 4–5.
        settle_seconds: gossip settling time after control-plane steps.
    """
    report = WorkflowReport()
    manager = system.manager

    # Steps 1-3 are BIoTSystem.initialize.  Each postcondition below
    # is a fact that stays true once established, so checking it after
    # the settle that follows is the same check.
    system.initialize(settle_seconds=settle_seconds)

    # Step 1: gateway identifiers are recorded in the blockchain.
    gateways_registered = all(
        gateway.acl.is_registered_gateway(keys.node_id)
        for gateway in system.gateways
        for keys in system.gateway_keys.values())
    report.add(1, "initialize gateways / set up manager", gateways_registered,
               registered=len(manager.acl.registered_gateways()))

    # Step 2: IoT devices authorised via an ACL transaction (Eqn. 1).
    devices_authorized = all(
        gateway.acl.is_authorized_device(keys.node_id)
        for gateway in system.gateways
        for keys in system.device_keys.values())
    report.add(2, "authorize IoT devices", devices_authorized,
               authorized=len(manager.acl.authorized_devices()))

    # Step 3: the symmetric secret key reached every device which
    # collects sensitive data.
    sensitive = [d for d in system.devices if d.sensor.sensitive]
    keys_installed = all(device.protector.has_key() for device in sensitive)
    report.add(3, "distribute secret keys to sensitive-data devices",
               keys_installed,
               sensitive_devices=len(sensitive),
               completed=manager.distributor.completed_distributions)

    # Steps 4-5: devices fetch tips, run PoW, submit — repeatedly.
    system.start_devices()
    system.run_for(report_seconds)
    accepted = sum(d.stats.submissions_accepted for d in system.devices)
    every_device_reported = all(
        d.stats.submissions_accepted > 0 for d in system.devices)
    report.add(4, "devices validate two tips and bundle via PoW",
               every_device_reported,
               pow_solves=sum(d.stats.pow_solves for d in system.devices))
    replicas = {n.address: n.tangle_size for n in system.full_nodes}
    converged = len(set(replicas.values())) == 1
    report.add(5, "submit transactions; gateways verify and broadcast",
               accepted > 0,
               accepted=accepted, replicas=replicas, converged=converged)
    return report
