"""Deterministic fault injection and recovery (`repro.faults`).

The fault subsystem has four layers:

* :mod:`~repro.faults.backoff` — the shared retry clock
  (:class:`~repro.faults.backoff.BackoffPolicy`);
* :mod:`~repro.faults.plan` — the declarative campaign DSL
  (:class:`~repro.faults.plan.FaultPlan`,
  :class:`~repro.faults.plan.PlanBuilder` and the event types);
* :mod:`~repro.faults.injector` — executes a plan against a live
  :class:`~repro.network.network.Network`
  (:class:`~repro.faults.injector.FaultInjector`);
* :mod:`~repro.faults.runner` / :mod:`~repro.faults.scenarios` — the
  chaos harness: run a whole B-IoT deployment under a plan and emit a
  byte-deterministic :class:`~repro.faults.report.ConvergenceReport`.

Import from the defining module: protocol code (``repro.nodes``)
imports ``repro.faults.backoff`` alone, and loading the runner with it
would close an import cycle through ``repro.core.biot``.
"""
