"""Telemetry smoke scenario: a small deployment that exercises every
registered instrument.

The CI coverage gate (``repro telemetry --require-all``) fails when any
registered metric is never emitted, so this scenario is written to
drive all five instrumented subsystems:

* **tangle** — weighted-walk tip selection (walk lengths), steady
  attach traffic (flush batches, weight reads), plus two explicit
  ``tips()`` reads to hit both branches of the sorted tip cache;
* **pow** — every submission grinds at its credit-assigned difficulty;
* **network** — the wireless links are lossy (drops) and the full-node
  mesh floods gossip (relays and duplicate suppressions);
* **keydist** — the default sensor cycle includes sensitive streams,
  so the manager runs Fig. 4 handshakes during ``initialize()``;
* **credit** — a double-spend report is injected mid-run, so penalty
  events and the *punished* difficulty tier both appear.
* **faults/retries** — a short recovery probe at the end of the run:
  an in-flight message is purged by a link cut, a duplication overlay
  doubles a burst of probes, and a key-distribution handshake is run
  against a crashed-then-restarted device (driving the retry attempt/
  backoff/recovery counters) plus one against a permanently dead
  device (driving exhaustion).
* **storage** — a journalling probe: a gateway's history is journalled
  to an instrumented store, checkpointed (with pruning), extended, and
  loaded back, driving every ``repro_storage_*`` write/flush/replay
  counter.
* **crypto** — a batch-verification probe: a burst of fresh
  transactions (one with a corrupted signature) reaches a gateway as
  one ``sync_response``, driving the ``repro_crypto_batch_*``
  round/size/verified/fallback instruments.
* **trace/lifecycle** — every submission round is sampled by the
  :class:`~repro.telemetry.lifecycle.LifecycleTracker`, and a final
  confirmation sweep plus ``finalize()`` drive the ``repro_trace_*``
  and ``repro_lifecycle_*`` instruments (confirmation latency and
  propagation-coverage included).
"""

from __future__ import annotations

__all__ = ["run_smoke_scenario", "run_trace_scenario"]


def run_smoke_scenario(*, seed: int = 42, device_count: int = 4,
                       gateway_count: int = 2, seconds: float = 40.0,
                       report_interval: float = 2.0):
    """Build, run and return a telemetry-enabled :class:`BIoTSystem`.

    The returned system's ``telemetry`` registry and ``tracer`` hold
    the full run; ``telemetry.unobserved()`` is expected to be empty.
    """
    # Imported lazily: repro.core.biot itself imports repro.telemetry.
    from ..core.biot import BIoTConfig, BIoTSystem

    config = BIoTConfig(
        device_count=device_count,
        gateway_count=gateway_count,
        seed=seed,
        report_interval=report_interval,
        initial_difficulty=8,
        tip_alpha=0.05,
        telemetry=True,
    )
    system = BIoTSystem.build(config)
    system.initialize()
    system.start_devices()
    system.run_for(seconds / 2)

    # Inject one detected double spend so penalty events and the
    # "punished" difficulty tier show up in the second half of the run.
    offender = system.devices[0].keypair.node_id
    now = system.scheduler.clock.now()
    for full_node in [system.manager] + system.gateways:
        full_node.consensus.report_double_spend(offender, now)
    system.run_for(seconds / 2)

    _run_recovery_probe(system)
    _run_storage_probe(system)
    _run_crypto_probe(system)

    # Lifecycle close-out: the confirmation sweep and finalize() drive
    # the confirmation-latency histogram and the propagation-coverage
    # gauge, which have no hot-path emission site by design.
    system.lifecycle.sweep_confirmations(system.full_nodes, threshold=3)
    system.lifecycle.finalize(node_count=len(system.full_nodes))

    # Reporting reads: consecutive calls hit the rebuild branch first,
    # then the cached branch, covering both tip-cache counters.
    tangle = system.manager.tangle
    for _ in range(2):
        tangle.tips()
    return system


def run_trace_scenario(*, seed: int = 7, device_count: int = 4,
                       gateway_count: int = 2, seconds: float = 20.0,
                       sample_every: int = 1,
                       confirmation_threshold: int = 3):
    """Build and run the causal-tracing scenario behind ``repro trace``.

    Unlike the smoke scenario this run is **byte-deterministic**: the
    process-global randomness source is swapped for a seeded stream for
    the duration of the run (sensitive-sensor payload encryption
    otherwise draws fresh AES IVs from ``os.urandom``), so two runs
    with the same seed produce identical tangles, identical span
    timings, and byte-identical trace artifacts.

    Devices are stopped shortly before the end and the tail of the run
    drains in-flight gossip, so sampled transactions reach every
    reachable full node; a periodic confirmation sweep timestamps
    confirmations at ~1 s resolution of simulated time.
    """
    from ..core.biot import BIoTConfig, BIoTSystem
    from ..crypto import rand

    with rand.deterministic(f"trace:smoke:{seed}".encode()):
        config = BIoTConfig(
            device_count=device_count,
            gateway_count=gateway_count,
            seed=seed,
            initial_difficulty=8,
            tip_alpha=0.05,
            telemetry=True,
            trace_sample_every=sample_every,
        )
        system = BIoTSystem.build(config)
        system.initialize()
        system.start_devices()
        elapsed = 0.0
        while elapsed < seconds:
            step = min(1.0, seconds - elapsed)
            system.run_for(step)
            elapsed += step
            system.lifecycle.sweep_confirmations(
                system.full_nodes, threshold=confirmation_threshold)
        for device in system.devices:
            device.stop()
        system.run_for(5.0)  # drain in-flight PoW, gossip, solidification
        system.lifecycle.sweep_confirmations(
            system.full_nodes, threshold=confirmation_threshold)
        system.lifecycle.finalize(node_count=len(system.full_nodes))
    return system


def _run_recovery_probe(system) -> None:
    """Drive the fault-injection and retry instruments deterministically.

    The main run is fault-free, so the ``repro_fault_*`` message
    counters and the ``repro_retry_*`` recovery counters would
    otherwise stay silent and trip the coverage gate.
    """
    from ..network.transport import LinkOverlay

    network = system.network
    for device in system.devices:
        device.stop()  # keep the probe's event horizon short

    # In-flight purge: put a message on the manager<->gateway-0 wire,
    # then sever it before the delivery fires.
    network.send("manager", "gateway-0", "telemetry_probe", {})
    network.cut_link("manager", "gateway-0")
    network.heal_link("manager", "gateway-0")

    # Duplication: with p=0.9 over eight probes a duplicate is all but
    # certain (and the run is seeded, so "all but" is "exactly").
    token = network.add_overlay(
        "manager", "gateway-0", LinkOverlay(duplicate_probability=0.9))
    for _ in range(8):
        network.send("manager", "gateway-0", "telemetry_probe", {})
    system.run_for(2.0)
    network.remove_overlay(token)

    # Retry recovery: crash a device, start a key distribution at it
    # (M1 is lost), let the first backoff expire, restart the device,
    # and let the retried handshake complete.
    device = system.devices[0]
    network.take_down(device.address)
    system.manager.distribute_key(device.address, device.keypair.public)
    system.run_for(1.0)
    network.bring_up(device.address)
    system.run_for(30.0)

    # Retry exhaustion: a permanently dead device drains every attempt.
    casualty = system.devices[1]
    network.take_down(casualty.address)
    system.manager.distribute_key(casualty.address, casualty.keypair.public)
    system.run_for(40.0)
    network.bring_up(casualty.address)


def _run_crypto_probe(system) -> None:
    """Drive the ``repro_crypto_batch_*`` instruments deterministically.

    The smoke deployment's transactions arrive one at a time, so the
    batch verifier would otherwise stay silent.  The probe
    issues a small burst of fresh, correctly signed transactions plus
    one with a corrupted signature and delivers them to a gateway as
    one ``sync_response``: the round/size/verified counters fire for
    the good ones, and the corrupted one exercises the fallback counter
    (batch rejection settled by individual verification).
    """
    from dataclasses import replace

    from ..network.transport import Message
    from ..tangle.transaction import Transaction, TransactionKind

    gateway = system.gateways[0]
    keypair = next(iter(system.device_keys.values()))
    now = system.scheduler.clock.now()
    burst = []
    for index in range(3):
        branch, trunk = gateway.tip_selector.select(gateway.tangle,
                                                    gateway.rng)
        burst.append(Transaction.create(
            keypair,
            kind=TransactionKind.DATA,
            payload=b"crypto-probe-%d" % index,
            timestamp=now,
            branch=branch,
            trunk=trunk,
            difficulty=1,
        ))
    bad_signature = bytes(64)
    corrupted = replace(burst[-1], signature=bad_signature)
    encoded = [tx.to_bytes() for tx in burst[:-1] + [corrupted]]
    gateway.deliver_run([Message("crypto-probe", gateway.address,
                                 "sync_response", {"transactions": encoded},
                                 now)])


def _run_storage_probe(system) -> None:
    """Drive the ``repro_storage_*`` instruments deterministically.

    The smoke deployment runs the in-memory backend (so the main run is
    storage-free, as in production defaults); this probe journals one
    gateway's history to a separate instrumented store, checkpoints it
    with pruning, journals a short tail, and loads the restore point —
    touching every append/flush/prune/checkpoint/replay/restore
    counter without disturbing the live system.
    """
    from ..storage.persistence import NodePersistence
    from ..storage.store import MemoryStore

    gateway = system.gateways[0]
    store = MemoryStore(telemetry=system.telemetry)
    persistence = NodePersistence(store, telemetry=system.telemetry)
    persistence.initialize(gateway.tangle.genesis)
    transactions = [tx for tx in gateway.tangle if not tx.is_genesis]
    for tx in transactions[:-2]:
        persistence.record_transaction(
            tx, gateway.tangle.arrival_time(tx.tx_hash))
    now = system.scheduler.clock.now()
    persistence.checkpoint(gateway, now=now, keep_recent_seconds=30.0,
                           min_weight_to_prune=2)
    for tx in transactions[-2:]:
        persistence.record_transaction(
            tx, gateway.tangle.arrival_time(tx.tx_hash))
    persistence.load()
