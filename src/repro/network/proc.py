"""One node as one OS process: the ``repro node`` entrypoint.

Everything above the transport already exists — :class:`~repro.network.
aio.NodeRunner` hosts a node on an :class:`~repro.network.aio.
AsyncioTransport`, :mod:`repro.storage` makes its state durable, and
:mod:`repro.network.discovery` replaces the shared in-process address
dict.  This module is the thin shell that turns those pieces into an
independent OS-level participant:

* build the full node with a fixed, hard-coded configuration
  (difficulty-1 inverse policy, PoW enforced, rng from ``--rng-seed``)
  — the contract that lets :mod:`repro.harness` compare a process fleet
  hash-for-hash against an in-process reference;
* open the durable store, and **cold-restore automatically** when the
  store is already populated — restarting a killed process is just
  running the same command line again;
* bootstrap into the fleet through seed nodes (``disc_hello``), then
  answer the fleet control plane (``fleet_status`` / ``fleet_resync`` /
  ``fleet_shutdown``) over the same framed envelopes;
* serve Prometheus metrics over plain HTTP on a per-process port;
* fork one signature-verify worker per spare core before the event
  loop starts (:mod:`repro.crypto.verify_workers`);
* print a single machine-readable **ready line** on stdout —
  ``{"event": "ready", "port": …, "metrics_port": …,
  "verify_workers": [pids]}`` — the harness's cue that the ephemeral
  ports are bound and dialable;
* exit cleanly on SIGTERM/SIGINT: flush transport outboxes, close the
  store (no journal-tail corruption on reopen).

The process protocol is deliberately line-oriented and dependency-free
so a supervisor (:mod:`repro.harness.supervisor`) can drive it with
nothing but ``subprocess`` and a pipe.  This module is product code: it
imports nothing from :mod:`repro.harness`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.credit import CreditParameters
from ..crypto import ed25519, verify_workers
from ..telemetry.exporters import to_prometheus_text
from ..telemetry.registry import MetricsRegistry
from .aio import AsyncioScheduler, AsyncioTransport, NodeRunner
from .discovery import DiscoveryService, parse_seed

__all__ = ["NodeProcessSpec", "build_node", "run_node_process",
           "NODE_DECODE_CACHE_SIZE", "READY_EVENT",
           "STATUS_KIND", "STATUS_RESPONSE_KIND", "RESYNC_KIND",
           "RESYNC_ACK_KIND", "SHUTDOWN_KIND", "SHUTDOWN_ACK_KIND"]

READY_EVENT = "ready"

STATUS_KIND = "fleet_status"
STATUS_RESPONSE_KIND = "fleet_status_response"
RESYNC_KIND = "fleet_resync"
RESYNC_ACK_KIND = "fleet_resync_ack"
SHUTDOWN_KIND = "fleet_shutdown"
SHUTDOWN_ACK_KIND = "fleet_shutdown_ack"

_STORAGE_BACKENDS = ("none", "file")


@dataclass
class NodeProcessSpec:
    """Everything one ``repro node`` process needs, argv-serialisable.

    ``rng_seed`` matters for hash-equivalence: the harness's
    in-process fleet builds node ``n{i}`` with ``random.Random(i)``, so
    a process standing in for ``n{i}`` must carry the same seed.

    ``storage_backend`` is ``"none"`` (no journal) or ``"file"`` (a
    journal under ``storage_dir`` that the same command line restores
    from after a crash); an in-memory journal dies with the process, so
    it could never be restored from and is not offered.  There is no
    signature option: every node signs and verifies with
    :mod:`repro.crypto.ed25519`.
    """

    address: str
    genesis_path: str
    rng_seed: int = 0
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    advertise_host: Optional[str] = None
    seeds: List[str] = field(default_factory=list)
    storage_backend: str = "none"
    storage_dir: Optional[str] = None
    metrics_port: Optional[int] = None
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.storage_backend not in _STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.storage_backend!r} "
                f"(known: {', '.join(_STORAGE_BACKENDS)})")
        if self.storage_backend == "file" and not self.storage_dir:
            raise ValueError(
                f"storage backend {self.storage_backend!r} needs "
                f"--storage-dir")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        for spec in self.seeds:
            parse_seed(spec)  # fail fast on malformed seed specs

    def to_argv(self) -> List[str]:
        """The ``repro node`` argument vector reproducing this spec."""
        argv = [
            "node",
            "--address", self.address,
            "--genesis", self.genesis_path,
            "--rng-seed", str(self.rng_seed),
            "--listen",
            f"{self.listen_host}:{self.listen_port}",
            "--storage-backend", self.storage_backend,
            "--time-scale", str(self.time_scale),
        ]
        if self.advertise_host:
            argv += ["--advertise-host", self.advertise_host]
        if self.storage_dir:
            argv += ["--storage-dir", self.storage_dir]
        if self.metrics_port is not None:
            argv += ["--metrics-port", str(self.metrics_port)]
        for seed in self.seeds:
            argv += ["--seed-node", seed]
        return argv


def _load_genesis(path: str):
    from ..tangle.transaction import Transaction

    with open(path, "r") as handle:
        return Transaction.from_bytes(bytes.fromhex(handle.read().strip()))


NODE_DECODE_CACHE_SIZE = 1024
"""Decode-LRU entries of one node process.  An entry is at most ~3.3 KB
(measured 3.0-3.3: key + instance + every memo of a 1 KiB encoding, the
longest the cache keeps), so the cache stays under 4 MiB whatever a
peer streams; a transaction that attached shares its instance with the
tangle and costs one dict slot.  In a mesh the copies of a transaction
arrive within one propagation time of each other, so the recent
thousand is the working set."""


def build_node(address: str, genesis, *, rng_seed: int, telemetry=None):
    """The one node configuration ``repro node`` runs (difficulty-1
    inverse policy, PoW enforced, a node-sized decode LRU so the bytes
    of a transaction the node already has cost one dict hit).
    :mod:`repro.harness` builds its in-process replicas with this same
    function, which is what keeps a process fleet hash-comparable with
    an in-process one."""
    from ..core.consensus import CreditBasedConsensus
    from ..nodes.full_node import FullNode
    from ..tangle.transaction import TransactionDecodeCache

    return FullNode(
        address, genesis,
        consensus=CreditBasedConsensus.from_params(
            CreditParameters(), initial_difficulty=1),
        rng=random.Random(rng_seed), enforce_pow=True, telemetry=telemetry,
        decode_cache=TransactionDecodeCache(NODE_DECODE_CACHE_SIZE,
                                            telemetry=telemetry))


async def _serve_metrics(registry, host: str,
                         port: int) -> Tuple[object, int]:
    """Minimal HTTP/1.1 exporter: any GET answers the full Prometheus
    text page.  Stdlib-only on purpose — one scrape target per node
    process, no routing, no keep-alive.  A request line or header
    longer than the stream reader's 64 KiB limit is answered 431 and
    the connection closed."""

    async def handle(reader, writer) -> None:
        try:
            try:
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
            except ValueError:  # the line overran the reader's limit
                writer.write(b"HTTP/1.1 431 Request Header Fields Too "
                             b"Large\r\nContent-Length: 0\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                return
            body = to_prometheus_text(registry).encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host, port)
    bound = server.sockets[0].getsockname()[1]
    return server, bound


async def _amain(spec: NodeProcessSpec, *, ready_stream,
                 worker_pids: Sequence[int] = ()) -> int:
    from ..faults.report import node_state_hashes

    registry = MetricsRegistry()
    genesis = _load_genesis(spec.genesis_path)
    node = build_node(spec.address, genesis, rng_seed=spec.rng_seed,
                      telemetry=registry)

    restored = 0
    persistence = None
    if spec.storage_backend != "none":
        from ..storage.persistence import NodePersistence
        from ..storage.store import open_store

        store = open_store(spec.storage_backend, spec.storage_dir,
                           node=spec.address, telemetry=registry)
        persistence = NodePersistence(store, telemetry=registry)
        populated = (persistence.epoch > 0
                     or persistence.transactions_logged > 0)
        node.attach_persistence(persistence)
        if populated:
            # Same command line, populated store: this is a restart.
            restored = node.cold_restore()

    scheduler = AsyncioScheduler(time_scale=spec.time_scale)
    transport = AsyncioTransport(
        scheduler, directory={},
        rng=random.Random(f"proc:{spec.address}:{spec.rng_seed}"),
        telemetry=registry)
    runner = NodeRunner(node, transport,
                        listen=(spec.listen_host, spec.listen_port),
                        advertise_host=spec.advertise_host)
    discovery = DiscoveryService(
        transport, address=spec.address, role="full",
        seeds=[parse_seed(s) for s in spec.seeds],
        on_full_peer=node.add_peer, telemetry=registry)

    stop = asyncio.Event()

    def control(handler):
        """Refuse a hostile control frame — a body that is not a dict,
        a ``now`` that is not a finite float (``2**2000`` overflows) —
        by counting it as malformed; an exception here would unwind the
        transport's read loop and drop the sender's connection."""
        def guarded(message) -> None:
            try:
                if not isinstance(message.body, dict):
                    raise TypeError("control body must be a dict")
                handler(message)
            except (TypeError, ValueError, OverflowError):
                node.stats.malformed_messages += 1
        return guarded

    def _on_status(message) -> None:
        body = message.body
        now = float(body.get("now", scheduler.clock.now()))
        if not math.isfinite(now):
            raise ValueError("fleet_status now must be finite")
        transport.send(spec.address, message.sender, STATUS_RESPONSE_KIND, {
            "request_id": body.get("request_id"),
            "address": spec.address,
            "pid": os.getpid(),
            "tangle_size": len(node.tangle),
            "peers": sorted(node.relay.peers),
            "bootstrapped": discovery.bootstrapped,
            "restored": restored,
            "hashes": node_state_hashes(node, credit_now=now),
        })

    def _ack(message, kind: str) -> None:
        transport.send(spec.address, message.sender, kind,
                       {"request_id": message.body.get("request_id"),
                        "address": spec.address})

    def _on_resync(message) -> None:
        node.resync_with_peers()
        _ack(message, RESYNC_ACK_KIND)

    def _on_shutdown(message) -> None:
        _ack(message, SHUTDOWN_ACK_KIND)
        stop.set()

    transport.register_handler(STATUS_KIND, control(_on_status))
    transport.register_handler(RESYNC_KIND, control(_on_resync))
    transport.register_handler(SHUTDOWN_KIND, control(_on_shutdown))

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    metrics_server = None
    metrics_port = None
    try:
        await runner.start()
        if spec.metrics_port is not None:
            metrics_server, metrics_port = await _serve_metrics(
                registry, spec.listen_host, spec.metrics_port)
        discovery.start()

        ready_stream.write(json.dumps({
            "event": READY_EVENT,
            "address": spec.address,
            "pid": os.getpid(),
            "host": transport.advertised_address[0],
            "port": transport.advertised_address[1],
            "metrics_port": metrics_port,
            "restored": restored,
            "storage": spec.storage_backend,
            "verify_workers": list(worker_pids),
        }, sort_keys=True) + "\n")
        ready_stream.flush()

        await stop.wait()
        return 0
    finally:
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()
        await runner.stop()
        if persistence is not None:
            persistence.store.close()


def run_node_process(spec: NodeProcessSpec, *,
                     ready_stream=None) -> int:
    """Run one node process to completion; returns its exit code.

    The base-point table is built, and then one verify worker per spare
    core forked (:mod:`repro.crypto.verify_workers`), before the event
    loop starts and before any store or socket is opened, so the
    workers share the table and inherit nothing else of the node's."""
    stream = ready_stream if ready_stream is not None else sys.stdout
    ed25519.precompute()
    try:
        worker_pids = verify_workers.start(verify_workers.spare_cores())
        return asyncio.run(_amain(spec, ready_stream=stream,
                                  worker_pids=worker_pids))
    finally:
        verify_workers.stop()
