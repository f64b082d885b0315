"""Light nodes (wireless sensors) — Section IV-A.1.

"Light nodes are those power-constrained devices like IoT devices.
They do not store blockchain information due to their constrained
nature.  What they can do are to verify tips, run PoW consensus
algorithm and send new transactions to full nodes."

A :class:`LightNode` runs the device half of the Fig. 6 workflow on the
simulated network:

1. read its sensor;
2. protect the payload (AES when the stream is sensitive — charged to
   the device profile);
3. ask its gateway for two tips and its current PoW difficulty;
4. grind the PoW locally (compute time scheduled, not blocking the
   simulation);
5. sign and submit the transaction;
6. repeat.

It also answers the manager's key-distribution messages (Fig. 4),
installing received group keys into its :class:`~repro.core.authority.
DataProtector`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.authority import DataProtector, DeviceKeyAgent, KeyDistributionError
from ..crypto.keys import KeyPair, PublicIdentity
from ..devices.profiles import RASPBERRY_PI_3B, DeviceProfile
from ..devices.sensors import ReadingBatch, Sensor
from ..network.network import NetworkNode
from ..network.transport import Message
from ..pow.engine import PowEngine
from ..tangle.transaction import Transaction, TransactionKind
from ..telemetry.lifecycle import coerce_lifecycle
from ..telemetry.registry import coerce_registry

__all__ = ["LightNode", "LightNodeStats"]

REQUEST_TIMEOUT = 10.0
"""Seconds a device waits for a gateway reply before abandoning the
in-flight request and retrying on the next report interval (covers
gateway crashes and lost packets)."""


@dataclass
class LightNodeStats:
    """What a device experiences, for the evaluation harness."""

    readings_taken: int = 0
    submissions_sent: int = 0
    submissions_accepted: int = 0
    submissions_rejected: int = 0
    tips_refused: int = 0
    pow_seconds_total: float = 0.0
    pow_solves: int = 0
    aes_seconds_total: float = 0.0
    submit_latencies: List[float] = field(default_factory=list)
    pow_times: List[float] = field(default_factory=list)
    assigned_difficulties: List[int] = field(default_factory=list)

    @property
    def mean_pow_seconds(self) -> float:
        if not self.pow_times:
            return 0.0
        return sum(self.pow_times) / len(self.pow_times)


class LightNode(NetworkNode):
    """An IoT device submitting sensor readings through a gateway.

    Args:
        address: network address.
        keypair: the device account (PK, SK).
        gateway: address of the full node this device talks to.
        manager: the manager's public identity (trust anchor for key
            distribution).
        sensor: the attached sensor model.
        profile: hardware class (defaults to the paper's Raspberry Pi 3B).
        report_interval: seconds between reading submissions.
        rng: seeded randomness for the PoW engine.
        batch_size: readings carried per transaction.  1 (default) posts
            each reading individually (the paper's behaviour); larger
            values amortise PoW/signature/approval cost across readings
            at the price of data latency (Ext-7 sweeps this).
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` shared
            across the deployment (PoW engine metrics, key-install
            counts).  ``None`` keeps the zero-overhead null registry.
        lifecycle: a :class:`~repro.telemetry.lifecycle.LifecycleTracker`
            shared across the deployment; submit rounds it samples get
            a causal trace root and per-stage timeline.  ``None`` keeps
            the zero-overhead null tracker.
    """

    def __init__(self, address: str, keypair: KeyPair, *, gateway: str,
                 manager: PublicIdentity, sensor: Sensor,
                 profile: DeviceProfile = RASPBERRY_PI_3B,
                 report_interval: float = 3.0,
                 rng: Optional[random.Random] = None,
                 batch_size: int = 1,
                 telemetry=None, lifecycle=None):
        super().__init__(address)
        if report_interval <= 0:
            raise ValueError("report_interval must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._batch_buffer: List = []
        self.timeouts = 0
        self.keypair = keypair
        self.gateway = gateway
        self.sensor = sensor
        self.profile = profile
        self.report_interval = report_interval
        self.rng = rng if rng is not None else random.Random()
        self.key_agent = DeviceKeyAgent(keypair, manager)
        self.protector = DataProtector()
        self.stats = LightNodeStats()
        self.telemetry = coerce_registry(telemetry)
        self.lifecycle = coerce_lifecycle(lifecycle)
        self._m_keys_installed = self.telemetry.counter(
            "repro_keydist_keys_installed_total",
            "Group keys installed on devices (M3 verified)")
        self.engine: Optional[PowEngine] = None
        self._running = False
        self._request_counter = 0
        self._pending: Dict[int, Dict] = {}
        # sessions whose M3 we already installed and acked; a
        # retransmitted M3 is re-acked without touching the key agent
        self._keydist_acked: set = set()

    # -- lifecycle ---------------------------------------------------------

    def bind(self, network) -> None:
        super().bind(network)
        self.engine = PowEngine(
            self.profile, network.scheduler.clock,
            rng=self.rng, advance_clock=False,
            telemetry=self.telemetry,
        )

    def start(self, *, initial_delay: float = 0.0) -> None:
        """Begin the periodic reporting loop."""
        if self.network is None:
            raise RuntimeError("attach the node to a network before starting")
        self._running = True
        self._scheduler.schedule(initial_delay, self._tick)

    def stop(self) -> None:
        self._running = False

    @property
    def _scheduler(self):
        return self.network.scheduler

    # -- reporting loop ----------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        reading = self.sensor.read(self._now())
        self.stats.readings_taken += 1
        if self.batch_size > 1:
            self._batch_buffer.append(reading)
            if len(self._batch_buffer) < self.batch_size:
                self._schedule_next_tick()
                return
            batch = ReadingBatch(readings=tuple(self._batch_buffer))
            self._batch_buffer = []
            sensitive = batch.sensitive
            try:
                payload = self.protector.protect_batch(batch)
            except KeyError:
                # No key yet: never post sensitive data in clear.
                self._schedule_next_tick()
                return
        else:
            sensitive = reading.sensitive
            try:
                payload = self.protector.protect(reading)
            except KeyError:
                # Sensitive stream without a key yet: skip this reading
                # and retry next interval.
                self._schedule_next_tick()
                return
        aes_cost = self.profile.aes_seconds(len(payload)) if sensitive else 0.0
        self.stats.aes_seconds_total += aes_cost
        # AES compute happens before the tips request leaves the device.
        self._scheduler.schedule(aes_cost, lambda: self._request_tips(payload))

    def _request_tips(self, payload: bytes) -> None:
        request_id = self._next_request_id()
        self._pending[request_id] = {
            "payload": payload,
            "tick_started": self._now(),
            # None for unsampled rounds; the tracker's handle otherwise.
            "trace": self.lifecycle.begin_submission(self.address),
        }
        sent = self.send(self.gateway, "get_tips_request", {
            "request_id": request_id,
            "node_id": self.keypair.node_id,
        })
        if not sent:
            # Gateway unreachable (crash/DDoS experiments): retry later.
            self._pending.pop(request_id, None)
            self._schedule_next_tick()
        else:
            self._arm_timeout(request_id)

    def handle_message(self, message: Message) -> None:
        handler = {
            "get_tips_response": self._handle_tips_response,
            "submit_response": self._handle_submit_response,
            "keydist_m1": self._handle_keydist_m1,
            "keydist_m3": self._handle_keydist_m3,
        }.get(message.kind)
        if handler is None:
            return
        try:
            if not isinstance(message.body, dict):
                raise TypeError("message body must be a dict")
            handler(message)
        except (ValueError, KeyError, TypeError):
            # A forged or corrupt message must not wedge the device:
            # drop it and let the reporting loop's timeout recover.
            pass

    def _handle_tips_response(self, message: Message) -> None:
        body = message.body
        context = self._pending.pop(body.get("request_id"), None)
        if context is None:
            return
        if not body.get("ok"):
            self.stats.tips_refused += 1
            self._schedule_next_tick()
            return
        try:
            self._build_and_submit(
                context,
                branch=body["branch"],
                trunk=body["trunk"],
                difficulty=body["difficulty"],
            )
        except (ValueError, KeyError, TypeError):
            # A malformed (or forged) response consumed our pending
            # context; resume the loop rather than wedging until the
            # next timeout.
            self._schedule_next_tick()

    def _build_and_submit(self, context: Dict, *, branch: bytes,
                          trunk: bytes, difficulty: int) -> None:
        """Grind PoW (as scheduled compute) then sign and submit."""
        self.lifecycle.record_handle(context.get("trace"), "tips_received",
                                     self.address)
        draft = Transaction(
            kind=TransactionKind.DATA,
            issuer=self.keypair.public,
            payload=context["payload"],
            timestamp=self._now(),
            branch=branch,
            trunk=trunk,
            difficulty=difficulty,
            nonce=0,
            signature=b"",
        )
        result = self.engine.solve(draft.pow_challenge, difficulty)
        self.stats.pow_seconds_total += result.elapsed_seconds
        self.stats.pow_solves += 1
        self.stats.pow_times.append(result.elapsed_seconds)
        self.stats.assigned_difficulties.append(difficulty)
        compute_delay = result.elapsed_seconds + self.profile.signature_seconds

        def finish_submission():
            tx = Transaction.create(
                self.keypair,
                kind=draft.kind,
                payload=draft.payload,
                timestamp=draft.timestamp,
                branch=draft.branch,
                trunk=draft.trunk,
                difficulty=draft.difficulty,
                nonce=result.proof.nonce,
            )
            handle = context.get("trace")
            # Bind now (after the modelled compute delay): this is the
            # sim-time at which the PoW is actually solved.
            self.lifecycle.bind(handle, tx.tx_hash,
                                difficulty=draft.difficulty,
                                pow_seconds=result.elapsed_seconds)
            request_id = self._next_request_id()
            self._pending[request_id] = context
            encoded = tx.to_bytes()
            self.stats.submissions_sent += 1
            # Send under the trace root so the submit hop (and every
            # relay after it) chains onto this transaction's trace.
            root_context = handle.context if handle is not None else None
            with self.lifecycle.tracer.activate(root_context):
                sent = self.send(self.gateway, "submit_transaction", {
                    "request_id": request_id,
                    "transaction": encoded,
                }, size_bytes=len(encoded))
            if not sent:
                self._pending.pop(request_id, None)
                self._schedule_next_tick()
            else:
                self._arm_timeout(request_id)

        self._scheduler.schedule(compute_delay, finish_submission)

    def _handle_submit_response(self, message: Message) -> None:
        body = message.body
        context = self._pending.pop(body.get("request_id"), None)
        if context is None:
            return
        if body.get("ok"):
            self.stats.submissions_accepted += 1
            self.stats.submit_latencies.append(
                self._now() - context["tick_started"]
            )
        else:
            self.stats.submissions_rejected += 1
        self._schedule_next_tick()

    def _arm_timeout(self, request_id: int) -> None:
        """Abandon the request if no reply lands in time; the reporting
        loop resumes at the next interval instead of wedging forever."""

        def expire():
            if self._pending.pop(request_id, None) is not None:
                self.timeouts += 1
                self._schedule_next_tick()

        self._scheduler.schedule(REQUEST_TIMEOUT, expire)

    def _schedule_next_tick(self) -> None:
        if self._running:
            self._scheduler.schedule(self.report_interval, self._tick)

    def _next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    # -- key distribution --------------------------------------------------

    def _handle_keydist_m1(self, message: Message) -> None:
        try:
            m2 = self.key_agent.handle_m1(message.body["m1"], now=self._now())
        except KeyDistributionError:
            return  # forged or replayed M1: ignore
        self.send(message.sender, "keydist_m2", {
            "m2": m2,
            "session_id": message.body.get("session_id"),
        }, size_bytes=len(m2))

    def _handle_keydist_m3(self, message: Message) -> None:
        session_id = message.body.get("session_id")
        if session_id is not None and session_id in self._keydist_acked:
            # Retransmitted M3 (our ack was lost): just re-ack.
            self._send_keydist_ack(message.sender, session_id)
            return
        try:
            group = self.key_agent.handle_m3(message.body["m3"], now=self._now())
        except KeyDistributionError:
            return
        self.protector.install_key(group, self.key_agent.key_for(group))
        self._m_keys_installed.inc()
        if session_id is not None:
            self._keydist_acked.add(session_id)
            self._send_keydist_ack(message.sender, session_id)

    def _send_keydist_ack(self, manager_address: str,
                          session_id: bytes) -> None:
        self.send(manager_address, "keydist_ack", {"session_id": session_id},
                  size_bytes=len(session_id))
