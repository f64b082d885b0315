"""Scaffolding for the per-read *run* tests (``test_run_chunking``,
``test_run_amplification``).

A stream transport hands a full node everything one ``read()``
completed as one call (``NetworkNode.deliver_run``).  These helpers
drive that step without sockets — a real
:class:`~repro.network.frame.FrameDecoder` fed arbitrary byte pieces,
and what each completes handed to the transport's own per-read function
(``AsyncioTransport._receive``) — around the node configuration
``repro node`` runs, so a test can cut one fixed byte stream any way it
likes and compare outcomes.
"""

import asyncio
import os
import random
from dataclasses import replace
from unittest import mock

import pytest

from repro.crypto import ed25519

from repro.faults.report import node_state_hashes
from repro.network.aio import AsyncioTransport
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.network import Network, NetworkNode
from repro.network.proc import build_node
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.tangle.transaction import Transaction
from repro.telemetry.registry import MetricsRegistry

from ..crypto import ed25519_reference

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="verify workers are forked processes and this platform "
           "cannot fork")

BACKENDS = {"product": ed25519, "oracle": ed25519_reference}
"""What a rig's node checks signatures with: the product module, or the
RFC 8032 test oracle patched in for ``verify`` and ``verify_batch``."""

NODE = "n0"
CLIENT = "client"   # submits, receives every submit/get_tips response
PEER = "peer"       # the node's one gossip peer: floods land here

READ_COUNTERS = ("repro_transport_frames_received_total",
                 "repro_network_messages_delivered_total",
                 "repro_network_gossip_duplicates_total")
"""The counters a read moves in bulk: per kind once per read (the
first two) and once per run (the third)."""


class Recorder(NetworkNode):
    """An endpoint that keeps every message it is sent."""

    def __init__(self, address):
        super().__init__(address)
        self.messages = []

    def handle_message(self, message):
        self.messages.append(message)


class Rig:
    """One ``repro node``-configured full node read by an
    :class:`~repro.network.aio.AsyncioTransport` that is never started
    (no loop, no socket), with a recording client and a recording gossip
    peer on a simulator fabric that carries the node's replies, floods
    and timers; while it delivers, ``repro.crypto.ed25519``'s ``verify``
    and ``verify_batch`` are *backend*'s."""

    def __init__(self, genesis, backend, *, telemetry=None):
        self.backend = backend
        self.telemetry = telemetry if telemetry is not None \
            else MetricsRegistry()
        self.scheduler = EventScheduler()
        network = Network(self.scheduler, rng=random.Random(1))
        self.node = build_node(NODE, genesis, rng_seed=0,
                               telemetry=self.telemetry)
        self.client = Recorder(CLIENT)
        self.peer = Recorder(PEER)
        for member in (self.client, self.peer):
            network.attach(member)
        self.transport = AsyncioTransport(self.scheduler,
                                          telemetry=self.telemetry)
        self.transport.attach(self.node)
        self.node.bind(network)  # replies and floods go out on the fabric
        self.node.add_peer(PEER)

    def deliver(self, pieces):
        """Feed *pieces* — one per ``read()`` — through a frame decoder
        and hand what each completes to the transport as its read loop
        does."""
        decoder = FrameDecoder()
        with mock.patch.multiple(ed25519, verify=self.backend.verify,
                                 verify_batch=self.backend.verify_batch):
            for piece in pieces:
                self.transport._receive(decoder.feed(piece), writer=None)
            decoder.close()
            self.scheduler.run()  # replies and floods reach the recorders

    def deliver_live(self, pieces):
        """:meth:`deliver` inside a running event loop, yielding to it
        after every read and, as the transport's read loop does,
        holding each read back while the node has no room for another
        run: with verify workers live, the node hands each run's batch
        off and the loop delivers the run when its verdicts arrive, as
        in a ``repro node``; a read the node takes in turns (a long
        response) is awaited before the next.  Returns once no run is
        pending."""
        async def feed():
            decoder = FrameDecoder()
            for piece in pieces:
                await self.transport.room_for_run()
                rest = self.transport._receive(decoder.feed(piece),
                                               writer=None)
                if rest is not None:
                    await rest
                await asyncio.sleep(0)
            decoder.close()
            while self.node.lane._runs:
                await asyncio.sleep(0.001)

        with mock.patch.multiple(ed25519, verify=self.backend.verify,
                                 verify_batch=self.backend.verify_batch):
            asyncio.run(asyncio.wait_for(feed(), 120.0))
            self.scheduler.run()

    def responses(self):
        """``request_id -> (kind, body)`` of everything the client got."""
        return {message.body["request_id"]: (message.kind, message.body)
                for message in self.client.messages}

    def outcome(self, *, credit_now):
        """Everything that must not depend on how the stream was cut."""
        return {
            "responses": self.responses(),
            "stats": self.node.stats,
            "relays": self.node.relay.relays,
            "flooded": [(m.kind, m.body) for m in self.peer.messages],
            "received": self.node.received_count,
            "counters": self.read_counters(),
            "hashes": node_state_hashes(self.node, credit_now=credit_now),
        }

    def read_counters(self):
        """The :data:`READ_COUNTERS` series, by label set."""
        snapshot = self.telemetry.snapshot()
        return {name: snapshot.get(name, {}).get("series")
                for name in READ_COUNTERS}


def frame(sender, kind, body, *, message_id=0):
    """One wire frame addressed to the node under test."""
    return encode_frame(Message(sender=sender, recipient=NODE, kind=kind,
                                body=body, sent_at=0.0,
                                message_id=message_id))


def submit_frame(request_id, encoded_tx):
    return frame(CLIENT, "submit_transaction",
                 {"request_id": request_id, "transaction": encoded_tx},
                 message_id=request_id)


def gossip_frame(encoded_tx):
    return frame(PEER, "gossip_transaction", {"transaction": encoded_tx})


def bad_nonce(keys, **fields):
    """A properly signed transaction whose nonce misses its declared
    difficulty (the signature covers the nonce, so it is genuine)."""
    for nonce in range(1 << 16):
        tx = Transaction.create(keys, nonce=nonce, **fields)
        if not tx.verify_pow():
            return tx
    raise AssertionError("no failing nonce found")


def forge_signature(tx, donor):
    """*tx* carrying *donor*'s signature: well-formed (it decompresses,
    ``s < L``) but made over another hash, so it survives the batch
    verifier's structural screen and fails its equation."""
    return replace(tx, signature=donor.signature)


def batch_counters(telemetry):
    """``(rounds, verified, fallback)`` of the crypto batch lane."""
    snapshot = telemetry.snapshot()
    return tuple(
        snapshot[f"repro_crypto_batch_{name}_total"]["series"].get("_", 0)
        for name in ("rounds", "verified", "fallback"))
