"""Scaffolding for the per-read *run* tests (``test_run_chunking``,
``test_run_amplification``).

A stream transport hands a full node everything one ``read()``
completed (``NetworkNode.prepare_run``) before delivering the frames
one by one.  These helpers rebuild that delivery step without sockets —
a real :class:`~repro.network.frame.FrameDecoder` fed arbitrary byte
pieces, then exactly the calls ``AsyncioTransport._read_loop`` makes —
around the node configuration ``repro node`` runs, so a test can cut
one fixed byte stream any way it likes and compare outcomes.
"""

import random
from dataclasses import replace

from repro.faults.report import node_state_hashes
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.network import Network, NetworkNode
from repro.network.proc import build_node
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.tangle.transaction import Transaction

NODE = "n0"
CLIENT = "client"   # submits, receives every submit/get_tips response
PEER = "peer"       # the node's one gossip peer: floods land here


class Recorder(NetworkNode):
    """An endpoint that keeps every message it is sent."""

    def __init__(self, address):
        super().__init__(address)
        self.messages = []

    def handle_message(self, message):
        self.messages.append(message)


class Rig:
    """One ``repro node``-configured full node on a simulator fabric
    with a recording client and a recording gossip peer."""

    def __init__(self, genesis, backend, *, telemetry=None):
        self.scheduler = EventScheduler()
        network = Network(self.scheduler, rng=random.Random(1))
        self.node = build_node(NODE, genesis, rng_seed=0,
                               crypto_backend=backend, telemetry=telemetry)
        self.client = Recorder(CLIENT)
        self.peer = Recorder(PEER)
        for member in (self.node, self.client, self.peer):
            network.attach(member)
        self.node.add_peer(PEER)

    def deliver(self, pieces):
        """Feed *pieces* — one per ``read()`` — through a frame decoder
        and deliver what each completes the way the asyncio read loop
        does: the run hook first when the read carried two or more
        frames, then every frame through the per-message path."""
        decoder = FrameDecoder()
        for piece in pieces:
            messages = decoder.feed(piece)
            if len(messages) >= 2:
                self.node.prepare_run(messages)
            for message in messages:
                self.node._deliver(message)
        decoder.close()
        self.scheduler.run()  # replies and floods reach the recorders

    def responses(self):
        """``request_id -> (kind, body)`` of everything the client got."""
        return {message.body["request_id"]: (message.kind, message.body)
                for message in self.client.messages}

    def outcome(self, *, credit_now):
        """Everything that must not depend on how the stream was cut."""
        relay = self.node.relay
        return {
            "responses": self.responses(),
            "stats": self.node.stats,
            "relay": (relay.relays, relay.duplicates_suppressed,
                      relay.seen_count),
            "flooded": [(m.kind, m.body) for m in self.peer.messages],
            "hashes": node_state_hashes(self.node, credit_now=credit_now),
        }


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
