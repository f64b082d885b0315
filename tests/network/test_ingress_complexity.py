"""Complexity guard for the read path of a ``repro node``: counts, not
time.

In an n-gateway mesh a transaction reaches a gateway n-1 times, so most
frames it reads are ones it already has.  Such a frame must cost what
it brings — a frame decode of a few Python calls, one decode-LRU hit,
one seen-set lookup and one counter — and neither a transaction parse
nor a hash; the metrics it moves must not leave an event behind in a
process where nothing reads events; and a frame built to exhaust the
interpreter's stack costs its sender the connection and nobody else
anything, while a reply too large for one frame costs only itself.
"""

import asyncio
import json
import gc
import struct
import tracemalloc

import pytest

import repro.network.frame as frame_module
import repro.tangle.transaction as transaction_module
from repro.harness.supervisor import write_genesis
from repro.network import proc
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.proc import NODE_DECODE_CACHE_SIZE, NodeProcessSpec
from repro.network.transport import Message
from repro.tangle.transaction import (
    MAX_CACHED_ENCODING,
    Transaction,
    TransactionDecodeCache,
)
from repro.telemetry.exporters import to_prometheus_text
from repro.telemetry.registry import MetricsRegistry

from ..nodes.runs import (
    BACKENDS,
    NODE,
    PEER,
    Rig,
    gossip_frame,
    submit_frame,
)
from ..nodes.test_run_amplification import material
from . import frame_reference
from .test_frame_differential import BARE_ENVELOPE, framed, nested_lists


def attached_rig(telemetry=None):
    """A ``build_node`` node that has attached the ACL grant and 64
    transactions, each submitted in a read of its own."""
    genesis, acl, good = material()[:3]
    rig = Rig(genesis, BACKENDS["product"], telemetry=telemetry)
    rig.deliver([submit_frame(index, tx.to_bytes())
                 for index, tx in enumerate([acl] + good)])
    assert len(rig.node.tangle) == len(good) + 2
    rig.peer.messages.clear()  # the floods of those submits
    return rig, good


class TestDuplicateFrame:
    def test_costs_no_parse_and_no_hash(self, monkeypatch):
        rig, good = attached_rig()
        counts = {"from_bytes": 0, "hash_concat": 0}
        from_bytes = Transaction.from_bytes
        hash_concat = transaction_module.hash_concat

        def counting_from_bytes(data):
            counts["from_bytes"] += 1
            return from_bytes(data)

        def counting_hash_concat(*parts):
            counts["hash_concat"] += 1
            return hash_concat(*parts)

        monkeypatch.setattr(Transaction, "from_bytes",
                            staticmethod(counting_from_bytes))
        monkeypatch.setattr(transaction_module, "hash_concat",
                            counting_hash_concat)
        frames = [gossip_frame(tx.to_bytes()) for tx in good]
        before = rig.node.stats.gossip_duplicates
        # One read carrying all of them (the run hook sees them first),
        # then each in a read of its own.
        rig.deliver([b"".join(frames)] + frames)
        assert counts == {"from_bytes": 0, "hash_concat": 0}
        assert rig.node.stats.gossip_duplicates - before == 2 * len(frames)
        assert rig.peer.messages == []  # nothing was flooded again

    def test_entry_is_the_tangles_instance(self):
        rig, good = attached_rig()
        cache = rig.node.decode_cache
        for tx in good:
            assert cache.decode(tx.to_bytes()) \
                is rig.node.tangle.get(tx.tx_hash)

    def test_cache_is_bounded_in_entries_and_bytes(self):
        rig, good = attached_rig()
        cache = rig.node.decode_cache
        assert cache.max_size == NODE_DECODE_CACHE_SIZE
        encoded = good[0].to_bytes()
        (kind_len,) = struct.unpack_from(">H", encoded)
        length_at = 2 + kind_len + 64

        def variant(index, size=len(encoded) + 3):
            """A well-formed encoding of *size* bytes nobody signed:
            it decodes, and differs from every other index's."""
            payload = index.to_bytes(4, "big") \
                + bytes(size - len(encoded) + len(good[0].payload) - 4)
            return (encoded[:length_at] + struct.pack(">I", len(payload))
                    + payload
                    + encoded[length_at + 4 + len(good[0].payload):])

        for index in range(NODE_DECODE_CACHE_SIZE + 1):
            cache.decode(variant(index))
        assert len(cache) == NODE_DECODE_CACHE_SIZE
        with pytest.raises(ValueError):
            cache.decode(encoded[:-1])
        assert encoded[:-1] not in cache._decoded
        # Longer than the cache keeps: parsed every time, never held.
        bulky = variant(0, MAX_CACHED_ENCODING + 1)
        assert len(cache.decode(bulky).to_bytes()) == MAX_CACHED_ENCODING + 1
        assert cache.decode(bulky) is not cache.decode(bulky)
        assert bulky not in cache._decoded

        # The byte bound of the docstrings, measured: entries as long as
        # the cache keeps, that never attach, every digest memo filled.
        entries = 256
        worst = TransactionDecodeCache(max_size=entries)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(entries):
                tx = worst.decode(variant(index, MAX_CACHED_ENCODING))
                tx.pow_challenge, tx.full_digest, tx.issuer.node_id
            del tx
            gc.collect()
            per_entry = (tracemalloc.get_traced_memory()[0] - before) \
                / entries
        finally:
            tracemalloc.stop()
        assert len(worst) == entries
        assert per_entry > 2 * MAX_CACHED_ENCODING  # key + payload, at least
        assert NODE_DECODE_CACHE_SIZE * per_entry <= 4 * 2 ** 20


class TestFrameDecodeCalls:
    def test_a_gossip_frame_takes_at_most_half_the_old_calls(self):
        tx = material()[2][0].to_bytes()
        # The envelope benchmarks/e2e writes for a duplicate.
        frame = encode_frame(Message(
            sender="peer0", recipient=NODE, kind="gossip_transaction",
            body={"transaction": tx}, sent_at=12.5, size_bytes=len(tx),
            message_id=7))
        new, old = FrameDecoder(), frame_reference.FrameDecoder()
        new_calls = frame_reference.python_calls(lambda: new.feed(frame))
        old_calls = frame_reference.python_calls(lambda: old.feed(frame))
        assert new.frames_decoded == old.frames_decoded == 1
        # The reference reads the envelope field by field: 31 calls
        # (the v1 envelope decoded as a canonical dict took 69).
        assert old_calls >= 31
        # One struct read for the envelope, two containers for the
        # body, one Message: the call itself and feed make it 6.
        assert new_calls <= 6
        assert new_calls * 2 <= old_calls


class TestTelemetryOffTheHotPath:
    def test_page_renders_every_label_arity(self):
        registry = MetricsRegistry()
        rig, good = attached_rig(telemetry=registry)
        rig.deliver([gossip_frame(tx.to_bytes()) for tx in good])
        # Every label arity, through every instrument kind.
        registry.counter("repro_test_total").inc(2, b="1", a=2)
        registry.gauge("repro_test_depth").set(3, peer=PEER)
        registry.gauge("repro_test_depth").dec(peer=PEER)
        registry.histogram("repro_test_seconds").observe(0.2, z="z", y="y")
        registry.histogram("repro_test_seconds").observe(0.4)
        page = to_prometheus_text(registry)
        assert 'repro_test_total{a="2",b="1"} 2' in page
        assert f'repro_test_depth{{peer="{PEER}"}} 2' in page
        assert 'repro_test_seconds_count{y="y",z="z"} 1' in page
        assert "repro_cache_decode_hits_total" in page


class ReadyLine:
    """Stands where stdout stands for ``_amain``: keeps the ready line
    and says when it has come."""

    def __init__(self):
        self.arrived = asyncio.Event()
        self.ready = None

    def write(self, text: str) -> None:
        self.ready = json.loads(text)

    def flush(self) -> None:
        self.arrived.set()


def request(kind, request_id, **body):
    """One framed request from the test's client to the node."""
    return encode_frame(Message(
        sender="client", recipient=NODE, kind=kind,
        body={"request_id": request_id, **body}, sent_at=0.0))


async def reply(reader, decoder, kind):
    """The next *kind* message; replies of other kinds (a submit's ack)
    are read past."""
    while True:
        data = await asyncio.wait_for(reader.read(65536), 20.0)
        assert data, "node closed the connection"
        for message in decoder.feed(data):
            if message.kind == kind:
                return message


class TestNodeProcess:
    def test_hostile_frame_costs_only_its_connection(
            self, fleet_sandbox, monkeypatch):
        """5 000 nested lists behind a valid CRC: that connection is
        dropped and one frame error counted, and a second connection is
        served before and after."""
        genesis, acl, good = material()[:3]
        genesis_path = write_genesis(genesis, fleet_sandbox.storage_dir())
        built = []

        def capture(*args, **kwargs):
            built.append(MetricsRegistry(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(proc, "MetricsRegistry", capture)

        async def drive():
            stream = ReadyLine()
            node = asyncio.ensure_future(proc._amain(
                NodeProcessSpec(address=NODE, genesis_path=genesis_path),
                ready_stream=stream))
            await asyncio.wait_for(stream.arrived.wait(), 20.0)
            address = stream.ready["host"], stream.ready["port"]
            good_reader, good_writer = await asyncio.open_connection(*address)
            decoder = FrameDecoder()
            try:
                good_writer.write(
                    submit_frame(0, acl.to_bytes())
                    + b"".join(gossip_frame(tx.to_bytes()) for tx in good)
                    + b"".join(gossip_frame(tx.to_bytes()) for tx in good)
                    + request("fleet_status", 1))
                await reply(good_reader, decoder, "fleet_status_response")

                bad_reader, bad_writer = await asyncio.open_connection(
                    *address)
                bad_writer.write(framed(BARE_ENVELOPE + nested_lists(5000)))
                assert await asyncio.wait_for(bad_reader.read(), 20.0) == b""
                bad_writer.close()

                good_writer.write(request("fleet_status", 2))
                status = await reply(good_reader, decoder,
                                     "fleet_status_response")
                good_writer.write(request("fleet_shutdown", 3))
                await reply(good_reader, decoder, "fleet_shutdown_ack")
            finally:
                good_writer.close()
            assert await asyncio.wait_for(node, 20.0) == 0
            return status

        status = fleet_sandbox.run(drive())
        assert status.body["request_id"] == 2
        assert status.body["tangle_size"] == len(good) + 2
        (registry,) = built
        assert registry.counter(
            "repro_transport_frame_errors_total").total == 1
        assert registry.counter(
            "repro_network_gossip_duplicates_total").total == len(good)
        assert registry.counter(
            "repro_cache_decode_hits_total").total >= len(good)

    def test_unframeable_reply_costs_only_that_reply(
            self, fleet_sandbox, monkeypatch):
        """A ``sync_response`` larger than one frame may hold is dropped
        and counted as a drop of its kind — not as a malformed request
        from the peer that asked; the connection that asked for it stays
        up and its next request is answered."""
        genesis, acl, good = material()[:3]
        genesis_path = write_genesis(genesis, fleet_sandbox.storage_dir())
        built, nodes = [], []
        build_node = proc.build_node

        def capture(*args, **kwargs):
            built.append(MetricsRegistry(*args, **kwargs))
            return built[-1]

        def capture_node(*args, **kwargs):
            nodes.append(build_node(*args, **kwargs))
            return nodes[-1]

        monkeypatch.setattr(proc, "MetricsRegistry", capture)
        monkeypatch.setattr(proc, "build_node", capture_node)
        # Every request fits; the full sync_response (65 transactions,
        # ~15 KB) does not.
        monkeypatch.setattr(frame_module, "MAX_FRAME_BYTES", 8192)

        async def drive():
            stream = ReadyLine()
            node = asyncio.ensure_future(proc._amain(
                NodeProcessSpec(address=NODE, genesis_path=genesis_path),
                ready_stream=stream))
            await asyncio.wait_for(stream.arrived.wait(), 20.0)
            reader, writer = await asyncio.open_connection(
                stream.ready["host"], stream.ready["port"])
            decoder = FrameDecoder()
            try:
                writer.write(
                    submit_frame(0, acl.to_bytes())
                    + b"".join(gossip_frame(tx.to_bytes()) for tx in good)
                    + request("fleet_status", 1))
                await reply(reader, decoder, "fleet_status_response")
                writer.write(request("sync_request", 2, known=[])
                             + request("get_tips_request", 3,
                                       node_id=bytes(32)))
                tips = await reply(reader, decoder, "get_tips_response")
                writer.write(request("fleet_shutdown", 4))
                await reply(reader, decoder, "fleet_shutdown_ack")
            finally:
                writer.close()
            assert await asyncio.wait_for(node, 20.0) == 0
            return tips

        tips = fleet_sandbox.run(drive())
        assert tips.body["request_id"] == 3
        (registry,) = built
        dropped = registry.counter("repro_network_messages_dropped_total")
        assert dropped.value(kind="sync_response") == 1
        assert registry.counter(
            "repro_transport_frame_errors_total").total == 0
        (node,) = nodes
        assert node.stats.sync_requests_served == 1
        assert node.stats.malformed_messages == 0

    @pytest.mark.parametrize("now", [2 ** 2000, -2 ** 2000, float("inf"),
                                     float("nan")],
                             ids=["huge", "-huge", "inf", "nan"])
    def test_status_clock_no_float_holds_costs_only_its_frame(
            self, fleet_sandbox, monkeypatch, now):
        """A ``fleet_status`` whose ``now`` is past float range or not
        finite is counted as malformed, and the valid ``fleet_status``
        written behind it in the same ``write()`` is still answered."""
        genesis_path = write_genesis(material()[0],
                                     fleet_sandbox.storage_dir())
        nodes = []
        build_node = proc.build_node

        def capture_node(*args, **kwargs):
            nodes.append(build_node(*args, **kwargs))
            return nodes[-1]

        monkeypatch.setattr(proc, "build_node", capture_node)

        async def drive():
            stream = ReadyLine()
            node = asyncio.ensure_future(proc._amain(
                NodeProcessSpec(address=NODE, genesis_path=genesis_path),
                ready_stream=stream))
            await asyncio.wait_for(stream.arrived.wait(), 20.0)
            reader, writer = await asyncio.open_connection(
                stream.ready["host"], stream.ready["port"])
            decoder = FrameDecoder()
            before = nodes[0].stats.malformed_messages
            try:
                writer.write(request("fleet_status", 1, now=now)
                             + request("fleet_status", 2, now=0.0))
                status = await reply(reader, decoder,
                                     "fleet_status_response")
                malformed = nodes[0].stats.malformed_messages - before
                writer.write(request("fleet_shutdown", 3))
                await reply(reader, decoder, "fleet_shutdown_ack")
            finally:
                writer.close()
            assert await asyncio.wait_for(node, 20.0) == 0
            return status, malformed

        status, malformed = fleet_sandbox.run(drive())
        assert status.body["request_id"] == 2
        assert malformed == 1
