"""Chunking invariance of per-read delivery.

How a TCP byte stream is cut into ``read()`` calls is kernel timing.
The asyncio transport hands a full node each read's frames as one run
(``deliver_run``), which drops gossip the node already holds and lets
the rest's signatures share one batch equation; nothing the node
replies, floods, counts or replicates may depend on where the cuts
fell.  One fixed frame stream — every way a frame can fare — is cut at
arbitrary byte offsets and must produce, for every cut, exactly what
one frame per read produces: the same responses, floods, ``stats``,
``received_count``, state hashes and per-read counters — and again with
one and with two verify workers forked under a running loop, where the
node hands each run's batch off and delivers the run when its verdicts
arrive.  A second stream carries a ``sync_response`` too long for
``RUNS_IN_FLIGHT`` runs, which the node takes in turns.
"""

import asyncio
from functools import lru_cache
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import ed25519, verify_workers
from repro.faults.report import node_state_hashes
from repro.harness.workload import WorkloadBuilder, build_workload
from repro.network.frame import FrameDecoder
from repro.nodes.lane import RUNS_IN_FLIGHT
from repro.tangle.transaction import Transaction, TransactionKind
from repro.telemetry.registry import MetricsRegistry

from .runs import (
    BACKENDS,
    CLIENT,
    NODE,
    PEER,
    Rig,
    bad_nonce,
    batch_counters,
    forge_signature,
    frame,
    gossip_frame,
    needs_fork,
    submit_frame,
)

CREDIT_NOW = 20.0


@lru_cache(maxsize=None)
def scenario():
    """``(genesis, frames, ids, reference hashes)``: the stream, the
    request id of each interesting frame, and the state of a node that
    ingested exactly the valid transactions."""
    builder = WorkloadBuilder("runs", 3, devices=4, guests=1)
    manager, (d0, d1, d2, d3) = builder.manager, builder.devices
    (guest,) = builder.guests
    genesis = builder.genesis.tx_hash
    clock = iter(1.0 + 0.5 * step for step in range(100))

    def issue(keys, kind, payload, parents):
        tx, accepted = builder.issue(keys, kind, payload, parents,
                                     timestamp=next(clock))
        assert accepted
        return tx

    def data(keys, parents, label):
        return issue(keys, TransactionKind.DATA, label, parents)

    def transfer(sender, recipient, parents):
        payload = builder.transfer_payload(sender, recipient.node_id, 3)
        return issue(sender, TransactionKind.TRANSFER, payload.to_bytes(),
                     parents)

    def rogue(parents, label):
        """Fields of a transaction the reference never sees."""
        return dict(kind=TransactionKind.DATA, payload=label,
                    timestamp=next(clock), branch=parents[0],
                    trunk=parents[1], difficulty=1)

    acl0 = issue(manager, TransactionKind.ACL,
                 builder.acl_payload([d0, d1, d2]), (genesis, genesis))
    # Two lanes: a* from d0/d1, b* from d2, parents inside the lane.
    a1 = data(d0, (acl0.tx_hash, acl0.tx_hash), b"a1")
    b1 = data(d2, (acl0.tx_hash, acl0.tx_hash), b"b1")
    a2 = transfer(d1, d0, (a1.tx_hash, acl0.tx_hash))
    b2 = data(d2, (b1.tx_hash, acl0.tx_hash), b"b2")
    forged = forge_signature(
        Transaction.create(d0, **rogue((a2.tx_hash, a1.tx_hash), b"f")),
        a2)
    a3 = data(d0, (a2.tx_hash, a1.tx_hash), b"a3")
    unsealed = bad_nonce(d2, **rogue((b2.tx_hash, b1.tx_hash), b"n"))
    stranger = Transaction.create(
        guest, **rogue((a2.tx_hash, b2.tx_hash), b"s"))
    parent = data(d2, (b2.tx_hash, b1.tx_hash), b"parent")
    child = transfer(d2, manager, (parent.tx_hash, b2.tx_hash))
    a4 = data(d1, (a3.tx_hash, a2.tx_hash), b"a4")
    acl1 = issue(manager, TransactionKind.ACL, builder.acl_payload([d3]),
                 (a3.tx_hash, parent.tx_hash))
    newcomer = data(d3, (acl1.tx_hash, a3.tx_hash), b"newcomer")
    # What only the peer's multi-transaction messages bring.
    s1 = data(d2, (parent.tx_hash, b2.tx_hash), b"s1")
    s2 = data(d2, (s1.tx_hash, parent.tx_hash), b"s2")
    p1 = data(d0, (s2.tx_hash, a3.tx_hash), b"p1")
    # What only gossip brings, the child ahead of its parent.
    g1 = data(d1, (newcomer.tx_hash, a4.tx_hash), b"g1")
    g2 = data(d1, (g1.tx_hash, newcomer.tx_hash), b"g2")

    ids = {}
    frames = []

    def submit(name, tx):
        ids[name] = len(frames)
        frames.append(submit_frame(ids[name], tx.to_bytes()))

    submit("acl0", acl0)
    submit("a1", a1)
    submit("b1", b1)
    submit("a2", a2)
    submit("b2", b2)
    submit("forged", forged)
    submit("a3", a3)
    submit("unsealed", unsealed)
    submit("a3-again", a3)          # same bytes twice in one stream
    submit("stranger", stranger)
    submit("child", child)          # ahead of its parent: parks
    ids["tips"] = len(frames)
    frames.append(frame(CLIENT, "get_tips_request",
                        {"request_id": ids["tips"],
                         "node_id": d0.node_id}))
    frames.append(frame(CLIENT, "submit_transaction", 7))  # hostile body
    submit("parent", parent)        # releases the child
    frames.append(gossip_frame(a4.to_bytes()))
    submit("acl1", acl1)            # the grant ...
    submit("newcomer", newcomer)    # ... and the grantee's first submit
    frames.append(frame(PEER, "sync_response", {"transactions": [
        b1.to_bytes(), s1.to_bytes(), b"\x00junk", s2.to_bytes()]}))
    frames.append(gossip_frame(a1.to_bytes()))  # peer echo: a duplicate
    frames.append(frame(PEER, "parent_response", {"transactions": [
        parent.to_bytes(), p1.to_bytes()]}))
    ids["junk"] = len(frames)
    frames.append(submit_frame(ids["junk"], b"\x00junk"))
    frames.append(gossip_frame(g2.to_bytes()))   # ahead of its parent
    frames.append(gossip_frame(b"\x00junk"))     # malformed gossip body
    frames.append(gossip_frame(g1.to_bytes()))   # the late parent
    frames.append(gossip_frame(g1.to_bytes()))   # ... and its echo
    frames.append(gossip_frame(acl0.to_bytes()))  # the first frame's tx
    return (builder.genesis, tuple(frames), ids,
            builder.reference.state_hashes(CREDIT_NOW))


def run(backend, pieces, *, telemetry=None):
    genesis, _, _, _ = scenario()
    rig = Rig(genesis, BACKENDS[backend], telemetry=telemetry)
    rig.deliver(pieces)
    return rig


@lru_cache(maxsize=None)
def frame_per_read(backend):
    """The control: every read carries one frame, no run ever forms."""
    _, frames, _, _ = scenario()
    return run(backend, frames).outcome(credit_now=CREDIT_NOW)


def cut(frames, marks):
    """The stream split at every mark ``(frame, byte)`` — *byte* bytes
    into frame number *frame*, both wrapped into range; byte 0 is the
    boundary in front of that frame."""
    starts = list(accumulate(map(len, frames), initial=0))
    stream = b"".join(frames)
    edges = {starts[index % len(frames)]
             + byte % len(frames[index % len(frames)])
             for index, byte in marks}
    edges = [0, *sorted(edges), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if a != b]


@pytest.mark.parametrize("backend", BACKENDS)
class TestChunkingInvariance:
    def test_the_stream_exercises_every_fate(self, backend):
        """The control run itself: each frame fares as labelled, and
        the node ends in the state of the reference that ingested only
        the valid transactions."""
        _, _, ids, reference_hashes = scenario()
        outcome = frame_per_read(backend)
        verdict = {name: outcome["responses"][request_id][1]
                   for name, request_id in ids.items()
                   if request_id in outcome["responses"]}
        for name in ("acl0", "a1", "b1", "a2", "b2", "a3", "parent",
                     "acl1", "newcomer", "tips"):
            assert verdict[name]["ok"], name
        assert "signature invalid" in verdict["forged"]["error"]
        assert "nonce fails" in verdict["unsealed"]["error"]
        assert "unauthorised" in verdict["stranger"]["error"]
        assert verdict["a3-again"]["error"] == "duplicate"
        assert verdict["child"]["error"] == "parked-missing-parent"
        stats = outcome["stats"]
        # The hostile body, the junk submit and the junk gossip.
        assert stats.malformed_messages == 3
        assert stats.gossip_parked == 2  # the child and g2
        # Gossip a4, g1 + s1, s2, p1 from the messages (g2 attaches on
        # its parent's release); the echoes of a1, g1 and acl0 + b1 and
        # parent, which the messages repeat.
        assert stats.gossip_accepted == 5 and stats.gossip_duplicates == 5
        assert stats.sync_transactions_received == 2
        _, frames, _, _ = scenario()
        assert outcome["received"] == len(frames)
        counters = outcome["counters"]
        assert counters["repro_network_gossip_duplicates_total"] \
            == {f"node={NODE}": 5}
        assert sum(counters["repro_transport_frames_received_total"]
                   .values()) == len(frames)
        assert counters["repro_network_messages_delivered_total"] \
            == counters["repro_transport_frames_received_total"]
        assert outcome["hashes"] == reference_hashes

    def test_two_reads_batch_and_change_nothing(self, backend):
        """The other extreme: the first ACL grant in one read, all the
        rest in a second.  The lane demonstrably ran — one round — and
        the outcome is the control's."""
        _, frames, _, _ = scenario()
        telemetry = MetricsRegistry()
        rig = run(backend, cut(frames, [(1, 0)]), telemetry=telemetry)
        # In the batch: the nine distinct valid transactions eligible
        # when the run began, the two gossiped ones (g2 ahead of g1),
        # the forged signature (the fallback), and what the responses
        # bring that the node lacks — s1 and s2 from the sync_response,
        # p1 from the parent_response: a response's transactions are
        # the run's like any frame's.  Not in it: the stranger, the
        # unsealed nonce, the byte-equal repeats, the transactions the
        # tangle already holds (acl0's gossip, b1 and parent in the
        # responses: dropped as duplicates before the batch), and the
        # newcomer — authorised only by an earlier frame of the same
        # run, so verified singly.
        assert batch_counters(telemetry) == (1, 14, 1)
        assert rig.outcome(credit_now=CREDIT_NOW) == frame_per_read(backend)

    @settings(max_examples=40, deadline=None)
    @given(marks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.one_of(st.just(0),
                            st.integers(min_value=0, max_value=4095))),
        max_size=10))
    @example(marks=[])              # the whole stream in one read
    @example(marks=[(0, 1)])        # one byte, then everything
    @example(marks=[(1, 0), (6, 3), (6, 200), (17, 0)])
    def test_any_cut_equals_one_frame_per_read(self, backend, marks):
        _, frames, _, _ = scenario()
        assert run(backend, cut(frames, marks)) \
            .outcome(credit_now=CREDIT_NOW) == frame_per_read(backend)


@pytest.fixture(scope="class", params=[1, 2], ids="{}-workers".format)
def live_workers(request):
    """``request.param`` forked verify workers for the class, stopped
    and reaped after it."""
    ed25519.precompute()
    pids = verify_workers.start(request.param)
    yield pids
    verify_workers.stop()


def live(pieces, *, telemetry=None):
    """:func:`run` under a running loop (``Rig.deliver_live``), the
    product backend only: the workers check with their own copy."""
    genesis, _, _, _ = scenario()
    rig = Rig(genesis, BACKENDS["product"], telemetry=telemetry)
    rig.deliver_live(pieces)
    return rig


def pending_peak(node):
    """Wrap *node*'s ``deliver_run`` to record how many runs await
    verdicts each time it returns; returns the list it fills."""
    peaks, deliver_run = [], node.deliver_run

    def recording(run):
        rest = deliver_run(run)
        peaks.append(len(node.lane._runs))
        return rest

    node.deliver_run = recording
    return peaks


@needs_fork
@pytest.mark.usefixtures("live_workers")
class TestChunkingInvarianceWithLiveWorkers:
    """The cuts again with verify workers under a running loop, as in a
    ``repro node``: each run's batch is handed off, and the run is
    delivered when its verdicts arrive, while the next read is taken
    in.  That moves no outcome either."""

    def test_two_reads_hand_off_and_change_nothing(self):
        genesis, frames, _, _ = scenario()
        sizes, in_process = [], ed25519.verify_batch

        def counting(items):
            sizes.append(len(items))
            return in_process(items)

        backend = SimpleNamespace(verify=ed25519.verify,
                                  verify_batch=counting)
        telemetry = MetricsRegistry()
        rig = Rig(genesis, backend, telemetry=telemetry)
        peaks = pending_peak(rig.node)
        rig.deliver_live(cut(frames, [(1, 0)]))
        assert batch_counters(telemetry) == (1, 14, 1)
        # The run's fifteen signatures are all the workers'; the node
        # checks none.
        assert sizes == []
        # The first read (the ACL grant alone) was delivered at once;
        # the second waited for its verdicts.
        assert peaks == [0, 1]
        assert rig.outcome(credit_now=CREDIT_NOW) \
            == frame_per_read("product")

    @settings(max_examples=20, deadline=None)
    @given(marks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.one_of(st.just(0),
                            st.integers(min_value=0, max_value=4095))),
        max_size=10))
    @example(marks=[])
    @example(marks=[(1, 0), (6, 3), (6, 200), (17, 0)])
    def test_any_cut_equals_one_frame_per_read(self, marks):
        _, frames, _, _ = scenario()
        assert live(cut(frames, marks)).outcome(credit_now=CREDIT_NOW) \
            == frame_per_read("product")

    def test_a_burst_keeps_at_most_two_runs_awaiting_verdicts(self):
        """900 submits, 25 a read, as a saturating client writes them:
        runs pile up behind the workers only to the bound, every
        submit is acked and the node ends on the reference hashes."""
        workload = build_workload(39, transactions=900)
        frames = [submit_frame(index, encoded)
                  for index, encoded in enumerate(workload.transactions)]
        rig = Rig(workload.genesis, BACKENDS["product"])
        peaks = pending_peak(rig.node)
        rig.deliver_live([b"".join(frames[at:at + 25])
                          for at in range(0, len(frames), 25)])
        assert len(peaks) == 36
        assert max(peaks) == RUNS_IN_FLIGHT == 2
        assert [rig.responses()[index][1]["ok"]
                for index in range(len(frames))] == [True] * len(frames)
        assert node_state_hashes(rig.node,
                                 credit_now=workload.credit_now) \
            == workload.reference_hashes


@lru_cache(maxsize=None)
def long_response():
    """``(genesis, frames, credit_now, reference hashes)``: a stream
    whose ``sync_response`` lists more than two runs' worth of
    transactions — more than ``RUNS_IN_FLIGHT`` times ``SHARD_CAP`` —
    among them five the node already holds, a junk entry and a forged
    copy ahead of the transaction it copies, followed by gossip that
    approves the response's last transactions, a ``parent_response``
    and more client traffic."""
    workload = build_workload(47, transactions=320)
    txs = [Transaction.from_bytes(encoded)
           for encoded in workload.transactions]
    assert len(txs) - 30 > RUNS_IN_FLIGHT * verify_workers.SHARD_CAP
    listed = [tx.to_bytes() for tx in txs[5:300]]
    at = listed.index(txs[150].to_bytes())
    listed[at:at] = [forge_signature(txs[150], txs[149]).to_bytes(),
                     b"\x00junk"]
    frames = [submit_frame(index, txs[index].to_bytes())
              for index in range(10)]
    frames.append(frame(PEER, "sync_response", {"transactions": listed}))
    frames += [gossip_frame(tx.to_bytes()) for tx in txs[300:310]]
    frames.append(frame(PEER, "parent_response", {"transactions": [
        tx.to_bytes() for tx in txs[310:313] + [txs[0]]]}))
    frames.append(frame(CLIENT, "get_tips_request",
                        {"request_id": 1000,
                         "node_id": txs[1].issuer.node_id}))
    frames += [submit_frame(index, txs[index].to_bytes())
               for index in range(313, 320)]
    return (workload.genesis, tuple(frames), workload.credit_now,
            workload.reference_hashes)


def long_run(pieces, *, live_loop):
    genesis, _, _, _ = long_response()
    rig = Rig(genesis, BACKENDS["product"])
    results = []
    deliver_run = rig.node.deliver_run

    def recording(run):
        results.append(deliver_run(run))
        return results[-1]

    rig.node.deliver_run = recording
    rig.deliver_live(pieces) if live_loop else rig.deliver(pieces)
    rig.cut_later = any(result is not None for result in results)
    return rig


@lru_cache(maxsize=None)
def long_frame_per_read():
    _, frames, credit_now, _ = long_response()
    return long_run(frames, live_loop=False).outcome(credit_now=credit_now)


LONG_MARKS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.one_of(st.just(0),
                        st.integers(min_value=0, max_value=4095))),
    max_size=6)


class TestLongResponseChunkingInvariance:
    """A response too long for one run is cut into runs of at most
    ``SHARD_CAP`` transactions, taken in turns; wherever the reads fall
    the outcome is one frame per read's, without workers here."""

    def test_the_stream_attaches_everything_in_order(self):
        _, _, _, reference_hashes = long_response()
        outcome = long_frame_per_read()
        stats = outcome["stats"]
        assert stats.sync_transactions_received == 290
        assert stats.gossip_parked == 0
        assert stats.gossip_duplicates == 6
        assert stats.rejection_reasons == {"InvalidSignatureError": 1}
        assert outcome["responses"][1000][1]["ok"]
        assert outcome["hashes"] == reference_hashes

    @settings(max_examples=8, deadline=None)
    @given(marks=LONG_MARKS)
    @example(marks=[])
    def test_any_cut_equals_one_frame_per_read(self, marks):
        _, frames, credit_now, _ = long_response()
        for live_loop in (False, True):
            assert long_run(cut(frames, marks), live_loop=live_loop) \
                .outcome(credit_now=credit_now) == long_frame_per_read()

    def test_a_reader_that_stopped_waiting_holds_up_nobody(self):
        """A reader whose connection closed while it waited for room
        leaves its cancelled turn in the line; a long response read
        next is still taken whole, not queued behind it for good."""
        genesis, frames, _, _ = long_response()
        rig = Rig(genesis, BACKENDS["product"])
        rig.deliver(frames[:10])

        async def read_the_response():
            turn = asyncio.get_running_loop().create_future()
            turn.cancel()
            rig.node.lane._line.append(turn)
            (response,) = FrameDecoder().feed(frames[10])
            rest = rig.node.deliver_run([response])
            if rest is not None:
                await asyncio.wait_for(rest, 10.0)
            while rig.node.lane._runs:
                await asyncio.sleep(0.001)

        asyncio.run(read_the_response())
        assert rig.node.stats.sync_transactions_received == 290


@needs_fork
@pytest.mark.usefixtures("live_workers")
class TestLongResponseWithLiveWorkers:
    """The same with verify workers: the response's runs beyond
    ``RUNS_IN_FLIGHT`` wait their turn, and the reader reads on only
    once the node took them all, so nothing after the response — the
    gossip approving its last transactions — overtakes it."""

    @settings(max_examples=6, deadline=None)
    @given(marks=LONG_MARKS)
    @example(marks=[])
    @example(marks=[(10, 0), (10, 2000), (11, 0)])
    def test_any_cut_equals_one_frame_per_read(self, marks):
        _, frames, credit_now, _ = long_response()
        rig = long_run(cut(frames, marks), live_loop=True)
        assert rig.outcome(credit_now=credit_now) == long_frame_per_read()

    def test_the_response_is_taken_in_turns(self):
        _, frames, credit_now, _ = long_response()
        rig = long_run(frames, live_loop=True)
        assert rig.cut_later
        assert rig.outcome(credit_now=credit_now) == long_frame_per_read()

