"""Chunking invariance of the per-read batch lane.

How a TCP byte stream is cut into ``read()`` calls is kernel timing.
The asyncio transport hands a full node each read's frames as one run
(``prepare_run``) so their signatures can share one batch equation;
nothing the node replies, counts or replicates may depend on where the
cuts fell.  One fixed frame stream — every way a frame can fare — is
cut at arbitrary byte offsets and must produce, for every cut, exactly
what one-frame-per-read (the lane never entered) produces.
"""

from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.accel import CRYPTO_BACKENDS
from repro.faults.report import node_state_hashes
from repro.harness.workload import WorkloadBuilder
from repro.tangle.transaction import Transaction, TransactionKind
from repro.telemetry.registry import MetricsRegistry

from .runs import (
    CLIENT,
    PEER,
    Rig,
    bad_nonce,
    batch_counters,
    forge_signature,
    frame,
    gossip_frame,
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
    return (builder.genesis, tuple(frames), ids,
            node_state_hashes(builder.reference, credit_now=CREDIT_NOW))


def run(backend, pieces, *, telemetry=None):
    genesis, _, _, _ = scenario()
    rig = Rig(genesis, backend, telemetry=telemetry)
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


@pytest.mark.parametrize("backend", CRYPTO_BACKENDS)
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
        assert stats.malformed_messages == 2  # hostile body + junk bytes
        assert stats.gossip_parked == 1
        # Gossip a4 + s1, s2, p1 from the messages; the echo of a1 +
        # b1 and parent, which the messages repeat.
        assert stats.gossip_accepted == 4 and stats.gossip_duplicates == 3
        assert stats.sync_transactions_received == 2
        assert outcome["hashes"] == reference_hashes

    def test_two_reads_batch_and_change_nothing(self, backend):
        """The other extreme: the first ACL grant in one read, all the
        rest in a second.  The lane demonstrably ran — one round — and
        the outcome is the control's."""
        _, frames, _, _ = scenario()
        telemetry = MetricsRegistry()
        rig = run(backend, cut(frames, [(1, 0)]), telemetry=telemetry)
        # In the batch: the nine distinct valid transactions eligible
        # when the run began, and the forged signature (the fallback).
        # Not in it: the stranger, the unsealed nonce, the byte-equal
        # repeats, and the newcomer — authorised only by an earlier
        # frame of the same run, so verified singly.  The sync_response
        # batches its own two new transactions however the stream is
        # cut; the parent_response brings one, so nothing to batch.
        assert batch_counters(telemetry) == (2, 11, 1)
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
