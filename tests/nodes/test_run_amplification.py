"""Amplification guard for the batch lane: count the crypto.

On the per-message path a frame reaches the Ed25519 check only after
the duplicate test, the ACL, the difficulty floor and the nonce check.
Batch-verifying transactions that arrived together — the frames of one
read, or one ``sync_response`` / ``parent_response`` — ahead of that
path must not open a cheaper way to make a gateway do signature work:
a run or message made entirely of transactions those gates refuse
triggers **no** batch round and no backend call the one-frame-per-read
path would not also make, and parks no verdict.  And a forged signature
hidden among good ones costs the honest senders nothing but the
fallback the batch counters account for.
"""

from functools import lru_cache
from types import SimpleNamespace

import pytest

from repro.harness.workload import WorkloadBuilder
from repro.tangle.transaction import Transaction, TransactionKind
from repro.telemetry.registry import MetricsRegistry

from .runs import (
    BACKENDS,
    PEER,
    Rig,
    bad_nonce,
    batch_counters,
    forge_signature,
    frame,
    gossip_frame,
    submit_frame,
)

RUN = 64


@lru_cache(maxsize=None)
def material():
    """Genesis, the ACL grant, and four 64-transaction sets: a valid
    chain from an authorised device, the same with its last signature
    forged, one from a key the ACL does not list, one whose nonces miss
    the declared difficulty."""
    builder = WorkloadBuilder("amplify", 5, devices=1, guests=1)
    (device,), (guest,) = builder.devices, builder.guests
    acl, accepted = builder.issue(
        builder.manager, TransactionKind.ACL, builder.acl_payload([device]),
        (builder.genesis.tx_hash,) * 2, timestamp=1.0)
    assert accepted

    def fields(index, parents):
        return dict(kind=TransactionKind.DATA, payload=b"%d" % index,
                    timestamp=2.0 + index, branch=parents[0],
                    trunk=parents[1], difficulty=1)

    good, parents = [], (acl.tx_hash, acl.tx_hash)
    for index in range(RUN):
        tx = Transaction.create(device, **fields(index, parents))
        parents = (parents[1], tx.tx_hash)
        good.append(tx)
    one_forged = good[:-1] + [forge_signature(good[-1], good[0])]
    strangers = [Transaction.create(guest, **fields(i, (acl.tx_hash,) * 2))
                 for i in range(RUN)]
    unsealed = [bad_nonce(device, **fields(i, (acl.tx_hash,) * 2))
                for i in range(RUN)]
    return builder.genesis, acl, good, one_forged, strangers, unsealed


class CountingRig(Rig):
    """A rig whose node verifies through a backend that counts calls."""

    def __init__(self, genesis, backend):
        inner = BACKENDS[backend]
        self.calls = {"verify": 0, "verify_batch": 0}

        def counting(name):
            function = getattr(inner, name)  # before the rig patches it

            def call(*args):
                self.calls[name] += 1
                return function(*args)
            return call

        counted = SimpleNamespace(verify=counting("verify"),
                                  verify_batch=counting("verify_batch"))
        self.telemetry = MetricsRegistry()
        super().__init__(genesis, counted, telemetry=self.telemetry)


def each_way(backend, ways, *, warmup=()):
    """One rig per entry of *ways* — a list of pieces, one per read —
    each delivered after the *warmup* frames (one per read); the rigs
    come back with their crypto call counts zeroed after the warm-up."""
    genesis = material()[0]
    rigs = []
    for pieces in ways:
        rig = CountingRig(genesis, backend)
        rig.deliver(warmup)
        rig.client.messages.clear()
        rig.calls.update(verify=0, verify_batch=0)
        rig.warm_counters = batch_counters(rig.telemetry)
        rig.warm_parked = len(rig.node.replica.preverified)
        rig.deliver(pieces)
        rigs.append(rig)
    return rigs


def both_ways(backend, frames, *, warmup=()):
    """*frames* one per read, and as a single read."""
    return each_way(backend, [list(frames), [b"".join(frames)]],
                    warmup=warmup)


def submits(transactions):
    return [submit_frame(index, tx.to_bytes())
            for index, tx in enumerate(transactions)]


def gossips(transactions):
    return [gossip_frame(tx.to_bytes()) for tx in transactions]


MESSAGE_KINDS = ("sync_response", "parent_response")


def as_message(kind, transactions):
    """One read of one multi-transaction frame from the peer, carrying
    all of *transactions*."""
    return [frame(PEER, kind, {"transactions": [tx.to_bytes()
                                                for tx in transactions]})]


@pytest.mark.parametrize("backend", BACKENDS)
class TestRefusedRunsBuyNoCrypto:
    def check(self, single, run):
        assert run.responses() == single.responses()
        assert run.node.stats == single.node.stats
        assert run.calls == single.calls == {"verify": 0, "verify_batch": 0}
        assert batch_counters(run.telemetry) == run.warm_counters
        assert len(run.node.replica.preverified) == run.warm_parked

    def check_message(self, backend, kind, transactions, warmup):
        """*transactions* in one *kind* message fare as the same
        transactions in single gossip frames, one per read, do."""
        single, message = each_way(
            backend,
            [gossips(transactions), as_message(kind, transactions)],
            warmup=warmup)
        self.check(single, message)
        return message

    def test_unlisted_issuer(self, backend):
        _, acl, _, _, strangers, _ = material()
        single, run = both_ways(backend, submits(strangers),
                                warmup=submits([acl]))
        assert all("unauthorised" in body["error"]
                   for _, body in run.responses().values())
        self.check(single, run)

    def test_nonce_below_declared_difficulty(self, backend):
        _, acl, _, _, _, unsealed = material()
        single, run = both_ways(backend, submits(unsealed),
                                warmup=submits([acl]))
        assert all("nonce fails" in body["error"]
                   for _, body in run.responses().values())
        self.check(single, run)

    def test_gossip_of_attached_transactions(self, backend):
        _, acl, good, _, _, _ = material()
        single, run = both_ways(backend, gossips(good),
                                warmup=submits([acl] + good))
        assert run.node.stats.gossip_duplicates == RUN
        self.check(single, run)

    @pytest.mark.parametrize("kind", MESSAGE_KINDS)
    def test_message_of_unsealed_transactions(self, backend, kind):
        _, acl, _, _, _, unsealed = material()
        message = self.check_message(backend, kind, unsealed,
                                     submits([acl]))
        assert message.node.stats.rejection_reasons \
            == {"InvalidPowError": RUN}

    @pytest.mark.parametrize("kind", MESSAGE_KINDS)
    def test_message_of_attached_transactions(self, backend, kind):
        _, acl, good, _, _, _ = material()
        message = self.check_message(backend, kind, good,
                                     submits([acl] + good))
        assert message.node.stats.gossip_duplicates == RUN


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_forged_among_63_good(backend):
    """Same 63 ``ok`` and one ``signature invalid`` either way.  The
    run spends one batch call on all 64 and the validator settles only
    the forged one individually — the fallback counter says so."""
    _, acl, _, one_forged, _, _ = material()
    single, run = both_ways(backend, submits(one_forged),
                            warmup=submits([acl]))
    responses = run.responses()
    assert responses == single.responses()
    assert [body["ok"] for _, body in map(responses.get, range(RUN))] \
        == [True] * (RUN - 1) + [False]
    assert "signature invalid" in responses[RUN - 1][1]["error"]
    assert run.node.stats == single.node.stats
    assert single.calls == {"verify": RUN, "verify_batch": 0}
    assert run.calls == {"verify": 1, "verify_batch": 1}
    assert batch_counters(single.telemetry) == (0, 0, 0)
    assert batch_counters(run.telemetry) == (1, RUN - 1, 1)
    # The same 64 in one sync_response: one batch call, one fallback.
    (synced,) = each_way(backend,
                         [as_message("sync_response", one_forged)],
                         warmup=submits([acl]))
    assert synced.calls == {"verify": 1, "verify_batch": 1}
    assert batch_counters(synced.telemetry) == (1, RUN - 1, 1)
    assert synced.node.stats.sync_transactions_received == RUN - 1
    assert len(synced.node.replica.preverified) == 0
    assert list(synced.node.tangle) == list(run.node.tangle)
