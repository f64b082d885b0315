"""The one seeded workload builder: golden pin and stream properties.

Every differential delivers what :func:`repro.harness.workload.
build_workload` generates, so its byte stream is a compatibility
contract: the pinned digests below were captured from the pre-harness
``repro.network.differential.build_workload`` and must never move
(CI's ``cmp``-equal artefacts hang off them).  The properties are
parametrised over shard counts — ``shards=1`` is the fleet stream the
sim ≡ wire ≡ process differential uses, ``shards=N`` the scale bench's.
"""

import hashlib

import pytest

from repro.harness.workload import build_workload
from repro.tangle.transaction import Transaction

GOLDEN_STREAM_SHA256 = \
    "ac34d2ef7c5b566a5d95b846e5e03fc76cb418f63375675128afdb7aba55a867"
GOLDEN_REFERENCE_HASHES = {
    "tangle":
        "aa600cd1c9944e7fbcb95c665ac463fd07c1fe5c8899d1207f7060493a9b80c5",
    "ledger":
        "5833e0dd67b2522063d4570de1737578a6f17b865c405b77075619fef114fdc6",
    "acl":
        "ab519fd481e3a179db00e6326c5215f98c49dc9650a819160d91fd6d4fb47a4a",
    "credit":
        "e93b7fb553619ec298013b6196fed4fe5ead4c1c29a1442bd8926672811c1966",
}

SHAPES = [
    pytest.param({"transactions": 8}, id="fleet"),
    pytest.param({"transactions": 5, "shards": 2}, id="2-shards"),
    pytest.param({"transactions": 6, "shards": 3, "devices": 2},
                 id="3-shards"),
]


def test_golden_fleet_stream():
    """Draw order is the compatibility contract."""
    workload = build_workload(7, transactions=40)
    assert len(workload.shards) == 1 and len(workload.transactions) == 40
    assert hashlib.sha256(
        b"".join(workload.transactions)).hexdigest() == GOLDEN_STREAM_SHA256
    assert workload.reference_hashes == GOLDEN_REFERENCE_HASHES
    assert workload.credit_now == 22.0


@pytest.mark.parametrize("shape", SHAPES)
def test_same_seed_same_bytes_other_seed_other_bytes(shape):
    a, b = build_workload(5, **shape), build_workload(5, **shape)
    assert a.shards == b.shards
    assert a.genesis.to_bytes() == b.genesis.to_bytes()
    assert a.reference_hashes == b.reference_hashes
    assert a.credit_now == b.credit_now
    other = build_workload(6, **shape)
    assert all(mine != theirs
               for mine, theirs in zip(a.shards, other.shards))


@pytest.mark.parametrize("shape", SHAPES)
def test_parents_never_leave_the_shard(shape):
    """Every parent of a shard transaction is genesis, the shared ACL
    transaction or an earlier transaction of the same shard."""
    workload = build_workload(4, **shape)
    assert len({shard[0] for shard in workload.shards}) == 1
    assert len({len(shard) for shard in workload.shards}) == 1
    for shard in workload.shards:
        earlier = {workload.genesis.tx_hash}
        for encoded in shard:
            tx = Transaction.from_bytes(encoded)
            assert {tx.branch, tx.trunk} <= earlier, tx.short_hash
            earlier.add(tx.tx_hash)
    own = [set(shard[1:]) for shard in workload.shards]
    assert all(not (a & b) for i, a in enumerate(own) for b in own[i + 1:])


def test_one_shard_is_the_fleet_stream():
    plain = build_workload(7, transactions=12)
    explicit = build_workload(7, transactions=12, shards=1)
    assert explicit.shards == [plain.transactions]
    assert explicit.reference_hashes == plain.reference_hashes
    # More shards extend the population, so they are a different
    # deployment (other genesis), not a superset of the fleet stream.
    assert build_workload(7, transactions=12, shards=2).genesis.tx_hash \
        != plain.genesis.tx_hash


@pytest.mark.parametrize("bad", [{"shards": 0}, {"devices": 0}])
def test_rejects_degenerate_shapes(bad):
    # (Too-short streams: ``test_fleet_differential.TestWorkload``.)
    with pytest.raises(ValueError):
        build_workload(5, transactions=8, **bad)
