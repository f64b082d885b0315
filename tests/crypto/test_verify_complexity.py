"""Complexity guard for the accel verify: counts, not time.

A gateway sees a few long-lived issuers, so what a single ``verify``
costs is decided by whether the issuer's split tables exist.  The
budget is stated in point operations — calls to the accel module's
``_point_add`` and ``_point_double``, counted by wrapping both — and
pinned on every side of the issuer cache: a key seen before, a key
never seen, a flood of fresh keys, input that must not buy a table at
all, and the batch lane, whose cost this cache must not move.

``PARENT_*`` are the counts of the same inputs before the issuer
tables existed (the unsplit ``[s]B == R + [h]A``, counted the same
way); they are what "no more than before" means below.
"""

import pytest

from repro.crypto.accel import ed25519_accel as acc
from repro.crypto.ed25519 import _L

from .test_ed25519_accel import NON_CANONICAL, make_items

WARM_BUDGET = 140
PARENT_SINGLE = 362          # mean over the `pin` keys' signatures
PARENT_BATCH_64_OF_4 = 2442  # make_items(64, seed_prefix=b"pin", issuers=4)
PARENT_BATCH_2_OF_1 = 425
PARENT_BATCH_3_OF_3 = 557


@pytest.fixture
def operations(monkeypatch):
    """Count point operations; every test starts from an empty cache."""
    acc.precompute()
    acc._issuer_cache.clear()
    count = [0]

    def counting(function):
        def wrapper(*args):
            count[0] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(acc, "_point_add", counting(acc._point_add))
    monkeypatch.setattr(acc, "_point_double", counting(acc._point_double))

    def spent(function, *args):
        before = count[0]
        result = function(*args)
        return count[0] - before, result

    return spent


def test_warm_key_verify_is_one_short_chain(operations):
    items = make_items(16, seed_prefix=b"pin", issuers=1)
    operations(acc.verify, *items[0])
    for item in items:
        cost, ok = operations(acc.verify, *item)
        assert ok
        assert cost <= WARM_BUDGET
    forged = (items[0][0], b"other", items[0][2])
    cost, ok = operations(acc.verify, *forged)
    assert not ok and cost <= WARM_BUDGET


def test_fresh_keys_cost_little_more_than_before_and_pin_nothing(operations):
    items = make_items(acc._ISSUER_CACHE_SIZE + 8, seed_prefix=b"churn")
    for item in items:
        cost, ok = operations(acc.verify, *item)
        assert ok
        assert cost <= 1.2 * PARENT_SINGLE
        assert len(acc._issuer_cache) <= acc._ISSUER_CACHE_SIZE
    assert items[0][0] not in acc._issuer_cache
    with_tables = sum(record.tables is not None
                      for record in acc._issuer_cache.values())
    assert with_tables == acc._ISSUER_CACHE_SIZE


def test_refused_input_builds_no_table(operations):
    (public, message, signature), = make_items(1, seed_prefix=b"refuse")
    refused = [
        (public[:-1], message, signature),                       # length
        (public, message, signature[:-1]),
        (NON_CANONICAL[0], message, signature),                  # A
        (public, message, NON_CANONICAL[0] + signature[32:]),    # R
        (public, message, signature[:32] + _L.to_bytes(32, "little")),
    ]
    for item in refused:
        assert operations(acc.verify, *item) == (0, False)
        assert operations(acc.verify_batch, [item]) == (0, [False])
    assert list(acc._issuer_cache) == [public]
    assert acc._issuer_cache[public].tables is None


@pytest.mark.parametrize("warm", [False, True])
def test_batch_lane_costs_what_it_did(operations, warm):
    items = make_items(64, seed_prefix=b"pin", issuers=4)
    if warm:
        for item in items[:4]:
            acc.verify(*item)
    cost, verdicts = operations(acc.verify_batch, items)
    assert verdicts == [True] * 64
    assert cost <= PARENT_BATCH_64_OF_4


def test_failed_batch_falls_back_through_the_tables(operations):
    items = make_items(64, seed_prefix=b"pin", issuers=4)
    items[9] = (items[9][0], b"other", items[9][2])
    cost, verdicts = operations(acc.verify_batch, items)
    assert verdicts == [index != 9 for index in range(64)]
    # the combined equation, four table builds, 64 short chains
    assert cost <= PARENT_BATCH_64_OF_4 + 4 * 288 + 64 * WARM_BUDGET
    assert cost < 64 * PARENT_SINGLE


def test_short_run_of_known_issuers_is_verified_singly(operations):
    for count in (2, 3):
        items = make_items(count, seed_prefix=b"pin", issuers=1)
        acc.verify(*items[0])
        cost, verdicts = operations(acc.verify_batch, items)
        assert verdicts == [True] * count
        assert cost <= count * WARM_BUDGET
    assert acc._BATCH_FLOOR == 4


def test_short_run_of_fresh_keys_stays_on_the_batch_equation(operations):
    for items, parent in (
            (make_items(2, seed_prefix=b"pin", issuers=1),
             PARENT_BATCH_2_OF_1),
            (make_items(3, seed_prefix=b"pin"), PARENT_BATCH_3_OF_3)):
        acc._issuer_cache.clear()
        cost, verdicts = operations(acc.verify_batch, items)
        assert all(verdicts)
        assert cost <= parent
        assert all(record.tables is None
                   for record in acc._issuer_cache.values())
