"""Complexity guard for the Ed25519 verify: counts, not time.

A gateway sees a few long-lived issuers, so what a single ``verify``
costs is decided by whether the issuer's split tables exist.  The
budget is stated in point operations — calls to the product module's
``_point_add``, ``_point_add_niels`` (the mixed addition every chain
reads its table entries through) and ``_point_double``, counted by
wrapping all three — and pinned on every side of the issuer cache: a
key seen before, a key never seen, a flood of fresh keys, input that
must not buy a table at all, and the batch lane, whose cost this cache
must not move.  What the cache pins is stated in bytes, as the
allocator sees them.

The single check compares encodings instead of decoding ``R``, so a
warm single verify takes no square root: its one modular
exponentiation is compression's inversion.  Builtin ``pow`` calls are
counted by shadowing the module's ``pow``.  A canonical ``R`` whose
``y`` is no curve point's now costs one chain, where decoding used to
refuse it for nothing; that adds no amplification, because an ``R``
that decodes with a wrong ``s`` already costs exactly that chain, and
any sender can make one.  What is refused for nothing is what is
cheap to see: the lengths, ``y >= p``, a key that does not decode and
``s >= L``.

``PARENT_*`` are the counts of the same inputs before the issuer
tables existed (the unsplit ``[s]B == R + [h]A``, counted the same
way); they are what "no more than before" means below.
"""

import tracemalloc

import pytest

from repro.crypto import ed25519 as product
from repro.crypto.ed25519 import _L, _P

from .test_ed25519_accel import NON_CANONICAL, NON_RESIDUE_Y, make_items

WARM_BUDGET = 105            # 31 doublings + ~71 mixed additions
WARM_MEAN_BUDGET = 103       # mean over the `pin` key's signatures
COLD_BUDGET = 394            # the 288-operation issuer rows + the chain
SQRT_EXPONENT = (_P - 5) // 8
PARENT_SINGLE = 362          # mean over the `pin` keys' signatures
PARENT_BATCH_64_OF_4 = 2442  # make_items(64, seed_prefix=b"pin", issuers=4)
PARENT_BATCH_2_OF_1 = 425
PARENT_BATCH_3_OF_3 = 557


@pytest.fixture
def operations(monkeypatch):
    """Count point operations; every test starts from an empty cache."""
    product.precompute()
    product._issuer_cache.clear()
    count = [0]

    def counting(function):
        def wrapper(*args):
            count[0] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(product, "_point_add", counting(product._point_add))
    monkeypatch.setattr(product, "_point_add_niels",
                        counting(product._point_add_niels))
    monkeypatch.setattr(product, "_point_double",
                        counting(product._point_double))

    def spent(function, *args):
        before = count[0]
        result = function(*args)
        return count[0] - before, result

    return spent


@pytest.fixture
def exponents(monkeypatch):
    """Record the exponent of every builtin ``pow`` the module calls."""
    seen = []

    def counting(base, exponent, modulus=None):
        seen.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(product, "pow", counting, raising=False)

    def taken(function, *args):
        del seen[:]
        result = function(*args)
        return list(seen), result

    return taken


def test_warm_key_verify_is_one_short_chain(operations):
    items = make_items(16, seed_prefix=b"pin", issuers=1)
    operations(product.verify, *items[0])
    costs = []
    for item in items:
        cost, ok = operations(product.verify, *item)
        assert ok
        assert cost <= WARM_BUDGET
        costs.append(cost)
    assert sum(costs) <= WARM_MEAN_BUDGET * len(costs)
    forged = (items[0][0], b"other", items[0][2])
    cost, ok = operations(product.verify, *forged)
    assert not ok and cost <= WARM_BUDGET


def test_warm_verify_takes_no_square_root(exponents):
    items = make_items(4, seed_prefix=b"pin", issuers=1)
    product._issuer_cache.clear()
    taken, ok = exponents(product.verify, *items[0])
    assert ok and taken.count(SQRT_EXPONENT) == 1      # A, on first sight
    for public, message, signature in items[1:] + [
            (items[0][0], b"other", items[0][2])]:
        taken, _ = exponents(product.verify, public, message, signature)
        assert taken == [-1]          # compression's inversion, no root
        taken, _ = exponents(product.verify_batch,
                             [(public, message, signature)])
        assert taken == [-1]          # the batch's one-by-one path


def test_batch_item_still_decodes_its_commitment(exponents):
    items = make_items(8, seed_prefix=b"pin", issuers=1)
    product.verify(*items[0])
    taken, verdicts = exponents(product.verify_batch, items)
    assert verdicts == [True] * 8
    assert taken.count(SQRT_EXPONENT) == 8


def test_undecodable_commitment_costs_one_warm_chain(operations):
    (public, message, signature), = make_items(1, seed_prefix=b"pin")
    product.verify(public, message, signature)
    for sign in (0, 1):
        r_bytes = (NON_RESIDUE_Y | (sign << 255)).to_bytes(32, "little")
        cost, ok = operations(product.verify, public, message,
                              r_bytes + signature[32:])
        assert not ok
        assert 0 < cost <= WARM_BUDGET


def test_fresh_keys_cost_little_more_than_before_and_pin_nothing(operations):
    items = make_items(product._ISSUER_CACHE_SIZE + 8, seed_prefix=b"churn")
    for item in items:
        cost, ok = operations(product.verify, *item)
        assert ok
        assert cost <= COLD_BUDGET < 1.1 * PARENT_SINGLE
        assert len(product._issuer_cache) <= product._ISSUER_CACHE_SIZE
    assert items[0][0] not in product._issuer_cache
    with_tables = sum(record.tables is not None
                      for record in product._issuer_cache.values())
    assert with_tables == product._ISSUER_CACHE_SIZE


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
        assert operations(product.verify, *item) == (0, False)
        assert operations(product.verify_batch, [item]) == (0, [False])
    assert list(product._issuer_cache) == [public]
    assert product._issuer_cache[public].tables is None


@pytest.mark.parametrize("warm", [False, True])
def test_batch_lane_costs_what_it_did(operations, warm):
    items = make_items(64, seed_prefix=b"pin", issuers=4)
    if warm:
        for item in items[:4]:
            product.verify(*item)
    cost, verdicts = operations(product.verify_batch, items)
    assert verdicts == [True] * 64
    assert cost <= PARENT_BATCH_64_OF_4


def test_failed_batch_falls_back_through_the_tables(operations):
    items = make_items(64, seed_prefix=b"pin", issuers=4)
    items[9] = (items[9][0], b"other", items[9][2])
    cost, verdicts = operations(product.verify_batch, items)
    assert verdicts == [index != 9 for index in range(64)]
    # the combined equation, four table builds, 64 short chains
    assert cost <= PARENT_BATCH_64_OF_4 + 4 * 288 + 64 * WARM_BUDGET
    assert cost < 64 * PARENT_SINGLE


def test_short_run_of_known_issuers_is_verified_singly(operations):
    for count in (2, 3):
        items = make_items(count, seed_prefix=b"pin", issuers=1)
        product.verify(*items[0])
        cost, verdicts = operations(product.verify_batch, items)
        assert verdicts == [True] * count
        assert cost <= count * WARM_BUDGET
    assert product._BATCH_FLOOR == 4


def test_short_run_of_fresh_keys_stays_on_the_batch_equation(operations):
    for items, parent in (
            (make_items(2, seed_prefix=b"pin", issuers=1),
             PARENT_BATCH_2_OF_1),
            (make_items(3, seed_prefix=b"pin"), PARENT_BATCH_3_OF_3)):
        product._issuer_cache.clear()
        cost, verdicts = operations(product.verify_batch, items)
        assert all(verdicts)
        assert cost <= parent
        assert all(record.tables is None
                   for record in product._issuer_cache.values())


def test_full_issuer_cache_stays_under_two_mib():
    items = make_items(product._ISSUER_CACHE_SIZE, seed_prefix=b"bytes")
    product.precompute()
    product._issuer_cache.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for item in items:
            assert product.verify(*item)
        pinned = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(record.tables is not None
               for record in product._issuer_cache.values())
    assert len(product._issuer_cache) == product._ISSUER_CACHE_SIZE
    assert pinned <= 2 * 2 ** 20
