"""Differential tests: the accel Ed25519 lane vs the reference.

The accel module's whole contract is *bit-exactness*: ``sign``,
``public_from_secret`` and ``verify`` must agree with
:mod:`repro.crypto.ed25519` on every input, and ``verify_batch`` must
agree with per-item sequential verification — including on adversarial
inputs (small-order and mixed-order points, non-canonical encodings,
``s >= L``) where a naive batch equation would accept what the
cofactorless reference rejects.  A single ``verify`` reads per-issuer
split tables out of a bounded LRU, so every such input is also checked
in each state of that cache: key never seen, seen, and evicted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519 as ref
from repro.crypto.accel import (
    CRYPTO_BACKENDS,
    CryptoPool,
    get_backend,
)
from repro.crypto.accel import ed25519_accel as acc
from repro.crypto.ed25519 import (
    _D,
    _IDENTITY,
    _L,
    _P,
    _point_add,
    _point_compress,
    _point_decompress,
    _point_equal,
    _secret_expand,
    _sha512_int,
    generate_secret_key,
)

# -- helpers ---------------------------------------------------------------


def _mul(scalar, point):
    """Reference-arithmetic double-and-add (independent of accel code)."""
    acc_point = _IDENTITY
    while scalar:
        if scalar & 1:
            acc_point = _point_add(acc_point, point)
        point = _point_add(point, point)
        scalar >>= 1
    return acc_point


def _order(point):
    """Order of *point* within the 8-torsion subgroup (1, 2, 4 or 8)."""
    for order in (1, 2, 4, 8):
        if _point_equal(_mul(order, point), _IDENTITY):
            return order
    raise AssertionError("point is not 8-torsion")


def _sqrt(a):
    """Square root mod p (p = 5 mod 8), or None for non-residues."""
    root = pow(a, (_P + 3) // 8, _P)
    if root * root % _P != a % _P:
        root = root * acc._SQRT_M1 % _P
    if root * root % _P != a % _P:
        return None
    return root


def small_order_encodings():
    """All decodable small-order point encodings, derived from the
    curve equation (not hardcoded literature constants).

    Order 1: (0, 1).  Order 2: (0, -1).  Order 4: (±sqrt(-1), 0) — the
    doubling formula sends y=0 points to (0, -1).  Order 8: doubling
    into an order-4 point forces y² = -x², and substituting into the
    curve equation gives d·x⁴ - 2x² - 1 = 0, i.e. x² = (1 ± √(1+d))/d.
    """
    points = [(0, 1), (0, _P - 1),
              (acc._SQRT_M1, 0), (_P - acc._SQRT_M1, 0)]
    disc = _sqrt((1 + _D) % _P)
    assert disc is not None
    inv_d = pow(_D, _P - 2, _P)
    for root in (disc, _P - disc):
        xx = (1 + root) * inv_d % _P
        x = _sqrt(xx)
        if x is None:
            continue
        y = _sqrt((-xx) % _P)
        assert y is not None
        for px in (x, _P - x):
            for py in (y, _P - y):
                points.append((px, py))
    encodings = []
    for x, y in points:
        encoded = bytearray(y.to_bytes(32, "little"))
        encoded[31] |= (x & 1) << 7
        encodings.append(bytes(encoded))
    return encodings


def torsion_signature(seed, message, torsion_encoding):
    """A (pk, msg, sig) triple the *cofactored* equation accepts but
    the cofactorless reference rejects.

    The public key is ``A + T`` for an honest ``A = a·B`` and a torsion
    point ``T``; signing with the honest scalar against the shifted
    key's challenge leaves a pure-torsion defect ``-h·T`` in the
    verification equation.
    """
    secret = generate_secret_key(seed=seed)
    scalar, prefix = _secret_expand(secret)
    torsion = _point_decompress(torsion_encoding)
    shifted = _point_compress(_point_add(_mul(scalar, ref._BASE), torsion))
    r = _sha512_int(prefix, message) % _L
    r_enc = _point_compress(_mul(r, ref._BASE))
    challenge = _sha512_int(r_enc, shifted, message) % _L
    s = (r + challenge * scalar) % _L
    return shifted, message, r_enc + s.to_bytes(32, "little")


def torsion_commitment_signature(seed, message, torsion_encoding):
    """The same class of triple with the defect on the other point:
    an honest key, and a commitment ``R + T`` — the equation is left
    with the pure-torsion gap ``-T``."""
    secret = generate_secret_key(seed=seed)
    scalar, prefix = _secret_expand(secret)
    torsion = _point_decompress(torsion_encoding)
    public = ref.public_from_secret(secret)
    r = _sha512_int(prefix, message) % _L
    r_enc = _point_compress(_point_add(_mul(r, ref._BASE), torsion))
    challenge = _sha512_int(r_enc, public, message) % _L
    s = (r + challenge * scalar) % _L
    return public, message, r_enc + s.to_bytes(32, "little")


def make_items(count, *, seed_prefix=b"batch", issuers=None):
    """*count* honest (pk, msg, sig) triples across *issuers* keys."""
    issuers = issuers or count
    secrets = [generate_secret_key(seed=seed_prefix + b"%d" % i)
               for i in range(issuers)]
    publics = [ref.public_from_secret(secret) for secret in secrets]
    items = []
    for i in range(count):
        message = b"msg-%d" % i
        items.append((publics[i % issuers], message,
                      ref.sign(secrets[i % issuers], message)))
    return items


SMALL_ORDER = small_order_encodings()


# -- scalar API ------------------------------------------------------------


class TestScalarDifferential:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=32, max_size=32),
           st.binary(max_size=64))
    def test_sign_and_public_byte_identical(self, secret, message):
        assert acc.public_from_secret(secret) == ref.public_from_secret(secret)
        assert acc.sign(secret, message) == ref.sign(secret, message)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=32, max_size=32),
           st.binary(max_size=64),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=1, max_value=255))
    def test_verify_agreement_tampered(self, secret, message, pos, flip):
        public = ref.public_from_secret(secret)
        signature = bytearray(ref.sign(secret, message))
        assert acc.verify(public, message, bytes(signature))
        signature[pos] ^= flip
        tampered = bytes(signature)
        assert (acc.verify(public, message, tampered)
                == ref.verify(public, message, tampered))

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=32, max_size=32))
    def test_decompress_equivalence_fuzz(self, encoding):
        try:
            expected = _point_decompress(encoding)
        except ValueError:
            expected = None
        try:
            got = acc._decompress(encoding)
        except ValueError:
            got = None
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert _point_equal(got, expected)

    @pytest.mark.parametrize("encoding", [
        _P.to_bytes(32, "little"),                      # y = p
        (_P + 1).to_bytes(32, "little"),                # y = p + 1
        bytes([1] + [0] * 30 + [0x80]),                 # x=0, sign bit set
        b"\xff" * 32,                                   # y >= p with sign
    ])
    def test_decompress_rejections_agree(self, encoding):
        with pytest.raises(ValueError):
            _point_decompress(encoding)
        with pytest.raises(ValueError):
            acc._decompress(encoding)

    def test_issuer_cache_bounded(self):
        acc._issuer_cache.clear()
        for i in range(acc._ISSUER_CACHE_SIZE + 16):
            secret = generate_secret_key(seed=b"cache-%d" % i)
            acc._issuer(acc.public_from_secret(secret))
        assert len(acc._issuer_cache) == acc._ISSUER_CACHE_SIZE

    def test_issuer_cache_keeps_successes_only(self):
        acc._issuer_cache.clear()
        with pytest.raises(ValueError):
            acc._issuer(b"\xff" * 32)
        assert not acc._issuer_cache

    def test_bad_lengths_rejected(self):
        secret = generate_secret_key(seed=b"len")
        public = ref.public_from_secret(secret)
        signature = ref.sign(secret, b"m")
        assert not acc.verify(public[:-1], b"m", signature)
        assert not acc.verify(public, b"m", signature[:-1])


# -- adversarial encodings -------------------------------------------------


class TestAdversarial:
    def test_small_order_derivation(self):
        # The full 8-torsion subgroup: 1 + 1 + 2 + 4 points by order.
        orders = sorted(_order(_point_decompress(enc))
                        for enc in SMALL_ORDER)
        assert orders == [1, 2, 4, 4, 8, 8, 8, 8]
        assert len(set(SMALL_ORDER)) == 8

    @pytest.mark.parametrize("encoding", SMALL_ORDER)
    def test_small_order_public_key_agreement(self, encoding):
        # s=0 signatures against small-order keys: the classic forgery
        # shape.  No exceptions, and accel agrees with the reference.
        for r_enc in (SMALL_ORDER[0], SMALL_ORDER[1]):
            signature = r_enc + bytes(32)
            expected = ref.verify(encoding, b"m", signature)
            assert acc.verify(encoding, b"m", signature) == expected

    @pytest.mark.parametrize("encoding", SMALL_ORDER)
    def test_small_order_commitment_agreement(self, encoding):
        secret = generate_secret_key(seed=b"so-commit")
        public = ref.public_from_secret(secret)
        signature = encoding + bytes(32)
        expected = ref.verify(public, b"m", signature)
        assert acc.verify(public, b"m", signature) == expected

    @pytest.mark.parametrize("s_value", [_L, _L + 1, 2 ** 256 - 1])
    def test_non_canonical_s_rejected(self, s_value):
        secret = generate_secret_key(seed=b"s-range")
        public = ref.public_from_secret(secret)
        signature = ref.sign(secret, b"m")[:32] + s_value.to_bytes(
            32, "little")
        assert not ref.verify(public, b"m", signature)
        assert not acc.verify(public, b"m", signature)

    @pytest.mark.parametrize("torsion", SMALL_ORDER[1:])
    def test_torsion_defect_rejected_by_batch(self, torsion):
        """A single mixed-order defect must fail the combined equation
        deterministically (odd coefficients annihilate nothing in the
        torsion subgroup) and fall back to per-item agreement."""
        defective = torsion_signature(b"torsion", b"attack", torsion)
        # Cofactorless reference rejects it (unless h happened to kill
        # the torsion component — then it is simply a valid signature
        # and there is nothing adversarial to check).
        expected = ref.verify(*defective)
        assert acc.verify(*defective) == expected
        items = make_items(3) + [defective]
        sequential = [ref.verify(*item) for item in items]
        assert acc.verify_batch(items) == sequential

    def test_torsion_defect_is_cofactored_valid(self):
        """The defect really is the interesting class: multiplying the
        verification gap by 8 yields the identity."""
        public, message, signature = torsion_signature(
            b"torsion", b"attack", SMALL_ORDER[4])
        assert not ref.verify(public, message, signature)
        a_point = _point_decompress(public)
        r_point = _point_decompress(signature[:32])
        s = int.from_bytes(signature[32:], "little")
        challenge = _sha512_int(signature[:32], public, message) % _L
        gap = _point_add(
            _mul(s, ref._BASE),
            acc._point_neg(_point_add(r_point, _mul(challenge, a_point))))
        assert not _point_equal(gap, _IDENTITY)
        assert _point_equal(_mul(8, gap), _IDENTITY)


# -- batch verification ----------------------------------------------------


class TestBatch:
    def test_empty_batch(self):
        assert acc.verify_batch([]) == []

    def test_single_item_batch(self):
        (item,) = make_items(1)
        assert acc.verify_batch([item]) == [True]
        bad = (item[0], item[1], item[2][:32] + bytes(32))
        assert acc.verify_batch([bad]) == [ref.verify(*bad)]

    def test_all_valid_multiple_issuers(self):
        items = make_items(8, issuers=4)
        assert acc.verify_batch(items) == [True] * 8

    def test_single_issuer_merged_columns(self):
        # 16 signatures from one key collapse to one A-column; the
        # merged equation must still accept all and reject tampering.
        items = make_items(16, issuers=1)
        assert acc.verify_batch(items) == [True] * 16
        public, message, signature = items[7]
        items[7] = (public, message + b"!", signature)
        expected = [ref.verify(*item) for item in items]
        assert acc.verify_batch(items) == expected

    def test_fallback_on_corruption(self):
        items = make_items(6, issuers=3)
        public, message, signature = items[2]
        corrupted = bytearray(signature)
        corrupted[10] ^= 0xFF
        items[2] = (public, message, bytes(corrupted))
        expected = [ref.verify(*item) for item in items]
        assert expected.count(False) == 1
        assert acc.verify_batch(items) == expected

    def test_structurally_invalid_items_skipped(self):
        items = make_items(3)
        items.append((b"short", b"m", bytes(64)))
        items.append((items[0][0], b"m", bytes(63)))
        items.append((b"\xff" * 32, b"m", bytes(64)))
        expected = [ref.verify(*item) for item in items]
        assert acc.verify_batch(items) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=63))
    def test_batch_sequential_agreement_fuzz(self, count, corrupt, pos):
        items = make_items(count, seed_prefix=b"fuzz")
        if corrupt < count:
            public, message, signature = items[corrupt]
            mutated = bytearray(signature)
            mutated[pos] ^= 0x01
            items[corrupt] = (public, message, bytes(mutated))
        expected = [ref.verify(*item) for item in items]
        assert acc.verify_batch(items) == expected


# -- the cached path: issuer records and split tables ----------------------

NON_CANONICAL = [((_P + k) | (sign << 255)).to_bytes(32, "little")
                 for k in range(19) for sign in (0, 1)]
"""Every 32-byte string whose y field is >= p: rejected by decoding."""

FILLER_KEYS = [acc.public_from_secret(generate_secret_key(seed=b"fill-%d" % i))
               for i in range(acc._ISSUER_CACHE_SIZE)]
"""Enough distinct keys to turn the issuer LRU over once."""

_seeds = st.integers(min_value=0, max_value=5).map(lambda i: b"key-%d" % i)
_messages = st.binary(max_size=24)


def _honest(seed, message):
    secret = generate_secret_key(seed=seed)
    return ref.public_from_secret(secret), message, ref.sign(secret, message)


def _flip(item, pos, bit):
    public, message, signature = item
    mutated = bytearray(signature)
    mutated[pos] ^= 1 << bit
    return public, message, bytes(mutated)


def _with_s(item, s_value):
    public, message, signature = item
    return public, message, signature[:32] + s_value.to_bytes(32, "little")


honest_items = st.builds(_honest, _seeds, _messages)

plain_items = st.one_of(
    honest_items,
    # tampered: one bit of R or of s
    st.builds(_flip, honest_items, st.integers(0, 63), st.integers(0, 7)),
    # a valid signature over another message
    st.builds(lambda item: (item[0], item[1] + b"!", item[2]), honest_items),
    # s >= L
    st.builds(_with_s, honest_items,
              st.sampled_from([_L, _L + 1, 2 ** 255, 2 ** 256 - 1])),
    # encodings that do not decode, on A and on R
    st.builds(lambda item, enc: (enc, item[1], item[2]),
              honest_items, st.sampled_from(NON_CANONICAL)),
    st.builds(lambda item, enc: (item[0], item[1], enc + item[2][32:]),
              honest_items, st.sampled_from(NON_CANONICAL)),
)
"""Triples whose defect, if any, lies outside the torsion subgroup."""

torsion_items = st.one_of(
    st.builds(torsion_signature, _seeds, _messages,
              st.sampled_from(SMALL_ORDER[1:])),
    st.builds(torsion_commitment_signature, _seeds, _messages,
              st.sampled_from(SMALL_ORDER[1:])),
    # small-order A, and small-order R, under the classic s = 0 shape
    st.builds(lambda a, r, message: (a, message, r + bytes(32)),
              st.sampled_from(SMALL_ORDER), st.sampled_from(SMALL_ORDER),
              _messages),
    st.builds(lambda item, enc: (item[0], item[1], enc + item[2][32:]),
              honest_items, st.sampled_from(SMALL_ORDER)),
)
"""Triples whose defect is a torsion point: what the cofactored
equation would accept and the reference refuses."""


@st.composite
def batches(draw):
    """A few triples, at most one of them torsion-defective: two such
    defects may cancel in the combined equation, which is ROADMAP item
    1(a)'s to close, not the cached path's."""
    items = draw(st.lists(plain_items, min_size=1, max_size=6))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(torsion_items))
    return items


def _turn_cache_over():
    for filler in FILLER_KEYS:
        acc._issuer(filler)


def _warm_up(items, how):
    """Put the issuer LRU in one of its three states for *items*."""
    acc._issuer_cache.clear()
    if how == "warm":
        # An all-zero signature is structurally valid (y = 0 decodes,
        # s = 0), so it reaches the equation and builds the tables of
        # every key that decodes, whatever the item's own signature.
        for public_key, _, _ in items:
            acc.verify(public_key, b"", bytes(64))
    elif how == "evicted":
        _warm_up(items, "warm")
        _turn_cache_over()


@pytest.fixture(scope="module")
def pool():
    with CryptoPool(2) as shared:
        yield shared


class TestIssuerTables:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(plain_items, torsion_items))
    def test_cold_warm_and_evicted_agree_with_reference(self, item):
        expected = ref.verify(*item)
        acc._issuer_cache.clear()
        assert acc.verify(*item) == expected      # cold: builds the tables
        assert acc.verify(*item) == expected      # warm: reads them
        _turn_cache_over()
        assert item[0] not in acc._issuer_cache
        assert acc.verify(*item) == expected      # evicted: builds again

    @pytest.mark.parametrize("torsion", SMALL_ORDER[1:])
    def test_every_torsion_point_on_either_side(self, torsion):
        for build in (torsion_signature, torsion_commitment_signature):
            item = build(b"split", b"attack", torsion)
            expected = ref.verify(*item)
            for how in ("cold", "warm", "evicted"):
                _warm_up([item], how)
                assert acc.verify(*item) == expected, (build.__name__, how)

    @settings(max_examples=40, deadline=None)
    @given(batches(), st.sampled_from(["cold", "warm", "evicted"]))
    def test_batch_agrees_with_singles(self, items, how):
        expected = [ref.verify(*item) for item in items]
        _warm_up(items, how)
        assert acc.verify_batch(items) == expected
        assert [acc.verify(*item) for item in items] == expected

    @settings(max_examples=10, deadline=None)
    @given(batches())
    def test_pool_agrees_with_singles(self, pool, items):
        # The workers keep issuer caches of their own, in whatever
        # state earlier examples left them.
        assert pool.verify_many(items) == [ref.verify(*item)
                                           for item in items]

    def test_tables_are_the_split_of_minus_a(self):
        (public, message, signature), = make_items(1, seed_prefix=b"rows")
        acc._issuer_cache.clear()
        assert acc.verify(public, message, signature)
        record = acc._issuer_cache[public]
        minus_a = acc._point_neg(_point_decompress(public))
        assert len(record.tables) == 8
        for piece, row in enumerate(record.tables):
            assert len(row) == 8
            for index, point in enumerate(row):
                assert _point_equal(
                    point, _mul((2 * index + 1) << (32 * piece), minus_a))

    def test_base_rows_are_the_split_of_b(self):
        acc.precompute()
        for piece, row in enumerate(acc._BASE_SPLIT):
            for index, point in enumerate(row):
                assert _point_equal(
                    point, _mul((2 * index + 1) << (32 * piece), ref._BASE))


class TestPointDouble:
    @staticmethod
    def _check(point):
        doubled = acc._point_double(point)
        assert _point_equal(doubled, _point_add(point, point))
        x, y, z, t = doubled
        assert z % _P != 0
        assert (x * y - t * z) % _P == 0  # T stays X*Y/Z for the next add

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=8 * _L),
           st.sampled_from(SMALL_ORDER))
    def test_random_and_mixed_order_points(self, scalar, torsion):
        point = _point_add(acc._mul_base(scalar % _L),
                           _point_decompress(torsion))
        self._check(point)
        self._check(_point_add(point, point))  # Z != 1

    @pytest.mark.parametrize("encoding", SMALL_ORDER)
    def test_torsion_and_identity_points(self, encoding):
        self._check(_point_decompress(encoding))

    def test_identity_in_extended_form(self):
        self._check(_IDENTITY)
        self._check((0, 5, 5, 0))


# -- backend registry ------------------------------------------------------


class TestBackendRegistry:
    def test_known_backends(self):
        assert set(CRYPTO_BACKENDS) == {"reference", "accel"}

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            get_backend("turbo")

    @pytest.mark.parametrize("name", ["reference", "accel"])
    def test_backend_roundtrip(self, name):
        backend = get_backend(name)
        assert backend.name == name
        secret = generate_secret_key(seed=b"backend")
        public = backend.public_from_secret(secret)
        assert public == ref.public_from_secret(secret)
        signature = backend.sign(secret, b"m")
        assert signature == ref.sign(secret, b"m")
        assert backend.verify(public, b"m", signature)
        assert not backend.verify(public, b"x", signature)

    def test_reference_batch_is_sequential(self):
        backend = get_backend("reference")
        items = make_items(4)
        items[1] = (items[1][0], items[1][1] + b"!", items[1][2])
        assert backend.verify_batch(items) == [
            ref.verify(*item) for item in items]
