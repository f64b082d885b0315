"""Accelerated Ed25519: precomputed tables, wNAF and batch verification.

Same group, same byte-level behaviour as :mod:`repro.crypto.ed25519`
(the from-scratch reference), four algorithmic upgrades:

* **fixed-base tables** — scalar multiplication by the base point ``B``
  (key generation, signing, the batch equation's left side) walks a
  radix-16 table of ``d * 16^j * B`` built once per process: ~60 point
  additions and *zero* doublings instead of ~256 doublings + ~128
  additions;
* **per-issuer split tables** — a single ``verify`` evaluates
  ``[s]B - [h]A`` as *one* Straus chain of 33 doublings: both scalars
  are cut into eight 32-bit pieces, and each piece reads the odd
  multiples of ``2^(32i) * B`` (rows the fixed-base table already
  holds) or of ``-2^(32i) * A`` (64 points per public key, built on
  first sight and kept in one bounded LRU).  ~125 point operations
  for a key seen before against ~362 for the unsplit
  ``[s]B == R + [h]A``; see :func:`_verify_decoded` for why the
  accepted set cannot move;
* **wNAF multi-scalar multiplication** — any number of (scalar, point)
  pairs share one doubling chain (Straus interleaving) over width-5
  wNAF digits and per-point odd-multiple tables; every chain and
  table build doubles through a dedicated :func:`_point_double`;
* **batch verification** — a random-linear-combination check folds a
  burst of N ``(pk, msg, sig)`` triples into one multi-scalar
  multiplication::

      (sum z_i * s_i) * B  ==  sum z_i * R_i  +  sum (z_i * h_i) * A_i

  which costs one shared doubling chain plus ~O(bits/w) additions per
  item — far fewer scalar multiplications than N sequential verifies.

Soundness of the batch path (and its limits)
--------------------------------------------

The contract is *agreement with the cofactorless reference verify*:
``verify_batch(items)`` must equal ``[verify(*it) for it in items]``.

* A batch that fails the combined equation falls back to per-item
  verification — agreement by construction.
* A batch that passes accepts all items.  With 128-bit coefficients a
  disagreement then requires the per-item defects ``T_i = s_i*B - R_i
  - h_i*A_i`` to cancel in the linear combination.  Non-torsion
  defects cancel with probability ~2^-128 (negligible).  Pure-torsion
  defects (mixed-order or small-order ``A``/``R``: signatures the
  *cofactored* equation would accept but the cofactorless reference
  rejects) live in the 8-element torsion subgroup, where cancellation
  depends only on ``z_i mod 8`` — so the coefficients are forced
  **odd**, which makes ``z_i * t_i != identity`` for every non-identity
  torsion point ``t_i``: a batch containing exactly one torsion-defective
  signature is *deterministically* rejected and falls back.
* Two or more torsion-defective items in one batch can still cancel
  each other (e.g. a pair of order-2 defects always does).  The
  fallback then never runs and the batch accepts signatures the
  reference rejects.  This is a fundamental limit of any single linear
  check over an 8-torsion group; production systems close it by making
  *single* verification cofactored too (ZIP215).  Here the coefficients
  are derived by hashing the entire batch content (so replaying the
  same batch is deterministic and full-system runs stay byte-identical,
  and an adversary must re-grind the whole batch to steer them), and
  the residual risk is documented rather than hidden.

Every path is pinned bit-exact against the reference implementation by
``tests/crypto/test_ed25519_accel.py``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ed25519 import (
    PUBLIC_KEY_SIZE,
    SECRET_KEY_SIZE,
    SIGNATURE_SIZE,
    _BASE,
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
)

__all__ = [
    "public_from_secret",
    "sign",
    "verify",
    "verify_batch",
    "precompute",
]

Point = Tuple[int, int, int, int]


def _point_double(point: Point) -> Point:
    """``2 * point`` in 4 squarings + 4 multiplications.

    The dedicated a = -1 doubling (Hisil et al. 2008) against the nine
    multiplications of the unified ``_point_add(point, point)``; it
    never reads ``T``, and returns the same projective point — the
    four coordinates of the addition formula scaled by one common
    factor — for every point on the curve, torsion and identity
    included.
    """
    x, y, z, _ = point
    xx = x * x
    yy = y * y
    h = xx + yy
    xy = x + y
    e = (xy * xy - h) % _P
    g = (yy - xx) % _P
    f = (2 * z * z - g) % _P
    h %= _P
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


# -- fixed-base table ------------------------------------------------------

_FIXED_WINDOWS = 64  # radix-16 digits covering 256-bit scalars
_TABLE: Optional[List[List[Point]]] = None

_SPLIT_BITS = 32
_SPLIT_PIECES = 8  # 8 * 32 bits cover every scalar below L
_BASE_SPLIT: Optional[List[List[Point]]] = None
"""Row i: the odd multiples 1, 3, ..., 15 of ``2^(32i) * B`` — the
split tables of the base point, read straight out of ``_TABLE``
(``2^(32i) == 16^(8i)``)."""


def _build_base_table() -> List[List[Point]]:
    """``table[j][d-1] = d * 16**j * B`` for d in 1..15, j in 0..63.

    Row j is built by 15 successive additions of ``16**j * B``; the
    last sum is exactly ``16**(j+1) * B``, seeding the next row with no
    extra doublings.  ~960 point additions total, paid once per process
    on first use.
    """
    table: List[List[Point]] = []
    base = _BASE
    for _ in range(_FIXED_WINDOWS):
        row: List[Point] = []
        cur = base
        for _ in range(15):
            row.append(cur)
            cur = _point_add(cur, base)
        table.append(row)
        base = cur  # == 16 * previous base
    return table


def precompute() -> None:
    """Force the base-point table build (otherwise lazy on first use).

    Builds the radix-16 table and takes the base point's split rows
    out of it; per-issuer tables are not built here but on an
    issuer's first single ``verify``.  Benchmarks call this up front so
    table construction is excluded from timed regions; library users
    never need to.
    """
    global _TABLE, _BASE_SPLIT
    if _TABLE is None:
        _TABLE = _build_base_table()
        _BASE_SPLIT = [_TABLE[_SPLIT_BITS // 4 * piece][::2]
                       for piece in range(_SPLIT_PIECES)]


def _mul_base(scalar: int) -> Point:
    """``scalar * B`` via the fixed-base table: <= 64 additions."""
    precompute()
    table = _TABLE
    acc = _IDENTITY
    window = 0
    while scalar:
        digit = scalar & 15
        if digit:
            acc = _point_add(acc, table[window][digit - 1])
        scalar >>= 4
        window += 1
    return acc


# -- fast point decompression ----------------------------------------------

_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
"""sqrt(-1) mod p, the square-root correction constant."""


def _recover_x_fast(y: int, sign_bit: int) -> int:
    """The reference ``_recover_x`` in one modular exponentiation.

    The reference computes an inverse and a square root (two to three
    255-bit ``pow`` calls); the RFC 8032 combined form
    ``x = u * v**3 * (u * v**7)**((p-5)/8)`` needs exactly one, with
    the correction by the precomputed sqrt(-1).  Accepts and rejects
    *identical* inputs: y >= p, x=0-with-sign-bit and non-residues all
    raise the same ``ValueError`` shapes.
    """
    if y >= _P:
        raise ValueError("invalid point encoding: y >= p")
    u = (y * y - 1) % _P
    v = (_D * y * y + 1) % _P
    v3 = v * v % _P * v % _P
    x = u * v3 % _P * pow(u * v3 % _P * v3 % _P * v % _P,
                          (_P - 5) // 8, _P) % _P
    vxx = v * x % _P * x % _P
    if vxx == u:
        pass
    elif vxx == (-u) % _P:
        x = x * _SQRT_M1 % _P
    else:
        raise ValueError("invalid point encoding: no square root")
    if x == 0:
        if sign_bit:
            raise ValueError("invalid point encoding: x=0 with sign bit set")
        return 0
    if x & 1 != sign_bit:
        x = _P - x
    return x


def _decompress(data: bytes) -> Point:
    """The reference ``_point_decompress`` over :func:`_recover_x_fast`.

    Uncached: a signature's ``R`` is a one-shot point, and public keys
    are remembered one level up, in :func:`_issuer`.
    """
    if len(data) != 32:
        raise ValueError(f"point encoding must be 32 bytes, got {len(data)}")
    encoded = int.from_bytes(data, "little")
    sign_bit = encoded >> 255
    y = encoded & ((1 << 255) - 1)
    x = _recover_x_fast(y, sign_bit)
    return (x, y, 1, (x * y) % _P)


# -- wNAF multi-scalar multiplication --------------------------------------

_WNAF_WIDTH = 5


def _wnaf_terms(scalar: int) -> List[Tuple[int, int]]:
    """Sparse width-5 NAF: ``(bit_position, digit)`` pairs, digits odd
    in ±{1, 3, ..., 15}.

    Zero runs are skipped with a count-trailing-zeros jump instead of a
    per-bit loop, so extraction costs O(nonzero digits) big-int ops
    (~bits/6), not O(bits) — this is what keeps the batch verifier's
    bookkeeping from eating the point-arithmetic savings.
    """
    terms: List[Tuple[int, int]] = []
    position = 0
    while scalar:
        trailing = (scalar & -scalar).bit_length() - 1
        if trailing:
            scalar >>= trailing
            position += trailing
        digit = scalar & 31
        if digit >= 16:
            digit -= 32
        terms.append((position, digit))
        # scalar - digit is divisible by 32: jump a full window.
        scalar = (scalar - digit) >> 5
        position += 5
    return terms


def _point_neg(point: Point) -> Point:
    x, y, z, t = point
    return ((-x) % _P, y, z, (-t) % _P)


def _odd_multiples(point: Point) -> List[Point]:
    """``[1P, 3P, ..., 15P]``: one doubling plus seven additions (the
    negatives a wNAF digit may ask for cost two field negations)."""
    double = _point_double(point)
    table = [point]
    for _ in range(7):
        table.append(_point_add(table[-1], double))
    return table


def _schedule(schedule: List[List[Point]], scalar: int,
              table: List[Point]) -> None:
    """File ``scalar * P`` into a Straus *schedule*, given P's odd
    multiples: the addend of each nonzero wNAF digit joins the row of
    its bit position."""
    for position, digit in _wnaf_terms(scalar):
        addend = (table[digit >> 1] if digit > 0
                  else _point_neg(table[(-digit) >> 1]))
        while len(schedule) <= position:
            schedule.append([])
        schedule[position].append(addend)


def _run_chain(schedule: List[List[Point]]) -> Point:
    """Evaluate a schedule: one doubling per row, highest bit first,
    and one addition per addend."""
    point_add = _point_add
    point_double = _point_double
    acc = _IDENTITY
    for addends in reversed(schedule):
        acc = point_double(acc)
        for addend in addends:
            acc = point_add(acc, addend)
    return acc


def _multiscalar(pairs: Iterable[Tuple[int, Point]]) -> Point:
    """``sum(scalar_i * point_i)`` with one shared doubling chain.

    Straus interleaving: each point gets a small odd-multiples table,
    every scalar a sparse wNAF expansion, and the accumulator doubles
    once per bit of the *longest* scalar regardless of how many pairs
    there are.  The additions are transposed into a per-bit schedule up
    front, so the hot loop touches only the ~bits/6 nonzero digits of
    each scalar instead of scanning every (pair, bit) combination.
    """
    schedule: List[List[Point]] = []
    for scalar, point in pairs:
        if scalar:
            _schedule(schedule, scalar, _odd_multiples(point))
    return _run_chain(schedule)


# -- per-issuer records ----------------------------------------------------

class _Issuer:
    """What is remembered about one public key: its decompressed point
    and, from its first single verify on, the split tables of ``-A``."""

    __slots__ = ("point", "tables")

    def __init__(self, point: Point):
        self.point = point
        self.tables: Optional[List[List[Point]]] = None


_ISSUER_CACHE_SIZE = 64
_issuer_cache: "OrderedDict[bytes, _Issuer]" = OrderedDict()


def _issuer(public_key: bytes) -> _Issuer:
    """The record of *public_key*, through the module's one bounded LRU.

    An IoT gateway verifies many signatures from a few long-lived
    issuers, so the decompression and the tables are paid once per key,
    not once per signature.  The bound is in bytes: a record with
    tables is 64 points, ~21 KB, so 64 records hold ~1.3 MiB and stay
    under 2 MiB whatever keys arrive (a record without tables is one
    point, ~0.4 KB).  Only *successful* decompressions get a record —
    failures raise, and the open network must not be able to pin
    garbage — and a run of fresh keys only turns the LRU over: each
    costs its own table build, none grows the cache.
    """
    record = _issuer_cache.get(public_key)
    if record is not None:
        _issuer_cache.move_to_end(public_key)
        return record
    record = _Issuer(_decompress(public_key))
    _issuer_cache[bytes(public_key)] = record
    if len(_issuer_cache) > _ISSUER_CACHE_SIZE:
        _issuer_cache.popitem(last=False)
    return record


def _split_tables(point: Point) -> List[List[Point]]:
    """Row i: the odd multiples 1, 3, ..., 15 of ``2^(32i) * point``.

    7 * 32 doublings to walk the rows plus 8 * 8 operations for the odd
    multiples: 288 point operations, fewer than the ~362 of the unsplit
    verify they replace, which is why they can be built on first sight.
    """
    rows = [_odd_multiples(point)]
    for _ in range(_SPLIT_PIECES - 1):
        for _ in range(_SPLIT_BITS):
            point = _point_double(point)
        rows.append(_odd_multiples(point))
    return rows


def _schedule_split(schedule: List[List[Point]], scalar: int,
                    rows: List[List[Point]]) -> None:
    """File ``scalar * P`` given P's split tables: the i-th 32-bit
    piece of the scalar multiplies ``2^(32i) * P``, so no row of the
    schedule lies above bit 32.  The eight rows cover a *scalar* below
    ``2^256``; both callers pass one below L."""
    mask = (1 << _SPLIT_BITS) - 1
    for row in rows:
        _schedule(schedule, scalar & mask, row)
        scalar >>= _SPLIT_BITS


_Decoded = Tuple[_Issuer, Point, int, int]
"""``(issuer record, R, s, challenge)`` of a structurally valid triple."""


def _decode(public_key: bytes, message: bytes,
            signature: bytes) -> Optional[_Decoded]:
    """The reference's checks ahead of its equation — lengths, both
    point encodings, ``s < L`` — and the challenge; None wherever the
    reference returns False without evaluating anything."""
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return None
    try:
        issuer = _issuer(public_key)
        r_point = _decompress(signature[:32])
    except ValueError:
        return None
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return None
    challenge = _sha512_int(signature[:32], public_key, message) % _L
    return issuer, r_point, s, challenge


def _verify_decoded(issuer: _Issuer, r_point: Point, s: int,
                    challenge: int) -> bool:
    """The single-signature equation on decoded inputs — the one place
    a lone signature is judged, for ``verify`` and for the batch's
    per-item fallback alike.

    Checks ``[s]B - [h]A == R``, the reference's cofactorless
    ``[s]B == R + [h]A`` with ``[h]A`` moved across, through the same
    ``_point_equal``.  Cutting ``s`` and ``h`` into 32-bit pieces is
    integer arithmetic — ``h = sum h_i 2^(32i)``, so ``[h]A = sum
    [h_i]([2^(32i)]A)`` in any abelian group — and therefore exact on
    the whole curve group, torsion components of ``A`` included: the
    accepted set is the reference's.  One chain of 33 doublings and
    ~92 additions; an issuer met for the first time also pays its 288
    table operations here, after every structural check has passed.
    """
    if issuer.tables is None:
        issuer.tables = _split_tables(_point_neg(issuer.point))
    precompute()
    schedule: List[List[Point]] = []
    _schedule_split(schedule, s, _BASE_SPLIT)
    _schedule_split(schedule, challenge, issuer.tables)
    return _point_equal(_run_chain(schedule), r_point)


# -- drop-in scalar API ----------------------------------------------------

def public_from_secret(secret_key: bytes) -> bytes:
    """Byte-identical to the reference, via the fixed-base table."""
    scalar, _ = _secret_expand(secret_key)
    return _point_compress(_mul_base(scalar))


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Byte-identical deterministic signing; both base-point
    multiplications (public key and commitment R) use the table."""
    scalar, prefix = _secret_expand(secret_key)
    public = _point_compress(_mul_base(scalar))
    r = _sha512_int(prefix, message) % _L
    r_point = _point_compress(_mul_base(r))
    challenge = _sha512_int(r_point, public, message) % _L
    s = (r + challenge * scalar) % _L
    return r_point + s.to_bytes(32, "little")


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Accepts exactly the same set as the reference ``verify``: the
    same decoding rules, then the cofactorless equation evaluated by
    :func:`_verify_decoded` over the issuer's split tables (built on
    the key's first verify, read on every later one)."""
    decoded = _decode(public_key, message, signature)
    return decoded is not None and _verify_decoded(*decoded)


# -- batch verification ----------------------------------------------------

_BATCH_DOMAIN = b"repro-ed25519-batch-z:"

_FULL_ORDER = 8 * _L
"""Order of the full curve group (cofactor times the prime order).

Batch scalars multiplying *untrusted* points must be reduced mod 8L,
not mod L: a scalar reduced mod L only fixes the same group element on
the prime-order subgroup, and the whole point of the adversarial tests
is that attacker-supplied ``A``/``R`` may carry 8-torsion components.
Reduction mod 8L is exact for every point on the curve.
"""


def _batch_coefficients(items: Sequence[Tuple[bytes, bytes, bytes]],
                        count: int) -> List[int]:
    """Odd 128-bit coefficients derived by hashing the whole batch.

    Content-derived (not drawn from the process randomness source) so
    that replaying a batch is deterministic — whole-system simulation
    runs stay byte-for-byte reproducible with the accel backend on —
    and every item in the batch perturbs every coefficient.  The low
    bit is forced to 1: odd coefficients annihilate nothing in the
    8-torsion subgroup, which is what makes a single mixed-order or
    small-order defect a *guaranteed* batch failure (see module
    docstring).
    """
    hasher = hashlib.sha512(_BATCH_DOMAIN)
    for public_key, message, signature in items:
        hasher.update(len(message).to_bytes(8, "big"))
        hasher.update(public_key)
        hasher.update(message)
        hasher.update(signature)
    seed = hasher.digest()
    coefficients = []
    for index in range(count):
        digest = hashlib.sha512(seed + index.to_bytes(4, "big")).digest()
        coefficients.append(int.from_bytes(digest[:16], "little") | 1)
    return coefficients


_BATCH_FLOOR = 4
"""Fewest signatures the combined equation is run for when every issuer
among them already has split tables.

Chosen by operation count, not by time.  A batch of n signatures from
k issuers costs ~316 + 51k + 30n point operations (a ~256-doubling
chain and the ~60 additions of ``_mul_base`` before the first item is
paid for), n warm singles cost ~125n: two signatures are 425-480
against 250, three 452-557 against 375, and from four on (489-636
against 500) the batch ties or wins for the few-issuer runs a gateway
sees.  Letting the batch's A-columns read the split tables instead
would only halve the chain (two signatures: ~290 against 250) and put
a 288-operation table build on the batch lane for every new key, so
the floor moves and the equation does not; and it moves here, not in
``FullNode._preverify``, because the crossover belongs to this
backend's cost model (the reference backend and the pool have none).
An issuer without tables keeps the old floor of two: its single would
cost 288 + 125, more than its share of any batch, so a run of fresh
keys is never verified one by one on this account.
"""

def _combined_equation_holds(items: Sequence[Tuple[bytes, bytes, bytes]],
                             decoded: Sequence[_Decoded]) -> bool:
    """The random-linear-combination check over *decoded* (coefficients
    are derived from all of *items*, structurally invalid ones too)."""
    coefficients = _batch_coefficients(items, len(decoded))
    combined_s = 0
    # Merge pairs that share a point: a burst signed by few issuers
    # collapses all its A-columns into one scalar per distinct public
    # key (pure regrouping — sums of scalar multiples of the *same*
    # point — so the combined equation's value is untouched).  Scalars
    # reduce mod 8L, which is exact for torsion-carrying points too.
    # Decompressed points are affine, so equal encodings are equal keys.
    merged: Dict[Point, int] = {}
    for z, (issuer, r_point, s, challenge) in zip(coefficients, decoded):
        combined_s = (combined_s + z * s) % _L
        merged[r_point] = merged.get(r_point, 0) + z
        merged[issuer.point] = merged.get(issuer.point, 0) + z * challenge
    lhs = _mul_base(combined_s)
    rhs = _multiscalar((scalar % _FULL_ORDER, point)
                       for point, scalar in merged.items())
    return _point_equal(lhs, rhs)


def verify_batch(items: Sequence[Tuple[bytes, bytes, bytes]]) -> List[bool]:
    """Verify ``(public_key, message, signature)`` triples as a batch.

    Returns one boolean per item, with the contract that the result
    equals ``[verify(pk, msg, sig) for ...]`` (see the module docstring
    for the exact soundness statement).  Structurally invalid items
    (bad lengths, non-canonical point encodings, ``s >= L``) are
    rejected up front without touching the combined equation; if the
    combined equation fails, or the rest is too few to be worth one
    (:data:`_BATCH_FLOOR`), every remaining item is verified
    individually from the points already decoded.
    """
    results = [False] * len(items)
    survivors: List[int] = []
    decoded: List[_Decoded] = []
    for index, item in enumerate(items):
        fields = _decode(*item)
        if fields is not None:
            survivors.append(index)
            decoded.append(fields)

    singly = len(decoded) < 2 or (
        len(decoded) < _BATCH_FLOOR
        and all(issuer.tables is not None for issuer, *_ in decoded))
    if singly or not _combined_equation_holds(items, decoded):
        for index, fields in zip(survivors, decoded):
            results[index] = _verify_decoded(*fields)
    else:
        for index in survivors:
            results[index] = True
    return results
