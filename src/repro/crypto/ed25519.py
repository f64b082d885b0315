"""Ed25519 signatures (RFC 8032): precomputed tables, wNAF and batch
verification.

Every B-IoT node owns a public/secret key pair used as its unique
identifier and to sign transactions, ACL updates and key-distribution
messages (Sections IV-A and IV-C of the paper).  The paper inherits
IOTA's signature scheme; this reproduction uses Ed25519, which provides
the same property the system relies on — unforgeable signatures bound to
a compact public key — with deterministic nonces (no RNG failure modes
on constrained devices).

The group law runs in extended homogeneous coordinates, and five
algorithmic upgrades over straight-line RFC 8032 keep signing and
verification cheap on a gateway:

* **affine tables** — every precomputed point a chain reads is stored
  in affine Niels form ``(y + x, y - x, 2d*x*y)`` beside its negation,
  each table made affine with one shared inversion, and read through
  one 7-multiplication mixed addition (:func:`_point_add_niels`)
  instead of the 10 of the general addition, which is left to table
  builds.  The base point ``B`` has *one* such table, built once per
  process: the odd multiples ``1, 3, ..., 127`` of ``2^(32i) * B`` for
  ``i = 0..7``, 8 x 64 entries.  Key generation, signing, the single
  verify and the batch equation all read it: ``[k]B`` is a chain of 31
  doublings and ~28 additions;
* **per-issuer split tables** — a single ``verify`` evaluates
  ``[s]B - [h]A`` as *one* Straus chain of 31 doublings: one NAF pass
  over each scalar files a digit at bit ``32i + j`` from row i at chain
  position j, and row i holds the base rows' multiples or the odd
  multiples ``1, ..., 15`` of ``-2^(32i) * A`` (64 entries per public
  key, built on first sight and kept in one bounded LRU).  ~102 point
  operations for a key seen before against ~362 for the unsplit
  ``[s]B == R + [h]A``;
* **encodings compared, not points** — the single check compresses
  ``[s]B - [h]A`` and compares the 32 bytes with the signature's
  ``R``, so it never decodes ``R``: compression's one inversion
  (~16 us) replaces decoding's square root (~180-240 us), and a warm
  single verify takes no square root at all.  See
  :func:`_verify_decoded` for why the accepted set cannot move; only
  the batch equation, which needs ``R`` as a point, still decodes it;
* **wNAF multi-scalar multiplication** — any number of (scalar, point)
  pairs share one doubling chain (Straus interleaving) over wNAF
  digits and per-point odd-multiple tables; every chain and table
  build doubles through a dedicated :func:`_point_double`;
* **batch verification** — a random-linear-combination check folds a
  burst of N ``(pk, msg, sig)`` triples into one multi-scalar
  multiplication::

      (sum z_i * s_i) * B  ==  sum z_i * R_i  +  sum (z_i * h_i) * A_i

  which costs one shared doubling chain plus ~O(bits/w) additions per
  item — far fewer scalar multiplications than N sequential verifies;
  the base-point term reads the base rows, so it costs additions only.

Soundness of the batch path (and its limits)
--------------------------------------------

The contract is *agreement with the cofactorless single verify*:
``verify_batch(items)`` must equal ``[verify(*it) for it in items]``.

* A batch that fails the combined equation falls back to per-item
  verification — agreement by construction.
* A batch that passes accepts all items.  With 128-bit coefficients a
  disagreement then requires the per-item defects ``T_i = s_i*B - R_i
  - h_i*A_i`` to cancel in the linear combination.  Non-torsion
  defects cancel with probability ~2^-128 (negligible).  Pure-torsion
  defects (mixed-order or small-order ``A``/``R``: signatures the
  *cofactored* equation would accept but the cofactorless single verify
  rejects) live in the 8-element torsion subgroup, where cancellation
  depends only on ``z_i mod 8`` — so the coefficients are forced
  **odd**, which makes ``z_i * t_i != identity`` for every non-identity
  torsion point ``t_i``: a batch containing exactly one torsion-defective
  signature is *deterministically* rejected and falls back.
* Two or more torsion-defective items in one batch can still cancel
  each other (e.g. a pair of order-2 defects always does).  The
  fallback then never runs and the batch accepts signatures the
  single verify rejects.  This is a fundamental limit of any single
  linear check over an 8-torsion group; production systems close it by
  making *single* verification cofactored too (ZIP215).  Here the
  coefficients are derived by hashing the entire batch content (so
  replaying the same batch is deterministic and full-system runs stay
  byte-identical, and an adversary must re-grind the whole batch to
  steer them), and the residual risk is documented rather than hidden.

Every path is pinned bit-exact, by Hypothesis differentials, against
the straight-line RFC 8032 code kept as a test oracle
(``tests/crypto/ed25519_reference.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .rand import randbytes

__all__ = [
    "SECRET_KEY_SIZE",
    "PUBLIC_KEY_SIZE",
    "SIGNATURE_SIZE",
    "generate_secret_key",
    "public_from_secret",
    "sign",
    "verify",
    "verify_batch",
    "precompute",
]

SECRET_KEY_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

_P = 2 ** 255 - 19
_L = 2 ** 252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P

Point = Tuple[int, int, int, int]
Niels = Tuple[int, int, int]
"""An affine point ``(x, y)`` stored as ``(y + x, y - x, 2d*x*y)``: the
form every table entry a chain reads is kept in."""

_D2 = 2 * _D % _P

_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
"""sqrt(-1) mod p, the square-root correction constant."""


def _recover_x(y: int, sign_bit: int) -> int:
    """Recover the x-coordinate of a point from y and the sign bit.

    One modular exponentiation: the RFC 8032 combined form
    ``x = u * v**3 * (u * v**7)**((p-5)/8)`` with the correction by the
    precomputed sqrt(-1), instead of a separate inverse and square root.
    y >= p, x=0-with-sign-bit and non-residues raise ``ValueError``.
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


# Base point B in extended coordinates (X, Y, Z, T).
_BY = (4 * pow(5, _P - 2, _P)) % _P
_BX = _recover_x(_BY, 0)
_BASE = (_BX, _BY, 1, (_BX * _BY) % _P)
_IDENTITY = (0, 1, 1, 0)


def _point_add(p: Point, q: Point) -> Point:
    """Add two points in extended homogeneous coordinates (table
    builds; a chain reads its addends through :func:`_point_add_niels`)."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_add_niels(p: Point, q: Niels) -> Point:
    """``p + q`` for a table entry *q*: 7 multiplications against the 10
    of :func:`_point_add`.

    It is :func:`_point_add` with ``Z2 = 1`` and the factors that depend
    on *q* alone computed when the table was built, so it is the same
    complete group law on the whole curve, identity and torsion points
    included.
    """
    x1, y1, z1, t1 = p
    y_plus_x, y_minus_x, xy2d = q
    a = (y1 - x1) * y_minus_x % _P
    b = (y1 + x1) * y_plus_x % _P
    c = t1 * xy2d % _P
    d = 2 * z1
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


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


def _point_neg(point: Point) -> Point:
    x, y, z, t = point
    return ((-x) % _P, y, z, (-t) % _P)


def _point_equal(p: Point, q: Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    if (x1 * z2 - x2 * z1) % _P != 0:
        return False
    return (y1 * z2 - y2 * z1) % _P == 0


def _point_compress(point: Point) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, -1, _P)
    x = x * z_inv % _P
    y = y * z_inv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes) -> Point:
    """Decode a 32-byte point encoding; raises ``ValueError``.

    Uncached: public keys are remembered one level up, in
    :func:`_issuer`, and only the batch equation decodes a signature's
    ``R``, a one-shot point.
    """
    if len(data) != 32:
        raise ValueError(f"point encoding must be 32 bytes, got {len(data)}")
    encoded = int.from_bytes(data, "little")
    sign_bit = encoded >> 255
    y = encoded & ((1 << 255) - 1)
    x = _recover_x(y, sign_bit)
    return (x, y, 1, (x * y) % _P)


def _sha512_int(*parts: bytes) -> int:
    hasher = hashlib.sha512()
    for part in parts:
        hasher.update(part)
    return int.from_bytes(hasher.digest(), "little")


def _secret_expand(secret_key: bytes) -> Tuple[int, bytes]:
    if len(secret_key) != SECRET_KEY_SIZE:
        raise ValueError(f"secret key must be {SECRET_KEY_SIZE} bytes, got {len(secret_key)}")
    digest = hashlib.sha512(secret_key).digest()
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    return scalar, digest[32:]


# -- affine tables ---------------------------------------------------------

def _niels_rows(rows: List[List[Point]]) -> List[List[Niels]]:
    """*rows* of extended points as rows of Niels entries, each point
    followed by its negation: a row of odd multiples becomes
    ``[P, -P, 3P, -3P, ...]``, where a wNAF digit of either sign is one
    index (see :func:`_schedule`).

    Every point of every row is made affine by one shared inversion
    (Montgomery's trick: the running products of the Zs, one
    ``pow(z, -1, p)``, then each inverse peeled off backwards), ~7
    multiplications a point.  The complete formulas never give a curve
    point ``Z = 0``, so the product is invertible.
    """
    points = [point for row in rows for point in row]
    inverses = []  # the running products of the Zs, then their inverses
    product = 1
    for point in points:
        inverses.append(product)
        product = product * point[2] % _P
    inverse = pow(product, -1, _P)
    for index in range(len(points) - 1, -1, -1):
        inverses[index] = inverse * inverses[index] % _P
        inverse = inverse * points[index][2] % _P
    entries: List[Niels] = []
    for (x, y, _, _), z_inv in zip(points, inverses):
        x = x * z_inv % _P
        y = y * z_inv % _P
        xy2d = x * y % _P * _D2 % _P
        y_plus_x = (y + x) % _P
        y_minus_x = (y - x) % _P
        entries.append((y_plus_x, y_minus_x, xy2d))
        entries.append((y_minus_x, y_plus_x, -xy2d % _P))
    niels_rows = []
    offset = 0
    for row in rows:
        niels_rows.append(entries[2 * offset:2 * (offset + len(row))])
        offset += len(row)
    return niels_rows


# -- wNAF multi-scalar multiplication --------------------------------------

_WNAF_WIDTH = 5
"""wNAF width of the issuer rows and of the batch's key columns."""


def _odd_multiples(point: Point, width: int) -> List[Point]:
    """``[1P, 3P, ..., (2^(width-1) - 1)P]``, the multiples a
    width-*width* digit reads: one doubling plus ``2^(width-2) - 1``
    additions."""
    double = _point_double(point)
    table = [point]
    for _ in range((1 << (width - 2)) - 1):
        table.append(_point_add(table[-1], double))
    return table


def _wnaf(scalar: int, width: int) -> Iterator[Tuple[int, int]]:
    """The nonzero digits of *scalar*'s width-*width* sparse NAF, lowest
    first, as ``(bit position, entry index)``: digits are odd with
    ``|digit| < 2^(width-1)``, and a row of :func:`_niels_rows` keeps
    ``digit * P`` at index ``digit - 1`` for a positive digit and
    ``-digit`` for a negative one.

    Zero runs are skipped with a count-trailing-zeros jump instead of a
    per-bit loop, so this costs O(nonzero digits) big-int ops
    (~bits/(w+1)), not O(bits) — this is what keeps the batch
    verifier's bookkeeping from eating the point-arithmetic savings.
    The highest digit lies at most one bit above the scalar's top bit.
    """
    window = 1 << width
    half = window >> 1
    position = 0
    while scalar:
        trailing = (scalar & -scalar).bit_length() - 1
        if trailing:
            scalar >>= trailing
            position += trailing
        digit = scalar & (window - 1)
        if digit < half:
            yield position, digit - 1
            scalar -= digit
        else:  # the digit is digit - window, negative
            yield position, window - digit
            scalar += window - digit
        # the digit is subtracted: jump a full window.
        scalar >>= width
        position += width


def _schedule(schedule: List[List[Niels]], scalar: int,
              row: List[Niels]) -> None:
    """File ``scalar * P`` into a Straus *schedule*, given P's odd
    multiples as a row of :func:`_niels_rows` (its length fixes the
    NAF width): the entry of each digit joins the schedule row of its
    bit position."""
    for position, index in _wnaf(scalar, len(row).bit_length()):
        while len(schedule) <= position:
            schedule.append([])
        schedule[position].append(row[index])


def _run_chain(schedule: List[List[Niels]]) -> Point:
    """Evaluate a schedule: one doubling per row below the highest,
    highest bit first, and one mixed addition per addend (the highest
    row starts from the identity, whose doubling is itself)."""
    point_add = _point_add_niels
    point_double = _point_double
    acc = _IDENTITY
    for addends in reversed(schedule):
        if acc is not _IDENTITY:
            acc = point_double(acc)
        for addend in addends:
            acc = point_add(acc, addend)
    return acc


# -- split rows and the base-point table -----------------------------------

_SPLIT_BITS = 32
_SPLIT_PIECES = 8  # 8 * 32 bits hold the NAF of every scalar below 2^255


def _split_rows(point: Point, width: int) -> List[List[Point]]:
    """Row i: the odd multiples of ``2^(32i) * point`` a width-*width*
    digit reads (:func:`_odd_multiples`).

    7 * 32 doublings walk the rows; each row costs ``2^(width-2)``
    operations more.  At width 5 that is 288 point operations, fewer
    than the ~362 of the unsplit verify an issuer's rows replace, which
    is why they can be built on first sight.
    """
    rows = [_odd_multiples(point, width)]
    for _ in range(_SPLIT_PIECES - 1):
        for _ in range(_SPLIT_BITS):
            point = _point_double(point)
        rows.append(_odd_multiples(point, width))
    return rows


def _schedule_split(schedule: List[List[Niels]], scalar: int,
                    rows: List[List[Niels]]) -> None:
    """File ``scalar * P`` given P's split rows, in one NAF pass over
    the whole scalar: a digit at bit ``32i + j`` reads row i, which
    holds multiples of ``2^(32i) * P``, and joins chain position j, so
    no row of the schedule lies at or above bit 32.

    Exact by integer arithmetic — ``d * 2^(32i + j) * P = d * 2^j *
    (2^(32i) * P)`` in any abelian group — and the eight rows hold every
    digit of a *scalar* below ``2^255``, whose NAF ends at bit 255 at
    the latest.
    """
    for position, index in _wnaf(scalar, len(rows[0]).bit_length()):
        row, position = divmod(position, _SPLIT_BITS)
        while len(schedule) <= position:
            schedule.append([])
        schedule[position].append(rows[row][index])


_BASE_WIDTH = 8
_BASE_ROWS: Optional[List[List[Niels]]] = None
"""The base point's one table: row i holds ``±1, ±3, ..., ±127`` times
``2^(32i) * B`` as Niels entries, 8 x 64 points (with negations, 1 024
entries).  Width 8 because it is built once per process and read by
every chain: ~30 additions per 256-bit scalar against ~43 at width 5."""


def precompute() -> None:
    """Force the base-point table build (otherwise lazy on first use):
    480 point operations and one inversion.

    Per-issuer tables are not built here but on an issuer's first
    single ``verify``.  Benchmarks call this up front so table
    construction is excluded from timed regions; library users never
    need to.
    """
    global _BASE_ROWS
    if _BASE_ROWS is None:
        _BASE_ROWS = _niels_rows(_split_rows(_BASE, _BASE_WIDTH))


def _mul_base(scalar: int) -> Point:
    """``scalar * B`` for a *scalar* below ``2^255``: one chain of at
    most 31 doublings and ~28 mixed additions over the base rows."""
    precompute()
    schedule: List[List[Niels]] = []
    _schedule_split(schedule, scalar, _BASE_ROWS)
    return _run_chain(schedule)


# -- per-issuer records ----------------------------------------------------

class _Issuer:
    """What is remembered about one public key: its decompressed point
    and, from its first single verify on, the split rows of ``-A``."""

    __slots__ = ("point", "tables")

    def __init__(self, point: Point):
        self.point = point
        self.tables: Optional[List[List[Niels]]] = None


_ISSUER_CACHE_SIZE = 64
_issuer_cache: "OrderedDict[bytes, _Issuer]" = OrderedDict()


def _issuer(public_key: bytes) -> _Issuer:
    """The record of *public_key* (a ``bytes``), through the module's
    one bounded LRU.

    An IoT gateway verifies many signatures from a few long-lived
    issuers, so the decompression and the tables are paid once per key,
    not once per signature.  The bound is in bytes: a record with
    tables is 64 Niels entries and their 64 negations, ~25.6 KB, so 64
    records hold ~1.64 MB and stay under 2 MiB whatever keys arrive (a
    record without tables is one point, ~0.4 KB).  Only *successful*
    decompressions get a record — failures raise, and the open network
    must not be able to pin garbage — and a run of fresh keys only
    turns the LRU over: each costs its own table build, none grows the
    cache.
    """
    record = _issuer_cache.get(public_key)
    if record is not None:
        _issuer_cache.move_to_end(public_key)
        return record
    record = _Issuer(_decompress(public_key))
    _issuer_cache[public_key] = record
    if len(_issuer_cache) > _ISSUER_CACHE_SIZE:
        _issuer_cache.popitem(last=False)
    return record


_Decoded = Tuple[_Issuer, bytes, int, int]
"""``(issuer record, R's encoding, s, challenge)`` of a structurally
valid triple."""

_Y_MASK = (1 << 255) - 1


def _decode(public_key: bytes, message: bytes,
            signature: bytes) -> Optional[_Decoded]:
    """The checks ahead of the equation — lengths, ``R``'s ``y < p``,
    ``A``'s encoding, ``s < L`` — and the challenge; None wherever a
    signature is refused without evaluating anything.

    ``R`` is not decoded here: the single check compares encodings
    (:func:`_verify_decoded`), and only the batch equation decodes it.
    ``y >= p`` is the one refusal of decoding that costs nothing to
    find, so it is made here, before any chain.
    """
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return None
    r_encoding = bytes(signature[:32])
    if int.from_bytes(r_encoding, "little") & _Y_MASK >= _P:
        return None
    public_key = bytes(public_key)  # the cache key: any bytes-like works
    try:
        issuer = _issuer(public_key)
    except ValueError:
        return None
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return None
    challenge = _sha512_int(r_encoding, public_key, message) % _L
    return issuer, r_encoding, s, challenge


def _verify_decoded(issuer: _Issuer, r_encoding: bytes, s: int,
                    challenge: int) -> bool:
    """The single-signature check on decoded inputs — the one place a
    lone signature is judged, for ``verify`` and for the batch's
    per-item fallback alike.

    Evaluates ``P = [s]B - [h]A`` and accepts when ``P``'s encoding is
    the signature's 32 ``R`` bytes: the cofactorless RFC 8032 ``[s]B ==
    R + [h]A`` with ``[h]A`` moved across, without decoding ``R``.
    Compression returns the one canonical encoding of a point, and
    decoding that encoding returns the point, so ``enc(P) == R_bytes``
    exactly when ``R_bytes`` decodes under RFC 8032 to a point equal to
    ``P`` — the accept set of decoding ``R`` and comparing points,
    torsion included, for the cost of compression's one inversion
    instead of decoding's square root.  An ``R`` that decodes to no
    point matches no ``enc(P)``.

    Both scalars are filed over split rows (:func:`_schedule_split`,
    exact on the whole curve group, torsion components of ``A``
    included): one chain of 31 doublings and ~71 mixed additions.  An
    issuer met for the first time also pays its 288 table operations
    here, after every structural check has passed.
    """
    if issuer.tables is None:
        issuer.tables = _niels_rows(
            _split_rows(_point_neg(issuer.point), _WNAF_WIDTH))
    precompute()
    schedule: List[List[Niels]] = []
    _schedule_split(schedule, s, _BASE_ROWS)
    _schedule_split(schedule, challenge, issuer.tables)
    return _point_compress(_run_chain(schedule)) == r_encoding


# -- scalar API ------------------------------------------------------------

def generate_secret_key(seed: bytes = None) -> bytes:
    """Return a fresh 32-byte Ed25519 secret key.

    With *seed*, derivation is deterministic so simulated networks can be
    reproduced exactly across runs.
    """
    if seed is not None:
        return hashlib.sha256(b"ed25519-secret" + seed).digest()
    return randbytes(SECRET_KEY_SIZE)


def public_from_secret(secret_key: bytes) -> bytes:
    """Derive the 32-byte public key for *secret_key*."""
    scalar, _ = _secret_expand(secret_key)
    return _point_compress(_mul_base(scalar))


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Produce a 64-byte deterministic Ed25519 signature over *message*;
    both base-point multiplications (public key and commitment R) read
    the base rows."""
    scalar, prefix = _secret_expand(secret_key)
    public = _point_compress(_mul_base(scalar))
    r = _sha512_int(prefix, message) % _L
    r_point = _point_compress(_mul_base(r))
    challenge = _sha512_int(r_point, public, message) % _L
    s = (r + challenge * scalar) % _L
    return r_point + s.to_bytes(32, "little")


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 *signature* over *message*; never raises on bad
    input.  The cofactorless equation is evaluated by
    :func:`_verify_decoded` over the issuer's split rows (built on
    the key's first verify, read on every later one).  Any bytes-like
    arguments are accepted."""
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
    runs stay byte-for-byte reproducible — and every item in the batch
    perturbs every coefficient.  The low bit is forced to 1: odd
    coefficients annihilate nothing in the 8-torsion subgroup, which is
    what makes a single mixed-order or small-order defect a
    *guaranteed* batch failure (see module docstring).
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
among them already has split rows.

A warm single costs ~102 point operations and compression's one
inversion, and takes no square root; a batch of n signatures from k
issuers costs ~290 + 51k + 30n point operations *and* one square root
per item, because the equation needs every ``R`` as a point.  The root
(~180-240 us) is larger than the ~30 operations of an item's share, so
by time the crossover lies far above four.  Measured in one process on
a 2-vCPU host (best of 7), a warm single took 544 us a signature for
one issuer and 652 us for four; the equation took 1 447 us a signature
at two signatures, 705-964 at six, 682-772 at eight and 517-702 at
twelve to sixteen.  The floor stays at four all the same: the node's
batch lane is tested at it, and the verify workers take the equation
off the node's core where the singles would run on it.  It
lives here, not in the node's ingress lane, because the crossover
belongs to this cost model.  Letting the batch's A-columns read the
split tables instead would only halve the chain and put a
288-operation table build on the batch lane for every new key.  An
issuer without tables keeps the old floor of two: its single would
cost 288 + 102, more than its share of any batch, so a run of fresh
keys is never verified one by one on this account.
"""


_COMMITMENT_WIDTH = 4
"""wNAF width of the batch's R-columns.  Their scalars are the 128-bit
coefficients, read ~26 times at width 4 against ~21 at width 5; half
the table to build and make affine is the larger saving."""


def _combined_equation_holds(items: Sequence[Tuple[bytes, bytes, bytes]],
                             decoded: Sequence[_Decoded]) -> bool:
    """The random-linear-combination check over *decoded* (coefficients
    are derived from all of *items*, structurally invalid ones too),
    evaluated as ``sum z_i * R_i + sum (z_i * h_i) * A_i - S * B ==
    identity`` in one chain."""
    coefficients = _batch_coefficients(items, len(decoded))
    combined_s = 0
    # Merge pairs that share a point: a burst signed by few issuers
    # collapses all its A-columns into one scalar per distinct public
    # key (pure regrouping — sums of scalar multiples of the *same*
    # point — so the combined equation's value is untouched).  Scalars
    # reduce mod 8L, which is exact for torsion-carrying points too.
    # Decompressed points are affine, so equal encodings are equal keys;
    # with y < p screened, distinct encodings that decode are distinct
    # points.
    commitments: Dict[bytes, int] = {}
    keys: Dict[Point, int] = {}
    for z, (issuer, r_encoding, s, challenge) in zip(coefficients, decoded):
        combined_s = (combined_s + z * s) % _L
        commitments[r_encoding] = commitments.get(r_encoding, 0) + z
        keys[issuer.point] = keys.get(issuer.point, 0) + z * challenge
    try:
        r_points = {_decompress(encoding): z
                    for encoding, z in commitments.items()}
    except ValueError:
        # An R that decodes to no point fails the batch as a wrong s
        # does: every item is then judged alone.
        return False
    scalars: List[int] = []
    tables: List[List[Point]] = []
    for merged, width in ((r_points, _COMMITMENT_WIDTH),
                          (keys, _WNAF_WIDTH)):
        for point, scalar in merged.items():
            scalar %= _FULL_ORDER
            if scalar:
                scalars.append(scalar)
                tables.append(_odd_multiples(point, width))
    precompute()
    schedule: List[List[Niels]] = []
    # B has order L, so (-S mod L) * B is exactly -S * B.
    _schedule_split(schedule, -combined_s % _L, _BASE_ROWS)
    for scalar, row in zip(scalars, _niels_rows(tables)):
        _schedule(schedule, scalar, row)
    return _point_equal(_run_chain(schedule), _IDENTITY)


def verify_batch(items: Sequence[Tuple[bytes, bytes, bytes]]) -> List[bool]:
    """Verify ``(public_key, message, signature)`` triples as a batch.

    Returns one boolean per item, with the contract that the result
    equals ``[verify(pk, msg, sig) for ...]`` (see the module docstring
    for the exact soundness statement).  Structurally invalid items
    (bad lengths, ``R`` with ``y >= p``, a key that does not decode,
    ``s >= L``) are rejected up front without touching the combined
    equation; if the combined equation fails — an ``R`` that does not
    decode fails it — or the rest is too few to be worth one
    (:data:`_BATCH_FLOOR`), every remaining item is verified
    individually from the keys and scalars already decoded.
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
