"""Straight-line RFC 8032 Ed25519: the oracle :mod:`repro.crypto.ed25519`
is pinned against.

This is the from-scratch implementation the product shipped before its
table-driven lane replaced it, kept here unchanged and self-contained —
it shares no arithmetic with the product: double-and-add scalar
multiplication, an inverse plus a square root per point decompression,
and the cofactorless ``[s]B == R + [h]A``.  ``verify_batch`` is the
batch contract stated as a loop.  The four public functions have the
product's signatures, so a test can patch them into
``repro.crypto.ed25519`` and run a whole deployment on the oracle.
"""

import hashlib
from typing import List, Sequence, Tuple

SECRET_KEY_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

_P = 2 ** 255 - 19
_L = 2 ** 252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P

# Base point B in extended coordinates (X, Y, Z, T).
_BY = (4 * pow(5, _P - 2, _P)) % _P
_BX = None  # recovered below


def _recover_x(y: int, sign_bit: int) -> int:
    """Recover the x-coordinate of a point from y and the sign bit."""
    if y >= _P:
        raise ValueError("invalid point encoding: y >= p")
    x2 = (y * y - 1) * pow(_D * y * y + 1, _P - 2, _P) % _P
    if x2 == 0:
        if sign_bit:
            raise ValueError("invalid point encoding: x=0 with sign bit set")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = x * pow(2, (_P - 1) // 4, _P) % _P
    if (x * x - x2) % _P != 0:
        raise ValueError("invalid point encoding: no square root")
    if x & 1 != sign_bit:
        x = _P - x
    return x


_BX = _recover_x(_BY, 0)
_BASE = (_BX, _BY, 1, (_BX * _BY) % _P)
_IDENTITY = (0, 1, 1, 0)


def _point_add(p: Tuple[int, int, int, int], q: Tuple[int, int, int, int]):
    """Add two points in extended homogeneous coordinates."""
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


def _point_mul(scalar: int, point: Tuple[int, int, int, int]):
    """Double-and-add scalar multiplication."""
    result = _IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        scalar >>= 1
    return result


def _point_equal(p: Tuple[int, int, int, int], q: Tuple[int, int, int, int]) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    if (x1 * z2 - x2 * z1) % _P != 0:
        return False
    return (y1 * z2 - y2 * z1) % _P == 0


def _point_compress(point: Tuple[int, int, int, int]) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, _P - 2, _P)
    x = x * z_inv % _P
    y = y * z_inv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(data: bytes) -> Tuple[int, int, int, int]:
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


def public_from_secret(secret_key: bytes) -> bytes:
    """Derive the 32-byte public key for *secret_key*."""
    scalar, _ = _secret_expand(secret_key)
    return _point_compress(_point_mul(scalar, _BASE))


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Produce a 64-byte deterministic Ed25519 signature over *message*."""
    scalar, prefix = _secret_expand(secret_key)
    public = _point_compress(_point_mul(scalar, _BASE))
    r = _sha512_int(prefix, message) % _L
    r_point = _point_compress(_point_mul(r, _BASE))
    challenge = _sha512_int(r_point, public, message) % _L
    s = (r + challenge * scalar) % _L
    return r_point + s.to_bytes(32, "little")


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 *signature* over *message*; never raises on bad input."""
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        a_point = _point_decompress(public_key)
        r_point = _point_decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    challenge = _sha512_int(signature[:32], public_key, message) % _L
    lhs = _point_mul(s, _BASE)
    rhs = _point_add(r_point, _point_mul(challenge, a_point))
    return _point_equal(lhs, rhs)


def verify_batch(items: Sequence[Tuple[bytes, bytes, bytes]]) -> List[bool]:
    """The batch contract itself: one single verify per item."""
    return [verify(public_key, message, signature)
            for public_key, message, signature in items]
