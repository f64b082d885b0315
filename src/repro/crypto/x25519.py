"""X25519 elliptic-curve Diffie–Hellman (RFC 7748).

The paper's key-distribution protocol (Fig. 4) encrypts messages "by the
public key of IoT device".  This reproduction realises that public-key
encryption as ECIES (see :mod:`repro.crypto.ecies`), whose key agreement
primitive is the X25519 function implemented here: a constant-structure
Montgomery ladder over Curve25519.
"""

from __future__ import annotations

import hashlib

from .rand import randbytes

__all__ = ["X25519_KEY_SIZE", "x25519", "x25519_base", "generate_private_key", "public_from_private"]

X25519_KEY_SIZE = 32

_P = 2 ** 255 - 19
_A24 = 121665
_BASE_POINT_U = 9


def _clamp(scalar_bytes: bytes) -> int:
    """Decode and clamp a 32-byte X25519 scalar per RFC 7748 §5."""
    if len(scalar_bytes) != X25519_KEY_SIZE:
        raise ValueError(f"scalar must be {X25519_KEY_SIZE} bytes, got {len(scalar_bytes)}")
    scalar = int.from_bytes(scalar_bytes, "little")
    scalar &= ~7
    scalar &= (1 << 254) - 1
    scalar |= 1 << 254
    return scalar


def _decode_u(u_bytes: bytes) -> int:
    """Decode a u-coordinate, masking the top bit per RFC 7748."""
    if len(u_bytes) != X25519_KEY_SIZE:
        raise ValueError(f"u-coordinate must be {X25519_KEY_SIZE} bytes, got {len(u_bytes)}")
    u = int.from_bytes(u_bytes, "little")
    return (u & ((1 << 255) - 1)) % _P


def _ladder(scalar: int, u: int) -> int:
    """Montgomery ladder computing scalar * (u : 1) on Curve25519."""
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for bit_index in reversed(range(255)):
        bit = (scalar >> bit_index) & 1
        swap ^= bit
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit
        a = (x2 + z2) % _P
        aa = (a * a) % _P
        b = (x2 - z2) % _P
        bb = (b * b) % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = (d * a) % _P
        cb = (c * b) % _P
        x3 = (da + cb) % _P
        x3 = (x3 * x3) % _P
        z3 = (da - cb) % _P
        z3 = (x1 * z3 * z3) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    if z2 == 0:  # the point at infinity: a low-order input, encoded as 0
        return 0
    return x2 * pow(z2, -1, _P) % _P


def x25519(scalar_bytes: bytes, u_bytes: bytes) -> bytes:
    """Compute the X25519 function: scalar multiplication on Curve25519.

    Raises ``ValueError`` if the result is the all-zero point (the peer
    supplied a low-order point), as required for contributory key
    agreement.
    """
    result = _ladder(_clamp(scalar_bytes), _decode_u(u_bytes))
    out = result.to_bytes(X25519_KEY_SIZE, "little")
    if out == bytes(X25519_KEY_SIZE):
        raise ValueError("X25519 produced the zero point (low-order input)")
    return out


def x25519_base(scalar_bytes: bytes) -> bytes:
    """Multiply the standard base point (u=9) by the clamped scalar."""
    result = _ladder(_clamp(scalar_bytes), _BASE_POINT_U)
    return result.to_bytes(X25519_KEY_SIZE, "little")


def generate_private_key(seed: bytes = None) -> bytes:
    """Return a fresh 32-byte private scalar.

    With *seed* the key is derived deterministically (for reproducible
    simulations); otherwise it is drawn from the crypto
    randomness source (:mod:`repro.crypto.rand`).
    """
    if seed is not None:
        return hashlib.sha256(b"x25519-private" + seed).digest()
    return randbytes(X25519_KEY_SIZE)


def public_from_private(private_key: bytes) -> bytes:
    """Derive the public u-coordinate for *private_key*."""
    return x25519_base(private_key)
