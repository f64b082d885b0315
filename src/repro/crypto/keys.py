"""Node identities: the (PK, SK) pair every B-IoT entity owns.

Section IV-A: "Each sensor will generate a blockchain account when
initialized, i.e., a pair of public/secret key (PK, SK), which is the
unique identifier in the system.  The key pair for each device is not
only used to sign transactions, but also to make the key distribution."

A :class:`KeyPair` therefore bundles two primitives derived from one
seed: an Ed25519 key for signing and an X25519 key for receiving
ECIES-encrypted messages.  Its public half is a :class:`PublicIdentity`
whose stable :attr:`~PublicIdentity.node_id` (hash of both public keys)
is what appears in ledgers and ACLs.
"""

from __future__ import annotations

from .rand import randbytes
from dataclasses import dataclass
from functools import cached_property

from . import ecies, ed25519, x25519
from .hashing import hash_concat

__all__ = ["KeyPair", "PublicIdentity", "NODE_ID_SIZE"]

NODE_ID_SIZE = 32


@dataclass(frozen=True)
class PublicIdentity:
    """The shareable half of a node's key material."""

    sign_public: bytes
    enc_public: bytes

    def __post_init__(self):
        if len(self.sign_public) != ed25519.PUBLIC_KEY_SIZE:
            raise ValueError("sign_public must be 32 bytes")
        if len(self.enc_public) != x25519.X25519_KEY_SIZE:
            raise ValueError("enc_public must be 32 bytes")

    @cached_property
    def node_id(self) -> bytes:
        """32-byte stable identifier: hash of both public keys."""
        return hash_concat(self.sign_public, self.enc_public)

    @property
    def short_id(self) -> str:
        """First 8 hex chars of :attr:`node_id`, for logs and reprs."""
        return self.node_id.hex()[:8]

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a signature made by the matching :class:`KeyPair`."""
        return ed25519.verify(self.sign_public, message, signature)

    def encrypt(self, plaintext: bytes) -> bytes:
        """ECIES-encrypt *plaintext* to this identity."""
        return ecies.encrypt(self.enc_public, plaintext)

    def to_bytes(self) -> bytes:
        """Serialise as ``sign_public || enc_public`` (64 bytes)."""
        return self.sign_public + self.enc_public

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicIdentity":
        if len(data) != ed25519.PUBLIC_KEY_SIZE + x25519.X25519_KEY_SIZE:
            raise ValueError(f"identity encoding must be 64 bytes, got {len(data)}")
        return cls(sign_public=data[:32], enc_public=data[32:])

    def __repr__(self) -> str:
        return f"PublicIdentity({self.short_id})"


class KeyPair:
    """A node's full key material (signing + encryption).

    >>> alice = KeyPair.generate(seed=b"alice")
    >>> sig = alice.sign(b"reading")
    >>> alice.public.verify(b"reading", sig)
    True
    """

    def __init__(self, sign_secret: bytes, enc_secret: bytes):
        self._sign_secret = sign_secret
        self._enc_secret = enc_secret
        self.public = PublicIdentity(
            sign_public=ed25519.public_from_secret(sign_secret),
            enc_public=x25519.public_from_private(enc_secret),
        )

    @classmethod
    def generate(cls, seed: bytes = None) -> "KeyPair":
        """Create a key pair, deterministically when *seed* is given."""
        if seed is None:
            seed = randbytes(32)
        return cls(
            sign_secret=ed25519.generate_secret_key(seed=b"sign" + seed),
            enc_secret=x25519.generate_private_key(seed=b"enc" + seed),
        )

    @property
    def node_id(self) -> bytes:
        return self.public.node_id

    @property
    def short_id(self) -> str:
        return self.public.short_id

    def sign(self, message: bytes) -> bytes:
        """Sign *message* with the Ed25519 secret key."""
        return ed25519.sign(self._sign_secret, message)

    def decrypt(self, envelope: bytes) -> bytes:
        """Decrypt an ECIES envelope addressed to this identity."""
        return ecies.decrypt(self._enc_secret, envelope)

    def __repr__(self) -> str:
        return f"KeyPair({self.short_id})"
