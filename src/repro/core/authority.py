"""Data authority management (Section IV-C, Fig. 4).

Sensor data on a transparent ledger needs encryption; symmetric
encryption needs key distribution.  The paper's method, reproduced here
in full:

* the manager generates one symmetric secret key ``SK_S`` per data
  group ("only done for one time");
* a three-message challenge–response protocol distributes it to each
  device that collects sensitive data, "without any central trust
  server"::

      M1 = Enc_PK_D { sign_SK_M(SK_S, TS1, nonce_a) }
      M2 = Enc_SK_S { sign_SK_D(nonce_b, TS2), nonce_a }
      M3 = Enc_SK_S { sign_SK_M(nonce_b, TS3) }

  Signatures stop tampering, timestamps stop replay, and the two
  nonce challenges prove (a) the device really decrypted M1 and
  (b) the manager really holds ``SK_S``;
* devices then AES-encrypt sensitive readings before posting them
  (:class:`DataProtector`); non-sensitive streams stay in the clear.

Public-key encryption is ECIES (:mod:`repro.crypto.ecies`); the
symmetric envelope is AES-CTR with an HMAC tag (encrypt-then-MAC).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..crypto import aes, ecies
from ..crypto.rand import randbytes
from ..crypto.kdf import constant_time_equal, hkdf, hmac_sha256
from ..crypto.keys import KeyPair, PublicIdentity
from ..devices.sensors import SensorReading

__all__ = [
    "KeyDistributionError",
    "StaleTimestampError",
    "ReplayError",
    "BadSignatureError",
    "ProtocolStateError",
    "symmetric_encrypt",
    "symmetric_decrypt",
    "ManagerKeyDistributor",
    "DeviceKeyAgent",
    "DataProtector",
    "DEFAULT_GROUP",
    "DEFAULT_MAX_SKEW",
]

DEFAULT_GROUP = "sensitive"
DEFAULT_MAX_SKEW = 5.0
"""Maximum accepted |now - TS| in seconds (replay-attack window)."""

_NONCE_SIZE = 16
_KEY_SIZE = 32


class KeyDistributionError(Exception):
    """Base class for key-distribution protocol failures."""


class StaleTimestampError(KeyDistributionError):
    """Message timestamp outside the freshness window (replay defence)."""


class ReplayError(KeyDistributionError):
    """A nonce was presented twice."""


class BadSignatureError(KeyDistributionError):
    """A protocol signature failed verification."""


class ProtocolStateError(KeyDistributionError):
    """Message arrived for a session that is not pending (unknown,
    completed or abandoned)."""


# -- symmetric envelope ----------------------------------------------------

def symmetric_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Authenticated symmetric envelope: nonce ‖ AES-CTR ‖ HMAC tag."""
    if len(key) != _KEY_SIZE:
        raise ValueError(f"symmetric key must be {_KEY_SIZE} bytes")
    enc_key = hkdf(key, info=b"biot-sym-enc", length=32)
    mac_key = hkdf(key, info=b"biot-sym-mac", length=32)
    nonce = randbytes(8)
    ciphertext = aes.ctr_encrypt(enc_key, nonce, plaintext)
    tag = hmac_sha256(mac_key, nonce + ciphertext)
    return nonce + ciphertext + tag


def symmetric_decrypt(key: bytes, envelope: bytes) -> bytes:
    """Open a :func:`symmetric_encrypt` envelope; raises
    :class:`BadSignatureError` on tampering or a wrong key."""
    if len(key) != _KEY_SIZE:
        raise ValueError(f"symmetric key must be {_KEY_SIZE} bytes")
    if len(envelope) < 8 + 32:
        raise BadSignatureError("symmetric envelope too short")
    nonce, ciphertext, tag = envelope[:8], envelope[8:-32], envelope[-32:]
    enc_key = hkdf(key, info=b"biot-sym-enc", length=32)
    mac_key = hkdf(key, info=b"biot-sym-mac", length=32)
    if not constant_time_equal(tag, hmac_sha256(mac_key, nonce + ciphertext)):
        raise BadSignatureError("symmetric envelope tag mismatch")
    return aes.ctr_decrypt(enc_key, nonce, ciphertext)


# -- protocol records -------------------------------------------------------

def _signed_record(signer: KeyPair, fields: Dict[str, str]) -> bytes:
    body = json.dumps(fields, sort_keys=True).encode()
    signature = signer.sign(body)
    return json.dumps(
        {"body": fields, "sig": signature.hex()}, sort_keys=True
    ).encode()


def _open_record(expected_signer: PublicIdentity, data: bytes) -> Dict[str, str]:
    try:
        wrapper = json.loads(data.decode())
        fields = wrapper["body"]
        signature = bytes.fromhex(wrapper["sig"])
        body = json.dumps(fields, sort_keys=True).encode()
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise BadSignatureError(f"malformed protocol record: {exc}") from exc
    if not expected_signer.verify(body, signature):
        raise BadSignatureError(
            f"record not signed by expected party {expected_signer.short_id}"
        )
    return fields


def _check_freshness(timestamp: float, now: float, max_skew: float) -> None:
    if abs(now - timestamp) > max_skew:
        raise StaleTimestampError(
            f"timestamp {timestamp:.3f} outside ±{max_skew}s of now {now:.3f}"
        )


@dataclass
class _Session:
    device: PublicIdentity
    group: str
    nonce_a: bytes


# -- manager side -----------------------------------------------------------

class ManagerKeyDistributor:
    """Manager side of the Fig. 4 protocol.

    One instance serves any number of devices and groups; per-device
    sessions are tracked by an opaque session id until M2 verifies or
    the caller abandons them.

    Args:
        keypair: the manager's identity (signs M1 and M3).
        max_skew: freshness window for timestamps.
    """

    def __init__(self, keypair: KeyPair, *, max_skew: float = DEFAULT_MAX_SKEW):
        self.keypair = keypair
        self.max_skew = max_skew
        self._group_keys: Dict[str, bytes] = {}
        self._sessions: Dict[bytes, _Session] = {}
        self._seen_nonces: Set[bytes] = set()
        self.completed_distributions = 0

    def group_key(self, group: str = DEFAULT_GROUP) -> bytes:
        """Return (generating on first use) the symmetric key for *group*.

        "The step of generating symmetric secret key is only done for
        one time."
        """
        key = self._group_keys.get(group)
        if key is None:
            key = randbytes(_KEY_SIZE)
            self._group_keys[group] = key
        return key

    def rotate_group_key(self, group: str = DEFAULT_GROUP) -> bytes:
        """Replace a group key ("it is flexible to update symmetric keys
        if needed"); devices must re-run the protocol."""
        key = randbytes(_KEY_SIZE)
        self._group_keys[group] = key
        return key

    def initiate(self, device: PublicIdentity, *, now: float,
                 group: str = DEFAULT_GROUP) -> Tuple[bytes, bytes]:
        """Start a distribution: returns ``(session_id, M1 bytes)``."""
        key = self.group_key(group)
        nonce_a = randbytes(_NONCE_SIZE)
        record = _signed_record(self.keypair, {
            "key": key.hex(),
            "ts": repr(float(now)),
            "nonce_a": nonce_a.hex(),
            "group": group,
        })
        m1 = device.encrypt(record)
        session_id = randbytes(16)
        self._sessions[session_id] = _Session(
            device=device, group=group, nonce_a=nonce_a
        )
        return session_id, m1

    def handle_m2(self, session_id: bytes, m2: bytes, *, now: float) -> bytes:
        """Verify the device's response-challenge and emit M3."""
        session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolStateError("unknown session")
        key = self.group_key(session.group)
        plaintext = symmetric_decrypt(key, m2)
        fields = _open_record(session.device, plaintext)
        try:
            echoed_nonce_a = bytes.fromhex(fields["nonce_a"])
            nonce_b = bytes.fromhex(fields["nonce_b"])
            timestamp = float(fields["ts"])
        except (KeyError, ValueError) as exc:
            raise BadSignatureError(f"malformed M2 fields: {exc}") from exc
        _check_freshness(timestamp, now, self.max_skew)
        if not constant_time_equal(echoed_nonce_a, session.nonce_a):
            raise BadSignatureError("device echoed the wrong nonce_a")
        if nonce_b in self._seen_nonces:
            raise ReplayError("nonce_b reused")
        self._seen_nonces.add(nonce_b)
        del self._sessions[session_id]
        self.completed_distributions += 1
        record = _signed_record(self.keypair, {
            "nonce_b": nonce_b.hex(),
            "ts": repr(float(now)),
        })
        return symmetric_encrypt(key, record)

    def abandon(self, session_id: bytes) -> None:
        """Forget a session that will not complete (superseded by a
        fresh M1, or given up on); a late M2 for it is then refused."""
        self._sessions.pop(session_id, None)


# -- device side ------------------------------------------------------------

class DeviceKeyAgent:
    """Device side of the Fig. 4 protocol.

    Args:
        keypair: the device's identity (decrypts M1, signs M2).
        manager: the manager's public identity, learned from the genesis
            config — only records signed by this key are accepted.
    """

    def __init__(self, keypair: KeyPair, manager: PublicIdentity, *,
                 max_skew: float = DEFAULT_MAX_SKEW):
        self.keypair = keypair
        self.manager = manager
        self.max_skew = max_skew
        self._pending: Dict[bytes, Tuple[str, bytes]] = {}  # nonce_b -> (group, key)
        self._keys: Dict[str, bytes] = {}
        self._seen_nonce_a: Set[bytes] = set()

    def handle_m1(self, m1: bytes, *, now: float) -> bytes:
        """Decrypt M1, verify the manager's signature and freshness,
        stage the key, and emit M2 proving successful decryption."""
        try:
            plaintext = self.keypair.decrypt(m1)
        except ecies.DecryptionError as exc:
            raise BadSignatureError(f"cannot decrypt M1: {exc}") from exc
        fields = _open_record(self.manager, plaintext)
        try:
            key = bytes.fromhex(fields["key"])
            timestamp = float(fields["ts"])
            nonce_a = bytes.fromhex(fields["nonce_a"])
            group = fields["group"]
        except (KeyError, ValueError) as exc:
            raise BadSignatureError(f"malformed M1 fields: {exc}") from exc
        if len(key) != _KEY_SIZE:
            raise BadSignatureError("distributed key has wrong size")
        _check_freshness(timestamp, now, self.max_skew)
        if nonce_a in self._seen_nonce_a:
            raise ReplayError("nonce_a reused (replayed M1)")
        self._seen_nonce_a.add(nonce_a)
        nonce_b = randbytes(_NONCE_SIZE)
        self._pending[nonce_b] = (group, key)
        record = _signed_record(self.keypair, {
            "nonce_a": nonce_a.hex(),
            "nonce_b": nonce_b.hex(),
            "ts": repr(float(now)),
        })
        return symmetric_encrypt(key, record)

    def handle_m3(self, m3: bytes, *, now: float) -> str:
        """Verify the manager's nonce_b echo and commit the staged key.

        Returns the group whose key was installed.
        """
        for nonce_b, (group, key) in list(self._pending.items()):
            try:
                plaintext = symmetric_decrypt(key, m3)
            except BadSignatureError:
                continue
            fields = _open_record(self.manager, plaintext)
            try:
                echoed = bytes.fromhex(fields["nonce_b"])
                timestamp = float(fields["ts"])
            except (KeyError, ValueError) as exc:
                raise BadSignatureError(f"malformed M3 fields: {exc}") from exc
            if not constant_time_equal(echoed, nonce_b):
                continue
            _check_freshness(timestamp, now, self.max_skew)
            self._keys[group] = key
            # Every key staged for this group is superseded now: M1s
            # whose M2 was lost leave theirs behind, and each would cost
            # a decrypt on every later M3.
            for staged in [nonce for nonce, (staged_group, _)
                           in self._pending.items()
                           if staged_group == group]:
                del self._pending[staged]
            return group
        raise ProtocolStateError("M3 matches no pending session")

    def key_for(self, group: str = DEFAULT_GROUP) -> Optional[bytes]:
        """The installed key for *group*, or None before completion."""
        return self._keys.get(group)


# -- payload protection -------------------------------------------------------

_MARKER_PLAIN = 0x00
_MARKER_ENCRYPTED = 0x01
_MARKER_PLAIN_BATCH = 0x02
_MARKER_ENCRYPTED_BATCH = 0x03


class DataProtector:
    """Encrypts sensitive sensor payloads for the transparent ledger.

    "For those devices whose collected non-sensitive data, they do not
    need to encrypt sensor data" — :meth:`protect` encrypts exactly when
    the reading is marked sensitive *and* a group key is installed.
    """

    def __init__(self, keys: Optional[Dict[str, bytes]] = None):
        self._keys: Dict[str, bytes] = dict(keys or {})

    def install_key(self, group: str, key: bytes) -> None:
        if len(key) != _KEY_SIZE:
            raise ValueError(f"group key must be {_KEY_SIZE} bytes")
        self._keys[group] = key

    def has_key(self, group: str = DEFAULT_GROUP) -> bool:
        return group in self._keys

    def protect(self, reading: SensorReading, *,
                group: str = DEFAULT_GROUP) -> bytes:
        """Serialise *reading* for the ledger, encrypting if sensitive.

        Raises ``KeyError`` when a sensitive reading has no group key —
        posting sensitive data in the clear is never a silent fallback.
        """
        raw = reading.to_bytes()
        if not reading.sensitive:
            return bytes([_MARKER_PLAIN]) + raw
        if group not in self._keys:
            raise KeyError(
                f"no key for group {group!r}; run key distribution first"
            )
        group_bytes = group.encode()
        envelope = symmetric_encrypt(self._keys[group], raw)
        return (bytes([_MARKER_ENCRYPTED, len(group_bytes)])
                + group_bytes + envelope)

    def unprotect(self, payload: bytes) -> SensorReading:
        """Decode a ledger payload back into a reading.

        Raises ``KeyError`` for an encrypted payload whose group key is
        not held (that is the access control working), and
        :class:`BadSignatureError` on tampering.
        """
        if not payload:
            raise ValueError("empty payload")
        marker = payload[0]
        if marker == _MARKER_PLAIN:
            return SensorReading.from_bytes(payload[1:])
        if marker != _MARKER_ENCRYPTED:
            raise ValueError(f"unknown payload marker {marker:#x}")
        group_len = payload[1]
        group = payload[2: 2 + group_len].decode()
        envelope = payload[2 + group_len:]
        if group not in self._keys:
            raise KeyError(f"no key for group {group!r}")
        return SensorReading.from_bytes(
            symmetric_decrypt(self._keys[group], envelope)
        )

    # -- batches -------------------------------------------------------------

    def protect_batch(self, batch, *, group: str = DEFAULT_GROUP) -> bytes:
        """Serialise a :class:`~repro.devices.sensors.ReadingBatch`,
        encrypting when any member is sensitive."""
        raw = batch.to_bytes()
        if not batch.sensitive:
            return bytes([_MARKER_PLAIN_BATCH]) + raw
        if group not in self._keys:
            raise KeyError(
                f"no key for group {group!r}; run key distribution first"
            )
        group_bytes = group.encode()
        envelope = symmetric_encrypt(self._keys[group], raw)
        return (bytes([_MARKER_ENCRYPTED_BATCH, len(group_bytes)])
                + group_bytes + envelope)

    def unprotect_batch(self, payload: bytes):
        """Decode a batch payload (see :meth:`unprotect` for failure
        semantics)."""
        from ..devices.sensors import ReadingBatch

        if not payload:
            raise ValueError("empty payload")
        marker = payload[0]
        if marker == _MARKER_PLAIN_BATCH:
            return ReadingBatch.from_bytes(payload[1:])
        if marker != _MARKER_ENCRYPTED_BATCH:
            raise ValueError(f"not a batch payload (marker {marker:#x})")
        group_len = payload[1]
        group = payload[2: 2 + group_len].decode()
        envelope = payload[2 + group_len:]
        if group not in self._keys:
            raise KeyError(f"no key for group {group!r}")
        return ReadingBatch.from_bytes(
            symmetric_decrypt(self._keys[group], envelope)
        )

    @staticmethod
    def is_encrypted(payload: bytes) -> bool:
        """Whether a ledger payload is an encrypted envelope."""
        return bool(payload) and payload[0] in (_MARKER_ENCRYPTED,
                                                _MARKER_ENCRYPTED_BATCH)

    @staticmethod
    def is_batch(payload: bytes) -> bool:
        """Whether a ledger payload carries a reading batch."""
        return bool(payload) and payload[0] in (_MARKER_PLAIN_BATCH,
                                                _MARKER_ENCRYPTED_BATCH)
