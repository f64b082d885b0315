"""Length-prefixed TCP framing for B-IoT protocol messages.

One frame carries one :class:`~repro.network.transport.Message`::

    MAGIC(4) | VERSION(1) | LENGTH(4, big-endian) | PAYLOAD | CRC32(4)

``PAYLOAD`` is the canonical binary encoding (below) of the message
envelope — a dict of ``sender``, ``recipient``, ``kind``,
``message_id``, ``sent_at``, ``size_bytes`` and ``body``, plus an
optional ``trace`` header extension carrying the out-of-band
:class:`~repro.telemetry.tracer.TraceContext`.  Transaction bytes
inside ``body`` are the *existing* canonical wire encodings
(:meth:`~repro.tangle.transaction.Transaction.to_bytes`), carried
opaquely — framing adds an envelope, it never re-encodes protocol
payloads.

The canonical value encoding is type-tagged and length-prefixed::

    N                   None
    T / F               True / False
    I len(4) bytes      int   (signed big-endian two's complement)
    D 8 bytes           float (IEEE-754 big-endian double)
    S len(4) utf-8      str
    B len(4) raw        bytes
    L count(4) items    list (tuples encode as lists)
    M count(4) pairs    dict  (str keys only, sorted — canonical)

Every structural violation — bad magic, unknown version, length out of
bounds, CRC mismatch, trailing or missing payload bytes, an unknown
type tag, containers nested deeper than :data:`MAX_DEPTH` — raises
:class:`FrameError`; the CRC covers version + length
+ payload, so any single-byte corruption of a frame is refused rather
than decoded into a wrong message (the property
``tests/network/test_frame_properties.py`` sweeps).

:class:`FrameDecoder` is resumable: feed it arbitrary chunks (TCP read
boundaries never align with frames) and it yields each message exactly
once; :meth:`FrameDecoder.close` flags bytes left behind by a
truncated final frame.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Tuple

from ..telemetry.tracer import TraceContext
from .transport import Message

__all__ = [
    "FrameError",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "encode_value",
    "decode_value",
    "MAGIC",
    "VERSION",
    "MAX_FRAME_BYTES",
    "MAX_DEPTH",
]

MAGIC = b"BIOT"
VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024
"""Upper bound on one frame's payload — a corrupted length field must
not make the decoder wait forever for bytes that will never come."""

MAX_DEPTH = 32
"""Containers one value may nest — the deepest legitimate body is ~4
levels.  Deeper input is a :class:`FrameError` on both sides, so a
hostile frame of nested lists cannot spend the interpreter's stack."""

_PREFIX_LEN = len(MAGIC) + 1 + 4  # magic + version + payload length
_CRC_LEN = 4
_HEAD = struct.Struct(">BI")  # version + payload length, behind the magic

_ENVELOPE_KEYS = frozenset(
    {"sender", "recipient", "kind", "message_id", "sent_at",
     "size_bytes", "body", "trace"})


class FrameError(ValueError):
    """A frame (or canonical value) failed structural validation."""


# -- canonical value encoding ---------------------------------------------

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_TRUNCATED = "canonical value truncated"
# Type tags as the integers that indexing a bytes object yields.
_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFIDSBLM"


def encode_value(value: Any) -> bytes:
    """Canonical binary encoding of a protocol body value."""
    out: List[bytes] = []
    _encode_items((value,), out, 0)
    return b"".join(out)


def _encode_items(values, out: List[bytes], depth: int) -> None:
    """Append the encoding of each of *values*, which sit inside
    *depth* containers.  A dict is its count followed by its sorted
    keys and values interleaved — a key is encoded as the ``S`` value
    it is — so scalars are written here and only a container recurses."""
    if depth > MAX_DEPTH:
        raise FrameError(f"value nested deeper than {MAX_DEPTH}")
    append = out.append
    u32 = _U32.pack
    for value in values:
        if isinstance(value, str):
            raw = value.encode("utf-8")
            append(b"S" + u32(len(raw)) + raw)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = value if type(value) is bytes else bytes(value)
            append(b"B" + u32(len(raw)) + raw)
        elif value is None:
            append(b"N")
        elif value is True:
            append(b"T")
        elif value is False:
            append(b"F")
        elif isinstance(value, int):
            raw = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                                 "big", signed=True)
            append(b"I" + u32(len(raw)) + raw)
        elif isinstance(value, float):
            append(b"D" + _F64.pack(value))
        elif isinstance(value, dict):
            pairs = []
            for key in value:
                if not isinstance(key, str):
                    raise FrameError("canonical dicts require str keys")
            for key in sorted(value):
                pairs.append(key)
                pairs.append(value[key])
            append(b"M" + u32(len(value)))
            _encode_items(pairs, out, depth + 1)
        elif isinstance(value, (list, tuple)):
            append(b"L" + u32(len(value)))
            _encode_items(value, out, depth + 1)
        else:
            raise FrameError(
                f"cannot encode {type(value).__name__} canonically")


def decode_value(data: bytes) -> Any:
    """Decode one canonical value; the buffer must be consumed exactly."""
    if type(data) is not bytes:
        data = bytes(data)
    return _decode_exactly(data, 0, len(data))


def _decode_exactly(data: bytes, offset: int, end: int) -> Any:
    """The one value that fills ``data[offset:end]``."""
    values, offset = _decode_items(data, offset, end, 1, False, 0)
    if offset != end:
        raise FrameError(
            f"trailing bytes after canonical value ({end - offset} left)")
    return values[0]


def _decode_items(data: bytes, offset: int, end: int, count: int,
                  keyed: bool, depth: int) -> Tuple[Any, int]:
    """Decode *count* values starting at *offset* — key/value pairs
    into a dict when *keyed*, a list otherwise — reading nothing at or
    past *end*; returns the container and the offset behind it.  Keys
    and scalars are read in this loop; only a nested container recurses,
    and *depth* (the containers around these values) bounds that."""
    if depth > MAX_DEPTH:
        raise FrameError(f"value nested deeper than {MAX_DEPTH}")
    u32 = _U32.unpack_from
    out: Any = {} if keyed else []
    key = previous = None
    try:
        for _ in range(count):
            if keyed:
                start = offset + 5
                if start > end:
                    raise FrameError(_TRUNCATED)
                if data[offset] != _S:
                    raise FrameError("canonical dict key is not a str")
                offset = start + u32(data, offset + 1)[0]
                if offset > end:
                    raise FrameError(_TRUNCATED)
                key = data[start:offset].decode("utf-8")
                if previous is not None and key <= previous:
                    raise FrameError("canonical dict keys out of order")
                previous = key
            if offset >= end:
                raise FrameError(_TRUNCATED)
            tag = data[offset]
            if tag == _D:
                if offset + 9 > end:
                    raise FrameError(_TRUNCATED)
                value = _F64.unpack_from(data, offset + 1)[0]
                offset += 9
            elif tag == _N or tag == _T or tag == _F:
                value = None if tag == _N else tag == _T
                offset += 1
            else:  # S, B, I, L and M carry a 4-byte length or count
                start = offset + 5
                if start > end:
                    raise FrameError(_TRUNCATED)
                length = u32(data, offset + 1)[0]
                if tag == _M or tag == _L:
                    value, offset = _decode_items(
                        data, start, end, length, tag == _M, depth + 1)
                else:
                    offset = start + length
                    if offset > end:
                        raise FrameError(_TRUNCATED)
                    value = data[start:offset]
                    if tag == _S:
                        value = value.decode("utf-8")
                    elif tag == _I:
                        if length == 0 or length > MAX_FRAME_BYTES:
                            raise FrameError(f"invalid int length {length}")
                        value = int.from_bytes(value, "big", signed=True)
                    elif tag != _B:
                        raise FrameError(
                            f"unknown canonical type tag {bytes((tag,))!r}")
            if keyed:
                out[key] = value
            else:
                out.append(value)
    except UnicodeDecodeError as exc:
        raise FrameError(f"invalid utf-8 in canonical str: {exc}")
    return out, offset


# -- frame encoding --------------------------------------------------------

def encode_frame(message: Message) -> bytes:
    """Serialise one message as a self-delimiting frame."""
    envelope = {
        "sender": message.sender,
        "recipient": message.recipient,
        "kind": message.kind,
        "message_id": int(message.message_id),
        "sent_at": float(message.sent_at),
        "size_bytes": int(message.size_bytes),
        "body": message.body,
    }
    trace = message.trace
    if trace is not None:
        # Header extension: the trace context stays envelope metadata —
        # it never touches the transaction codecs inside `body`.
        envelope["trace"] = {"trace_id": trace.trace_id,
                             "span_id": trace.span_id}
    payload = encode_value(envelope)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload {len(payload)} exceeds {MAX_FRAME_BYTES}")
    head = _HEAD.pack(VERSION, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head))
    return b"".join((MAGIC, head, payload, _U32.pack(crc)))


def _message_from_envelope(envelope: Any) -> Message:
    if not isinstance(envelope, dict):
        raise FrameError("frame payload is not an envelope dict")
    if not envelope.keys() <= _ENVELOPE_KEYS:
        raise FrameError(
            f"unknown envelope keys {sorted(set(envelope) - _ENVELOPE_KEYS)}")
    try:
        sender = envelope["sender"]
        recipient = envelope["recipient"]
        kind = envelope["kind"]
        message_id = envelope["message_id"]
        sent_at = envelope["sent_at"]
        size_bytes = envelope["size_bytes"]
        body = envelope["body"]
    except KeyError as exc:
        raise FrameError(f"envelope missing {exc.args[0]!r}")
    # The decoder yields exact types, so ``type() is`` is the whole
    # check (and keeps a bool out of the int fields).
    if not (type(sender) is str and type(recipient) is str
            and type(kind) is str):
        raise FrameError("envelope routing fields must be str")
    if type(message_id) is not int:
        raise FrameError("message_id must be an int")
    if type(sent_at) is not float:
        raise FrameError("sent_at must be a float")
    if type(size_bytes) is not int:
        raise FrameError("size_bytes must be an int")
    trace = None
    if "trace" in envelope:
        raw = envelope["trace"]
        if (not isinstance(raw, dict)
                or set(raw) != {"trace_id", "span_id"}
                or not isinstance(raw["trace_id"], str)
                or not isinstance(raw["span_id"], int)):
            raise FrameError("malformed trace extension")
        trace = TraceContext(trace_id=raw["trace_id"],
                             span_id=raw["span_id"])
    return Message(sender=sender, recipient=recipient, kind=kind,
                   body=body, sent_at=sent_at, size_bytes=size_bytes,
                   message_id=message_id, trace=trace)


def decode_frame(data: bytes) -> Message:
    """Decode exactly one frame; refuses partial or trailing bytes."""
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    decoder.close()
    if len(messages) != 1:
        raise FrameError(f"expected one frame, decoded {len(messages)}")
    return messages[0]


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    A :class:`FrameError` poisons the decoder — a stream that framed
    garbage cannot be trusted to resynchronise, so the connection it
    feeds from must be dropped.
    """

    def __init__(self):
        self._buffer = bytearray()  # the tail no frame has completed yet
        self._wanted = 0  # size of the frame that tail starts, once known
        self._failed = False
        self.frames_decoded = 0
        self.bytes_consumed = 0

    @property
    def buffered(self) -> int:
        """Bytes received but not yet part of a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Message]:
        """Absorb *data*; returns every message completed by it.

        Frames are decoded where they lie: a read that starts on a frame
        boundary is walked by offset and never copied, and only the
        incomplete tail (if any) is kept — one trim per feed.
        """
        if self._failed:
            raise FrameError("decoder already failed; drop the stream")
        pending = self._buffer
        if pending:
            pending += data
            if len(pending) < self._wanted:
                return []  # a large frame still arriving: just collect
            data = bytes(pending)
            pending.clear()
        elif type(data) is not bytes:
            data = bytes(data)
        self._wanted = 0
        view = memoryview(data)
        size = len(data)
        offset = 0
        messages: List[Message] = []
        try:
            while offset < size:
                # Reject a bad magic as soon as the bytes we do have
                # cannot be a frame start, instead of waiting for a
                # full prefix.
                if data[offset:offset + 4] != MAGIC[:size - offset]:
                    raise FrameError("bad frame magic")
                if size - offset < _PREFIX_LEN:
                    break
                version, length = _HEAD.unpack_from(data, offset + 4)
                if version != VERSION:
                    raise FrameError(f"unsupported frame version {version}")
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"frame payload {length} exceeds {MAX_FRAME_BYTES}")
                start = offset + _PREFIX_LEN
                end = start + length
                if size < end + _CRC_LEN:
                    self._wanted = end + _CRC_LEN - offset
                    break
                # Version, length and payload are contiguous: one pass.
                if zlib.crc32(view[offset + 4:end]) \
                        != _U32.unpack_from(data, end)[0]:
                    raise FrameError("frame CRC mismatch")
                messages.append(_message_from_envelope(
                    _decode_exactly(data, start, end)))
                offset = end + _CRC_LEN
        except FrameError:
            self._failed = True
            raise
        if offset < size:
            pending += view[offset:]
        self.bytes_consumed += offset
        self.frames_decoded += len(messages)
        return messages

    def close(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if not self._failed and self._buffer:
            self._failed = True
            raise FrameError(
                f"stream truncated mid-frame ({len(self._buffer)} "
                f"bytes buffered)")
