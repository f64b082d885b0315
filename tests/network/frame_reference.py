"""The frame codec as it stood before the one-pass decoder — the
reference the differential tests compare :mod:`repro.network.frame`
against.

Moved here verbatim from ``src/repro/network/frame.py``: one recursive
``_decode_at`` call and three ``_take`` calls per field, one buffer
trim per frame.  It has no nesting bound (a few thousand nested lists
raise ``RecursionError``), so the differentials stay inside
:data:`repro.network.frame.MAX_DEPTH`.  Envelope validation
(``_message_from_envelope``) is shared with the product module; only
the value codec and the stream walk differ.
"""

import struct
import sys
import zlib
from typing import Any, List, Optional, Tuple

from repro.network.frame import (
    MAGIC,
    MAX_FRAME_BYTES,
    VERSION,
    FrameError,
    _message_from_envelope,
)
from repro.network.transport import Message

_PREFIX_LEN = len(MAGIC) + 1 + 4  # magic + version + payload length
_CRC_LEN = 4


def python_calls(function) -> int:
    """Python-level function calls *function* makes, itself included —
    the count the call pins compare the two decoders by."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


# -- canonical value encoding ---------------------------------------------

def encode_value(value: Any) -> bytes:
    """Canonical binary encoding of a protocol body value."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                             "big", signed=True)
        out.append(b"I" + len(raw).to_bytes(4, "big") + raw)
    elif isinstance(value, float):
        out.append(b"D" + struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S" + len(raw).to_bytes(4, "big") + raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(b"B" + len(raw).to_bytes(4, "big") + raw)
    elif isinstance(value, (list, tuple)):
        out.append(b"L" + len(value).to_bytes(4, "big"))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        keys = list(value)
        if any(not isinstance(key, str) for key in keys):
            raise FrameError("canonical dicts require str keys")
        out.append(b"M" + len(keys).to_bytes(4, "big"))
        for key in sorted(keys):
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise FrameError(
            f"cannot encode {type(value).__name__} canonically")


def decode_value(data: bytes) -> Any:
    """Decode one canonical value; the buffer must be consumed exactly."""
    value, offset = _decode_at(data, 0)
    if offset != len(data):
        raise FrameError(
            f"trailing bytes after canonical value "
            f"({len(data) - offset} left)")
    return value


def _take(data: bytes, offset: int, count: int) -> Tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise FrameError("canonical value truncated")
    return data[offset:end], end


def _decode_at(data: bytes, offset: int) -> Tuple[Any, int]:
    tag, offset = _take(data, offset, 1)
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        raw_len, offset = _take(data, offset, 4)
        length = int.from_bytes(raw_len, "big")
        if length == 0 or length > MAX_FRAME_BYTES:
            raise FrameError(f"invalid int length {length}")
        raw, offset = _take(data, offset, length)
        return int.from_bytes(raw, "big", signed=True), offset
    if tag == b"D":
        raw, offset = _take(data, offset, 8)
        return struct.unpack(">d", raw)[0], offset
    if tag == b"S":
        raw_len, offset = _take(data, offset, 4)
        raw, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise FrameError(f"invalid utf-8 in canonical str: {exc}")
    if tag == b"B":
        raw_len, offset = _take(data, offset, 4)
        raw, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        return raw, offset
    if tag == b"L":
        raw_count, offset = _take(data, offset, 4)
        count = int.from_bytes(raw_count, "big")
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == b"M":
        raw_count, offset = _take(data, offset, 4)
        count = int.from_bytes(raw_count, "big")
        mapping = {}
        previous: Optional[str] = None
        for _ in range(count):
            key, offset = _decode_at(data, offset)
            if not isinstance(key, str):
                raise FrameError("canonical dict key is not a str")
            if previous is not None and key <= previous:
                raise FrameError("canonical dict keys out of order")
            previous = key
            value, offset = _decode_at(data, offset)
            mapping[key] = value
        return mapping, offset
    raise FrameError(f"unknown canonical type tag {tag!r}")


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
    head = bytes([VERSION]) + len(payload).to_bytes(4, "big")
    crc = zlib.crc32(head + payload)
    return MAGIC + head + payload + crc.to_bytes(4, "big")


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    A :class:`FrameError` poisons the decoder — a stream that framed
    garbage cannot be trusted to resynchronise, so the connection it
    feeds from must be dropped.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._failed = False
        self.frames_decoded = 0
        self.bytes_consumed = 0

    @property
    def buffered(self) -> int:
        """Bytes received but not yet part of a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Message]:
        """Absorb *data*; returns every message completed by it."""
        if self._failed:
            raise FrameError("decoder already failed; drop the stream")
        self._buffer.extend(data)
        messages: List[Message] = []
        try:
            while True:
                message, consumed = self._try_decode_one()
                if message is None:
                    break
                del self._buffer[:consumed]
                self.bytes_consumed += consumed
                self.frames_decoded += 1
                messages.append(message)
        except FrameError:
            self._failed = True
            raise
        return messages

    def _try_decode_one(self) -> Tuple[Optional[Message], int]:
        buffer = self._buffer
        if len(buffer) < _PREFIX_LEN:
            # Reject a bad magic as soon as the bytes we do have cannot
            # be a frame start, instead of waiting for a full prefix.
            if bytes(buffer[:len(MAGIC)]) != MAGIC[:len(buffer)]:
                raise FrameError("bad frame magic")
            return None, 0
        if bytes(buffer[:len(MAGIC)]) != MAGIC:
            raise FrameError("bad frame magic")
        version = buffer[len(MAGIC)]
        if version != VERSION:
            raise FrameError(f"unsupported frame version {version}")
        length = int.from_bytes(buffer[len(MAGIC) + 1:_PREFIX_LEN], "big")
        if length > MAX_FRAME_BYTES:
            raise FrameError(
                f"frame payload {length} exceeds {MAX_FRAME_BYTES}")
        total = _PREFIX_LEN + length + _CRC_LEN
        if len(buffer) < total:
            return None, 0
        head = bytes(buffer[len(MAGIC):_PREFIX_LEN])
        payload = bytes(buffer[_PREFIX_LEN:_PREFIX_LEN + length])
        stored_crc = int.from_bytes(
            buffer[_PREFIX_LEN + length:total], "big")
        if zlib.crc32(head + payload) != stored_crc:
            raise FrameError("frame CRC mismatch")
        return _message_from_envelope(decode_value(payload)), total

    def close(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if not self._failed and self._buffer:
            self._failed = True
            raise FrameError(
                f"stream truncated mid-frame ({len(self._buffer)} "
                f"bytes buffered)")
