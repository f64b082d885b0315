"""Hypothesis properties of the TCP frame codec: round-trips are exact,
partial reads resume losslessly at any chunk boundary, and any
single-byte corruption of a frame is refused with a clean
:class:`FrameError` — never decoded into a wrong message, never an
uncontrolled exception.  Mirrors the ``tests/storage`` canonical-format
property style."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.frame import (
    FrameDecoder,
    FrameError,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.network.transport import Message
from repro.telemetry.tracer import TraceContext


def decode_frame(data):
    """Decode exactly one frame the way a connection's reader does;
    partial or trailing bytes fail."""
    decoder = FrameDecoder()
    [message] = decoder.feed(data)
    decoder.close()
    return message

# Values the protocol actually ships: message bodies are dicts/lists of
# None/bool/int/float/str/bytes (transaction blobs ride as bytes).
body_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=40),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=10), children,
                                        max_size=4)),
    max_leaves=16,
)

traces = st.none() | st.builds(
    TraceContext,
    trace_id=st.text(min_size=1, max_size=16),
    span_id=st.integers(min_value=0, max_value=2 ** 53),
)

messages = st.builds(
    Message,
    sender=st.text(max_size=12),
    recipient=st.text(max_size=12),
    kind=st.text(max_size=12),
    body=body_values,
    sent_at=st.floats(allow_nan=False, allow_infinity=False),
    size_bytes=st.integers(min_value=0, max_value=2 ** 31),
    message_id=st.integers(min_value=0, max_value=2 ** 53),
    trace=traces,
)


class TestCanonicalValues:
    @given(body_values)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_exact(self, value):
        assert decode_value(encode_value(value)) == value

    @given(st.dictionaries(st.text(max_size=10), body_values, max_size=6),
           st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_dict_key_order_is_irrelevant(self, mapping, rnd):
        items = list(mapping.items())
        rnd.shuffle(items)
        assert encode_value(dict(items)) == encode_value(mapping)

    def test_tuples_encode_as_lists(self):
        assert encode_value((1, "a")) == encode_value([1, "a"])

    def test_non_str_dict_keys_refused(self):
        with pytest.raises(FrameError):
            encode_value({1: "x"})

    def test_unencodable_type_refused(self):
        with pytest.raises(FrameError):
            encode_value(object())

    def test_trailing_bytes_refused(self):
        with pytest.raises(FrameError):
            decode_value(encode_value(1) + b"\x00")


class TestFrameRoundtrip:
    @given(messages)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, message):
        decoded = decode_frame(encode_frame(message))
        assert decoded == message
        # Message.__eq__ excludes the out-of-band trace — the header
        # extension must still carry it faithfully.
        assert decoded.trace == message.trace

    @given(messages)
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_deterministic(self, message):
        assert encode_frame(message) == encode_frame(message)


I64_MIN, I64_MAX = -2 ** 63, 2 ** 63 - 1
LONGEST = 0xFFFF  # bytes an envelope string may hold

i64 = st.integers(min_value=I64_MIN, max_value=I64_MAX) \
    | st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX])
envelope_strings = st.text(max_size=12) | st.sampled_from(
    ["", "é", "网关-0", "\U0001f4e1", "x" * LONGEST, "é" * (LONGEST // 2)])
envelope_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, float("inf"), float("-inf"), float("nan")])

envelopes = st.builds(
    Message,
    sender=envelope_strings,
    recipient=envelope_strings,
    kind=envelope_strings,
    body=st.none() | st.binary(max_size=8),
    sent_at=envelope_floats,
    size_bytes=i64,
    message_id=i64,
    trace=st.none() | st.builds(TraceContext, trace_id=envelope_strings,
                                span_id=i64),
)


def _bits(value: float) -> bytes:
    return struct.pack(">d", value)


class TestEnvelopeRoundtrip:
    """The fixed envelope carries every value its fields can hold,
    exactly, and refuses at encode what they cannot."""

    @given(envelopes)
    @settings(max_examples=200, deadline=None)
    def test_every_field_value_round_trips(self, message):
        decoded = decode_frame(encode_frame(message))
        assert _bits(decoded.sent_at) == _bits(message.sent_at)  # NaN, -0.0
        if message.sent_at == message.sent_at:
            assert decoded == message
        assert (decoded.sender, decoded.recipient, decoded.kind,
                decoded.body, decoded.size_bytes, decoded.message_id) \
            == (message.sender, message.recipient, message.kind,
                message.body, message.size_bytes, message.message_id)
        assert decoded.trace == message.trace

    @given(envelopes, st.sampled_from(["message_id", "size_bytes", "span"]),
           st.sampled_from([I64_MAX + 1, I64_MIN - 1, 2 ** 200]))
    @settings(max_examples=60, deadline=None)
    def test_int_outside_i64_refused_at_encode(self, message, field, value):
        if field == "span":
            message.trace = TraceContext(trace_id="t", span_id=value)
        else:
            setattr(message, field, value)
        with pytest.raises(FrameError):
            encode_frame(message)

    @pytest.mark.parametrize("field", ["sender", "recipient", "kind",
                                       "trace"])
    def test_string_over_65535_bytes_refused_at_encode(self, field):
        message = Message(sender="a", recipient="b", kind="k", body=None,
                          sent_at=0.0)
        for text in ("x" * LONGEST, "é" * (LONGEST // 2)):  # fits
            if field == "trace":
                message.trace = TraceContext(trace_id=text, span_id=0)
            else:
                setattr(message, field, text)
            assert decode_frame(encode_frame(message)) == message
        too_long = "é" * (LONGEST // 2 + 1)  # 32 768 chars, 65 536 bytes
        if field == "trace":
            message.trace = TraceContext(trace_id=too_long, span_id=0)
        else:
            setattr(message, field, too_long)
        with pytest.raises(FrameError):
            encode_frame(message)


def _chunked(data: bytes, cuts) -> list:
    offsets = sorted({min(cut, len(data)) for cut in cuts})
    pieces, start = [], 0
    for offset in offsets:
        pieces.append(data[start:offset])
        start = offset
    pieces.append(data[start:])
    return pieces


class TestPartialReadResumption:
    @given(st.lists(messages, min_size=1, max_size=4),
           st.lists(st.integers(min_value=0, max_value=4096), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_any_chunking_yields_the_same_messages(self, batch, cuts):
        stream = b"".join(encode_frame(m) for m in batch)
        decoder = FrameDecoder()
        decoded = []
        for piece in _chunked(stream, cuts):
            decoded.extend(decoder.feed(piece))
        decoder.close()  # clean boundary: nothing buffered
        assert decoded == batch
        assert [d.trace for d in decoded] == [m.trace for m in batch]
        assert decoder.frames_decoded == len(batch)
        assert decoder.bytes_consumed == len(stream)

    @given(messages, st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_truncation_detected_at_close(self, message, cut_back):
        frame = encode_frame(message)
        truncated = frame[:max(1, len(frame) - cut_back)]
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(truncated)
            decoder.close()


# A fixed, representative frame for the exhaustive corruption sweep:
# nested body, bytes payload, trace extension.
SAMPLE_FRAME = encode_frame(Message(
    sender="gateway-0", recipient="manager", kind="gossip_transaction",
    body={"transaction": b"\x01\x02" * 12, "hop": 2,
          "flags": [True, None, 3.5]},
    sent_at=12.25, size_bytes=24, message_id=77,
    trace=TraceContext(trace_id="tx-abc", span_id=9),
))


class TestSingleByteCorruption:
    @given(st.integers(min_value=0, max_value=len(SAMPLE_FRAME) - 1),
           st.integers(min_value=1, max_value=255))
    @settings(max_examples=300, deadline=None)
    def test_any_flip_refused_cleanly(self, offset, xor):
        corrupted = bytearray(SAMPLE_FRAME)
        corrupted[offset] ^= xor
        decoder = FrameDecoder()
        # Depending on where the flip lands the error surfaces during
        # feed (magic/version/CRC/payload) or at close (a grown length
        # field leaves the decoder waiting) — but it is always a
        # FrameError, never a wrong message or a raw struct/unicode
        # exception.
        with pytest.raises(FrameError):
            decoder.feed(bytes(corrupted))
            decoder.close()

    def test_pristine_sample_decodes(self):
        message = decode_frame(SAMPLE_FRAME)
        assert message.kind == "gossip_transaction"
        assert message.trace == TraceContext(trace_id="tx-abc", span_id=9)

    def test_failure_poisons_the_decoder(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(b"XXXX")
        with pytest.raises(FrameError):
            decoder.feed(SAMPLE_FRAME)
