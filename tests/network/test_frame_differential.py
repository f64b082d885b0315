"""The one-pass frame codec against the reference it replaced
(``frame_reference.py``: the old value codec moved verbatim and a
field-by-field reader of the v2 envelope): same bytes out, same values
in, the same refusals — and never an exception that is not a
:class:`FrameError`, whatever bytes arrive."""

import dataclasses
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import frame
from repro.network.frame import MAX_DEPTH, FrameError
from repro.network.transport import Message
from repro.telemetry.tracer import TraceContext

from . import frame_reference as reference
from .test_frame_properties import SAMPLE_FRAME, _chunked, body_values, messages


def outcome(fn, *args):
    """``("ok", repr(value))`` or ``("refused",)``; any exception other
    than FrameError propagates and fails the test.  The repr, because
    equality would let ``1 == 1.0 == True`` through and hold a decoded
    NaN unequal to itself."""
    try:
        return ("ok", repr(fn(*args)))
    except FrameError:
        return ("refused",)


def stream_outcome(decoder_cls, pieces):
    """What a connection would see: the messages (with their traces) of
    the whole stream, or a refusal somewhere before its end."""
    def run():
        decoder = decoder_cls()
        decoded = []
        for piece in pieces:
            decoded.extend(decoder.feed(piece))
        decoder.close()
        return [dataclasses.astuple(m) for m in decoded]
    return outcome(run)


mutations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4096),
              st.integers(min_value=1, max_value=255)),
    min_size=1, max_size=3)


def mutate(data: bytes, flips) -> bytes:
    mutated = bytearray(data)
    for position, xor in flips:
        mutated[position % len(mutated)] ^= xor
    return bytes(mutated)


class TestValuesAgree:
    @given(body_values)
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_and_round_trip(self, value):
        encoded = frame.encode_value(value)
        assert encoded == reference.encode_value(value)
        assert frame.decode_value(encoded) == value

    @given(body_values, mutations)
    @settings(max_examples=300, deadline=None)
    def test_mutated_values(self, value, flips):
        data = mutate(reference.encode_value(value), flips)
        assert outcome(frame.decode_value, data) \
            == outcome(reference.decode_value, data)

    @given(body_values, st.integers(min_value=0, max_value=400))
    @settings(max_examples=150, deadline=None)
    def test_truncated_values(self, value, keep):
        data = reference.encode_value(value)[:keep]
        assert outcome(frame.decode_value, data) \
            == outcome(reference.decode_value, data)

    # Arbitrary bytes, weighted towards the type tags so that the
    # decoders get past the first byte.
    @given(st.lists(st.sampled_from(list(b"NTFIDSBLM"))
                    | st.integers(min_value=0, max_value=255),
                    max_size=64).map(bytes))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes(self, data):
        assert outcome(frame.decode_value, data) \
            == outcome(reference.decode_value, data)

    @pytest.mark.parametrize("data", [
        b"", b"S", b"S\x00\x00\x00", b"S\x00\x00\x00\x02\xc3\x28",
        b"I\x00\x00\x00\x00", b"I\xff\xff\xff\xff", b"D\x00" * 4,
        b"L\xff\xff\xff\xff", b"M\xff\xff\xff\xffS\x00\x00\x00\x01a",
        b"M\x00\x00\x00\x01N", b"M\x00\x00\x00\x01L\x00\x00\x00\x00N",
        b"M\x00\x00\x00\x02S\x00\x00\x00\x01bNS\x00\x00\x00\x01aN",
        b"M\x00\x00\x00\x02S\x00\x00\x00\x01aNS\x00\x00\x00\x01aN",
        b"X", b"N\x00",
    ])
    def test_every_old_refusal_is_still_a_refusal(self, data):
        assert outcome(reference.decode_value, data) == ("refused",)
        assert outcome(frame.decode_value, data) == ("refused",)


class TestFramesAgree:
    @given(messages)
    @settings(max_examples=150, deadline=None)
    def test_same_frame_bytes(self, message):
        assert frame.encode_frame(message) == reference.encode_frame(message)

    @given(st.lists(messages, min_size=1, max_size=4), mutations,
           st.lists(st.integers(min_value=0, max_value=4096), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_mutated_streams(self, batch, flips, cuts):
        stream = mutate(b"".join(map(reference.encode_frame, batch)), flips)
        pieces = _chunked(stream, cuts)
        assert stream_outcome(frame.FrameDecoder, pieces) \
            == stream_outcome(reference.FrameDecoder, pieces)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_streams(self, head, tail):
        # Arbitrary bytes alone die on the magic; also let them follow a
        # good prefix and a good frame.
        for stream in (head, b"BIOT\x02" + head, SAMPLE_FRAME + head + tail):
            assert stream_outcome(frame.FrameDecoder, [stream]) \
                == stream_outcome(reference.FrameDecoder, [stream])

    @given(st.lists(messages, min_size=2, max_size=5),
           st.lists(st.integers(min_value=0, max_value=4096), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_cut_equals_the_whole_stream(self, batch, cuts):
        stream = b"".join(map(frame.encode_frame, batch))
        assert frame.FrameDecoder().feed(stream) == batch
        whole = stream_outcome(frame.FrameDecoder, [stream])
        assert stream_outcome(frame.FrameDecoder,
                              _chunked(stream, cuts)) == whole
        # ... and byte by byte, where every prefix check runs.
        assert stream_outcome(
            frame.FrameDecoder,
            [stream[i:i + 1] for i in range(len(stream))]) == whole

    def test_a_large_frame_is_collected_not_recopied(self):
        """A frame arriving over many reads is appended to, and looked
        at again only once it is whole."""
        big = frame.encode_frame(Message(
            sender="n1", recipient="n0", kind="sync_response",
            body={"transactions": [bytes(300)] * 400}, sent_at=1.0))
        decoder = frame.FrameDecoder()
        for start in range(0, len(big) - 1000, 1000):
            assert decoder.feed(big[start:start + 1000]) == []
            assert decoder.buffered == start + 1000
        (message,) = decoder.feed(big[start + 1000:])
        assert len(message.body["transactions"]) == 400
        assert decoder.buffered == 0 and decoder.bytes_consumed == len(big)


def nested_lists(depth: int) -> bytes:
    return b"L\x00\x00\x00\x01" * depth + b"N"


BARE_ENVELOPE = bytes(31)
"""A v2 envelope of zeros: no flags, empty routing strings, ids 0 and
``sent_at`` +0.0 — what a hand-built body is framed behind."""


def framed(payload: bytes) -> bytes:
    """*payload* behind a valid prefix and CRC."""
    head = bytes([frame.VERSION]) + len(payload).to_bytes(4, "big")
    return (frame.MAGIC + head + payload
            + zlib.crc32(head + payload).to_bytes(4, "big"))


def payload_of(encoded: bytes) -> bytes:
    """The payload of one encoded frame."""
    return encoded[9:-4]


def both_outcomes(payload: bytes):
    """Product and reference on *payload* behind a valid prefix and
    CRC — so the envelope, not the CRC, is what is judged."""
    stream = [framed(payload)]
    return (stream_outcome(frame.FrameDecoder, stream),
            stream_outcome(reference.FrameDecoder, stream))


TRACED = Message(sender="gateway-0", recipient="manager",
                 kind="gossip_transaction", body={"transaction": b"\x07" * 9},
                 sent_at=3.5, size_bytes=9, message_id=12,
                 trace=TraceContext(trace_id="tx-9", span_id=4))
UNTRACED = dataclasses.replace(TRACED, trace=None)
STRINGS_AT = 31  # behind flags, three u16 lengths, two i64 and one f64


class TestEnvelopesAgree:
    """Payloads behind a valid CRC, so every byte reaches the envelope
    reader: both sides decode the same message or both refuse."""

    @given(messages, mutations)
    @settings(max_examples=300, deadline=None)
    def test_mutated_payloads(self, message, flips):
        payload = mutate(payload_of(reference.encode_frame(message)), flips)
        product, oracle = both_outcomes(payload)
        assert product == oracle

    @given(messages, st.integers(min_value=0, max_value=400))
    @settings(max_examples=200, deadline=None)
    def test_truncated_payloads(self, message, keep):
        whole = payload_of(reference.encode_frame(message))
        product, oracle = both_outcomes(whole[:keep])
        assert product == oracle
        if keep < len(whole):
            assert product == ("refused",)

    # A well-formed fixed header with small lengths, then arbitrary
    # bytes: the strings, trace extension and body are what vary.
    @given(st.integers(min_value=0, max_value=255),
           st.lists(st.integers(min_value=0, max_value=6),
                    min_size=3, max_size=3),
           st.binary(min_size=24, max_size=24), st.binary(max_size=48))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_payloads(self, flags, lengths, numbers, tail):
        payload = (bytes([flags])
                   + b"".join(n.to_bytes(2, "big") for n in lengths)
                   + numbers + tail)
        product, oracle = both_outcomes(payload)
        assert product == oracle

    @pytest.mark.parametrize("message", [TRACED, UNTRACED],
                             ids=["traced", "untraced"])
    @pytest.mark.parametrize("field", [1, 3, 5],
                             ids=["sender", "recipient", "kind"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_each_length_field_off_by_one(self, message, field, delta):
        payload = bytearray(payload_of(frame.encode_frame(message)))
        length = int.from_bytes(payload[field:field + 2], "big") + delta
        payload[field:field + 2] = length.to_bytes(2, "big")
        assert both_outcomes(bytes(payload)) == (("refused",),) * 2

    @pytest.mark.parametrize("message", [TRACED, UNTRACED],
                             ids=["traced", "untraced"])
    @pytest.mark.parametrize("bit", range(8))
    def test_every_flag_bit(self, message, bit):
        payload = bytearray(payload_of(frame.encode_frame(message)))
        payload[0] ^= 1 << bit
        # Bit 0 toggles the trace extension, which then reads a body
        # byte as its length (or a trace byte as the body); every other
        # bit is unknown.
        assert both_outcomes(bytes(payload)) == (("refused",),) * 2

    @pytest.mark.parametrize("where", ["sender", "recipient", "kind",
                                       "trace_id"])
    def test_broken_utf8_in_each_string(self, where):
        payload = bytearray(payload_of(frame.encode_frame(TRACED)))
        at = {"sender": STRINGS_AT,
              "recipient": STRINGS_AT + len(TRACED.sender),
              "kind": STRINGS_AT + len(TRACED.sender) + len(TRACED.recipient),
              "trace_id": STRINGS_AT + len(TRACED.sender)
              + len(TRACED.recipient) + len(TRACED.kind) + 10}[where]
        payload[at] = 0xFF  # never valid in utf-8
        assert both_outcomes(bytes(payload)) == (("refused",),) * 2

    @pytest.mark.parametrize("trace_len", [0xFFFF, 200])
    def test_trace_length_that_overruns(self, trace_len):
        payload = bytearray(payload_of(frame.encode_frame(TRACED)))
        at = STRINGS_AT + sum(
            len(text) for text in (TRACED.sender, TRACED.recipient,
                                   TRACED.kind))
        payload[at:at + 2] = trace_len.to_bytes(2, "big")
        assert both_outcomes(bytes(payload)) == (("refused",),) * 2

    def test_the_fixtures_decode(self):
        for message in (TRACED, UNTRACED):
            payload = payload_of(frame.encode_frame(message))
            expected = stream_outcome(frame.FrameDecoder,
                                      [reference.encode_frame(message)])
            assert both_outcomes(payload) == (expected, expected)
            assert expected[0] == "ok"


class TestNestingBound:
    def test_bound_is_the_same_on_both_sides(self):
        value = None
        for _ in range(MAX_DEPTH):
            value = [value]
        encoded = frame.encode_value(value)
        assert encoded == nested_lists(MAX_DEPTH)
        assert frame.decode_value(encoded) == value
        with pytest.raises(FrameError):
            frame.encode_value([value])
        with pytest.raises(FrameError):
            frame.decode_value(nested_lists(MAX_DEPTH + 1))
        with pytest.raises(FrameError):
            frame.encode_value({"a": {"b": value}})

    def test_deep_frame_is_a_frame_error_and_poisons(self):
        """25 KB of nested lists behind a valid CRC used to surface as
        RecursionError, which the read loop does not catch."""
        hostile = framed(BARE_ENVELOPE + nested_lists(5000))
        decoder = frame.FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(hostile)
        with pytest.raises(FrameError):
            decoder.feed(SAMPLE_FRAME)
        with pytest.raises(RecursionError):
            reference.FrameDecoder().feed(hostile)
