"""The one-pass frame codec against the reference it replaced
(``frame_reference.py``, the old code moved verbatim): same bytes out,
same values in, the same refusals — and never an exception that is not
a :class:`FrameError`, whatever bytes arrive."""

import dataclasses
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import frame
from repro.network.frame import MAX_DEPTH, FrameError
from repro.network.transport import Message

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
        for stream in (head, b"BIOT\x01" + head, SAMPLE_FRAME + head + tail):
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


def framed(payload: bytes) -> bytes:
    """*payload* behind a valid prefix and CRC."""
    head = bytes([frame.VERSION]) + len(payload).to_bytes(4, "big")
    return (frame.MAGIC + head + payload
            + zlib.crc32(head + payload).to_bytes(4, "big"))


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
        hostile = framed(nested_lists(5000))
        decoder = frame.FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(hostile)
        with pytest.raises(FrameError):
            decoder.feed(SAMPLE_FRAME)
        with pytest.raises(RecursionError):
            reference.FrameDecoder().feed(hostile)
