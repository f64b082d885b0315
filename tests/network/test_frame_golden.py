"""Golden-file pins of the TCP frame wire format.

The files under ``tests/network/golden/`` were generated by
``golden_messages()`` below and checked in; any drift in the frame
envelope, the canonical value encoding, the CRC coverage, or the trace
header extension shows up here as a byte diff — not as a silent
incompatibility between fleet nodes built from different commits.
Follows the ``tests/storage/test_golden_format.py`` idiom: if a change
is intentional, regenerate the files and document it in
``docs/ARCHITECTURE.md``'s transport section.

``frame-v1-*.bin`` are the same corpus in the version-1 format (a
canonical-dict envelope), kept as fixtures a v2 decoder must refuse:
there is one wire format and no negotiation.
"""

import os

import pytest

from repro.network.frame import (
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.network.transport import Message
from repro.telemetry.tracer import TraceContext

from .test_frame_properties import decode_frame

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_messages():
    """The pinned corpus: each exercises a distinct envelope shape."""
    return {
        # Smallest useful frame: empty body, no extension.
        "frame-minimal.bin": Message(
            sender="a", recipient="b", kind="ping", body=None,
            sent_at=0.0, size_bytes=0, message_id=1),
        # The hot path: a gossiped transaction blob riding opaquely as
        # bytes, with the out-of-band trace in the header extension.
        "frame-gossip.bin": Message(
            sender="gateway-0", recipient="manager",
            kind="gossip_transaction",
            body={"transaction": bytes(range(32)), "hop": 2},
            sent_at=12.25, size_bytes=32, message_id=77,
            trace=TraceContext(trace_id="trace-0007", span_id=41)),
        # Every canonical type tag in one envelope.
        "frame-values.bin": Message(
            sender="n0", recipient="n1", kind="sync_response",
            body={
                "none": None, "yes": True, "no": False,
                "small": 7, "negative": -123456789,
                "big": 2 ** 72, "pi": 3.140625,
                "text": "héllo", "blob": b"\x00\xff" * 4,
                "list": [1, "two", [None]],
                "nested": {"z": 26, "a": 1},
            },
            sent_at=-1.5, size_bytes=9, message_id=2 ** 40),
    }


class TestGoldenFrames:
    def test_frame_bytes_pinned(self):
        for name, message in golden_messages().items():
            with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
                golden = handle.read()
            assert encode_frame(message) == golden, (
                f"{name}: frame wire format drifted from the checked-in "
                f"golden bytes — if intentional, regenerate "
                f"tests/network/golden/ and document it in "
                f"docs/ARCHITECTURE.md")

    def test_golden_bytes_decode(self):
        """The checked-in bytes themselves must decode to the corpus —
        guards the decoder against drift independently of the encoder."""
        for name, message in golden_messages().items():
            with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
                decoded = decode_frame(handle.read())
            assert decoded == message, name
            assert decoded.trace == message.trace, name

    def test_corpus_is_self_consistent(self):
        """Each corpus entry round-trips (meta-check on the corpus)."""
        for name, message in golden_messages().items():
            assert decode_frame(encode_frame(message)) == message, name


class TestVersionOneFrames:
    @pytest.mark.parametrize("name", sorted(golden_messages()))
    def test_v1_frame_is_an_unsupported_version(self, name):
        """A v1 peer's first frame fails on its version byte — before
        its length or CRC is read — and poisons the stream."""
        path = os.path.join(GOLDEN_DIR, name.replace("frame-", "frame-v1-"))
        with open(path, "rb") as handle:
            old = handle.read()
        assert old[4] == 1
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="^unsupported frame version 1$"):
            decoder.feed(old)
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(golden_messages()[name]))
