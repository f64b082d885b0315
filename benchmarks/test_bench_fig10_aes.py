"""Fig. 10 — Impact of the data authority method on transaction
efficiency (AES encryption time vs message length).

Paper setup: AES on a Raspberry Pi 3B over message lengths 64 B → 1 MB
(log2 sweep); anchors 64 B → 0.205 ms, 256 KB → 0.373 s, 1 MB →
1.491 s; "a 256 kilobytes data package is large enough for IoT
transmission ... only needs 0.373 second, which has tiny impact on the
whole transaction process".

Reproduction: our from-scratch AES in CTR mode, measured for real on
the host, next to the calibrated Raspberry Pi cost model and the paper
anchors.  The pytest-benchmark timing covers the paper's headline
256 KB point.
"""

from repro.analysis.figures import PAPER_FIG10_ANCHORS, fig10_aes_timing
from repro.analysis.metrics import format_table
from repro.crypto import aes

_KEY = bytes(range(32))
_MESSAGE_256K = bytes(262144)


def test_bench_fig10_sweep(benchmark, report_writer):
    points = benchmark.pedantic(
        fig10_aes_timing, kwargs={"max_exponent": 20}, rounds=1, iterations=1,
    )
    rows = [
        (
            p.message_bytes,
            f"{p.measured_seconds:.5f}",
            f"{p.modelled_rpi_seconds:.5f}",
            f"{p.paper_seconds:.5f}" if p.paper_seconds is not None else "-",
        )
        for p in points
    ]
    report_writer("fig10_aes_timing", format_table(rows, headers=[
        "message bytes", "measured (s)", "RPi model (s)", "paper (s)",
    ]))

    # Shape: monotone growth, linear in message length (log-log slope 1)
    # over the upper decades where fixed overhead is negligible.
    measured = {p.message_bytes: p.measured_seconds for p in points}
    assert measured[2 ** 20] > measured[2 ** 14] > measured[2 ** 8]
    ratio = measured[2 ** 20] / measured[2 ** 16]
    assert 8 < ratio < 32  # ideal: 16x for a 16x size increase
    # The paper's headline point — 256 KB is sub-second — is a
    # Raspberry Pi 3B figure, so it is checked on the Pi model (within
    # 2x of the 0.373 s anchor), not on the host's speed.
    modelled = {p.message_bytes: p.modelled_rpi_seconds for p in points}
    assert modelled[2 ** 18] < 1.0
    assert 0.5 < modelled[2 ** 18] / PAPER_FIG10_ANCHORS[2 ** 18] < 2.0


def test_bench_fig10_256kb_point(benchmark):
    """The paper's headline 256 KB encryption, timed for real."""
    cipher = aes.AES(_KEY)

    def encrypt():
        return aes.ctr_encrypt(cipher, b"benchnon", _MESSAGE_256K)

    ciphertext = benchmark(encrypt)
    assert len(ciphertext) == len(_MESSAGE_256K)


def test_bench_fig10_roundtrip_integrity(benchmark):
    """Encrypt+decrypt at 64 KB — the cost a device pays per reading
    batch plus what the consumer pays to read it back."""
    cipher = aes.AES(_KEY)
    message = bytes(65536)

    def roundtrip():
        ciphertext = aes.ctr_encrypt(cipher, b"nonce-rt", message)
        return aes.ctr_decrypt(cipher, b"nonce-rt", ciphertext)

    result = benchmark(roundtrip)
    assert result == message
