"""Device performance profiles: the Raspberry Pi substitution.

The paper evaluates everything on a Raspberry Pi 3B (Quad Core @
1.2 GHz).  We do not have that hardware, so experiments charge costs to
a :class:`DeviceProfile` — hash rate, fixed PoW call overhead, and AES
throughput — and report *simulated* seconds on a
:class:`~repro.devices.clock.SimulatedClock`.

Calibration (documented in DESIGN.md §4): the paper's own PoW anchor
points are single-run samples of a geometric random variable and are
mutually inconsistent, so the ``RASPBERRY_PI_3B`` profile is anchored on
the figure that exercises the *mechanism* (Fig. 9: 0.7 s mean PoW at the
initial difficulty 11):

    0.05 s overhead + 2^11 attempts / 3000 H/s ≈ 0.73 s.

AES throughput is anchored on Fig. 10's 256 KB → 0.373 s point
(≈ 700 KB/s).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceProfile", "RASPBERRY_PI_3B", "PC", "MALICIOUS_RIG", "PROFILES"]


@dataclass(frozen=True)
class DeviceProfile:
    """Performance model of one hardware class.

    Attributes:
        name: human-readable profile name.
        hash_rate: PoW hash attempts per second.
        pow_overhead_s: fixed per-PoW-call cost (serialisation, RPC).
        aes_bytes_per_second: AES encryption throughput.
        signature_seconds: cost of one Ed25519 sign/verify.
        is_full_node_capable: whether the device can store the ledger.
        active_watts: power draw while computing (PoW, AES, signing).
        radio_joules_per_byte: transmit energy per payload byte
            (802.15.4-class radios land around 1–2 µJ/byte).
    """

    name: str
    hash_rate: float
    pow_overhead_s: float
    aes_bytes_per_second: float
    signature_seconds: float
    is_full_node_capable: bool
    active_watts: float = 3.5
    radio_joules_per_byte: float = 1.5e-6

    def __post_init__(self):
        if self.hash_rate <= 0:
            raise ValueError("hash_rate must be positive")
        if self.pow_overhead_s < 0:
            raise ValueError("pow_overhead_s must be non-negative")
        if self.aes_bytes_per_second <= 0:
            raise ValueError("aes_bytes_per_second must be positive")
        if self.signature_seconds < 0:
            raise ValueError("signature_seconds must be non-negative")
        if self.active_watts <= 0:
            raise ValueError("active_watts must be positive")
        if self.radio_joules_per_byte < 0:
            raise ValueError("radio_joules_per_byte must be non-negative")

    def pow_seconds(self, attempts: int) -> float:
        """Simulated time to perform *attempts* hash attempts."""
        if attempts < 0:
            raise ValueError("attempts must be non-negative")
        return self.pow_overhead_s + attempts / self.hash_rate

    def expected_pow_seconds(self, difficulty: int) -> float:
        """Expected PoW time at *difficulty* leading zero bits (2^D tries)."""
        if difficulty < 0:
            raise ValueError("difficulty must be non-negative")
        return self.pow_seconds(2 ** difficulty)

    def aes_seconds(self, message_length: int) -> float:
        """Simulated time to AES-encrypt *message_length* bytes."""
        if message_length < 0:
            raise ValueError("message_length must be non-negative")
        return message_length / self.aes_bytes_per_second

    # -- energy model ------------------------------------------------------

    def compute_energy_joules(self, compute_seconds: float) -> float:
        """Energy for *compute_seconds* of active computation."""
        if compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")
        return compute_seconds * self.active_watts

    def radio_energy_joules(self, payload_bytes: int) -> float:
        """Energy to transmit *payload_bytes* over the device radio."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        return payload_bytes * self.radio_joules_per_byte


RASPBERRY_PI_3B = DeviceProfile(
    name="raspberry-pi-3b",
    hash_rate=3_000.0,
    pow_overhead_s=0.05,
    aes_bytes_per_second=700_000.0,
    signature_seconds=0.004,
    is_full_node_capable=False,
    active_watts=3.7,          # RPi 3B under full CPU load
    radio_joules_per_byte=1.5e-6,
)
"""The paper's evaluation device (light node)."""

PC = DeviceProfile(
    name="pc",
    hash_rate=300_000.0,
    pow_overhead_s=0.002,
    aes_bytes_per_second=80_000_000.0,
    signature_seconds=0.0002,
    is_full_node_capable=True,
    active_watts=65.0,
    radio_joules_per_byte=0.0,  # wired backbone
)
"""The paper's gateway/manager machine (full node)."""

MALICIOUS_RIG = DeviceProfile(
    name="malicious-rig",
    hash_rate=6_000.0,
    pow_overhead_s=0.05,
    aes_bytes_per_second=700_000.0,
    signature_seconds=0.004,
    is_full_node_capable=False,
    active_watts=7.4,           # twice the Pi's compute, twice the draw
    radio_joules_per_byte=1.5e-6,
)
"""Attacker hardware: the threat model assumes computation capability
"close to IoT devices in the system" (Section III); we grant a 2x edge."""

PROFILES = {
    profile.name: profile for profile in (RASPBERRY_PI_3B, PC, MALICIOUS_RIG)
}
"""Registry of built-in profiles, keyed by name."""
