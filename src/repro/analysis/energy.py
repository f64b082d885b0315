"""Per-device energy accounting.

The paper's core motivation is power: "blockchains are power-intensive
... which may not [be] suitable for power-constrained IoT devices", and
the credit mechanism "decreases power consumption for honest nodes".
This module turns the simulation's compute/transmit statistics into
joules via the :class:`~repro.devices.profiles.DeviceProfile` energy
model, so that claim can be measured (bench Ext-5).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..devices.profiles import DeviceProfile
from ..nodes.light_node import LightNodeStats

__all__ = ["EnergyBreakdown", "energy_for_stats", "energy_per_transaction"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules a device spent, by cause."""

    pow_joules: float
    aes_joules: float
    signature_joules: float
    radio_joules: float

    @property
    def total_joules(self) -> float:
        return (self.pow_joules + self.aes_joules
                + self.signature_joules + self.radio_joules)


def energy_for_stats(profile: DeviceProfile, stats: LightNodeStats, *,
                     mean_payload_bytes: float = 256.0) -> EnergyBreakdown:
    """Convert a light node's accumulated statistics into energy.

    Radio energy is estimated from ``mean_payload_bytes`` per submitted
    transaction (the simulator tracks per-message sizes at the network
    layer; per-device byte totals are approximated here).
    """
    pow_joules = profile.compute_energy_joules(stats.pow_seconds_total)
    aes_joules = profile.compute_energy_joules(stats.aes_seconds_total)
    signature_joules = profile.compute_energy_joules(
        stats.submissions_sent * profile.signature_seconds
    )
    radio_joules = profile.radio_energy_joules(
        int(stats.submissions_sent * mean_payload_bytes)
    )
    return EnergyBreakdown(
        pow_joules=pow_joules,
        aes_joules=aes_joules,
        signature_joules=signature_joules,
        radio_joules=radio_joules,
    )


def energy_per_transaction(profile: DeviceProfile,
                           mean_pow_seconds: float, *,
                           payload_bytes: int = 256,
                           encrypts: bool = False) -> float:
    """Joules one transaction costs a device, given its mean PoW time.

    Used by the Fig. 9 → energy translation (Ext-5): the dominant term
    is PoW compute; AES and radio are added when applicable.
    """
    if mean_pow_seconds < 0:
        raise ValueError("mean_pow_seconds must be non-negative")
    joules = profile.compute_energy_joules(
        mean_pow_seconds + profile.signature_seconds
    )
    if encrypts:
        joules += profile.compute_energy_joules(
            profile.aes_seconds(payload_bytes)
        )
    joules += profile.radio_energy_joules(payload_bytes)
    return joules
