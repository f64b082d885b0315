"""Message and link models for the simulated IoT network.

Wireless sensors talk to gateways over links with latency, jitter and
loss; gateways talk to each other over a faster, more reliable
backbone.  :class:`LatencyModel` captures one link class; the
:class:`~repro.network.network.Network` assigns a model per node pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Message",
    "LatencyModel",
    "LinkOverlay",
    "WIRELESS_SENSOR_LINK",
    "BACKBONE_LINK",
    "LOCAL_LINK",
]


@dataclass(slots=True)
class Message:
    """One network message between two simulated nodes.

    ``body`` is any Python object (transactions, protocol records);
    ``size_bytes`` drives transmission-delay accounting where relevant.

    Slotted and not frozen: a frozen dataclass's ``__init__`` pays one
    ``object.__setattr__`` per field, and a message is built for every
    decoded frame and every send.  Nothing mutates a message once it is
    routed.

    ``message_id`` is allocated by the *transport* that routes the
    message (each :class:`~repro.network.network.Network` or
    :class:`~repro.network.aio.AsyncioTransport` keeps its own
    monotonically increasing counter), so two deployments in one
    process each see the deterministic sequence 1, 2, 3, …  A bare
    ``Message(...)`` constructed outside a transport carries id 0.

    ``trace`` is *out-of-band envelope metadata*: the sender's ambient
    :class:`~repro.telemetry.tracer.TraceContext`, stamped by
    :meth:`Network.send` and restored around delivery.  It never enters
    a transaction wire encoding (``body`` and the codecs are
    untouched), so golden wire-format pins are unaffected; it is
    excluded from equality.  The TCP frame codec carries it as a header
    extension (see :mod:`repro.network.frame`).
    """

    sender: str
    recipient: str
    kind: str
    body: Any
    sent_at: float
    size_bytes: int = 0
    message_id: int = 0
    trace: Any = field(default=None, compare=False)

    def __repr__(self) -> str:
        return (
            f"Message({self.kind!r}, {self.sender} -> {self.recipient}, "
            f"t={self.sent_at:.3f})"
        )


@dataclass(frozen=True)
class LatencyModel:
    """Propagation model for one link class.

    Attributes:
        base_latency: fixed one-way delay in seconds.
        jitter: uniform extra delay in [0, jitter].
        loss_rate: probability a message is silently dropped.
        bandwidth_bytes_per_second: when positive, adds a size-dependent
            transmission delay.
    """

    base_latency: float = 0.01
    jitter: float = 0.0
    loss_rate: float = 0.0
    bandwidth_bytes_per_second: float = 0.0

    def __post_init__(self):
        if self.base_latency < 0 or self.jitter < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.bandwidth_bytes_per_second < 0:
            raise ValueError("bandwidth must be non-negative")

    def sample_delay(self, rng: random.Random, size_bytes: int = 0) -> Optional[float]:
        """One-way delay for a message, or None when the link drops it."""
        if self.loss_rate > 0.0 and rng.random() < self.loss_rate:
            return None
        delay = self.base_latency
        if self.jitter > 0.0:
            delay += rng.uniform(0.0, self.jitter)
        if self.bandwidth_bytes_per_second > 0.0 and size_bytes > 0:
            delay += size_bytes / self.bandwidth_bytes_per_second
        return delay


@dataclass(frozen=True)
class LinkOverlay:
    """A transient disturbance stacked on top of a link's base model.

    Fault-injection campaigns degrade links without touching the
    configured :class:`LatencyModel`: an overlay adds loss, delay,
    jitter (which reorders traffic) and probabilistic duplication, and
    is removed wholesale when the fault heals.

    Attributes:
        extra_loss: additional independent drop probability.
        extra_latency: fixed extra one-way delay in seconds.
        extra_jitter: uniform extra delay in [0, extra_jitter] — large
            values reorder messages relative to their send order.
        duplicate_probability: chance the message is delivered twice
            (the copy takes an independently jittered path).
    """

    extra_loss: float = 0.0
    extra_latency: float = 0.0
    extra_jitter: float = 0.0
    duplicate_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.extra_loss < 1.0:
            raise ValueError("extra_loss must be in [0, 1)")
        if self.extra_latency < 0 or self.extra_jitter < 0:
            raise ValueError("overlay delays must be non-negative")
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ValueError("duplicate_probability must be in [0, 1)")


WIRELESS_SENSOR_LINK = LatencyModel(
    base_latency=0.02, jitter=0.03, loss_rate=0.01,
    bandwidth_bytes_per_second=250_000.0,
)
"""Sensor-to-gateway 802.15.4-class wireless link."""

BACKBONE_LINK = LatencyModel(
    base_latency=0.005, jitter=0.002, loss_rate=0.0,
    bandwidth_bytes_per_second=12_500_000.0,
)
"""Gateway-to-gateway wired backbone."""

LOCAL_LINK = LatencyModel(base_latency=0.0, jitter=0.0, loss_rate=0.0)
"""Zero-cost link for single-host tests."""
