"""Reusable workload generators for throughput/latency experiments.

The DAG-vs-chain comparison (Ext-1), the confirmation-latency sweep
(Ext-6) and the ``dag_vs_chain`` example all need the same substrate: a
fleet of devices growing one tangle *in parallel*, each paying real
simulated PoW time on its own clock.  :func:`grow_parallel_tangle`
implements it once; :func:`confirmation_times` computes the
time-to-cumulative-weight metric over the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..crypto.keys import KeyPair
from ..devices.clock import SimulatedClock
from ..devices.profiles import RASPBERRY_PI_3B, DeviceProfile
from ..pow.engine import PowEngine
from ..tangle.tangle import Tangle
from ..tangle.tip_selection import TipSelector, UniformRandomTipSelector
from ..tangle.transaction import Transaction

__all__ = ["ParallelGrowth", "grow_parallel_tangle", "confirmation_times"]


@dataclass
class ParallelGrowth:
    """Outcome of one parallel-growth run.

    Attributes:
        tangle: the grown ledger.
        attach_times: transaction hash -> simulated attach time.
        makespan: when the slowest device finished (the fleet works
            concurrently, so this is the wall-clock analogue).
    """

    tangle: Tangle
    attach_times: Dict[bytes, float]
    makespan: float

    @property
    def transaction_count(self) -> int:
        return len(self.attach_times)

    @property
    def throughput(self) -> float:
        """Attached transactions per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return self.transaction_count / self.makespan


def grow_parallel_tangle(*, device_count: int, tx_per_device: int,
                         difficulty: int, seed: int,
                         profile: DeviceProfile = RASPBERRY_PI_3B,
                         selector: Optional[TipSelector] = None) -> ParallelGrowth:
    """Grow a tangle with *device_count* devices working concurrently.

    Each device owns its own clock and PoW engine; the global
    interleaving always advances the device whose clock is furthest
    behind — exactly how the concurrent execution would unfold, without
    a full network simulation.
    """
    if device_count < 1 or tx_per_device < 1:
        raise ValueError("need at least one device and one transaction")
    manager = KeyPair.generate(seed=f"workload-mgr-{seed}".encode())
    tangle = Tangle(Transaction.create_genesis(manager))
    selector = selector if selector is not None else UniformRandomTipSelector()
    rng = random.Random(seed)
    states = []
    for index in range(device_count):
        clock = SimulatedClock()
        states.append({
            "keys": KeyPair.generate(seed=f"workload-dev-{index}".encode()),
            "clock": clock,
            "engine": PowEngine(profile, clock,
                                rng=random.Random(seed * 1009 + index)),
            "remaining": tx_per_device,
            "index": index,
        })
    attach_times: Dict[bytes, float] = {}
    while any(state["remaining"] for state in states):
        state = min((s for s in states if s["remaining"]),
                    key=lambda s: s["clock"].now())
        branch, trunk = selector.select(tangle, rng)
        draft = Transaction(
            kind="data", issuer=state["keys"].public,
            payload=f'{state["index"]}-{state["remaining"]}'.encode(),
            timestamp=state["clock"].now(), branch=branch, trunk=trunk,
            difficulty=difficulty, nonce=0, signature=b"",
        )
        result = state["engine"].solve(draft.pow_challenge, difficulty)
        tx = Transaction.create(
            state["keys"], kind=draft.kind, payload=draft.payload,
            timestamp=draft.timestamp, branch=draft.branch,
            trunk=draft.trunk, difficulty=difficulty,
            nonce=result.proof.nonce,
        )
        tangle.attach(tx, arrival_time=result.finished_at)
        attach_times[tx.tx_hash] = result.finished_at
        state["remaining"] -= 1
    return ParallelGrowth(
        tangle=tangle,
        attach_times=attach_times,
        makespan=max(s["clock"].now() for s in states),
    )


def confirmation_times(growth: ParallelGrowth, *,
                       threshold: int = 6) -> List[float]:
    """Per-transaction time from attach to cumulative weight *threshold*.

    Transactions never buried deeply enough within the run are skipped
    (the trailing tips of any finite experiment).
    """
    if threshold < 2:
        raise ValueError("threshold must be >= 2 (weight 1 is the tx itself)")
    tangle = growth.tangle
    attach_times = growth.attach_times
    latencies: List[float] = []
    for tx_hash, attached_at in attach_times.items():
        if tangle.weight(tx_hash) < threshold:
            continue
        descendant_times = sorted(
            attach_times[other] for other in attach_times
            if tx_hash in tangle.ancestors(other)
        )
        confirmed_at = descendant_times[threshold - 2]
        latencies.append(max(0.0, confirmed_at - attached_at))
    return latencies
