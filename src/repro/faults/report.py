"""Convergence verdicts for chaos campaigns.

A chaos run ends with the question the paper's availability claim
hinges on: after every fault healed, do the replicas agree?  This
module answers it with each full node's replica hashes
(:meth:`~repro.nodes.replica.Replica.state_hashes`: ``tangle``,
``ledger``, ``acl``).

Replicas converged iff all three hashes match across every honest full
node.  The :class:`ConvergenceReport` wraps the verdict with the
campaign's audit trail and counters, and serialises to canonical JSON
(sorted keys, no wall-clock timestamps) so two runs with the same seed
produce byte-identical reports — the property the ``chaos-smoke`` CI
job diffs for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..nodes.replica import canonical_json, credit_hash

__all__ = [
    "ConvergenceReport",
    "credit_hash",
    "node_state_hashes",
    "canonical_json",
]


def node_state_hashes(node, *,
                      credit_now: Optional[float] = None) -> Dict[str, str]:
    """``node.replica.state_hashes(credit_now)``, under the name callers
    that predate :class:`~repro.nodes.replica.Replica` use."""
    return node.replica.state_hashes(credit_now)


def _all_equal(values: List[str]) -> bool:
    return len(set(values)) <= 1


@dataclass
class ConvergenceReport:
    """The outcome of one chaos campaign.

    Every field is plain data; :meth:`to_json` is canonical so reports
    are byte-comparable across runs of the same (scenario, seed).
    """

    scenario: str
    seed: int
    converged: bool
    sync_rounds_used: int
    duration: float
    recovery_seconds: float = 0.0
    node_hashes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    tangle_sizes: Dict[str, int] = field(default_factory=dict)
    node_health: Dict[str, Dict[str, object]] = field(default_factory=dict)
    plan: List[Dict[str, object]] = field(default_factory=list)
    injections: List[Tuple[float, str, str]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @classmethod
    def from_nodes(cls, *, scenario: str, seed: int, nodes,
                   sync_rounds_used: int, duration: float,
                   recovery_seconds: float = 0.0,
                   plan=None, injections=(), counters=None,
                   notes=()) -> "ConvergenceReport":
        """Build the report (and the verdict) from live full nodes."""
        node_hashes = {node.address: node.replica.state_hashes()
                       for node in nodes}
        converged = bool(node_hashes) and all(
            _all_equal([hashes[key] for hashes in node_hashes.values()])
            for key in ("tangle", "ledger", "acl")
        )
        return cls(
            scenario=scenario,
            seed=seed,
            converged=converged,
            sync_rounds_used=sync_rounds_used,
            duration=duration,
            recovery_seconds=recovery_seconds,
            node_hashes=node_hashes,
            tangle_sizes={node.address: len(node.tangle) for node in nodes},
            node_health={node.address: node.health_digest()
                         for node in nodes},
            plan=list(plan) if plan is not None else [],
            injections=[list(entry) for entry in injections],
            counters=dict(counters or {}),
            notes=list(notes),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "converged": self.converged,
            "sync_rounds_used": self.sync_rounds_used,
            "duration": self.duration,
            "recovery_seconds": self.recovery_seconds,
            "node_hashes": self.node_hashes,
            "tangle_sizes": self.tangle_sizes,
            "node_health": self.node_health,
            "plan": self.plan,
            "injections": self.injections,
            "counters": self.counters,
            "notes": self.notes,
        }

    def to_json(self, *, indent: int = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)
