"""Convergence verdicts and canonical state hashing.

A chaos run ends with the question the paper's availability claim
hinges on: after every fault healed, do the replicas agree?  This
module answers it with content hashes — three per full node:

* ``tangle`` — SHA-256 over the sorted transaction hashes (DAG
  membership; parent links are already bound into each tx hash);
* ``ledger`` — canonical JSON of the token ledger's exported state
  (balances + spent slots, conflict arbitration included);
* ``acl`` — canonical JSON of the authorisation list's exported state.

Replicas converged iff all three hashes match across every honest full
node.  The :class:`ConvergenceReport` wraps the verdict with the
campaign's audit trail and counters, and serialises to canonical JSON
(sorted keys, no wall-clock timestamps) so two runs with the same seed
produce byte-identical reports — the property the ``chaos-smoke`` CI
job diffs for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ConvergenceReport",
    "tangle_hash",
    "ledger_hash",
    "acl_hash",
    "credit_hash",
    "node_state_hashes",
    "canonical_json",
]


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, minimal separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def tangle_hash(tangle) -> str:
    """Content hash of DAG membership.

    Sorted tx hashes suffice: each transaction hash already commits to
    its parents, payload and issuer, so equal sets imply equal DAGs.
    """
    digest = hashlib.sha256()
    for tx_hash in sorted(tx.tx_hash for tx in tangle):
        digest.update(tx_hash)
    return digest.hexdigest()


def ledger_hash(ledger) -> str:
    """Content hash of token balances and spent slots."""
    return hashlib.sha256(
        canonical_json(ledger.export_state()).encode()).hexdigest()


def acl_hash(acl) -> str:
    """Content hash of the authorisation list."""
    return hashlib.sha256(
        canonical_json(acl.export_state()).encode()).hexdigest()


def credit_hash(registry, *, now: float) -> str:
    """Content hash of a credit registry's behaviour histories.

    The export is windowed to *now* (records older than ΔT drop out),
    so comparisons are only meaningful between registries read at the
    same ledger time — which is exactly what the differential harnesses
    (:mod:`repro.harness`) do.  Only part of :func:`node_state_hashes`
    on request: credit is a per-replica *estimate* under faults, but
    must be an exact match across a crash/restore of a single node.
    """
    return hashlib.sha256(
        canonical_json(registry.export_state(now=now)).encode()).hexdigest()


def node_state_hashes(node, *,
                      credit_now: Optional[float] = None) -> Dict[str, str]:
    """The three per-replica hashes for one full node — plus the
    ``credit`` hash, read at ledger time *credit_now*, when one is
    given (the four-hash form every differential compares)."""
    hashes = {
        "tangle": tangle_hash(node.tangle),
        "ledger": ledger_hash(node.ledger),
        "acl": acl_hash(node.acl),
    }
    if credit_now is not None:
        hashes["credit"] = credit_hash(node.consensus.registry,
                                       now=credit_now)
    return hashes


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
        node_hashes = {node.address: node_state_hashes(node)
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

    @property
    def reference_hashes(self) -> Dict[str, str]:
        """The agreed hashes (only meaningful when converged)."""
        if not self.node_hashes:
            return {}
        return next(iter(sorted(self.node_hashes.items())))[1]

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
