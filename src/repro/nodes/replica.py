"""The replicated state of one full node, and the one fold that grows it.

A :class:`Replica` owns what every gateway must agree on and changes it
only in :meth:`Replica.apply`, through which submissions, gossip, sync,
solidification releases and journal replay all fold; the
:class:`~repro.nodes.full_node.FullNode` shell decides when to fold and
what to tell the network afterwards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.acl import AuthorizationList, GenesisConfig
from ..core.consensus import CreditBasedConsensus
from ..core.credit import MaliciousBehaviour
from ..tangle.errors import ValidationError
from ..tangle.ledger import TokenLedger
from ..tangle.tangle import AttachResult, Tangle
from ..tangle.transaction import Transaction, TransactionKind
from ..tangle.validation import PreverifiedSet, crypto_validator

__all__ = ["Outcome", "Replica", "canonical_json", "credit_hash"]


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, minimal separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_hash(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def credit_hash(registry, *, now: float) -> str:
    """Content hash of a credit registry's behaviour histories, windowed
    to ledger time *now* (records older than ΔT drop out)."""
    return _json_hash(registry.export_state(now=now))


@dataclass(frozen=True)
class Outcome:
    """What folding one transaction did: admission's verdict, the attach
    result (None if it did not attach), a transfer's ledger result, the
    :class:`~repro.core.credit.MaliciousBehaviour` kinds charged, and
    whether it entered credit history.  ``verdict`` is None when it
    attached and its effect stands, else what a submitter is told;
    ``error``, the exception behind a refusal or a voided effect, is
    left out of equality so a replayed fold equals the live one."""

    admitted: bool = True
    attach: Optional[AttachResult] = None
    ledger: Optional[str] = None
    penalties: Tuple[str, ...] = ()
    observed: bool = False
    verdict: Optional[str] = None
    error: Optional[ValidationError] = field(default=None, compare=False)

    @property
    def accepted(self) -> bool:
        return self.attach is not None and self.verdict is None


class Replica:
    """Tangle, ACL, token ledger and credit state of one full node.

    *origin* is the shared genesis transaction, or an
    :class:`~repro.storage.checkpoint.EpochSnapshot` to resume from;
    *consensus*'s registry is replaced by the origin's credit state.
    Only the stateless signature and PoW check gates attach: replicas
    hold different subsets of history, so a stateful attach rule would
    let knowledge races fork them.  ACL and credit are admission rules,
    and the ledger arbitrates conflicting transfers after they attach.
    """

    def __init__(self, origin, *,
                 consensus: Optional[CreditBasedConsensus] = None,
                 enforce_pow: bool = True, verification_cache=None,
                 telemetry=None):
        snapshot = None if isinstance(origin, Transaction) else origin
        genesis = origin if snapshot is None else snapshot.tangle.genesis
        self.consensus = consensus if consensus is not None \
            else CreditBasedConsensus()
        # Batch signature verdicts the validator consumes on attach.
        self.preverified = PreverifiedSet()
        validators = [crypto_validator(allow_simulated_pow=not enforce_pow,
                                       cache=verification_cache,
                                       preverified=self.preverified)]
        config = GenesisConfig.from_genesis(genesis)
        self.acl = AuthorizationList(config.manager, config.extra_managers)
        self.ledger = TokenLedger(dict(config.token_allocations))
        if snapshot is None:
            self.tangle = Tangle(genesis, validators=validators,
                                 telemetry=telemetry)
            credit_state = {"nodes": {}}
            self.credit_horizon = -float("inf")
        else:
            self.tangle = snapshot.tangle.restore(validators=validators,
                                                  telemetry=telemetry)
            self.acl.import_state(snapshot.acl_state)
            self.ledger.import_state(snapshot.ledger_state)
            # Reversal payloads are not part of the ledger state; rebuild
            # them so conflicts spanning the snapshot arbitrate exactly.
            self.ledger.rehydrate(tx for tx, _ in snapshot.tangle.retained)
            credit_state = snapshot.credit_state
            # The snapshot's credit state already counts its history.
            self.credit_horizon = snapshot.created_at
        self.consensus.bind_tangle(self.tangle)
        self.consensus.registry.import_state(credit_state)

    def apply(self, tx: Transaction, arrival: float, *,
              admit: bool) -> Outcome:
        """Fold *tx*, arrived at local time *arrival*, into the state.

        *admit* (True on the service boundary, False for peer traffic
        and journal replay) first checks that the issuer is "authorized
        by the manager" and met its credit-required difficulty.  The
        attach enters credit history unless stamped at or before the
        credit horizon; then its ledger or ACL effect applies.  No I/O.
        """
        if admit:
            try:
                self.acl.validator(self.tangle, tx)
                self.consensus.validator(self.tangle, tx)
            except ValidationError as exc:
                return Outcome(admitted=False, verdict=str(exc), error=exc)
        try:
            result = self.tangle.attach(tx, arrival_time=arrival)
        except ValidationError as exc:
            return Outcome(verdict=str(exc), error=exc)

        penalties = []
        observed = tx.timestamp > self.credit_horizon
        if observed and self.consensus.observe_attach(result):
            penalties.append(MaliciousBehaviour.LAZY_TIPS)
        ledger = verdict = error = None
        try:
            if tx.kind == TransactionKind.TRANSFER:
                ledger = self.ledger.apply_or_conflict(tx, now=arrival)
            elif tx.kind == TransactionKind.ACL:
                self.acl.apply(tx)
        except ValidationError as exc:
            verdict, error = str(exc), exc
        if ledger in ("conflict-rejected", "conflict-replaced"):
            # Attribute at the ledger timestamp so every replica
            # derives the same credit penalty for the same conflict.
            self.consensus.report_double_spend(tx.issuer.node_id,
                                               tx.timestamp)
            penalties.append(MaliciousBehaviour.DOUBLE_SPENDING)
            verdict = "double-spend conflict (transfer canceled)"
        elif ledger == "insufficient":
            verdict = "insufficient funds (transfer void)"
        return Outcome(attach=result, ledger=ledger,
                       penalties=tuple(penalties), observed=observed,
                       verdict=verdict, error=error)

    def state_hashes(self, credit_now: Optional[float] = None
                     ) -> Dict[str, str]:
        """Content hashes of the state: ``tangle`` over the sorted
        transaction hashes (each commits to its parents, payload and
        issuer, so equal sets are equal DAGs), ``ledger`` and ``acl``
        over their exported state, and ``credit`` (:func:`credit_hash`)
        at ledger time *credit_now* when given — credit is a per-replica
        estimate under faults, exact only across one node's restore."""
        tangle = hashlib.sha256()
        for tx_hash in sorted(tx.tx_hash for tx in self.tangle):
            tangle.update(tx_hash)
        hashes = {
            "tangle": tangle.hexdigest(),
            "ledger": _json_hash(self.ledger.export_state()),
            "acl": _json_hash(self.acl.export_state()),
        }
        if credit_now is not None:
            hashes["credit"] = credit_hash(self.consensus.registry,
                                           now=credit_now)
        return hashes

    def snapshot(self, now: float, *, keep_recent_seconds: float = 60.0,
                 min_weight_to_prune: int = 5):
        """This state as an epoch-0 :class:`~repro.storage.checkpoint.
        EpochSnapshot`: the pruned tangle plus ACL, ledger and credit
        state, the origin of a resumed replica."""
        from ..storage.checkpoint import EpochSnapshot
        from ..tangle.snapshot import take_snapshot

        return EpochSnapshot(
            created_at=now,
            tangle=take_snapshot(
                self.tangle, now=now,
                keep_recent_seconds=keep_recent_seconds,
                min_weight_to_prune=min_weight_to_prune),
            acl_state=self.acl.export_state(),
            ledger_state=self.ledger.export_state(),
            credit_state=self.consensus.registry.export_state(now=now),
        )
