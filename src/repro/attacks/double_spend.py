"""The double-spending attacker (threat model, Section III).

"A malicious node wants to spend the same token twice or more through
submitting multiple transactions before the previous one is verified."

:class:`DoubleSpendAttacker` is an *authorised* device (Sybil defence
does not apply to it) holding a token balance.  On each attack round it
builds two transfers that reuse the same sequence number with different
recipients, then submits one to each of two gateways nearly
simultaneously, racing the gossip layer.  Both versions attach on
every replica; whichever arrives first, the ledger
(:meth:`~repro.tangle.ledger.TokenLedger.apply_or_conflict`) gives the
slot to the one with the lower transaction hash, voids the other's
effect, and reports the conflict to the credit mechanism (αd = 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..crypto.keys import KeyPair, PublicIdentity
from ..devices.profiles import MALICIOUS_RIG, DeviceProfile
from ..network.network import NetworkNode
from ..network.transport import Message
from ..pow.engine import PowEngine
from ..tangle.ledger import TransferPayload
from ..tangle.transaction import Transaction, TransactionKind

__all__ = ["DoubleSpendAttacker", "DoubleSpendStats"]


@dataclass
class DoubleSpendStats:
    """Outcome ledger of the attack campaign."""

    rounds_started: int = 0
    submissions_sent: int = 0
    accepted: int = 0
    rejected: int = 0
    pow_seconds_total: float = 0.0
    assigned_difficulties: List[int] = field(default_factory=list)


class DoubleSpendAttacker(NetworkNode):
    """Submits conflicting transfers to two gateways at once.

    Args:
        address: network address.
        keypair: the attacker's (authorised) account.
        gateways: two or more gateway addresses to race against.
        recipients: identities receiving the conflicting payments.
        amount: tokens moved per transfer.
        profile: attacker hardware (defaults to
            :data:`~repro.devices.profiles.MALICIOUS_RIG`).
        attack_interval: seconds between attack rounds.
    """

    def __init__(self, address: str, keypair: KeyPair, *,
                 gateways: List[str], recipients: List[PublicIdentity],
                 amount: int = 1, profile: DeviceProfile = MALICIOUS_RIG,
                 attack_interval: float = 10.0,
                 rng: Optional[random.Random] = None):
        super().__init__(address)
        if len(gateways) < 2:
            raise ValueError("double spending needs at least two gateways")
        if len(recipients) < 2:
            raise ValueError("need two distinct recipients")
        self.keypair = keypair
        self.gateways = list(gateways)
        self.recipients = list(recipients)
        self.amount = amount
        self.profile = profile
        self.attack_interval = attack_interval
        self.rng = rng if rng is not None else random.Random()
        self.stats = DoubleSpendStats()
        self.engine: Optional[PowEngine] = None
        self._sequence = 0
        self._request_counter = 0
        self._pending: Dict[int, Dict] = {}
        self._running = False

    def bind(self, network) -> None:
        super().bind(network)
        self.engine = PowEngine(
            self.profile, network.scheduler.clock,
            rng=self.rng, advance_clock=False,
        )

    @property
    def _scheduler(self):
        return self.network.scheduler

    def start(self, *, initial_delay: float = 0.0) -> None:
        self._running = True
        self._scheduler.schedule(initial_delay, self._attack_round)

    def stop(self) -> None:
        self._running = False

    # -- attack round ------------------------------------------------------

    def _attack_round(self) -> None:
        if not self._running:
            return
        self.stats.rounds_started += 1
        request_id = self._next_request_id()
        self._pending[request_id] = {"stage": "tips"}
        self.send(self.gateways[0], "get_tips_request", {
            "request_id": request_id,
            "node_id": self.keypair.node_id,
        })

    def handle_message(self, message: Message) -> None:
        if message.kind == "get_tips_response":
            self._handle_tips(message)
        elif message.kind == "submit_response":
            self._handle_submit_response(message)

    def _handle_tips(self, message: Message) -> None:
        body = message.body
        context = self._pending.pop(body.get("request_id"), None)
        if context is None:
            return
        if not body.get("ok"):
            self._schedule_next_round()
            return
        self._forge_and_race(body["branch"], body["trunk"], body["difficulty"])

    def _forge_and_race(self, branch: bytes, trunk: bytes,
                        difficulty: int) -> None:
        """Build the two conflicting transfers and race them out."""
        sequence = self._sequence
        self._sequence += 1
        self.stats.assigned_difficulties.append(difficulty)
        total_compute = 0.0
        transactions = []
        for recipient in self.recipients[:2]:
            payload = TransferPayload(
                sender=self.keypair.node_id,
                recipient=recipient.node_id,
                amount=self.amount,
                sequence=sequence,
            )
            draft = Transaction(
                kind=TransactionKind.TRANSFER,
                issuer=self.keypair.public,
                payload=payload.to_bytes(),
                timestamp=self._now(),
                branch=branch,
                trunk=trunk,
                difficulty=difficulty,
                nonce=0,
                signature=b"",
            )
            result = self.engine.solve(draft.pow_challenge, difficulty)
            total_compute += result.elapsed_seconds
            self.stats.pow_seconds_total += result.elapsed_seconds
            tx = Transaction.create(
                self.keypair,
                kind=draft.kind,
                payload=draft.payload,
                timestamp=draft.timestamp,
                branch=draft.branch,
                trunk=draft.trunk,
                difficulty=draft.difficulty,
                nonce=result.proof.nonce,
            )
            transactions.append(tx)

        def launch():
            for gateway, tx in zip(self.gateways, transactions):
                request_id = self._next_request_id()
                self._pending[request_id] = {"stage": "submit"}
                encoded = tx.to_bytes()
                self.stats.submissions_sent += 1
                self.send(gateway, "submit_transaction", {
                    "request_id": request_id,
                    "transaction": encoded,
                }, size_bytes=len(encoded))

        # Both PoWs must finish before either conflicting copy launches.
        self._scheduler.schedule(total_compute, launch)

    def _handle_submit_response(self, message: Message) -> None:
        body = message.body
        context = self._pending.pop(body.get("request_id"), None)
        if context is None:
            return
        if body.get("ok"):
            self.stats.accepted += 1
        else:
            self.stats.rejected += 1
        if not self._pending:
            self._schedule_next_round()

    def _schedule_next_round(self) -> None:
        if self._running:
            self._scheduler.schedule(self.attack_interval, self._attack_round)

    def _next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter
