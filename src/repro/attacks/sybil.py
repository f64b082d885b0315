"""The Sybil attacker (threat model, Section III).

"There may exist evil nodes, which pretend multiple identities
illegitimately, attempts to control most nodes in the network."

:class:`SybilAttacker` fabricates a swarm of fresh identities — none of
which the manager ever authorised — and has each of them hammer a
gateway with tip requests and forged submissions.  The defence under
test is the on-ledger authorisation list (Section VI-C): gateways
"decline to provide services for unauthorized IoT devices", so every
Sybil request dies at the ACL check and never reaches the tangle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..crypto.keys import KeyPair
from ..network.network import NetworkNode
from ..network.transport import Message
from ..tangle.transaction import Transaction, TransactionKind, ZERO_HASH

__all__ = ["SybilAttacker", "SybilStats"]


@dataclass
class SybilStats:
    """What the Sybil swarm achieved (ideally: nothing)."""

    identities: int = 0
    tip_requests_sent: int = 0
    tips_granted: int = 0
    tips_refused: int = 0
    submissions_sent: int = 0
    submissions_accepted: int = 0
    submissions_rejected: int = 0


class SybilAttacker(NetworkNode):
    """A single host wielding many fake identities.

    Args:
        address: network address.
        gateway: victim gateway address.
        identity_count: how many Sybil identities to fabricate.
        request_interval: seconds between request bursts.
    """

    def __init__(self, address: str, *, gateway: str,
                 identity_count: int = 10,
                 request_interval: float = 1.0,
                 rng: Optional[random.Random] = None,
                 seed: int = 0):
        super().__init__(address)
        if identity_count < 1:
            raise ValueError("need at least one Sybil identity")
        self.gateway = gateway
        self.request_interval = request_interval
        self.rng = rng if rng is not None else random.Random()
        self.identities: List[KeyPair] = [
            KeyPair.generate(seed=f"sybil:{seed}:{i}".encode())
            for i in range(identity_count)
        ]
        self.stats = SybilStats(identities=identity_count)
        self._running = False
        self._request_counter = 0

    @property
    def _scheduler(self):
        return self.network.scheduler

    def start(self, *, initial_delay: float = 0.0) -> None:
        self._running = True
        self._scheduler.schedule(initial_delay, self._burst)

    def stop(self) -> None:
        self._running = False

    def _burst(self) -> None:
        """One burst: every identity requests tips and pushes a forged
        transaction (parents guessed as zero — gateways never get that
        far once the ACL check fires)."""
        if not self._running:
            return
        now = self._now()
        for identity in self.identities:
            self._request_counter += 1
            self.stats.tip_requests_sent += 1
            self.send(self.gateway, "get_tips_request", {
                "request_id": self._request_counter,
                "node_id": identity.node_id,
            })
            forged = Transaction.create(
                identity,
                kind=TransactionKind.DATA,
                payload=b"sybil-noise",
                timestamp=now,
                branch=ZERO_HASH,
                trunk=ZERO_HASH,
                difficulty=1,
            )
            self._request_counter += 1
            self.stats.submissions_sent += 1
            encoded = forged.to_bytes()
            self.send(self.gateway, "submit_transaction", {
                "request_id": self._request_counter,
                "transaction": encoded,
            }, size_bytes=len(encoded))
        self._scheduler.schedule(self.request_interval, self._burst)

    def handle_message(self, message: Message) -> None:
        if message.kind == "get_tips_response":
            if message.body.get("ok"):
                self.stats.tips_granted += 1
            else:
                self.stats.tips_refused += 1
        elif message.kind == "submit_response":
            if message.body.get("ok"):
                self.stats.submissions_accepted += 1
            else:
                self.stats.submissions_rejected += 1
