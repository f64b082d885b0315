"""The one seeded workload builder every differential drives.

A differential is only as auditable as its transaction stream, so the
stream is generated in exactly one place.  :class:`WorkloadBuilder`
owns what used to be re-declared per harness — the seeded keys, the
genesis with its token grants, the reference :class:`~repro.nodes.
replica.Replica` and the ``issue()`` primitive — and
:func:`build_workload` pre-generates, on top of it, the byte streams
the sim≡wire, process and scale legs only *deliver*.

Making "every replica ends in the reference's state" a meaningful
equality needs a workload whose final state is a pure function of the
transaction **set**, independent of arrival order — the properties the
state machine already guarantees:

* credit records key on ``tx.timestamp`` (ledger time), never local
  arrival time, and lazy detection uses parent *timestamp* ages;
* ledger conflict arbitration is deterministic (lowest hash wins), and
  :func:`build_workload` contains no double-spends, whose *penalties*
  are the one arrival-order-dependent effect;
* with ``InverseDifficultyPolicy(initial_difficulty=1)`` and no
  penalties the credit-required difficulty is always exactly 1, so
  admission cannot depend on which subset of history a node has seen.

The storage differential is the exception on purpose: it is adversarial
and interactive (double-spends, lazy parents, kill points interleaved
with generation), so it keeps its own action loop and drives the
builder's primitives directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.acl import AclAction, AuthorizationList
from ..crypto.keys import KeyPair
from ..network.proc import node_consensus
from ..nodes.manager import ManagerNode
from ..nodes.replica import Replica
from ..tangle.ledger import TransferPayload
from ..tangle.transaction import Transaction, TransactionKind

__all__ = ["TOKEN_GRANT", "Workload", "WorkloadBuilder", "build_workload"]

TOKEN_GRANT = 500
"""Initial balance of every transacting identity in a workload."""


class WorkloadBuilder:
    """Seeded identities, genesis, a reference replica and ``issue()``.

    Everything is a pure function of ``(label, seed)``: key seeds are
    ``"{label}:{seed}:{role}"`` strings and :attr:`rng` is seeded from
    ``"{label}:{seed}"``.  Callers draw workload decisions from
    :attr:`rng` themselves — the draw order *is* the compatibility
    contract the golden workload test pins.
    """

    def __init__(self, label: str, seed: int, *, devices: int,
                 guests: int = 0):
        def keypair(role: str) -> KeyPair:
            return KeyPair.generate(seed=f"{label}:{seed}:{role}".encode())

        self.rng = random.Random(f"{label}:{seed}")
        self.manager = keypair("manager")
        self.devices = [keypair(f"device:{i}") for i in range(devices)]
        self.guests = [keypair(f"guest:{i}") for i in range(guests)]
        self.genesis = ManagerNode.create_genesis(
            self.manager,
            network_name=f"{label}-{seed}",
            token_allocations=[(keys.node_id, TOKEN_GRANT)
                               for keys in [self.manager] + self.devices],
        )
        # Configured like every ``repro node``'s replica (build_node).
        self.reference = Replica(self.genesis, consensus=node_consensus())

    # -- payloads ----------------------------------------------------------

    @staticmethod
    def acl_payload(identities: Sequence[KeyPair], *,
                    action: str = AclAction.AUTHORIZE) -> bytes:
        return AuthorizationList.make_update(
            [keys.public for keys in identities], action=action).to_bytes()

    def transfer_payload(self, sender: KeyPair, recipient_id: bytes,
                         amount: int, *,
                         sequence: Optional[int] = None) -> TransferPayload:
        """A transfer at the sender's next ledger sequence; an explicit
        (already used) *sequence* makes it a double-spend."""
        if sequence is None:
            sequence = self.reference.ledger.next_sequence(sender.node_id)
        return TransferPayload(sender=sender.node_id, recipient=recipient_id,
                               amount=amount, sequence=sequence)

    def draw_transfer(self, devices: Sequence[KeyPair], *,
                      max_amount: int) -> Tuple[KeyPair, TransferPayload]:
        """Draw sender, recipient and amount (in that order): one of
        *devices* pays another of them or the manager."""
        sender = self.rng.choice(devices)
        recipient = self.rng.choice(
            [keys for keys in [self.manager, *devices]
             if keys.node_id != sender.node_id])
        return sender, self.transfer_payload(
            sender, recipient.node_id, self.rng.randint(1, max_amount))

    # -- issuing -----------------------------------------------------------

    def pick_parents(self, tips: Optional[Sequence[bytes]] = None
                     ) -> Tuple[bytes, bytes]:
        """Draw (branch, trunk) from *tips*, by default the reference's
        live tip set."""
        if tips is None:
            tips = self.reference.tangle.tips()
        return self.rng.choice(tips), self.rng.choice(tips)

    def issue(self, keys: KeyPair, kind: str, payload: bytes,
              parents: Optional[Tuple[bytes, bytes]] = None, *,
              timestamp: float,
              arrival: float = 0.0) -> Tuple[Transaction, bool]:
        """Sign one transaction — real PoW at the difficulty the
        reference's credit state requires of *keys* — and fold it into
        the reference, admission included, at local time *arrival*.
        Returns it with the reference's verdict.

        ``parents=None`` draws from the reference's tips *after* the
        caller's own payload draws.
        """
        branch, trunk = parents if parents is not None \
            else self.pick_parents()
        tx = Transaction.create(
            keys, kind=kind, payload=payload, timestamp=timestamp,
            branch=branch, trunk=trunk,
            difficulty=self.reference.consensus.required_difficulty(
                keys.node_id, timestamp))
        return tx, self.reference.apply(tx, arrival, admit=True).accepted


@dataclass
class Workload:
    """A fully pre-generated, transport-independent scenario.

    ``shards`` holds one byte stream per shard.  Every stream opens
    with the same ACL-authorization transaction (parents: genesis),
    after which its transactions reference only earlier transactions
    of the *same* shard — so N isolated processes can each ingest one
    shard with zero coordination.  ``reference_hashes`` is the state of
    a node that ingested every shard, read at ``credit_now``.
    """

    genesis: Transaction
    shards: List[List[bytes]]
    credit_now: float
    reference_hashes: Dict[str, str]

    @property
    def transactions(self) -> List[bytes]:
        """The stream of an unsharded workload."""
        return self.shards[0]


def build_workload(seed: int, *, transactions: int = 40, shards: int = 1,
                   devices: int = 3) -> Workload:
    """Pre-generate *shards* streams of *transactions* each against the
    reference node (*devices* issuing identities per shard).

    Timestamps come from a virtual clock (0.5 s per transaction, the
    same on every shard), parents from the reference's live tips of the
    shard, and every transaction carries real PoW at difficulty 1 —
    nothing in the bytes depends on wall time or transport scheduling.
    """
    if transactions < 4:
        raise ValueError("workload needs at least 4 transactions per shard")
    if shards < 1 or devices < 1:
        raise ValueError("workload needs >=1 shard and >=1 device per shard")
    builder = WorkloadBuilder("fleet", seed, devices=shards * devices)
    rng = builder.rng

    def issue(keys, kind, payload, parents=None, *, timestamp):
        tx, accepted = builder.issue(keys, kind, payload, parents,
                                     timestamp=timestamp)
        if not accepted:
            raise RuntimeError(
                f"workload reference rejected its own {kind} transaction")
        return tx

    # First transaction: authorize the whole device population, so the
    # legs' admission checks (ACL + credit difficulty) pass for
    # everything that follows and the acl hash is non-trivial.  It is
    # parented on genesis and byte-identical in every shard, so each
    # isolated process admits the same device set.
    acl_tx = issue(builder.manager, TransactionKind.ACL,
                   builder.acl_payload(builder.devices), timestamp=1.0)
    streams = [[acl_tx.to_bytes()] for _ in range(shards)]
    members = [set() for _ in range(shards)]

    for index in range(1, transactions):
        timestamp = 1.0 + 0.5 * index
        for shard in range(shards):
            own = builder.devices[shard * devices:(shard + 1) * devices]
            if rng.random() < 0.4:
                issuer, transfer = builder.draw_transfer(own, max_amount=5)
                kind, payload = TransactionKind.TRANSFER, transfer.to_bytes()
            else:
                issuer = rng.choice(own)
                kind, payload = TransactionKind.DATA, rng.randbytes(16)
            # Parents stay inside the shard: its own tips, or the
            # shared ACL transaction while it has none.
            tips = [tip for tip in builder.reference.tangle.tips()
                    if tip in members[shard]] or [acl_tx.tx_hash]
            tx = issue(issuer, kind, payload, builder.pick_parents(tips),
                       timestamp=timestamp)
            members[shard].add(tx.tx_hash)
            streams[shard].append(tx.to_bytes())

    credit_now = 1.0 + 0.5 * transactions + 1.0
    return Workload(
        genesis=builder.genesis,
        shards=streams,
        credit_now=credit_now,
        reference_hashes=builder.reference.state_hashes(credit_now),
    )
