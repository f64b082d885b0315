"""Seeded input stream for the wire-path benchmark.

``build_stream(seed, per_lane=…)`` pre-generates everything a workload
sends: the genesis file, one shared ACL transaction and ``LANES`` lanes
of signed, PoW-sealed transactions, plus the four state hashes a node
must report after ingesting all of it.  The program under test receives
only these bytes.

Lane rules (what makes any lane-order-preserving interleave valid):

* a lane owns ``DEVICES_PER_LANE`` devices; only they issue its
  transactions, and transfers stay between them;
* a transaction's two parents are tips of the *same* lane (or the
  shared ACL transaction) as its issuer saw them ``VIEW_LAG``
  transactions earlier, so per-lane FIFO over one TCP connection always
  delivers parents first — and, as with real concurrent issuers, the
  stale view keeps the tangle a few tips wide instead of collapsing it
  into a chain;
* a lane's oldest tip is approved outright once it is
  ``MAX_PARENT_STEPS`` lane transactions old, and virtual timestamps
  are 0.5 s apart across the whole stream, so a parent is at most
  about ``MAX_PARENT_STEPS * LANES * 0.5`` s old: never lazy under
  ΔT = 30 s, no credit penalty, required difficulty stays 1.

Light-node PoW grinding is simulated-device time and is not part of
the gateway wire path, so every transaction is sealed at difficulty 1
and signed through the accel backend (byte-identical to the reference
signer, ~5x faster), which keeps generation a small part of a run.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List

from repro.core.acl import AclAction, AuthorizationList
from repro.core.consensus import CreditBasedConsensus, InverseDifficultyPolicy
from repro.core.credit import CreditParameters, CreditRegistry
from repro.crypto import ed25519, x25519
from repro.crypto.accel import get_backend
from repro.crypto.keys import KeyPair
from repro.faults.report import credit_hash, node_state_hashes
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.tangle.ledger import TransferPayload
from repro.tangle.transaction import Transaction, TransactionKind
from repro.tangle.validation import VerificationCache

LANES = 2
DEVICES_PER_LANE = 2
VIEW_LAG = 3
MAX_PARENT_STEPS = 8
TRANSFER_SHARE = 0.25
TOKEN_GRANT = 1_000_000
CRYPTO_BACKEND = "accel"


class AccelKeyPair(KeyPair):
    """A key pair that signs through the accel backend."""

    def __init__(self, seed: bytes):
        self.sign_secret = ed25519.generate_secret_key(seed=b"sign" + seed)
        super().__init__(self.sign_secret,
                         x25519.generate_private_key(seed=b"enc" + seed))
        self._backend = get_backend(CRYPTO_BACKEND)

    def sign(self, message: bytes) -> bytes:
        return self._backend.sign(self.sign_secret, message)


def new_consensus() -> CreditBasedConsensus:
    """The consensus wiring ``repro node`` builds its full node with."""
    params = CreditParameters()
    return CreditBasedConsensus(
        CreditRegistry(params),
        policy=InverseDifficultyPolicy(initial_difficulty=1),
        max_parent_age=params.delta_t)


def new_full_node(address: str, genesis: Transaction, *, rng_seed: int = 0,
                  verification_cache=None, telemetry=None) -> FullNode:
    """An in-process full node configured like a ``repro node`` process
    (used as the generator's reference and by the layer probe)."""
    return FullNode(address, genesis, consensus=new_consensus(),
                    rng=random.Random(rng_seed), enforce_pow=True,
                    crypto_backend=CRYPTO_BACKEND,
                    verification_cache=verification_cache,
                    telemetry=telemetry)


def state_hashes(node: FullNode, *, now: float) -> Dict[str, str]:
    """The four hashes ``fleet_status`` reports for *node*."""
    hashes = node_state_hashes(node)
    hashes["credit"] = credit_hash(node.consensus.registry, now=now)
    return hashes


@dataclass
class Stream:
    seed: int
    genesis: Transaction
    acl: bytes
    lanes: List[List[bytes]]
    device_ids: List[List[bytes]]
    credit_now: float
    reference_size: int
    reference_hashes: Dict[str, str]

    @property
    def genesis_hex(self) -> str:
        return self.genesis.to_bytes().hex()


def build_stream(seed: int, *, per_lane: int, lane_count: int = LANES) -> Stream:
    """Pre-generate *lane_count* lanes of *per_lane* transactions."""
    if per_lane < 1:
        raise ValueError("per_lane must be >= 1")
    tag = f"e2e:{seed}"
    rng = random.Random(tag)
    manager = AccelKeyPair(f"{tag}:manager".encode())
    devices = [[AccelKeyPair(f"{tag}:lane{lane}:device{d}".encode())
                for d in range(DEVICES_PER_LANE)] for lane in range(lane_count)]
    everyone = [keys for lane in devices for keys in lane]
    genesis = ManagerNode.create_genesis(
        manager, network_name=f"e2e-{seed}",
        token_allocations=[(keys.node_id, TOKEN_GRANT)
                           for keys in [manager] + everyone])

    # The generator just signed these bytes; pre-confirming them keeps
    # the reference from paying a verify per transaction.
    verified = VerificationCache()
    reference = new_full_node("reference", genesis,
                              verification_cache=verified)

    def attach(tx: Transaction) -> bytes:
        verified.confirm(tx.full_digest)
        if not reference.replay_attach(tx, arrival_time=tx.timestamp):
            raise RuntimeError("reference refused a generated transaction")
        return tx.to_bytes()

    acl_tx = Transaction.create(
        manager, kind=TransactionKind.ACL,
        payload=AuthorizationList.make_update(
            [keys.public for keys in everyone],
            action=AclAction.AUTHORIZE).to_bytes(),
        timestamp=1.0, branch=genesis.tx_hash, trunk=genesis.tx_hash,
        difficulty=1)
    acl = attach(acl_tx)

    lanes: List[List[bytes]] = [[] for _ in range(lane_count)]
    # Per lane: unapproved transactions as (lane step, hash), oldest
    # first, and the last VIEW_LAG + 1 snapshots of that list.
    tips = [[(0, acl_tx.tx_hash)] for _ in range(lane_count)]
    views = [deque([tuple(lane_tips)], maxlen=VIEW_LAG + 1)
             for lane_tips in tips]
    timestamp = 2.0
    for index in range(per_lane * lane_count):
        lane, step = index % lane_count, index // lane_count + 1
        issuer = rng.choice(devices[lane])
        if rng.random() < TRANSFER_SHARE:
            recipient = rng.choice(
                [keys for keys in devices[lane] if keys is not issuer])
            kind = TransactionKind.TRANSFER
            payload = TransferPayload(
                sender=issuer.node_id, recipient=recipient.node_id,
                amount=rng.randint(1, 3),
                sequence=reference.ledger.next_sequence(
                    issuer.node_id)).to_bytes()
        else:
            kind = TransactionKind.DATA
            payload = rng.randbytes(16)
        view, oldest = views[lane][0], tips[lane][0]
        branch = oldest if step - oldest[0] > MAX_PARENT_STEPS \
            else rng.choice(view)
        trunk = rng.choice(view)
        tx = Transaction.create(
            issuer, kind=kind, payload=payload, timestamp=timestamp,
            branch=branch[1], trunk=trunk[1], difficulty=1)
        lanes[lane].append(attach(tx))
        tips[lane] = [tip for tip in tips[lane]
                      if tip not in (branch, trunk)] + [(step, tx.tx_hash)]
        views[lane].append(tuple(tips[lane]))
        timestamp += 0.5

    credit_now = timestamp + 1.0
    return Stream(
        seed=seed, genesis=genesis, acl=acl, lanes=lanes,
        device_ids=[[keys.node_id for keys in lane] for lane in devices],
        credit_now=credit_now, reference_size=len(reference.tangle),
        reference_hashes=state_hashes(reference, now=credit_now))
