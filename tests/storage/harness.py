"""Shared builders for the storage test-suite.

``build_golden_store`` journals a tiny, fully pinned workload — every
key seed, timestamp, parent choice and difficulty is a literal — so the
resulting log bytes and epoch snapshot are a pure function of the code,
reproducible on any platform.  The golden-format tests byte-compare its
output against checked-in files; corruption tests mutate copies of it.
"""

from __future__ import annotations

import os

from repro.core.acl import AuthorizationList
from repro.crypto.keys import KeyPair
from repro.network.proc import build_node
from repro.nodes.manager import ManagerNode
from repro.storage.persistence import NodePersistence
from repro.storage.store import FileStore
from repro.tangle.ledger import TransferPayload
from repro.tangle.transaction import Transaction, TransactionKind


def golden_keys():
    manager = KeyPair.generate(seed=b"golden:manager")
    device = KeyPair.generate(seed=b"golden:device")
    return manager, device


def build_golden_store(directory: str):
    """Journal the pinned golden workload into ``<directory>/log.jsonl``.

    Layout of the log: genesis record, three journalled transactions
    (ACL authorize, data, transfer), an epoch-0 checkpoint (not
    pruned, so the full chain stays visible), and one post-checkpoint
    tail transaction.  Returns ``(node, persistence, epoch)``.
    """
    manager_keys, device_keys = golden_keys()
    genesis = ManagerNode.create_genesis(
        manager_keys,
        network_name="golden",
        token_allocations=[(manager_keys.node_id, 100),
                           (device_keys.node_id, 100)],
    )
    node = build_node("golden", genesis, rng_seed=0)
    store = FileStore(os.path.join(directory, "log.jsonl"))
    persistence = NodePersistence(store)
    node.attach_persistence(persistence)

    acl_tx = Transaction.create(
        manager_keys, kind=TransactionKind.ACL,
        payload=AuthorizationList.make_update(
            [device_keys.public]).to_bytes(),
        timestamp=1.0, branch=genesis.tx_hash, trunk=genesis.tx_hash,
        difficulty=1)
    data_tx = Transaction.create(
        device_keys, kind=TransactionKind.DATA, payload=b"golden-data",
        timestamp=2.0, branch=acl_tx.tx_hash, trunk=genesis.tx_hash,
        difficulty=1)
    transfer_tx = Transaction.create(
        device_keys, kind=TransactionKind.TRANSFER,
        payload=TransferPayload(
            sender=device_keys.node_id, recipient=manager_keys.node_id,
            amount=5, sequence=0).to_bytes(),
        timestamp=3.0, branch=data_tx.tx_hash, trunk=acl_tx.tx_hash,
        difficulty=1)
    for tx in (acl_tx, data_tx, transfer_tx):
        assert node.ingest_local(tx), tx
    epoch = persistence.checkpoint(node, now=4.0, prune_log=False)
    tail_tx = Transaction.create(
        device_keys, kind=TransactionKind.DATA, payload=b"golden-tail",
        timestamp=5.0, branch=transfer_tx.tx_hash,
        trunk=transfer_tx.tx_hash, difficulty=1)
    assert node.ingest_local(tail_tx)
    return node, persistence, epoch


def flip_byte(path: str, offset: int, xor: int) -> None:
    """Corrupt one byte of *path* in place (``xor`` must be non-zero)."""
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    raw[offset % len(raw)] ^= (xor or 1)
    with open(path, "wb") as handle:
        handle.write(bytes(raw))
