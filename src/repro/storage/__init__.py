"""Durable storage: append-only hash-chained logs and epoch snapshots.

Layering (lowest first):

* :mod:`repro.storage.errors` — exception hierarchy, dependency-free;
* :mod:`repro.storage.store` — the :class:`Store` protocol with
  in-memory and JSONL-file backends, both hash-chain verified;
* :mod:`repro.storage.checkpoint` — hash-chained
  :class:`EpochSnapshot` checkpoints over full-node state;
* :mod:`repro.storage.persistence` — :class:`NodePersistence`, the
  journal/checkpoint/restore manager a full node journals through.

The seeded crash/restart differential that proves them correct (the
``repro storage`` CLI command) lives in :mod:`repro.harness.storage`.
"""

from .checkpoint import EpochSnapshot
from .errors import StorageCorruptionError, StorageError
from .persistence import NodePersistence, RestorePoint
from .store import (
    GENESIS_PREV_HASH,
    FileStore,
    LogRecord,
    MemoryStore,
    Store,
    canonical_json,
    open_store,
)

__all__ = [
    "GENESIS_PREV_HASH",
    "canonical_json",
    "LogRecord",
    "Store",
    "MemoryStore",
    "FileStore",
    "open_store",
    "EpochSnapshot",
    "NodePersistence",
    "RestorePoint",
    "StorageError",
    "StorageCorruptionError",
]
