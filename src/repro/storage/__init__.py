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
