"""Append-only, hash-chained record stores (the ``Store`` protocol).

The paper's closing discussion names storage as the open problem for
blockchain-on-IoT, and Dorri et al. (PAPERS.md) identify restart
durability as the gap that sinks naive designs.  This module is the
durable half of the answer: every state-changing event a full node
processes is appended to a log of :class:`LogRecord` entries, each one
sha256-hashed over its canonical JSON body and linked to its
predecessor through ``prev_hash`` — the `ConvergenceReport` hashing
idiom (sorted keys, minimal separators) applied to the write path.

Two interchangeable backends:

* :class:`MemoryStore` — the default; keeps the log in a Python list.
  Zero behaviour change for existing deployments, and the unit-test
  double for the durable backend.
* :class:`FileStore` — append-only JSONL, one canonical record per
  line.  The whole chain is re-verified on open; any single-byte
  corruption (including whitespace and framing damage) is refused with
  :class:`~repro.storage.errors.StorageCorruptionError`.

Reads stay in-process: both backends keep a verified in-memory mirror
of the log, so the hot path never touches disk — writes stream out,
reads are list lookups.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..telemetry.registry import coerce_registry
from .errors import StorageCorruptionError, StorageError

__all__ = [
    "GENESIS_PREV_HASH",
    "canonical_json",
    "LogRecord",
    "Store",
    "MemoryStore",
    "FileStore",
    "open_store",
]

GENESIS_PREV_HASH = "0" * 64
"""The ``prev_hash`` anchor of a log's very first record."""


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, minimal separators — the same
    canonical form :mod:`repro.nodes.replica` hashes replica state
    with, so log hashes and convergence hashes share one idiom."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class LogRecord:
    """One hash-chained log entry.

    ``hash`` is sha256 over the canonical JSON of the body (``seq``,
    ``kind``, ``data``, ``prev_hash``); ``prev_hash`` is the previous
    record's ``hash`` (or :data:`GENESIS_PREV_HASH` for record 0).  A
    flipped byte anywhere breaks either the record's own hash or the
    successor's link, so corruption, deletion and reordering are all
    detectable from the records alone.
    """

    seq: int
    kind: str
    data: Dict[str, object]
    prev_hash: str
    hash: str

    def body(self) -> Dict[str, object]:
        return {"seq": self.seq, "kind": self.kind, "data": self.data,
                "prev_hash": self.prev_hash}

    def to_line(self) -> str:
        """The exact canonical line a file-backed log stores."""
        framed = self.body()
        framed["hash"] = self.hash
        return canonical_json(framed)

    @classmethod
    def make(cls, *, seq: int, kind: str, data: Dict[str, object],
             prev_hash: str) -> "LogRecord":
        body = {"seq": seq, "kind": kind, "data": data,
                "prev_hash": prev_hash}
        digest = hashlib.sha256(canonical_json(body).encode()).hexdigest()
        return cls(seq=seq, kind=kind, data=data, prev_hash=prev_hash,
                   hash=digest)

    @classmethod
    def from_fields(cls, fields: Dict[str, object], *,
                    context: str = "log") -> "LogRecord":
        """Parse and verify one stored record; refuses corruption."""
        try:
            record = cls(
                seq=int(fields["seq"]),
                kind=str(fields["kind"]),
                data=dict(fields["data"]),
                prev_hash=str(fields["prev_hash"]),
                hash=str(fields["hash"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageCorruptionError(
                f"{context}: malformed log record ({exc})") from exc
        expected = hashlib.sha256(
            canonical_json(record.body()).encode()).hexdigest()
        if record.hash != expected:
            raise StorageCorruptionError(
                f"{context}: record {record.seq} failed verification — "
                f"stored hash {record.hash[:12]}… != computed "
                f"{expected[:12]}… (corrupted record)")
        return record


def verify_chain(records: List[LogRecord], *,
                 context: str = "log") -> List[LogRecord]:
    """Check ``prev_hash`` linkage and sequence continuity.

    The first record is the chain anchor: seq 0 must link to
    :data:`GENESIS_PREV_HASH`; a pruned log legitimately starts at a
    later seq whose ``prev_hash`` names a dropped predecessor, which is
    accepted as-is (the checkpoint it carries is self-verifying).
    """
    prev: Optional[LogRecord] = None
    for record in records:
        if prev is None:
            if record.seq == 0 and record.prev_hash != GENESIS_PREV_HASH:
                raise StorageCorruptionError(
                    f"{context}: record 0 must anchor to "
                    f"{GENESIS_PREV_HASH[:12]}…, found "
                    f"{record.prev_hash[:12]}…")
        else:
            if record.seq != prev.seq + 1:
                raise StorageCorruptionError(
                    f"{context}: sequence break — record {record.seq} "
                    f"follows record {prev.seq}")
            if record.prev_hash != prev.hash:
                raise StorageCorruptionError(
                    f"{context}: broken hash chain at record "
                    f"{record.seq} — prev_hash {record.prev_hash[:12]}… "
                    f"does not match {prev.hash[:12]}…")
        prev = record
    return records


class Store:
    """The append-only log protocol all backends implement.

    Subclasses provide ``_write`` (persist one record), ``_flush``
    (durability barrier), ``_prune_persisted`` (drop records below a
    seq) and ``close``; the base class owns the verified in-memory
    mirror, the chain head, and the ``repro_storage_*`` write metrics.
    """

    backend = "abstract"

    def __init__(self, *, telemetry=None):
        registry = coerce_registry(telemetry)
        self._m_appends = registry.counter(
            "repro_storage_appends_total",
            "Log records appended to durable stores, by record kind")
        self._m_bytes = registry.counter(
            "repro_storage_bytes_written_total",
            "Canonical-encoded bytes appended to durable stores")
        self._m_flushes = registry.counter(
            "repro_storage_flushes_total",
            "Durability barriers (flush/commit) completed by stores")
        self._m_pruned = registry.counter(
            "repro_storage_pruned_records_total",
            "Log records dropped below checkpoints by pruning")
        self._records: List[LogRecord] = []
        self._next_seq = 0
        self._head_hash = GENESIS_PREV_HASH

    # -- queries -----------------------------------------------------------

    @property
    def head_hash(self) -> str:
        """Hash of the newest record (the chain head)."""
        return self._head_hash

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def __len__(self) -> int:
        return len(self._records)

    def records(self, start_seq: int = 0) -> List[LogRecord]:
        """The verified log (optionally from *start_seq*), oldest first."""
        if start_seq <= 0:
            return list(self._records)
        return [r for r in self._records if r.seq >= start_seq]

    # -- mutation ----------------------------------------------------------

    def append(self, kind: str, data: Dict[str, object]) -> LogRecord:
        """Append one record, chained to the current head, and flush."""
        record = LogRecord.make(seq=self._next_seq, kind=kind, data=data,
                                prev_hash=self._head_hash)
        self._write(record)
        self._records.append(record)
        self._next_seq = record.seq + 1
        self._head_hash = record.hash
        self._m_appends.inc(kind=kind)
        self._m_bytes.inc(len(record.to_line()) + 1)
        self.flush()
        return record

    def prune_before(self, seq: int) -> int:
        """Drop records with ``seq < seq`` (checkpoint pruning).

        The chain head is untouched: later appends keep linking to the
        newest surviving record, and the first survivor becomes the
        accepted chain anchor on reload.  Returns how many records were
        dropped.
        """
        keep = [r for r in self._records if r.seq >= seq]
        dropped = len(self._records) - len(keep)
        if dropped:
            self._records = keep
            self._prune_persisted(seq)
            self._m_pruned.inc(dropped)
        return dropped

    def flush(self) -> None:
        """Durability barrier; counted so write amplification is visible."""
        self._flush()
        self._m_flushes.inc()

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    # -- backend hooks -----------------------------------------------------

    def _adopt(self, records: List[LogRecord], *, context: str) -> None:
        """Install a freshly loaded (and fully verified) log mirror."""
        verify_chain(records, context=context)
        self._records = list(records)
        if records:
            self._next_seq = records[-1].seq + 1
            self._head_hash = records[-1].hash

    def _write(self, record: LogRecord) -> None:  # pragma: no cover
        pass

    def _flush(self) -> None:  # pragma: no cover - trivial default
        pass

    def _prune_persisted(self, seq: int) -> None:  # pragma: no cover
        pass


class MemoryStore(Store):
    """The in-memory backend: the list mirror *is* the storage.

    Default for every deployment (zero behaviour change, zero I/O) and
    the reference double the durable backend is tested against.
    """

    backend = "memory"


class FileStore(Store):
    """Append-only JSONL log: one canonical record per line.

    Framing is strict: every line must be byte-identical to the
    canonical encoding of the record it parses to.  Together with the
    per-record hash and the ``prev_hash`` chain this makes *any*
    single-byte change to the file detectable — content flips break the
    record hash, framing flips (whitespace, newline damage, scientific
    notation) break canonicality, line merges break JSON parsing.
    """

    backend = "file"

    def __init__(self, path: str, *, telemetry=None):
        super().__init__(telemetry=telemetry)
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if os.path.exists(path):
            self._adopt(self._read_all(), context=path)
        self._handle = open(path, "a", encoding="utf-8")

    def _read_all(self) -> List[LogRecord]:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageCorruptionError(
                f"{self.path}: log is not valid UTF-8 ({exc})") from exc
        records: List[LogRecord] = []
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()  # the trailing newline of the last record
        for line_no, line in enumerate(lines, start=1):
            try:
                fields = json.loads(line)
            except ValueError as exc:
                raise StorageCorruptionError(
                    f"{self.path}: line {line_no} is not valid JSON "
                    f"({exc}) — log corrupted") from exc
            record = LogRecord.from_fields(
                fields, context=f"{self.path}:{line_no}")
            if line != record.to_line():
                raise StorageCorruptionError(
                    f"{self.path}: line {line_no} is not in canonical "
                    f"framing — log corrupted or foreign")
            records.append(record)
        return records

    def _write(self, record: LogRecord) -> None:
        self._handle.write(record.to_line() + "\n")

    def _flush(self) -> None:
        self._handle.flush()

    def _prune_persisted(self, seq: int) -> None:
        # Atomic rewrite: the surviving suffix goes to a sibling temp
        # file which then replaces the log, so a crash mid-prune leaves
        # either the old log or the new one, never a torn file.
        self._handle.close()
        tmp_path = self.path + ".pruning"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(record.to_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        self._handle.flush()
        self._handle.close()


def open_store(backend: str, directory: Optional[str] = None, *,
               node: str = "node", telemetry=None) -> Store:
    """Open the store for *node* under *directory* (per-node subdir).

    ``memory`` ignores the directory; ``file`` requires one and lays
    its log at ``<directory>/<node>/log.jsonl``.
    """
    if backend == "memory":
        return MemoryStore(telemetry=telemetry)
    if directory is None:
        raise StorageError(
            f"storage backend {backend!r} needs a storage directory")
    if backend == "file":
        return FileStore(os.path.join(directory, node, "log.jsonl"),
                         telemetry=telemetry)
    raise StorageError(f"unknown storage backend {backend!r} "
                       f"(known: memory, file)")
