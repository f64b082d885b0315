"""Backend contract tests: the file store must behave like the
in-memory reference — same chain rules, same reopen semantics, same
refusal of tampered history."""

import json
import os

import pytest

from repro.storage.errors import StorageCorruptionError, StorageError
from repro.storage.persistence import NodePersistence
from repro.storage.store import (
    GENESIS_PREV_HASH,
    FileStore,
    LogRecord,
    MemoryStore,
    open_store,
)

BACKENDS = ["memory", "file"]
DURABLE = ["file"]


def _open(backend, directory):
    return open_store(backend, str(directory), node="n0")


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreContract:
    def test_append_chains_records(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        first = store.append("genesis", {"tx": "00"})
        second = store.append("tx", {"tx": "01", "arrival": 1.0})
        assert first.seq == 0
        assert first.prev_hash == GENESIS_PREV_HASH
        assert second.prev_hash == first.hash
        assert store.head_hash == second.hash
        assert store.next_seq == 2
        assert [r.seq for r in store.records()] == [0, 1]
        store.close()

    def test_records_from_start_seq(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        for i in range(4):
            store.append("tx", {"i": i})
        assert [r.seq for r in store.records(start_seq=2)] == [2, 3]
        store.close()

    def test_prune_keeps_chain_head(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        for i in range(5):
            store.append("tx", {"i": i})
        head = store.head_hash
        dropped = store.prune_before(3)
        assert dropped == 3
        assert [r.seq for r in store.records()] == [3, 4]
        assert store.head_hash == head
        tail = store.append("tx", {"i": 5})
        assert tail.prev_hash == head
        store.close()

    def test_backend_names_itself(self, backend, tmp_path):
        """Reports take their ``backend`` field from the store, so the
        name a store carries is the name it was opened under."""
        store = _open(backend, tmp_path)
        assert store.backend == backend
        store.close()

    def test_len_counts_live_records(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        for i in range(4):
            store.append("tx", {"i": i})
        assert len(store) == 4
        store.prune_before(1)
        assert len(store) == 3
        assert store.next_seq == 4  # pruning never rewinds the sequence
        store.close()


@pytest.mark.parametrize("backend", DURABLE)
class TestDurableReopen:
    def test_reopen_continues_chain(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        for i in range(3):
            store.append("tx", {"i": i})
        head, next_seq = store.head_hash, store.next_seq
        store.close()

        reopened = _open(backend, tmp_path)
        assert reopened.head_hash == head
        assert reopened.next_seq == next_seq
        assert [r.seq for r in reopened.records()] == [0, 1, 2]
        extra = reopened.append("tx", {"i": 3})
        assert extra.prev_hash == head
        reopened.close()

    def test_reopen_after_prune_accepts_anchor(self, backend, tmp_path):
        """A pruned log legitimately starts at seq > 0 whose prev_hash
        names a dropped record — that anchor must load cleanly."""
        store = _open(backend, tmp_path)
        for i in range(5):
            store.append("tx", {"i": i})
        store.prune_before(3)
        store.close()

        reopened = _open(backend, tmp_path)
        assert [r.seq for r in reopened.records()] == [3, 4]
        reopened.close()

    def test_empty_store_is_empty(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        assert len(store) == 0
        assert store.head_hash == GENESIS_PREV_HASH
        store.close()

    def test_reopen_keeps_every_payload(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        written = [store.append("tx", {"i": i, "tag": f"t{i}"})
                   for i in range(3)]
        store.close()

        reopened = _open(backend, tmp_path)
        assert reopened.records() == written
        reopened.close()


class TestOpenStoreFactory:
    def test_memory_needs_no_directory(self):
        assert isinstance(open_store("memory"), MemoryStore)

    def test_durable_without_directory_refused(self):
        with pytest.raises(StorageError):
            open_store("file")

    def test_unknown_backend_refused(self, tmp_path):
        with pytest.raises(StorageError):
            open_store("papyrus", str(tmp_path))

    @pytest.mark.parametrize("backend", ["sqlite", "none", "FILE"])
    def test_only_memory_and_file_are_stores(self, tmp_path, backend):
        """``none`` is a node-process setting (no journal), not a
        store; there is no SQLite store; names are case-sensitive."""
        with pytest.raises(StorageError, match="known: memory, file"):
            open_store(backend, str(tmp_path))

    def test_file_journal_equals_memory_journal(self, tmp_path):
        """The durable log is the in-memory reference, record for
        record and hash for hash."""
        stores = [_open("memory", tmp_path), _open("file", tmp_path)]
        for store in stores:
            store.append("genesis", {"tx": "00"})
            for i in range(4):
                store.append("tx", {"i": i, "arrival": i / 4})
            store.prune_before(2)
            store.append("tx", {"i": 4})
        memory, durable = stores
        assert durable.records() == memory.records()
        assert durable.head_hash == memory.head_hash
        durable.close()

    def test_per_node_isolation(self, tmp_path):
        a = open_store("file", str(tmp_path), node="a")
        b = open_store("file", str(tmp_path), node="b")
        a.append("tx", {"i": 0})
        assert len(a) == 1 and len(b) == 0
        a.close()
        b.close()


class TestFileStoreCorruption:
    def _populate(self, tmp_path) -> str:
        path = os.path.join(str(tmp_path), "log.jsonl")
        store = FileStore(path)
        for i in range(3):
            store.append("tx", {"i": i})
        store.close()
        return path

    def test_noncanonical_framing_refused(self, tmp_path):
        """Same parsed value, same hash — only the strict framing check
        can catch a re-encoded (whitespace-padded) record."""
        path = self._populate(tmp_path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]), sort_keys=True,
                              separators=(", ", ": "))
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(StorageCorruptionError, match="framing"):
            FileStore(path)

    def test_reordered_lines_refused(self, tmp_path):
        path = self._populate(tmp_path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(StorageCorruptionError):
            FileStore(path)

    def test_deleted_line_refused(self, tmp_path):
        path = self._populate(tmp_path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        del lines[1]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(StorageCorruptionError):
            FileStore(path)

    def test_bad_seq_zero_anchor_refused(self, tmp_path):
        path = os.path.join(str(tmp_path), "log.jsonl")
        rogue = LogRecord.make(seq=0, kind="tx", data={},
                               prev_hash="1" * 64)
        with open(path, "w") as handle:
            handle.write(rogue.to_line() + "\n")
        with pytest.raises(StorageCorruptionError, match="anchor"):
            FileStore(path)

    def test_non_utf8_refused(self, tmp_path):
        path = os.path.join(str(tmp_path), "log.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe broken")
        with pytest.raises(StorageCorruptionError):
            FileStore(path)


class TestNodePersistenceContract:
    def test_load_of_empty_store_refused(self):
        persistence = NodePersistence(MemoryStore())
        with pytest.raises(StorageCorruptionError,
                           match="neither a genesis"):
            persistence.load()

    def test_unknown_record_kind_refused(self):
        store = MemoryStore()
        store.append("blob", {"x": 1})
        persistence = NodePersistence(store)
        with pytest.raises(StorageError, match="unknown record kind"):
            persistence.load()

    @pytest.mark.parametrize("field", ["epoch", "prev_hash"])
    def test_broken_epoch_chain_refused(self, tmp_path, field):
        """A self-consistent checkpoint that does not extend the one
        before it is refused when the store is opened."""
        from .harness import build_golden_store, reseal

        node, persistence, first = build_golden_store(str(tmp_path))
        second = persistence.checkpoint(node, now=6.0, prune_log=False)
        persistence.store.close()
        data = json.loads(json.dumps(second.to_data()))
        data[field] = 5 if field == "epoch" else "f" * 64
        store = MemoryStore()
        store.append("checkpoint", first.to_data())
        store.append("checkpoint", reseal(data))
        with pytest.raises(StorageCorruptionError, match="epoch chain break"):
            NodePersistence(store)

    def test_scan_picks_up_epoch_state_on_reopen(self, tmp_path):
        from .harness import build_golden_store

        _, persistence, epoch = build_golden_store(str(tmp_path))
        persistence.store.close()
        reopened = NodePersistence(
            FileStore(os.path.join(str(tmp_path), "log.jsonl")))
        assert reopened.epoch == epoch.epoch + 1
        assert reopened.transactions_logged == 1  # the tail record
        reopened.store.close()



def _edit_cut(state, **fields):
    state["tangle"] = json.dumps(dict(json.loads(state["tangle"]), **fields))
    return state


# Edits to a checkpoint's state that its resealed hash still covers.
MALFORMED_STATE = {
    "tangle-missing": lambda state: {key: value for key, value
                                     in state.items() if key != "tangle"},
    "tangle-not-json": lambda state: dict(state, tangle="not json"),
    "genesis-not-hex": lambda state: _edit_cut(state, genesis="zz"),
    "state-as-pairs": lambda state: state,
}


class TestMalformedCheckpointState:
    """A hash-valid checkpoint whose state cannot be decoded is refused
    as corruption, like an undecodable genesis or journal record."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_STATE))
    def test_load_refuses_as_corruption(self, tmp_path, case):
        from .harness import build_golden_store, reseal

        _, persistence, epoch = build_golden_store(str(tmp_path))
        persistence.store.close()
        data = json.loads(json.dumps(epoch.to_data()))
        data["state"] = MALFORMED_STATE[case](data["state"])
        reseal(data)
        if case == "state-as-pairs":
            # The hash covers the dict the pairs spell, not the bytes
            # stored: the stored form must be refused all the same.
            data["state"] = sorted(data["state"].items())
        store = MemoryStore()
        store.append("checkpoint", data)
        with pytest.raises(StorageCorruptionError, match="store record 0"):
            NodePersistence(store).load()
