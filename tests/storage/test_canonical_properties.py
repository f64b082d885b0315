"""Hypothesis properties of the canonical encoding and the hash chain:
round-trips are bit-stable, key order never matters, and any single-byte
corruption of a log or snapshot is detected and refused at load."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyPair
from repro.storage.checkpoint import EpochSnapshot
from repro.storage.errors import StorageCorruptionError
from repro.storage.store import (
    GENESIS_PREV_HASH,
    FileStore,
    LogRecord,
    canonical_json,
)
from repro.tangle.snapshot import TangleSnapshot
from repro.tangle.transaction import Transaction

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2 ** 53, max_value=2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=10), children,
                                        max_size=4)),
    max_leaves=12,
)


class TestCanonicalJson:
    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_bit_stable(self, value):
        encoded = canonical_json(value)
        assert canonical_json(json.loads(encoded)) == encoded

    @given(st.dictionaries(st.text(max_size=10), json_values, max_size=8),
           st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_key_order_is_irrelevant(self, mapping, rnd):
        items = list(mapping.items())
        rnd.shuffle(items)
        assert canonical_json(dict(items)) == canonical_json(mapping)

    @given(json_values)
    @settings(max_examples=100, deadline=None)
    def test_record_hash_covers_data(self, data):
        record = LogRecord.make(seq=0, kind="tx", data={"value": data},
                                prev_hash=GENESIS_PREV_HASH)
        verified = LogRecord.from_fields(json.loads(record.to_line()))
        assert verified == record


def _sample_log_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.jsonl")
        store = FileStore(path)
        store.append("genesis", {"tx": "ab" * 8})
        store.append("tx", {"tx": "cd" * 8, "arrival": 1.5})
        store.append("tx", {"tx": "ef" * 8, "arrival": 2.25})
        store.close()
        with open(path, "rb") as handle:
            return handle.read()


SAMPLE_LOG = _sample_log_bytes()


class TestSingleByteCorruption:
    @given(st.integers(min_value=0, max_value=len(SAMPLE_LOG) - 1),
           st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_any_flip_refused_at_load(self, offset, xor):
        corrupted = bytearray(SAMPLE_LOG)
        corrupted[offset] ^= xor
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "log.jsonl")
            with open(path, "wb") as handle:
                handle.write(bytes(corrupted))
            with pytest.raises(StorageCorruptionError):
                FileStore(path)

    def test_pristine_log_loads(self):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "log.jsonl")
            with open(path, "wb") as handle:
                handle.write(SAMPLE_LOG)
            store = FileStore(path)
            assert len(store) == 3
            store.close()


class TestSnapshotCorruption:
    def _epoch(self) -> EpochSnapshot:
        genesis = Transaction.create_genesis(
            KeyPair.generate(seed=b"canonical:snapshot"))
        return EpochSnapshot(
            epoch=0, created_at=4.0, prev_hash=GENESIS_PREV_HASH,
            tangle=TangleSnapshot(genesis=genesis, retained=(),
                                  entry_points=(), retired_tips=(),
                                  pruned_count=0),
            acl_state={"authorized": []},
            ledger_state={"balances": {}, "spent": {}},
            credit_state={"now": 4.0, "nodes": {}})

    def test_roundtrip(self):
        epoch = self._epoch()
        assert EpochSnapshot.from_data(epoch.to_data()) == epoch

    @given(st.sampled_from(["epoch", "created_at", "prev_hash", "hash"]))
    @settings(max_examples=20, deadline=None)
    def test_tampered_field_refused(self, field):
        data = self._epoch().to_data()
        if field in ("prev_hash", "hash"):
            data[field] = "f" * 64
        else:
            data[field] = data[field] + 1
        with pytest.raises(StorageCorruptionError):
            EpochSnapshot.from_data(data)

    def test_tampered_state_refused(self):
        data = self._epoch().to_data()
        data["state"]["credit_state"]["now"] = 5.0
        with pytest.raises(StorageCorruptionError):
            EpochSnapshot.from_data(data)

    @pytest.mark.parametrize("copy", ["body", "state", "tangle"])
    def test_disagreeing_created_at_refused(self, copy):
        """``created_at`` is stored three times; a copy edited under a
        resealed hash no longer matches what the snapshot re-encodes."""
        from .harness import reseal

        data = json.loads(canonical_json(self._epoch().to_data()))
        if copy == "body":
            data["created_at"] = 5.0
        elif copy == "state":
            data["state"]["created_at"] = 5.0
        else:
            data["state"]["tangle"] = json.dumps(
                dict(json.loads(data["state"]["tangle"]), created_at=5.0))
        with pytest.raises(StorageCorruptionError, match="re-encode"):
            EpochSnapshot.from_data(reseal(data))

    def test_key_order_of_stored_data_is_irrelevant(self):
        data = self._epoch().to_data()
        reordered = dict(reversed(list(data.items())))
        assert EpochSnapshot.from_data(reordered) == self._epoch()
