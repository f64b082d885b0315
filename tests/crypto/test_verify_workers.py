"""Forked verify workers: sharding a batch never changes a verdict.

:func:`repro.crypto.verify_workers.verify_batch` cuts a batch into
shards, verifies one in-process and the others in forked workers, each
through the unchanged :func:`repro.crypto.ed25519.verify_batch`.  Its
contract is the batch verifier's: one verdict per item, equal to the
single ``verify``.  Batches here mix honest items with every defect the
batch verifier screens or falls back on — forged and wrong-key
signatures, bad lengths, ``s >= L``, encodings that do not decode,
messages that are not 32-byte hashes — and at most one
torsion-defective item (two may cancel inside one batch equation, the
limit ROADMAP item 1(a) closes).  They run with 0, 1 and 2 live
workers, and through the fault paths: a killed worker, a stopped one.
"""

import os
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519, verify_workers
from repro.crypto.ed25519 import generate_secret_key

from .ed25519_reference import _L
from .test_ed25519_accel import (
    NON_CANONICAL,
    SMALL_ORDER,
    torsion_commitment_signature,
    torsion_signature,
)

FLOOR = ed25519._BATCH_FLOOR
CAP = verify_workers.SHARD_CAP

_KEYS = [generate_secret_key(seed=b"workers-%d" % i) for i in range(5)]
_PUBLICS = [ed25519.public_from_secret(secret) for secret in _KEYS]

_hashes = st.binary(min_size=32, max_size=32)
_key_index = st.integers(min_value=0, max_value=len(_KEYS) - 1)


def _honest(key, message):
    return _PUBLICS[key], message, ed25519.sign(_KEYS[key], message)


def _flip(item, pos, bit):
    public, message, signature = item
    mutated = bytearray(signature)
    mutated[pos] ^= 1 << bit
    return public, message, bytes(mutated)


honest_items = st.builds(_honest, _key_index, _hashes)

flawed_items = st.one_of(
    # forged: one bit of R or of s
    st.builds(_flip, honest_items, st.integers(0, 63), st.integers(0, 7)),
    # a valid signature under another issuer's key
    st.builds(lambda item, key: (_PUBLICS[key], item[1], item[2]),
              honest_items, _key_index),
    # s >= L
    st.builds(lambda item, s: (item[0], item[1],
                               item[2][:32] + s.to_bytes(32, "little")),
              honest_items, st.sampled_from([_L, _L + 1, 2 ** 256 - 1])),
    # off-curve or non-canonical encodings, on R and on A
    st.builds(lambda item, enc: (item[0], item[1], enc + item[2][32:]),
              honest_items, st.sampled_from(NON_CANONICAL)),
    st.builds(lambda item, enc: (enc, item[1], item[2]),
              honest_items, st.sampled_from(NON_CANONICAL)),
    # bad lengths: these never fit a record and stay in-process
    st.builds(lambda item: (item[0][:31], item[1], item[2]), honest_items),
    st.builds(lambda item: (item[0], item[1], item[2][:63]), honest_items),
    # a message that is not a 32-byte hash: valid, but not a record
    st.builds(_honest, _key_index, st.binary(max_size=40)),
)

torsion_items = st.one_of(
    st.builds(torsion_signature, st.just(b"workers"), _hashes,
              st.sampled_from(SMALL_ORDER[1:])),
    st.builds(torsion_commitment_signature, st.just(b"workers"), _hashes,
              st.sampled_from(SMALL_ORDER[1:])),
)


@st.composite
def batches(draw):
    """Up to 24 items, mostly honest, at most one torsion-defective."""
    items = draw(st.lists(st.one_of(honest_items, honest_items,
                                    flawed_items),
                          max_size=24))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(torsion_items))
    return items


def _gone(pid):
    """Whether *pid* is no child of this process any more (reaped)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def workers(request):
    """Fork ``request.param`` workers (default 1); stop and reap them
    at teardown, whatever the test did to them."""
    ed25519.precompute()
    pids = verify_workers.start(getattr(request, "param", 1))
    yield pids
    for pid in pids:
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    verify_workers.stop()
    assert all(_gone(pid) for pid in pids)


@pytest.fixture(scope="class", params=[0, 1, 2], ids="{}-workers".format)
def pool(request):
    ed25519.precompute()
    pids = verify_workers.start(request.param)
    yield pids
    verify_workers.stop()
    assert all(_gone(pid) for pid in pids)


def _in_process_sizes():
    """Patch the parent's ``ed25519.verify_batch`` to record the size
    of every batch it is handed; workers keep their own copy."""
    sizes = []
    real = ed25519.verify_batch

    def counting(items):
        sizes.append(len(items))
        return real(items)

    return sizes, mock.patch.object(ed25519, "verify_batch", counting)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(items=batches())
    def test_sharded_verdicts_equal_singles_and_one_batch(self, pool, items):
        expected = [ed25519.verify(*item) for item in items]
        assert verify_workers.verify_batch(items) == expected
        assert ed25519.verify_batch(items) == expected


class TestSharding:
    @pytest.mark.parametrize("workers, count, own", [
        (1, 2 * FLOOR, [FLOOR]),        # two shards of the floor
        (1, 2 * FLOOR - 1, [2 * FLOOR - 1]),  # one short: all in-process
        (1, 25, [12]),                  # contiguous, near-equal counts
        (2, 3 * FLOOR, [FLOOR]),
        (2, 3 * FLOOR - 1, [5]),        # too few for three: two shards
        # past the cap: a round of two full shards, then the rest
        (1, 2 * CAP + 44, [CAP, 22]),
    ], indirect=["workers"])
    def test_the_node_keeps_the_first_shard(self, workers, count, own):
        items = [_honest(i % 2, (i).to_bytes(32, "little"))
                 for i in range(count)]
        items[-3] = _flip(items[-3], 40, 0)  # in the last shard
        sizes, patch = _in_process_sizes()
        with patch:
            assert verify_workers.verify_batch(items) \
                == [index != count - 3 for index in range(count)]
        assert sizes == own

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_each_worker_is_pinned_off_the_nodes_cpu(self, workers):
        items = [_honest(0, bytes([i]) * 32) for i in range(3 * FLOOR)]
        assert verify_workers.verify_batch(items) == [True] * len(items)
        node_cpu, ours = verify_workers._placed_around, os.sched_getaffinity(0)
        pinned = [os.sched_getaffinity(pid) for pid in workers]
        assert all(len(cpus) == 1 and cpus <= ours for cpus in pinned)
        if len(ours) > 1:
            assert all(node_cpu not in cpus for cpus in pinned)
        if len(ours) > 2:
            assert pinned[0] != pinned[1]

    def test_items_that_fit_no_record_stay_in_process(self, workers):
        fits = [_honest(0, bytes([i]) * 32) for i in range(2 * FLOOR)]
        odd = [_honest(1, b"short"), (fits[0][0], fits[0][1], b"\x00" * 63)]
        items = fits[:3] + odd + fits[3:]
        sizes, patch = _in_process_sizes()
        with patch:
            verdicts = verify_workers.verify_batch(items)
        assert verdicts == [ed25519.verify(*item) for item in items]
        assert sizes == [FLOOR + len(odd)]


class TestWorkerFaults:
    def test_a_killed_worker_is_reaped_and_its_shard_verified_here(
            self, workers):
        (pid,) = workers
        items = [_honest(0, bytes([i]) * 32) for i in range(2 * FLOOR)]
        items[-1] = _flip(items[-1], 40, 0)  # in the worker's shard
        expected = [True] * (2 * FLOOR - 1) + [False]
        assert verify_workers.verify_batch(items) == expected
        os.kill(pid, signal.SIGKILL)
        sizes, patch = _in_process_sizes()
        with patch:
            # The send fails, or the verdicts never come: either way
            # every item is verified here.
            assert verify_workers.verify_batch(items) == expected
            assert sum(sizes) == 2 * FLOOR
            assert _gone(pid)
            # The pool is empty now: the next batch is one batch here.
            del sizes[:]
            assert verify_workers.verify_batch(items) == expected
        assert sizes == [2 * FLOOR]

    def test_a_stopped_worker_is_waited_for_only_up_to_the_bound(
            self, workers):
        (pid,) = workers
        items = [_honest(1, bytes([i]) * 32) for i in range(2 * FLOOR)]
        os.kill(pid, signal.SIGSTOP)
        with mock.patch.object(verify_workers, "STALL_BOUND_S", 0.5):
            began = time.monotonic()
            assert verify_workers.verify_batch(items) == [True] * len(items)
            waited = time.monotonic() - began
        assert 0.5 <= waited < 5.0
        assert _gone(pid)

    def test_stop_ends_and_reaps_every_worker(self):
        pids = verify_workers.start(2)
        verify_workers.stop()
        assert all(_gone(pid) for pid in pids)
        items = [_honest(0, bytes([i]) * 32) for i in range(3 * FLOOR)]
        sizes, patch = _in_process_sizes()
        with patch:
            assert verify_workers.verify_batch(items) == [True] * len(items)
        assert sizes == [len(items)]
