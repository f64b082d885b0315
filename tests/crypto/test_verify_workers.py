"""Forked verify workers: handing a batch off never changes a verdict.

:func:`repro.crypto.verify_workers.hand_off` cuts a batch into pieces
and writes each to a forked worker's request FIFO; every piece runs
through the unchanged :func:`repro.crypto.ed25519.verify_batch`, and
``hand_off(items).wait()`` is the synchronous check.  Its contract is
the batch verifier's: one verdict per item, equal to the single
``verify``.  Batches here mix honest items with
every defect the batch verifier screens or falls back on — forged and
wrong-key signatures, bad lengths, ``s >= L``, encodings that do not
decode, messages that are not 32-byte hashes — and at most one
torsion-defective item (two may cancel inside one batch equation, the
limit ROADMAP item 1(a) closes).  They run with 0, 1 and 2 live
workers, several batches in flight at once, and through the fault
paths: a killed worker, a stopped one.
"""

import asyncio
import os
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519, verify_workers
from repro.crypto.ed25519 import generate_secret_key

from ..nodes.runs import needs_fork
from .ed25519_reference import _L
from .test_ed25519_accel import (
    NON_CANONICAL,
    SMALL_ORDER,
    torsion_commitment_signature,
    torsion_signature,
)

pytestmark = needs_fork

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


def _pieces():
    """Patch the request writer to record the size of every piece a
    worker is handed."""
    pieces = []
    real = verify_workers._request

    def recording(worker, batch, piece):
        pieces.append(len(piece))
        return real(worker, batch, piece)

    return pieces, mock.patch.object(verify_workers, "_request", recording)


def _signed(count, key=0, forged=()):
    items = [_honest(key, index.to_bytes(32, "little"))
             for index in range(count)]
    for index in forged:
        items[index] = _flip(items[index], 40, 0)
    return items


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(items=batches())
    def test_handed_off_verdicts_equal_singles_and_one_batch(
            self, pool, items):
        expected = [ed25519.verify(*item) for item in items]
        assert verify_workers.hand_off(items).wait() == expected
        assert ed25519.verify_batch(items) == expected

    @settings(max_examples=20, deadline=None)
    @given(first=batches(), second=batches())
    def test_batches_in_flight_together_keep_their_verdicts(
            self, pool, first, second):
        """Two batches share the FIFOs; waiting for the later one first
        files what the earlier one was answered on the way."""
        earlier = verify_workers.hand_off(first)
        later = verify_workers.hand_off(second)
        assert later.wait() == [ed25519.verify(*item) for item in second]
        assert earlier.wait() == [ed25519.verify(*item) for item in first]


class TestPieces:
    @pytest.mark.parametrize("workers, count, pieces", [
        (1, FLOOR, [FLOOR]),
        (2, 25, [25]),                  # a whole batch to one worker
        (2, CAP, [CAP]),
        # past the cap: contiguous pieces of near-equal count, each
        # under it, as many as needed whatever the worker count
        (2, CAP + 1, [64, 65]),
        (1, 2 * CAP + 44, [100, 100, 100]),
    ], indirect=["workers"])
    def test_the_node_checks_no_piece(self, workers, count, pieces):
        items = _signed(count, key=1, forged=[count - 3])
        sizes, patch = _in_process_sizes()
        written, recording = _pieces()
        with patch, recording:
            assert verify_workers.hand_off(items).wait() \
                == [index != count - 3 for index in range(count)]
        assert sizes == []
        assert written == pieces

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_pieces_take_the_workers_in_turn(self, workers):
        asked = []
        real = verify_workers._request

        def recording(worker, batch, piece):
            asked.append(worker.pid)
            return real(worker, batch, piece)

        with mock.patch.object(verify_workers, "_request", recording):
            for start in range(4):
                verify_workers.hand_off(_signed(FLOOR + start)).wait()
        assert sorted(asked[:2]) == sorted(workers)
        assert asked[2:] == asked[:2]

    def test_a_batch_under_the_floor_is_checked_in_process(self, workers):
        items = _signed(FLOOR - 1, forged=[0])
        sizes, patch = _in_process_sizes()
        with patch:
            batch = verify_workers.hand_off(items)
        assert sizes == [FLOOR - 1] and batch.owed == 0
        assert batch.wait() == [False] + [True] * (FLOOR - 2)

    def test_items_that_fit_no_record_stay_in_process(self, workers):
        fits = [_honest(0, bytes([i]) * 32) for i in range(2 * FLOOR)]
        odd = [_honest(1, b"short"), (fits[0][0], fits[0][1], b"\x00" * 63)]
        items = fits[:3] + odd + fits[3:]
        sizes, patch = _in_process_sizes()
        with patch:
            verdicts = verify_workers.hand_off(items).wait()
        assert verdicts == [ed25519.verify(*item) for item in items]
        assert sizes == [len(odd)]


class TestOnReady:
    def test_without_a_running_loop_the_hand_off_waits(self, workers):
        called = []
        batch = verify_workers.hand_off(_signed(2 * FLOOR),
                                        on_ready=lambda: called.append(1))
        assert batch.owed == 0 and batch.wait() == [True] * (2 * FLOOR)
        assert called == []

    def test_the_loop_schedules_on_ready_once_the_verdicts_are_in(
            self, workers):
        async def scenario():
            called = []
            batch = verify_workers.hand_off(
                _signed(2 * FLOOR, forged=[1]),
                on_ready=lambda: called.append(batch.owed))
            handed = list(called)
            while not called:
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.01)
            return handed, called, batch.wait()

        handed, called, verdicts = asyncio.run(scenario())
        assert handed == [] and called == [0]
        assert verdicts == [index != 1 for index in range(2 * FLOOR)]
        # Nothing owed: the loop no longer watches the worker.
        assert all(worker.loop is None for worker in verify_workers._workers)


class TestWorkerFaults:
    def test_a_killed_worker_is_reaped_and_its_share_verified_here(
            self, workers):
        (pid,) = workers
        items = _signed(2 * FLOOR, forged=[2 * FLOOR - 1])
        expected = [True] * (2 * FLOOR - 1) + [False]
        assert verify_workers.hand_off(items).wait() == expected
        os.kill(pid, signal.SIGKILL)
        sizes, patch = _in_process_sizes()
        with patch:
            # The write fails, or the verdicts never come: either way
            # every item is verified here.
            assert verify_workers.hand_off(items).wait() == expected
            assert sum(sizes) == 2 * FLOOR
            assert _gone(pid)
            # The pool is empty now: the next batch is one batch here.
            del sizes[:]
            assert verify_workers.hand_off(items).wait() == expected
        assert sizes == [2 * FLOOR]

    def test_what_a_killed_worker_owes_is_checked_here_in_order(
            self, workers):
        (pid,) = workers
        first = _signed(FLOOR + 1, forged=[0])
        second = _signed(FLOOR + 2, key=1, forged=[FLOOR + 1])
        os.kill(pid, signal.SIGSTOP)
        earlier = verify_workers.hand_off(first)
        later = verify_workers.hand_off(second)
        os.kill(pid, signal.SIGKILL)
        sizes, patch = _in_process_sizes()
        with patch:
            assert later.wait() == [True] * (FLOOR + 1) + [False]
        assert sizes == [FLOOR + 1, FLOOR + 2]
        assert earlier.wait() == [False] + [True] * FLOOR
        assert _gone(pid)

    def test_a_stopped_worker_is_waited_for_only_up_to_the_bound(
            self, workers):
        (pid,) = workers
        items = _signed(2 * FLOOR, key=1)
        os.kill(pid, signal.SIGSTOP)
        with mock.patch.object(verify_workers, "STALL_BOUND_S", 0.5):
            began = time.monotonic()
            assert verify_workers.hand_off(items).wait() == [True] * len(items)
            waited = time.monotonic() - began
        assert 0.5 <= waited < 5.0
        assert _gone(pid)

    def test_the_loop_retires_a_stopped_worker_after_the_bound(
            self, workers):
        (pid,) = workers
        os.kill(pid, signal.SIGSTOP)

        async def scenario():
            called = []
            began = time.monotonic()
            batch = verify_workers.hand_off(
                _signed(2 * FLOOR), on_ready=lambda: called.append(1))
            while not called:
                await asyncio.sleep(0.01)
            return batch, time.monotonic() - began

        with mock.patch.object(verify_workers, "STALL_BOUND_S", 0.5):
            batch, waited = asyncio.run(scenario())
        assert batch.wait() == [True] * (2 * FLOOR)
        assert 0.5 <= waited < 5.0
        assert _gone(pid)

    def test_stop_ends_and_reaps_every_worker(self):
        pids = verify_workers.start(2)
        verify_workers.stop()
        assert all(_gone(pid) for pid in pids)
        items = [_honest(0, bytes([i]) * 32) for i in range(3 * FLOOR)]
        sizes, patch = _in_process_sizes()
        with patch:
            assert verify_workers.hand_off(items).wait() == [True] * len(items)
        assert sizes == [len(items)]
