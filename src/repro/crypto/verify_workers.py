"""Signature verdicts on a gateway's other cores: forked verify workers.

A ``repro node`` process forks its workers once, before its event loop
starts and before it opens any store or socket (:func:`start`).  From
then on :func:`verify_batch` cuts a batch into contiguous,
count-balanced shards, hands every shard but the first to a worker,
verifies the first in-process, and joins every verdict before it
returns — so its caller stays synchronous, exactly as with
:func:`repro.crypto.ed25519.verify_batch`, which every shard runs
unchanged.  A batch too small to give every shard the batch equation's
floor of items is verified in-process as one batch, and with no worker
started :func:`verify_batch` *is* that function: in-process deployments
and the simulator never fork.

The wire is one socketpair per worker.  A request is a 4-byte
big-endian count and that many 128-byte records ``pk ‖ message ‖
signature``; the reply is one byte per record, 1 for a valid signature.
There is no pickling: items of any other shape (a signature or key of
the wrong length, a message that is not a 32-byte hash) stay in the
node's own shard.

Before each round the workers are pinned to CPUs other than the one
the node is running on (:func:`_place_workers`); left to itself the
scheduler was measured running a worker on the node's own core.

Failure rule: a worker whose socket breaks, or that has not answered
within :data:`STALL_BOUND_S` of the node finishing its own shard, is
SIGKILLed and reaped, its shard is verified in-process, and the pool
carries on without it.  Nothing is re-forked: forking from inside a
running event loop would copy the loop, its sockets and its store into
the child.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import time
from typing import List, Optional, Sequence, Tuple

from . import ed25519

__all__ = ["MAX_WORKERS", "SHARD_CAP", "STALL_BOUND_S", "spare_cores",
           "start", "verify_batch", "stop"]

MAX_WORKERS = 3
"""Most workers a node forks: the other three cores of the paper's
quad-core gateway (a Raspberry Pi 3B)."""

SHARD_CAP = 128
"""Most signatures one shard carries: a larger batch is verified in
rounds of at most ``SHARD_CAP`` per shard, so a worker's time per
request is bounded whatever a peer sends."""

STALL_BOUND_S = 5.0
"""How long past the end of its own shard the node waits for a worker's
verdicts; past it the worker is treated as dead.  A worker's shard is
no larger than the node's, so a healthy worker is done about when the
node is.  The worst shard — :data:`SHARD_CAP` signatures from as many
never-seen issuers, whose batch equation fails and falls back to single
verifies that each build the issuer's tables — takes ~0.5 s on a
2-vCPU x86 host."""

_KEY, _MESSAGE, _SIGNATURE = 32, 32, 64
_RECORD = _KEY + _MESSAGE + _SIGNATURE
_COUNT = struct.Struct(">I")

Item = Tuple[bytes, bytes, bytes]


class _Worker:
    __slots__ = ("pid", "channel")

    def __init__(self, pid: int, channel: socket.socket):
        self.pid = pid
        self.channel = channel


_workers: List[_Worker] = []
_placed_around: Optional[int] = None
"""The node's CPU when the workers were last pinned around it."""


def spare_cores() -> int:
    """Workers a node forks on this host: one per usable core besides
    its own, at most :data:`MAX_WORKERS` — none on one core, and none
    where the process cannot pin its workers to cores."""
    if not hasattr(os, "sched_setaffinity"):
        return 0
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)) - 1)


def start(count: int) -> List[int]:
    """Fork *count* workers and return the pids of every live one.

    Call it before the process starts threads, an event loop or any
    socket it means to keep: each child inherits the parent's memory
    (the precomputed base table included, shared copy-on-write) and
    closes every descriptor but its own end of its socketpair and
    stderr."""
    for _ in range(count):
        node_end, worker_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            node_end.close()
            _serve(worker_end)  # never returns
        worker_end.close()
        _workers.append(_Worker(pid, node_end))
    return [worker.pid for worker in _workers]


def _serve(channel: socket.socket) -> None:
    """A worker's whole life: answer requests until EOF, then leave
    through ``os._exit`` (no atexit hooks or buffers of the parent's)."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        fd = channel.fileno()
        os.closerange(3, fd)
        os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
        null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, 0)
        os.dup2(null, 1)
        os.close(null)
        while True:
            header = _read_exactly(channel, _COUNT.size)
            if header is None:
                break
            data = _read_exactly(channel, _COUNT.unpack(header)[0] * _RECORD)
            if data is None:
                break
            items = [(data[at:at + _KEY],
                      data[at + _KEY:at + _KEY + _MESSAGE],
                      data[at + _KEY + _MESSAGE:at + _RECORD])
                     for at in range(0, len(data), _RECORD)]
            channel.sendall(bytes(ed25519.verify_batch(items)))
        code = 0
    except OSError:  # the node went away mid-request
        code = 0
    finally:
        os._exit(code)


def _read_exactly(channel: socket.socket, size: int) -> Optional[bytes]:
    """*size* bytes from *channel*, or None at EOF."""
    chunks = []
    while size:
        chunk = channel.recv(size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _fits(item: Item) -> bool:
    public_key, message, signature = item
    return (isinstance(public_key, bytes) and len(public_key) == _KEY
            and isinstance(message, bytes) and len(message) == _MESSAGE
            and isinstance(signature, bytes) and len(signature) == _SIGNATURE)


def verify_batch(items: Sequence[Item]) -> List[bool]:
    """``ed25519.verify_batch(items)``, shared out among the workers.

    The items that fit a record are cut into ``1 + workers`` contiguous
    shards of near-equal count — fewer when that would leave a shard
    under ``ed25519``'s batch floor, none when fewer than two shards are
    left, and in rounds when a shard would pass :data:`SHARD_CAP`.  The
    node's own shard is the first, plus every item that does not fit a
    record."""
    lane = [index for index, item in enumerate(items) if _fits(item)]
    shards = min(len(_workers) + 1, len(lane) // ed25519._BATCH_FLOOR)
    if shards < 2:
        return ed25519.verify_batch(items)
    step = shards * SHARD_CAP
    if len(lane) > step:
        return [ok for start in range(0, len(items), step)
                for ok in verify_batch(items[start:start + step])]
    _place_workers()
    cuts = [len(lane) * shard // shards for shard in range(shards + 1)]
    sent = []
    for worker, first, last in zip(list(_workers), cuts[1:], cuts[2:]):
        piece = lane[first:last]
        if _send(worker, [items[index] for index in piece]):
            sent.append((worker, piece))
        else:
            _retire(worker)
    delegated = {index for _, piece in sent for index in piece}
    own = [index for index in range(len(items)) if index not in delegated]
    try:
        own_verdicts = ed25519.verify_batch([items[index] for index in own])
    except BaseException:
        for worker, _ in sent:  # their verdicts would answer the next call
            _retire(worker)
        raise
    results = [False] * len(items)
    for index, ok in zip(own, own_verdicts):
        results[index] = ok
    deadline = time.monotonic() + STALL_BOUND_S
    for worker, piece in sent:
        verdicts = _receive(worker, len(piece), deadline)
        if verdicts is None:
            _retire(worker)
            verdicts = ed25519.verify_batch([items[index] for index in piece])
        for index, ok in zip(piece, verdicts):
            results[index] = bool(ok)
    return results


def _place_workers() -> None:
    """Pin each worker to a CPU other than the one the node is on.

    Writing a request to a worker's socket is a synchronous wake-up,
    which the scheduler answers by starting the worker on the writer's
    CPU; but the node goes on to verify its own shard there.  On a
    2-vCPU VM the two were measured sharing one core for whole bursts
    while the other idled.  So each round reads the node's CPU and,
    when it has moved since the last placement, pins the workers one
    per remaining CPU."""
    global _placed_around
    try:
        with open("/proc/self/stat", "rb") as handle:
            cpu = int(handle.read().rsplit(b")", 1)[1].split()[36])
    except OSError:  # no procfs: leave placement to the scheduler
        return
    if cpu == _placed_around:
        return
    others = sorted(os.sched_getaffinity(0) - {cpu}) or [cpu]
    for index, worker in enumerate(_workers):
        try:
            os.sched_setaffinity(worker.pid, {others[index % len(others)]})
        except OSError:  # already dead: the round finds out
            pass
    _placed_around = cpu


def _send(worker: _Worker, items: List[Item]) -> bool:
    request = b"".join([_COUNT.pack(len(items)),
                        *(b"".join(item) for item in items)])
    try:
        worker.channel.settimeout(STALL_BOUND_S)
        worker.channel.sendall(request)
    except OSError:  # a dead worker's broken pipe, or a stalled one
        return False
    return True


def _receive(worker: _Worker, count: int,
             deadline: float) -> Optional[bytes]:
    """*count* verdict bytes from *worker* by *deadline*, or None."""
    try:
        worker.channel.settimeout(max(deadline - time.monotonic(), 0.0))
        return _read_exactly(worker.channel, count)
    except OSError:  # the timeout, or a reset
        return None


def _retire(worker: _Worker) -> None:
    """Drop *worker* from the pool: SIGKILL it and reap it."""
    global _placed_around
    _placed_around = None  # the others move up a place
    _workers.remove(worker)
    worker.channel.close()
    try:
        os.kill(worker.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(worker.pid, 0)
    except ChildProcessError:
        pass


def stop() -> None:
    """End and reap every worker.  A worker holds nothing but a copy of
    the node's memory, so it is simply killed."""
    for worker in list(_workers):
        _retire(worker)
