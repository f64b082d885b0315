"""Signature verdicts on a gateway's cores: forked verify workers.

A ``repro node`` process forks its workers once, before its event loop
starts and before it opens any store or socket (:func:`start`): one per
usable core, at most :data:`MAX_WORKERS`, none on a one-core host or on
one without CPU affinity (:func:`worker_count`).  The node then checks
no batch itself; the kernel balances the node and its workers over the
cores.

:func:`hand_off` writes a batch — cut into contiguous, count-balanced
pieces when it holds more than :data:`SHARD_CAP` signatures — to the
request FIFO of the next worker in turn and returns a :class:`Batch` at
once.  Each
worker answers its requests in the order they were written, each
through the unchanged :func:`repro.crypto.ed25519.verify_batch`, so a
batch's verdicts are those of one in-process ``verify_batch``.
:meth:`Batch.ready` files whatever verdicts have arrived without
blocking; :meth:`Batch.wait` blocks until the batch's are all in, so
``hand_off(items).wait()`` is the synchronous check.
A batch under ``ed25519``'s batch floor, and items of a shape no record
carries, are checked in-process during the hand-off; with no worker
started every batch is, so in-process deployments and the simulator
never fork and never wait.

Given ``on_ready`` under a running asyncio loop, the loop watches each
busy worker's socket, and when the batch's last verdict arrives
``on_ready`` is scheduled on the loop (``call_soon``): a completion
never runs the caller's code from inside this module.  Without a
running loop nothing could call it back, so :func:`hand_off` waits for
the verdicts before it returns.

The wire is one socketpair per worker.  A request is a 4-byte
big-endian count and that many 128-byte records ``pk ‖ message ‖
signature``; the reply is one byte per record, 1 for a valid signature.
There is no pickling.

Failure rule: a worker whose socket breaks, or that has been silent for
:data:`STALL_BOUND_S` since it was handed work or last answered, is
SIGKILLed and reaped, and every request it still owes is checked
in-process, in the order it was written.  The pool carries on without
it.  Nothing is re-forked: forking from inside a running event loop
would copy the loop, its sockets and its store into the child.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import socket
import struct
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from . import ed25519

__all__ = ["MAX_WORKERS", "SHARD_CAP", "STALL_BOUND_S", "Batch",
           "worker_count", "start", "hand_off", "stop"]

MAX_WORKERS = 4
"""Most workers a node forks: the four cores of the paper's quad-core
gateway (a Raspberry Pi 3B)."""

SHARD_CAP = 128
"""Most signatures one request carries: a larger batch is cut into more
pieces, so a worker's time per request is bounded whatever a peer
sends."""

STALL_BOUND_S = 5.0
"""How long a worker that owes verdicts may stay silent before it is
treated as dead.  The worst request — :data:`SHARD_CAP` signatures
from as many never-seen issuers, whose batch equation fails and falls
back to single verifies that each build the issuer's tables — takes
~0.5 s on a 2-vCPU x86 host."""

_KEY, _MESSAGE, _SIGNATURE = 32, 32, 64
_RECORD = _KEY + _MESSAGE + _SIGNATURE
_COUNT = struct.Struct(">I")

Item = Tuple[bytes, bytes, bytes]


class Batch:
    """One handed-off batch: its verdicts, filled in as they arrive."""

    __slots__ = ("items", "verdicts", "owed", "on_ready", "loop")

    def __init__(self, items: Sequence[Item]):
        self.items = items
        self.verdicts = [False] * len(items)
        self.owed = 0  # requests whose verdicts have not arrived
        self.on_ready: Optional[Callable[[], None]] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def ready(self) -> bool:
        """Whether every verdict is in, after filing what the workers
        have sent so far (never blocks)."""
        if self.owed:
            for worker in list(_workers):
                if worker.owes(self):
                    _pull(worker)
        return not self.owed

    def wait(self) -> List[bool]:
        """The verdicts, one per item, once all are in; a worker that
        breaks or stalls meanwhile is retired and its share checked
        here."""
        for worker in list(_workers):
            while worker.owes(self):
                remaining = worker.heard + STALL_BOUND_S - time.monotonic()
                if remaining <= 0 or not select.select(
                        [worker.channel], [], [], remaining)[0]:
                    _retire(worker)
                    break
                _pull(worker)
        return self.verdicts

    def _fill(self, indexes: Sequence[int], verdicts) -> None:
        for index, ok in zip(indexes, verdicts):
            self.verdicts[index] = bool(ok)
        self.owed -= 1
        if not self.owed and self.on_ready is not None \
                and not self.loop.is_closed():
            self.loop.call_soon(self.on_ready)


class _Worker:
    __slots__ = ("pid", "channel", "requests", "answer", "heard", "loop")

    def __init__(self, pid: int, channel: socket.socket):
        self.pid = pid
        self.channel = channel
        # (batch, indexes) of every request written and not yet
        # answered, in the order written: the worker's FIFO.
        self.requests: Deque[Tuple[Batch, List[int]]] = deque()
        self.answer = b""  # verdict bytes of a request not yet complete
        self.heard = 0.0   # when it was last handed work while idle, or answered
        self.loop: Optional[asyncio.AbstractEventLoop] = None  # watching it

    def owes(self, batch: Batch) -> bool:
        return any(owed is batch for owed, _ in self.requests)


_workers: List[_Worker] = []
_turn = 0
"""Which worker the next piece goes to: pieces take the workers in
turn."""
_stall_check: Optional[Tuple[asyncio.AbstractEventLoop,
                             asyncio.TimerHandle]] = None
"""The loop whose watched workers the armed stall check covers, and its
timer."""


def worker_count() -> int:
    """Workers a node forks on this host: one per usable core, at most
    :data:`MAX_WORKERS` — none on one core, and none where Python cannot
    read the process's CPU affinity (macOS)."""
    if not hasattr(os, "sched_getaffinity"):
        return 0
    cores = len(os.sched_getaffinity(0))
    return min(MAX_WORKERS, cores) if cores > 1 else 0


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
        node_end.setblocking(False)
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


def hand_off(items: Sequence[Item], *,
             on_ready: Optional[Callable[[], None]] = None) -> Batch:
    """Start checking *items*; the returned :class:`Batch` collects the
    verdicts ``ed25519.verify_batch(items)`` would return.

    The items that fit a record go to the next worker as one piece, or
    as contiguous pieces of near-equal count to the next workers in
    turn when one would pass :data:`SHARD_CAP`: a worker checking a
    whole batch pays the batch equation's fixed cost once, and the
    workers overlap across batches instead.  Items that fit no record,
    and a batch under ``ed25519``'s batch floor, are checked here before
    this returns.  *on_ready* is scheduled on the running
    loop once the last verdict is in (module docstring)."""
    global _turn
    batch = Batch(items)
    lane = [index for index, item in enumerate(items) if _fits(item)]
    if not _workers or len(lane) < ed25519._BATCH_FLOOR:
        batch.verdicts = ed25519.verify_batch(items)
        return batch
    pieces = -(-len(lane) // SHARD_CAP)
    cuts = [len(lane) * piece // pieces for piece in range(pieces + 1)]
    batch.owed = pieces
    if len(lane) < len(items):
        fitting = set(lane)
        odd = [index for index in range(len(items)) if index not in fitting]
        batch.owed += 1
        batch._fill(odd, ed25519.verify_batch([items[i] for i in odd]))
    for first, last in zip(cuts, cuts[1:]):
        piece = lane[first:last]
        if _workers:
            _request(_workers[_turn % len(_workers)], batch, piece)
            _turn += 1
        else:  # every worker failed during this hand-off
            batch._fill(piece, ed25519.verify_batch(
                [items[index] for index in piece]))
    if batch.owed and on_ready is not None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # nothing could call it back
            batch.wait()
        else:
            batch.on_ready, batch.loop = on_ready, loop
            for worker in _workers:
                if worker.owes(batch):
                    _watch(worker, loop)
    return batch


def _request(worker: _Worker, batch: Batch, piece: List[int]) -> None:
    """Write *piece* of *batch* to *worker*'s FIFO; a worker that
    cannot take it is retired, which checks it here."""
    if not worker.requests:
        worker.heard = time.monotonic()
    worker.requests.append((batch, piece))
    request = b"".join([_COUNT.pack(len(piece)),
                        *(b"".join(batch.items[index]) for index in piece)])
    try:
        worker.channel.settimeout(STALL_BOUND_S)
        worker.channel.sendall(request)
        worker.channel.setblocking(False)
    except OSError:  # a dead worker's broken pipe, or a stalled one
        _retire(worker)


def _pull(worker: _Worker) -> None:
    """File what *worker* has sent, without blocking; retire it at EOF
    or on a broken socket.  The loop calls this when its socket turns
    readable."""
    while worker in _workers:
        try:
            data = worker.channel.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            _retire(worker)
            return
        worker.heard = time.monotonic()
        answer = worker.answer + data
        requests = worker.requests
        while requests and len(answer) >= len(requests[0][1]):
            batch, piece = requests.popleft()
            batch._fill(piece, answer[:len(piece)])
            answer = answer[len(piece):]
        worker.answer = answer
        if not requests:
            _unwatch(worker)


def _watch(worker: _Worker, loop: asyncio.AbstractEventLoop) -> None:
    """Have *loop* file *worker*'s verdicts as they arrive, and arm the
    stall check on it."""
    if worker.loop is not loop:
        _unwatch(worker)
        loop.add_reader(worker.channel.fileno(), _pull, worker)
        worker.loop = loop
    if _stall_check is None or _stall_check[0] is not loop:
        _arm_stall_check(loop, STALL_BOUND_S)


def _arm_stall_check(loop: asyncio.AbstractEventLoop, delay: float) -> None:
    global _stall_check
    _cancel_stall_check()
    _stall_check = loop, loop.call_later(delay, _check_stalls, loop)


def _cancel_stall_check() -> None:
    global _stall_check
    if _stall_check is not None and not _stall_check[0].is_closed():
        _stall_check[1].cancel()
    _stall_check = None


def _unwatch(worker: _Worker) -> None:
    if worker.loop is not None:
        if not worker.loop.is_closed():
            worker.loop.remove_reader(worker.channel.fileno())
        worker.loop = None


def _check_stalls(loop: asyncio.AbstractEventLoop) -> None:
    """Retire every watched worker silent for :data:`STALL_BOUND_S`
    with verdicts owed; check again while any still owes some."""
    global _stall_check
    _stall_check = None
    now = time.monotonic()
    for worker in list(_workers):
        if worker.loop is loop:
            _pull(worker)
            if worker.requests and now - worker.heard >= STALL_BOUND_S:
                _retire(worker)
    busy = [worker.heard for worker in _workers if worker.loop is loop]
    if busy:
        _arm_stall_check(loop, max(min(busy) + STALL_BOUND_S - now, 0.0))


def _retire(worker: _Worker) -> None:
    """Drop *worker* from the pool: SIGKILL it, reap it, and check what
    it still owes here, in the order it was written."""
    _workers.remove(worker)
    _unwatch(worker)
    worker.channel.close()
    try:
        os.kill(worker.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(worker.pid, 0)
    except ChildProcessError:
        pass
    while worker.requests:
        batch, piece = worker.requests.popleft()
        batch._fill(piece, ed25519.verify_batch(
            [batch.items[index] for index in piece]))


def stop() -> None:
    """End and reap every worker.  A worker holds nothing but a copy of
    the node's memory, so it is simply killed."""
    _cancel_stall_check()
    for worker in list(_workers):
        _retire(worker)
