"""Outside-in plumbing: node OS processes, framed TCP connections,
``/metrics`` scrapes and ``/proc`` readers.

Nodes are started by raw ``python -m repro node …`` argv and recognised
by their JSON ready line; everything the driver says to them travels as
the product's own frames (:func:`repro.network.frame.encode_frame`) over
loopback TCP.  Nothing here imports the product's process harness.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.transport import Message

from e2e_stream import CRYPTO_BACKEND

# Node processes import the same ``repro`` the driver did.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

READY_TIMEOUT_S = 60.0
RPC_TIMEOUT_S = 30.0
HOST = "127.0.0.1"
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")

_request_ids = itertools.count(1)


def next_request_id() -> int:
    return next(_request_ids)


def encode(sender: str, recipient: str, kind: str, body,
           size_bytes: int = 0) -> bytes:
    """One wire frame, as a node's own transport would write it."""
    return encode_frame(Message(sender=sender, recipient=recipient,
                                kind=kind, body=body, sent_at=0.0,
                                size_bytes=size_bytes))


class BenchError(RuntimeError):
    """The harness could not run the workload (not a measured failure)."""


# -- node processes ---------------------------------------------------------

class NodeProcess:
    """One ``python -m repro node`` child."""

    def __init__(self, address: str, argv: List[str], run_dir: str):
        self.address = address
        self.argv = argv
        self.stderr_path = os.path.join(run_dir, f"{address}.stderr.log")
        self.process: Optional[asyncio.subprocess.Process] = None
        self.ready: Dict[str, object] = {}
        self.spawn_ready_s = 0.0

    async def start(self) -> "NodeProcess":
        """Spawn and wait for the ready line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Same hash layout in every node process: one less thing that
        # differs between two runs of the same seed.
        env["PYTHONHASHSEED"] = "0"
        began = time.perf_counter()
        with open(self.stderr_path, "ab") as stderr:
            self.process = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", *self.argv,
                stdout=asyncio.subprocess.PIPE, stderr=stderr, env=env)
        try:
            line = await asyncio.wait_for(self.process.stdout.readline(),
                                          READY_TIMEOUT_S)
            self.ready = json.loads(line)
        except (asyncio.TimeoutError, ValueError) as exc:
            raise BenchError(
                f"{self.address}: no ready line ({exc!r}); stderr tail:\n"
                f"{self.stderr_tail()}") from exc
        if self.ready.get("event") != "ready":
            raise BenchError(f"{self.address}: unexpected line {line!r}")
        self.spawn_ready_s = time.perf_counter() - began
        return self

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def port(self) -> int:
        return int(self.ready["port"])

    @property
    def metrics_port(self) -> int:
        return int(self.ready["metrics_port"])

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            with open(self.stderr_path, "rb") as handle:
                return handle.read()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""

    def cpu_ms(self) -> float:
        """utime + stime of the process so far, from ``/proc``."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1000.0 / _TICKS_PER_S

    def rss_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"{self.address}: no VmHWM in /proc status")

    async def kill(self) -> None:
        """SIGKILL — the crash a journal must survive."""
        if self.process.returncode is None:
            self.process.kill()
        await self.process.wait()

    async def stop(self, timeout: float = 5.0) -> None:
        """SIGTERM, then SIGKILL if it lingers; always reaps."""
        if self.process is None:
            return
        if self.process.returncode is None:
            self.process.terminate()
            try:
                await asyncio.wait_for(self.process.wait(), timeout)
            except asyncio.TimeoutError:
                self.process.kill()
        await self.process.wait()


# -- connections ------------------------------------------------------------

Handler = Callable[[dict, int], None]


class Conn:
    """One TCP connection to a node, speaking as *name*.

    Replies are timestamped once per read chunk (``perf_counter_ns``
    taken before decoding, so driver decode time is not billed to the
    node) and routed to a pending :meth:`rpc` future or a per-kind
    handler ``fn(body, t_ns)``.
    """

    def __init__(self, name: str, target: str):
        self.name = name
        self.target = target
        self.handlers: Dict[str, Handler] = {}
        self._pending: Dict[Tuple[str, object], asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self, port: int) -> "Conn":
        reader, self._writer = await asyncio.open_connection(HOST, port)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(reader))
        return self

    def frame(self, kind: str, body, size_bytes: int = 0) -> bytes:
        return encode(self.name, self.target, kind, body, size_bytes)

    def write(self, data: bytes) -> None:
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        while True:
            try:
                data = await reader.read(65536)
            except (ConnectionError, OSError):
                return
            if not data:
                return
            t_ns = time.perf_counter_ns()
            for message in decoder.feed(data):
                body = message.body
                request_id = body.get("request_id") \
                    if isinstance(body, dict) else None
                future = self._pending.pop((message.kind, request_id), None)
                if future is not None:
                    if not future.done():
                        future.set_result((body, t_ns))
                    continue
                handler = self.handlers.get(message.kind)
                if handler is not None:
                    handler(body, t_ns)

    async def rpc(self, kind: str, body: dict, reply_kind: str, *,
                  tagged: bool = True,
                  timeout: float = RPC_TIMEOUT_S) -> Tuple[dict, int]:
        """Send one request and await its reply: ``(body, t_ns)``.

        *tagged* replies echo a ``request_id``; untagged ones
        (``disc_peers``) are matched on kind alone.
        """
        request_id = None
        if tagged:
            request_id = next_request_id()
            body = dict(body, request_id=request_id)
        future = asyncio.get_running_loop().create_future()
        self._pending[(reply_kind, request_id)] = future
        self.write(self.frame(kind, body))
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop((reply_kind, request_id), None)
            raise BenchError(
                f"{self.name}: no {reply_kind} from {self.target} "
                f"within {timeout:.0f}s") from None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)


# -- one round's fleet ------------------------------------------------------

class Fleet:
    """Everything one round starts: a run directory under ``out/``, the
    node processes and the driver's connections.  Leaving the context
    reaps every child (SIGTERM → SIGKILL), closes every connection and
    removes the directory, also on failure."""

    def __init__(self, genesis_hex: str):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.genesis_path = os.path.join(self.run_dir, "genesis.hex")
        with open(self.genesis_path, "w") as handle:
            handle.write(genesis_hex + "\n")
        self.nodes: Dict[str, NodeProcess] = {}
        self.retired: List[NodeProcess] = []
        self.conns: List[Conn] = []

    async def __aenter__(self) -> "Fleet":
        return self

    async def __aexit__(self, *_exc) -> None:
        for conn in self.conns:
            await conn.close()
        for node in list(self.nodes.values()) + self.retired:
            await node.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def node_argv(self, address: str, index: int, *, durable: bool,
                  seed_node: Optional[NodeProcess]) -> List[str]:
        argv = ["node", "--address", address,
                "--genesis", self.genesis_path,
                "--rng-seed", str(index),
                "--listen", f"{HOST}:0",
                "--crypto-backend", CRYPTO_BACKEND,
                "--metrics-port", "0",
                "--storage-backend", "file" if durable else "none"]
        if durable:
            argv += ["--storage-dir", os.path.join(self.run_dir, "storage")]
        if seed_node is not None:
            argv += ["--seed-node",
                     f"{seed_node.address}={HOST}:{seed_node.port}"]
        return argv

    async def spawn(self, address: str, index: int, *, durable: bool = False,
                    seed_node: Optional[NodeProcess] = None) -> NodeProcess:
        node = NodeProcess(
            address, self.node_argv(address, index, durable=durable,
                                    seed_node=seed_node), self.run_dir)
        self.nodes[address] = node
        return await node.start()

    async def respawn(self, address: str) -> NodeProcess:
        """Run a dead node's identical argv again (the cold restart)."""
        old = self.nodes[address]
        self.retired.append(old)
        node = NodeProcess(address, old.argv, self.run_dir)
        self.nodes[address] = node
        return await node.start()

    async def connect(self, name: str, node: NodeProcess) -> Conn:
        conn = await Conn(name, node.address).open(node.port)
        self.conns.append(conn)
        return conn

    def journal_mb(self) -> float:
        total = 0
        for root, _, files in os.walk(os.path.join(self.run_dir, "storage")):
            total += sum(os.path.getsize(os.path.join(root, name))
                         for name in files)
        return total / (1024.0 * 1024.0)


# -- /metrics ---------------------------------------------------------------

async def scrape(node: NodeProcess) -> Dict[str, float]:
    """One ``GET /metrics``; samples summed over labels, by name."""
    reader, writer = await asyncio.open_connection(HOST, node.metrics_port)
    try:
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                     b"Connection: close\r\n\r\n")
        page = (await asyncio.wait_for(reader.read(), RPC_TIMEOUT_S)).decode()
    finally:
        writer.close()
    totals: Dict[str, float] = {}
    for line in page.partition("\r\n\r\n")[2].splitlines():
        if not line or line.startswith("#"):
            continue
        sample, _, value = line.rpartition(" ")
        name = sample.partition("{")[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals
