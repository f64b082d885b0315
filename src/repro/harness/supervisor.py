"""Process supervisor: spawn, kill, restart ``repro node`` children.

A :class:`ProcessFleet` launches each full node as its own
``repro node`` child (``python -m repro node …``), reads the
machine-readable ready line to learn its OS-assigned ports, and keeps
handles for the ``kill -9`` / SIGTERM / cold-restart choreography the
process differential (:mod:`repro.harness.controller`) and the scale
bench (:mod:`repro.harness.scale`) direct.  Nothing here speaks the
wire protocol: the supervisor needs only ``subprocess`` and a pipe.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network.proc import READY_EVENT, NodeProcessSpec

__all__ = [
    "READY_TIMEOUT",
    "FleetProcessError",
    "NodeProcess",
    "ProcessFleet",
    "scrape_metrics",
    "write_genesis",
]

READY_TIMEOUT = 30.0
"""Wall seconds a child gets to print its ready line."""


class FleetProcessError(RuntimeError):
    """A child process failed to start, answer, or die on cue."""


@dataclass
class NodeProcess:
    """One spawned ``repro node`` child."""

    spec: NodeProcessSpec
    process: subprocess.Popen
    stderr_path: str
    ready: Optional[Dict[str, object]] = None

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


def _read_ready_line(process: subprocess.Popen, *, timeout: float,
                     what: str, stderr_path: str) -> str:
    """Block (with a deadline) until the child's first stdout line."""
    stream = process.stdout
    os.set_blocking(stream.fileno(), False)
    deadline = time.monotonic() + timeout
    buffer = b""
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise FleetProcessError(
                f"{what} exited rc={process.returncode} before its ready "
                f"line; stderr tail:\n{_tail(stderr_path)}")
        readable, _, _ = select.select([stream], [], [], 0.1)
        if not readable:
            continue
        chunk = stream.read(65536)
        if not chunk:
            continue
        buffer += chunk
        if b"\n" in buffer:
            line, _, _ = buffer.partition(b"\n")
            return line.decode("utf-8", errors="replace")
    raise FleetProcessError(
        f"{what} produced no ready line within {timeout:.0f}s; "
        f"stderr tail:\n{_tail(stderr_path)}")


def _tail(path: str, limit: int = 4000) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return "<no stderr captured>"
    return data[-limit:].decode("utf-8", errors="replace") or "<empty>"


class ProcessFleet:
    """Spawns and supervises ``repro node`` children.

    ``run_dir`` collects per-node stderr logs; the children inherit the
    parent environment with ``src/`` prepended to ``PYTHONPATH`` so the
    fleet runs from a source checkout without installation.
    """

    def __init__(self, *, run_dir: str, python: Optional[str] = None):
        os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        self.python = python if python is not None else sys.executable
        base = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        existing = base.get("PYTHONPATH")
        base["PYTHONPATH"] = (src_root if not existing
                              else src_root + os.pathsep + existing)
        self.env = base
        self.processes: Dict[str, NodeProcess] = {}

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def spawn(self, spec: NodeProcessSpec, *,
              timeout: float = READY_TIMEOUT) -> Dict[str, object]:
        """Launch *spec* and block until its ready line; returns it."""
        existing = self.processes.get(spec.address)
        if existing is not None and existing.alive:
            raise FleetProcessError(
                f"{spec.address} is already running "
                f"(pid {existing.process.pid})")
        stderr_path = os.path.join(self.run_dir,
                                   f"{spec.address}.stderr.log")
        with open(stderr_path, "ab") as stderr:
            process = subprocess.Popen(
                [self.python, "-m", "repro"] + spec.to_argv(),
                stdout=subprocess.PIPE, stderr=stderr, env=self.env)
        entry = NodeProcess(spec=spec, process=process,
                            stderr_path=stderr_path)
        self.processes[spec.address] = entry
        line = _read_ready_line(process, timeout=timeout,
                                what=f"node process {spec.address}",
                                stderr_path=stderr_path)
        try:
            info = json.loads(line)
        except json.JSONDecodeError:
            info = None
        if not isinstance(info, dict) or info.get("event") != READY_EVENT:
            raise FleetProcessError(
                f"{spec.address} printed {line!r} instead of a ready "
                f"line; stderr tail:\n{_tail(stderr_path)}")
        entry.ready = info
        return info

    async def spawn_all(self, specs: List[NodeProcessSpec], *,
                        discover: bool = False
                        ) -> Dict[str, Tuple[str, int]]:
        """Spawn *specs* in order without blocking the event loop and
        return the fleet's dial directory.  With ``discover=True`` the
        first node is the discovery seed every later one hellos."""
        loop = asyncio.get_running_loop()
        for spec in specs:
            if discover and spec is not specs[0]:
                host, port = self.directory()[specs[0].address]
                spec.seeds = [f"{specs[0].address}={host}:{port}"]
            await loop.run_in_executor(None, self.spawn, spec)
        return self.directory()

    def directory(self) -> Dict[str, Tuple[str, int]]:
        """``address -> (host, port)`` from every child's ready line."""
        return {address: (entry.ready["host"], entry.ready["port"])
                for address, entry in self.processes.items()
                if entry.ready is not None}

    def respawn(self, address: str, *,
                timeout: float = READY_TIMEOUT) -> Dict[str, object]:
        """Relaunch a dead node with its original spec (same storage
        dir, same seeds) — the cold-restart path.  Like :meth:`spawn`,
        refuses while the node is still running."""
        return self.spawn(self._entry(address).spec, timeout=timeout)

    def kill(self, address: str, *, timeout: float = 10.0) -> None:
        """SIGKILL — the crash the journal must survive."""
        entry = self._entry(address)
        entry.process.kill()
        entry.process.wait(timeout=timeout)

    def terminate(self, address: str, *, timeout: float = 10.0) -> int:
        """SIGTERM and wait; returns the exit code."""
        entry = self._entry(address)
        if entry.alive:
            entry.process.terminate()
        try:
            return entry.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            entry.process.kill()
            entry.process.wait(timeout=timeout)
            raise FleetProcessError(
                f"{address} ignored SIGTERM for {timeout:.0f}s; "
                f"stderr tail:\n{_tail(entry.stderr_path)}")

    def shutdown(self, *, timeout: float = 10.0) -> Dict[str, int]:
        """Terminate every still-running child; SIGKILL stragglers."""
        codes: Dict[str, int] = {}
        for address, entry in self.processes.items():
            if entry.alive:
                entry.process.terminate()
        for address, entry in self.processes.items():
            try:
                codes[address] = entry.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                entry.process.kill()
                codes[address] = entry.process.wait(timeout=timeout)
        return codes

    def _entry(self, address: str) -> NodeProcess:
        entry = self.processes.get(address)
        if entry is None:
            raise FleetProcessError(f"no such node process: {address}")
        return entry


def write_genesis(genesis, run_dir: str) -> str:
    """Write the deployment genesis where ``--genesis`` reads it (hex)."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "genesis.hex")
    with open(path, "w") as handle:
        handle.write(genesis.to_bytes().hex() + "\n")
    return path


def scrape_metrics(host: str, port: int, *, timeout: float = 5.0) -> str:
    """Fetch a node process's Prometheus page; returns the body text."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: fleet\r\n"
                     b"Connection: close\r\n\r\n")
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    text = b"".join(chunks).decode("utf-8", errors="replace")
    _, _, body = text.partition("\r\n\r\n")
    return body
