"""The one submit client every leg delivers its workload through.

A :class:`SubmitClient` is an ordinary :class:`~repro.network.network.
NetworkNode`: attach it to the simulator's ``Network`` and chain
submissions with :meth:`SubmitClient.submit_serially`, or host it on a
connect-only TCP transport with :meth:`SubmitClient.connect` and
``await`` :meth:`SubmitClient.submit` — the timeout/retry loop lives
once in :meth:`SubmitClient.request`, which the fleet control RPCs
(:mod:`repro.harness.controller`) ride as well.  Responses are matched
on ``request_id``, so one client can keep one submission in flight per
target (the scale bench) as easily as one in total (the differentials,
where the admitting node must attach parents before children).
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.aio import AsyncioScheduler, AsyncioTransport, NodeRunner
from ..network.network import NetworkNode
from ..network.transport import Message

__all__ = ["SUBMIT_ATTEMPTS", "SubmitClient"]

SUBMIT_ATTEMPTS = 3
"""Sends per transaction before :meth:`SubmitClient.submit` gives up; a
re-sent transaction the node already holds answers ``duplicate``, and
:attr:`SubmitClient.results` keeps the first verdict."""

Outcome = Tuple[bool, Optional[str]]


class SubmitClient(NetworkNode):
    """Submits encoded transactions and records every first verdict."""

    def __init__(self, address: str = "driver"):
        super().__init__(address)
        self.results: Dict[int, Outcome] = {}
        self._futures: Dict[Tuple[str, int], "asyncio.Future"] = {}
        self._on_response = None
        self._runner: Optional[NodeRunner] = None

    @property
    def rejected(self) -> List[Dict[str, object]]:
        """Requests the node refused (``duplicate`` is a retry's echo,
        not a refusal)."""
        return [
            {"index": request_id, "error": error}
            for request_id, (ok, error) in sorted(self.results.items())
            if not ok and error != "duplicate"
        ]

    def handle_message(self, message: Message) -> None:
        body = message.body
        if not isinstance(body, dict):
            return
        request_id = body.get("request_id")
        # Waking the awaiting coroutine is deferred to the event loop,
        # so it observes the verdict recorded just below.
        future = self._futures.pop((message.kind, request_id), None)
        if future is not None and not future.done():
            future.set_result(body)
        if message.kind == "submit_response":
            if isinstance(request_id, int):
                self.results.setdefault(
                    request_id, (bool(body.get("ok")), body.get("error")))
            if self._on_response is not None:
                self._on_response()

    # -- simulator: serial send-next chaining ------------------------------

    def submit_serially(self, target: str, stream: Sequence[bytes]) -> None:
        """Send ``stream[0]`` now and each next transaction when the
        previous one's response arrives (request id = stream index)."""

        def send_next() -> None:
            pending = len(self.results)
            if pending < len(stream):
                self.send(target, "submit_transaction",
                          {"transaction": stream[pending],
                           "request_id": pending},
                          size_bytes=len(stream[pending]))

        self._on_response = send_next
        send_next()

    # -- TCP: awaitable request/response with timeout/retry ----------------

    async def connect(self, directory: Dict[str, Tuple[str, int]], *,
                      rng_seed: object,
                      time_scale: float = 1.0) -> None:
        """Host this client on its own connect-only transport dialing
        the addresses in *directory* (kept by reference, so a restarted
        node's new port can be written into it)."""
        scheduler = AsyncioScheduler(time_scale=time_scale)
        transport = AsyncioTransport(
            scheduler, directory=directory,
            rng=random.Random(f"submit-client:{rng_seed}"))
        self._runner = NodeRunner(self, transport, listen=None)
        await self._runner.start()

    async def close(self) -> None:
        if self._runner is not None:
            await self._runner.stop()
            self._runner.transport.scheduler.cancel_all()

    async def request(self, target: str, kind: str, body: Dict[str, object],
                      *, reply_kind: str, request_id: int,
                      timeout: float = 10.0, attempts: int = SUBMIT_ATTEMPTS,
                      size_bytes: int = 0) -> Dict[str, object]:
        """Send *body* (stamped with *request_id*) and await the body of
        the *reply_kind* message echoing that id, re-sending on timeout.
        Workload submissions and the fleet control RPCs are both this."""
        loop = asyncio.get_running_loop()
        key = (reply_kind, request_id)
        for _ in range(attempts):
            future = loop.create_future()
            self._futures[key] = future
            self.send(target, kind, {**body, "request_id": request_id},
                      size_bytes=size_bytes)
            try:
                return await asyncio.wait_for(future, timeout=timeout)
            except asyncio.TimeoutError:
                self._futures.pop(key, None)
        raise TimeoutError(
            f"no {reply_kind} from {target} for request {request_id} "
            f"after {attempts} attempt(s)")

    async def submit(self, target: str, request_id: int, encoded: bytes, *,
                     timeout: float = 10.0) -> Outcome:
        """Submit one transaction and await the node's verdict."""
        await self.request(
            target, "submit_transaction", {"transaction": encoded},
            reply_kind="submit_response", request_id=request_id,
            timeout=timeout, size_bytes=len(encoded))
        return self.results[request_id]
