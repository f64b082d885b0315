"""The ``repro node`` OS-process entrypoint, driven as a parent would.

Each test spawns real child interpreters through
:class:`~repro.harness.supervisor.ProcessFleet` and speaks to them over
TCP — ready-line contract, per-process Prometheus exporter, and the two
ways a process dies:

* SIGTERM mid-reconnect must flush writers and close the store cleanly
  — the journal reopens with no tail corruption and cold-restores to
  the reference hashes (graceful-shutdown regression);
* SIGKILL is the crash the journal must survive: a cold restart of the
  same command line replays the journal and catches back up.
"""

import asyncio
import sys

import pytest

from repro.faults.report import node_state_hashes
from repro.harness.controller import FleetController
from repro.harness.submit import SubmitClient
from repro.harness.supervisor import (
    FleetProcessError,
    ProcessFleet,
    scrape_metrics,
    write_genesis,
)
from repro.harness.workload import build_workload
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.proc import NodeProcessSpec, build_node
from repro.network.transport import Message

TIME_SCALE = 20.0


def _spec(address, genesis_path, **kwargs):
    kwargs.setdefault("rng_seed", int(address[1:]))
    kwargs.setdefault("time_scale", TIME_SCALE)
    return NodeProcessSpec(address=address, genesis_path=genesis_path,
                           **kwargs)


async def _connect(ready):
    """A submit client dialled at the node that printed *ready*."""
    client = SubmitClient()
    await client.connect(
        {ready["address"]: (ready["host"], ready["port"])},
        rng_seed="test", time_scale=TIME_SCALE)
    return client


async def _submit_all(client, workload, count, *, start=0):
    for index in range(start, count):
        accepted, reason = await client.submit(
            "n0", index, workload.transactions[index])
        assert accepted, f"tx {index} rejected: {reason}"


class TestSpec:
    def test_to_argv_round_trips_the_command_line(self):
        spec = NodeProcessSpec(
            address="n3", genesis_path="/tmp/g.hex", rng_seed=3,
            listen_port=4103, seeds=["n0=127.0.0.1:4100"],
            storage_backend="file", storage_dir="/tmp/s",
            crypto_backend="accel", metrics_port=0, time_scale=20.0)
        argv = spec.to_argv()
        assert argv[0] == "node"
        for flag, value in (("--address", "n3"),
                            ("--rng-seed", "3"),
                            ("--listen", "127.0.0.1:4103"),
                            ("--storage-backend", "file"),
                            ("--storage-dir", "/tmp/s"),
                            ("--crypto-backend", "accel"),
                            ("--metrics-port", "0"),
                            ("--seed-node", "n0=127.0.0.1:4100")):
            index = argv.index(flag)
            assert argv[index + 1] == value

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_journals_only_where_a_restart_can_read(self, backend, tmp_path):
        with pytest.raises(ValueError, match="known: none, file"):
            NodeProcessSpec(address="n0", genesis_path="g",
                            storage_backend=backend,
                            storage_dir=str(tmp_path))

    @pytest.mark.parametrize("backend", ["none", "file"])
    def test_argv_carries_the_storage_backend(self, backend, tmp_path):
        spec = NodeProcessSpec(address="n0", genesis_path="g",
                               storage_backend=backend,
                               storage_dir=str(tmp_path))
        argv = spec.to_argv()
        assert argv[argv.index("--storage-backend") + 1] == backend

    def test_rejects_bad_configurations(self):
        with pytest.raises(ValueError):
            NodeProcessSpec(address="n0", genesis_path="g",
                            storage_backend="papyrus")
        with pytest.raises(ValueError):  # a journal no restart can read
            NodeProcessSpec(address="n0", genesis_path="g",
                            storage_backend="memory")
        with pytest.raises(ValueError):
            NodeProcessSpec(address="n0", genesis_path="g",
                            storage_backend="file")  # no storage_dir
        with pytest.raises(ValueError):
            NodeProcessSpec(address="n0", genesis_path="g",
                            time_scale=0.0)
        with pytest.raises(ValueError):
            NodeProcessSpec(address="n0", genesis_path="g",
                            seeds=["n0@localhost"])


class TestProcessLifecycle:
    def test_ready_line_metrics_page_and_clean_exit(self, fleet_sandbox):
        workload = build_workload(3, transactions=4)
        run_dir = fleet_sandbox.storage_dir()
        genesis_path = write_genesis(workload.genesis, run_dir)
        with ProcessFleet(run_dir=run_dir) as fleet:
            ready = fleet.spawn(_spec("n0", genesis_path, metrics_port=0))
            assert ready["address"] == "n0"
            assert ready["pid"] == fleet.processes["n0"].pid
            assert ready["host"] == "127.0.0.1"
            assert ready["port"] > 0
            assert ready["metrics_port"] > 0
            assert ready["restored"] == 0
            assert ready["storage"] == "none"

            # Its own exporter port serves the node's registry.
            page = scrape_metrics("127.0.0.1", ready["metrics_port"])
            assert "# TYPE repro_transport_frames_sent_total counter" \
                in page
            assert "repro_discovery_hellos_total" in page

            # Double-spawn of a live address must refuse, not fork.
            with pytest.raises(FleetProcessError):
                fleet.spawn(fleet.processes["n0"].spec)
            with pytest.raises(FleetProcessError):
                fleet.respawn("n0")

            assert fleet.terminate("n0") == 0

    def test_sigterm_mid_reconnect_leaves_the_journal_clean(
            self, fleet_sandbox):
        workload = build_workload(5, transactions=6)
        run_dir = fleet_sandbox.storage_dir()
        storage_dir = fleet_sandbox.storage_dir()
        genesis_path = write_genesis(workload.genesis, run_dir)
        # A seed that refuses connections forever: the node's writer
        # task sits in its reconnect/backoff loop the whole test, so
        # SIGTERM lands exactly in the state the regression targets.
        dead_port = fleet_sandbox.ephemeral_port()

        with ProcessFleet(run_dir=run_dir) as fleet:
            ready = fleet.spawn(_spec(
                "n0", genesis_path, storage_backend="file",
                storage_dir=storage_dir,
                seeds=[f"ghost=127.0.0.1:{dead_port}"]))

            async def drive():
                client = await _connect(ready)
                try:
                    await _submit_all(client, workload,
                                      len(workload.transactions))
                    return await FleetController(client).status(
                        "n0", now=workload.credit_now)
                finally:
                    await client.close()

            status = fleet_sandbox.run(drive())
            assert status["hashes"] == workload.reference_hashes

            assert fleet.terminate("n0") == 0

        # Reopen the store in-process: NodePersistence verifies the
        # journal's hash chain on load (a torn tail raises), and the
        # cold restore must land on the same reference hashes.
        from repro.storage.persistence import NodePersistence
        from repro.storage.store import open_store

        store = open_store("file", storage_dir, node="n0")
        try:
            persistence = NodePersistence(store)
            node = build_node("n0", workload.genesis, rng_seed=0)
            node.attach_persistence(persistence)
            restored = node.cold_restore()
            assert restored == len(workload.transactions)
            assert node_state_hashes(
                node, credit_now=workload.credit_now) == \
                workload.reference_hashes
        finally:
            store.close()

    def test_sigkill_then_cold_restart_catches_up(self, fleet_sandbox):
        workload = build_workload(9, transactions=8)
        run_dir = fleet_sandbox.storage_dir()
        storage_dir = fleet_sandbox.storage_dir()
        genesis_path = write_genesis(workload.genesis, run_dir)
        half = len(workload.transactions) // 2

        with ProcessFleet(run_dir=run_dir) as fleet:
            spec = _spec("n0", genesis_path, storage_backend="file",
                         storage_dir=storage_dir)
            ready = fleet.spawn(spec)

            async def before_crash():
                client = await _connect(ready)
                try:
                    await _submit_all(client, workload, half)
                finally:
                    await client.close()

            fleet_sandbox.run(before_crash())
            fleet.kill("n0")  # SIGKILL: no flush, no close

            reborn = fleet.respawn("n0")
            assert reborn["pid"] != ready["pid"]
            assert reborn["restored"] == half  # journal replayed

            async def after_restart():
                client = await _connect(reborn)
                try:
                    await _submit_all(client, workload,
                                      len(workload.transactions),
                                      start=half)
                    return await FleetController(client).status(
                        "n0", now=workload.credit_now)
                finally:
                    await client.close()

            status = fleet_sandbox.run(after_restart())
            assert status["restored"] == half
            assert status["hashes"] == workload.reference_hashes
            assert fleet.terminate("n0") == 0


class TestBurst:
    def test_frames_written_together_are_verified_together(
            self, fleet_sandbox):
        """32 submits in a single ``write()`` reach the node in (at
        most a few) ``read()`` calls: every one is acked ``ok``, the
        state is the reference's, and the node's own counters say the
        signatures went through the batch lane."""
        burst = 32
        workload = build_workload(11, transactions=burst + 1)
        run_dir = fleet_sandbox.storage_dir()
        genesis_path = write_genesis(workload.genesis, run_dir)

        def submit(index):
            return encode_frame(Message(
                sender="burst", recipient="n0", kind="submit_transaction",
                body={"request_id": index,
                      "transaction": workload.transactions[index]},
                sent_at=0.0, message_id=index))

        async def drive(ready):
            reader, writer = await asyncio.open_connection(
                ready["host"], ready["port"])
            decoder, acks = FrameDecoder(), {}

            async def collect(count):
                while len(acks) < count:
                    data = await asyncio.wait_for(reader.read(65536), 20.0)
                    assert data, "node closed the connection"
                    for message in decoder.feed(data):
                        assert message.kind == "submit_response"
                        acks[message.body["request_id"]] = message.body

            try:
                # The ACL grant first, alone: its successors are only
                # batch-eligible once their issuers are authorised.
                writer.write(submit(0))
                await collect(1)
                writer.write(b"".join(submit(i)
                                      for i in range(1, burst + 1)))
                await collect(burst + 1)
            finally:
                writer.close()
            return acks

        with ProcessFleet(run_dir=run_dir) as fleet:
            ready = fleet.spawn(_spec("n0", genesis_path, metrics_port=0,
                                      crypto_backend="accel"))
            acks = fleet_sandbox.run(drive(ready))
            assert [acks[i]["ok"] for i in range(burst + 1)] \
                == [True] * (burst + 1)

            page = scrape_metrics("127.0.0.1", ready["metrics_port"])
            counters = dict(line.split() for line in page.splitlines()
                            if line.startswith("repro_crypto_batch_")
                            and "_total " in line)
            assert int(counters["repro_crypto_batch_rounds_total"]) >= 1
            assert int(counters["repro_crypto_batch_verified_total"]) >= 2
            assert int(counters["repro_crypto_batch_fallback_total"]) == 0

            async def status():
                client = await _connect(ready)
                try:
                    return await FleetController(client).status(
                        "n0", now=workload.credit_now)
                finally:
                    await client.close()

            assert fleet_sandbox.run(status())["hashes"] \
                == workload.reference_hashes
            assert fleet.terminate("n0") == 0


class TestHostileInput:
    def test_hostile_bodies_do_not_cost_the_connection(self, fleet_sandbox):
        """Frames the frame layer accepts but no handler can read — a
        non-dict body, a non-numeric ``now`` — are counted and dropped:
        a valid ``fleet_status`` sent next *on the same connection*
        still gets its response (one attempt, no re-dial)."""
        workload = build_workload(3, transactions=4)
        run_dir = fleet_sandbox.storage_dir()
        genesis_path = write_genesis(workload.genesis, run_dir)
        with ProcessFleet(run_dir=run_dir) as fleet:
            ready = fleet.spawn(_spec("n0", genesis_path))

            async def drive():
                client = await _connect(ready)
                transport = client.network
                try:
                    for kind, body in (("submit_transaction", 7),
                                       ("gossip_transaction", None),
                                       ("fleet_status", [b"x"]),
                                       ("fleet_resync", b"x"),
                                       ("fleet_status", {"now": "soon"})):
                        assert transport.send(client.address, "n0",
                                              kind, body)
                    status = await client.request(
                        "n0", "fleet_status", {"now": workload.credit_now},
                        reply_kind="fleet_status_response", request_id=1,
                        attempts=1)
                    return status, transport.reconnect_attempts
                finally:
                    await client.close()

            status, reconnects = fleet_sandbox.run(drive())
            assert status["address"] == "n0"
            assert set(status["hashes"]) == \
                {"tangle", "ledger", "acl", "credit"}
            assert reconnects == 0
            assert fleet.terminate("n0") == 0


class TestSupervisorErrors:
    def test_garbage_ready_line_is_a_fleet_process_error(
            self, fleet_sandbox, tmp_path):
        """A child whose first stdout line is not JSON fails ``spawn``
        with the supervisor's own error type (stderr tail included),
        not a bare ``json.JSONDecodeError``."""
        stub = tmp_path / "stub-python"
        stub.write_text(f"#!{sys.executable}\n"
                        "import sys, time\n"
                        "print('child says boo', file=sys.stderr, "
                        "flush=True)\n"
                        "print('not json at all', flush=True)\n"
                        "time.sleep(30)\n")
        stub.chmod(0o755)
        # The stub stands in for the interpreter and ignores the
        # ``-m repro node …`` arguments it is handed.
        with ProcessFleet(run_dir=fleet_sandbox.storage_dir(),
                          python=str(stub)) as fleet:
            with pytest.raises(FleetProcessError) as excinfo:
                fleet.spawn(_spec("n0", "unused-genesis"))
        assert "not json at all" in str(excinfo.value)
        assert "child says boo" in str(excinfo.value)
