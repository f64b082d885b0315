"""Durable cold restarts under churn: the chaos layer must rebuild a
crashed gateway from its store (never silently regenerate genesis
state), recover as fast as the in-memory baseline, and stay
byte-deterministic."""

import asyncio
import gc
import warnings

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.faults.plan import PlanBuilder
from repro.faults.report import credit_hash, node_state_hashes
from repro.faults.runner import ChaosRunner
from repro.faults.scenarios import run_scenario
from repro.storage.errors import StorageError


class TestChurnDurable:
    def test_matches_in_memory_churn_recovery(self):
        """Cold restarts from disk must not be a slower (or less
        convergent) recovery path than warm in-memory restarts: same
        convergence verdict, same anti-entropy effort."""
        durable = run_scenario("churn-durable", seed=7)
        memory = run_scenario("churn", seed=7)
        assert durable.converged, durable.notes
        assert memory.converged, memory.notes
        assert durable.sync_rounds_used == memory.sync_rounds_used
        assert durable.counters["faults_injected"] \
            == memory.counters["faults_injected"]

    def test_report_byte_deterministic(self):
        first = run_scenario("churn-durable", seed=19)
        second = run_scenario("churn-durable", seed=19)
        assert first.to_json() == second.to_json()

    def test_cold_restart_without_store_refused(self):
        """The pre-storage churn bug, now a hard error: a cold restart
        of a node with no durable store must fail loudly instead of
        silently regenerating genesis state."""
        plan = (PlanBuilder("cold-no-store")
                .crash(5.0, "gateway-0", restart_at=8.0,
                       cold_restart=True)
                .build())
        runner = ChaosRunner(BIoTConfig(gateway_count=2, device_count=2))
        with pytest.raises(StorageError, match="no durable store"):
            runner.run(plan, seed=7)


class TestColdRestoreFromDeployment:
    def test_restore_rebuilds_precrash_state_from_disk(self, tmp_path):
        """With its radio down (no resync possible), a cold-restored
        gateway must reconstruct its exact pre-crash state from the
        store alone — proof the bytes on disk, not the network, carry
        the recovery."""
        config = BIoTConfig(gateway_count=2, device_count=2, seed=7,
                            storage_backend="file",
                            storage_dir=str(tmp_path))
        system = BIoTSystem.build(config)
        system.initialize()
        system.start_devices()
        system.run_for(20.0)

        gateway = system.gateways[0]
        system.network.take_down(gateway.address)
        now = system.scheduler.clock.now()
        before = node_state_hashes(gateway)
        credit_before = credit_hash(gateway.consensus.registry, now=now)

        replayed = gateway.cold_restore()
        assert replayed > 0
        assert node_state_hashes(gateway) == before
        assert credit_hash(gateway.consensus.registry, now=now) \
            == credit_before

    def test_fresh_build_refuses_populated_storage_dir(self, tmp_path):
        config = BIoTConfig(gateway_count=1, device_count=1, seed=7,
                            storage_backend="file",
                            storage_dir=str(tmp_path))
        BIoTSystem.build(config).close()
        with pytest.raises(StorageError, match="empty storage_dir"):
            BIoTSystem.build(config)

    @pytest.mark.parametrize("transport", ["sim", "asyncio"])
    def test_failed_build_releases_what_it_opened(self, tmp_path,
                                                  monkeypatch, transport):
        """A build that raises part-way (here: the second full node's
        store is already populated) gives back the store and the event
        loop it had already opened, exactly as ``close`` would."""
        config = BIoTConfig(gateway_count=1, device_count=1, seed=7,
                            storage_backend="file",
                            storage_dir=str(tmp_path),
                            transport=transport, time_scale=20.0)
        BIoTSystem.build(config).close()
        (tmp_path / "manager" / "log.jsonl").unlink()
        loops = []
        new_event_loop = asyncio.new_event_loop

        def spy():
            loops.append(new_event_loop())
            return loops[-1]

        monkeypatch.setattr(asyncio, "new_event_loop", spy)
        gc.collect()  # what earlier tests left is not this build's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(StorageError, match="empty storage_dir"):
                BIoTSystem.build(config)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []
        assert all(loop.is_closed() for loop in loops)
        assert len(loops) == (transport == "asyncio")

    @pytest.mark.parametrize("transport", ["sim", "asyncio"])
    def test_failed_build_releases_its_worker_pool(self, tmp_path,
                                                   monkeypatch, transport):
        """The crypto worker pool is created before any store is
        opened, so a build that fails on a store hands it back too."""
        import repro.crypto.accel as accel

        pools = []

        class RecordingPool:
            def __init__(self, workers):
                self.closed = False
                pools.append(self)

            def close(self):
                self.closed = True

        monkeypatch.setattr(accel, "CryptoPool", RecordingPool)
        config = BIoTConfig(gateway_count=1, device_count=1, seed=7,
                            storage_backend="file",
                            storage_dir=str(tmp_path), pow_workers=1,
                            transport=transport, time_scale=20.0)
        BIoTSystem.build(config).close()
        (tmp_path / "manager" / "log.jsonl").unlink()
        with pytest.raises(StorageError, match="empty storage_dir"):
            BIoTSystem.build(config)
        assert len(pools) == 2
        assert all(pool.closed for pool in pools)

    def test_close_releases_the_stores_build_opened(self, tmp_path):
        """``build`` opens one store per full node; ``close`` must hand
        every file handle back instead of leaving them to the garbage
        collector."""
        system = BIoTSystem.build(BIoTConfig(
            gateway_count=1, device_count=1, seed=7,
            storage_backend="file", storage_dir=str(tmp_path)))
        system.initialize()
        stores = [node.persistence.store for node in system.full_nodes]
        assert all(len(store) > 0 for store in stores)
        system.close()
        for store in stores:
            with pytest.raises(ValueError):
                store.flush()  # closed handle
        system.close()  # idempotent: a second close is a no-op

    def test_durable_backend_requires_dir(self):
        with pytest.raises(StorageError, match="storage_dir"):
            BIoTSystem.build(BIoTConfig(storage_backend="file"))

    def test_unknown_backend_refused(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            BIoTConfig(storage_backend="papyrus")

    @pytest.mark.parametrize("backend", ["sqlite", "none"])
    def test_only_memory_and_file_configurable(self, backend):
        """A deployment keeps its stores in memory or in files; the
        node-process ``none`` is not a deployment backend."""
        with pytest.raises(ValueError, match="known: memory, file"):
            BIoTConfig(storage_backend=backend)
