"""The multi-process differential and the sharded scale workload.

The headline test is the ISSUE's acceptance path shrunk to test size:
three real ``repro node`` processes discover each other through a seed
node, ingest the seeded smart-factory workload, survive a ``kill -9``
plus cold restart of one member, and every process converges to the
*same byte-identical* tangle/ledger/ACL/credit hashes as the in-process
reference node — scraped Prometheus exporters and graceful control-
plane shutdown included.

The sharded-workload tests pin what the scale bench relies on — every
shard ingests into a fresh, isolated node — without spawning anything;
generation determinism and the parent-closure property live in
``tests/harness/test_workload.py``.
"""

from repro.faults.report import node_state_hashes
from repro.harness.controller import run_proc_differential
from repro.harness.workload import build_workload
from repro.network.proc import build_node
from repro.tangle.transaction import Transaction


class TestProcDifferential:
    def test_three_processes_crash_restart_and_match_reference(
            self, fleet_sandbox):
        result = run_proc_differential(
            seed=11, processes=3, transactions=12,
            run_dir=fleet_sandbox.storage_dir(),
            crash=True)

        assert result["matched"], result
        proc = result["proc"]
        assert proc["converged"]
        assert proc["rejected"] == []
        # Every process independently reached the reference hashes.
        assert set(proc["per_node"]) == {"n0", "n1", "n2"}
        for address, hashes in proc["per_node"].items():
            assert hashes == result["reference"], address

        # The kill -9 / cold-restart really happened, and the journal
        # gave the reborn process a head start.
        crash = proc["crash"]
        assert crash["victim"] == "n2"
        assert crash["killed_at"] < crash["restarted_at"]
        assert crash["restored_records"] >= 1

        # Each process's own exporter answered on its own port.
        assert set(proc["metrics"]) == {"n0", "n1", "n2"}
        ports = set()
        for address, report in proc["metrics"].items():
            assert report["scraped"], (address, report)
            ports.add(report["port"])
        assert len(ports) == 3


class TestShardedWorkload:
    def test_shards_are_self_contained(self):
        workload = build_workload(4, shards=3, transactions=6)
        assert [len(shard) for shard in workload.shards] == [6, 6, 6]
        # Every shard opens with the same ACL authorization and then
        # ingests cleanly into a *fresh, isolated* node — the property
        # that lets N processes run shards with zero coordination.
        first = {shard[0] for shard in workload.shards}
        assert len(first) == 1
        for index, shard in enumerate(workload.shards):
            node = build_node(f"check-{index}", workload.genesis,
                            rng_seed=index)
            for encoded in shard:
                tx = Transaction.from_bytes(encoded)
                assert node.ingest_local(tx), (index, tx.tx_hash)
            assert len(node.tangle) == 1 + len(shard)  # genesis + shard

    def test_isolated_shard_nodes_diverge_as_designed(self):
        # The bench explicitly measures compute, not convergence: two
        # shards ingested by two isolated nodes end in *different*
        # tangles (only genesis + ACL shared).  Pin that so nobody
        # mistakes the scale bench for a consistency check.
        workload = build_workload(9, shards=2, transactions=5)
        nodes = []
        for index, shard in enumerate(workload.shards):
            node = build_node(f"iso-{index}", workload.genesis,
                            rng_seed=index)
            for encoded in shard:
                assert node.ingest_local(Transaction.from_bytes(encoded))
            nodes.append(node)
        hashes = [node_state_hashes(node, credit_now=100.0)
                  for node in nodes]
        assert hashes[0]["tangle"] != hashes[1]["tangle"]
