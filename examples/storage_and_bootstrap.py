#!/usr/bin/env python3
"""Storage control and new-gateway bootstrap (paper §VIII future work).

The paper closes with two open problems: "sensor data quality control"
and "storage limitations".  This example demonstrates the storage
answer built into this reproduction:

1. run a factory long enough to accumulate history;
2. take a **local snapshot** on a gateway — deeply confirmed, old
   transactions are pruned; the cut surface becomes entry points;
3. serialise the snapshot — the same hash-linked ``EpochSnapshot`` a
   constrained gateway checkpoints to its store — and verify it on
   arrival;
4. **bootstrap a brand-new gateway** from that snapshot and let
   anti-entropy sync fetch whatever arrived after it was taken;
5. show the new gateway serving devices immediately.

Run:  python examples/storage_and_bootstrap.py
"""

import json
import random

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.nodes.full_node import FullNode
from repro.storage.checkpoint import EpochSnapshot


def main():
    system = BIoTSystem.build(BIoTConfig(
        device_count=4, gateway_count=2, seed=99,
        initial_difficulty=6, report_interval=1.5,
    ))
    system.initialize()
    system.start_devices()
    system.run_for(120.0)
    gateway = system.gateways[0]
    print(f"after 120 s the ledger holds {gateway.tangle_size} transactions "
          f"on {gateway.address}")

    # --- 2. local snapshot (DAG + derived ACL/ledger/credit state) ----------
    now = system.scheduler.clock.now()
    snapshot = gateway.replica.snapshot(now, keep_recent_seconds=30.0,
                                        min_weight_to_prune=5)
    pruned = snapshot.tangle.pruned_count
    retained = snapshot.tangle.retained_count
    ratio = pruned / (pruned + retained)
    print(f"snapshot: pruned {pruned}, retained {retained} "
          f"(+{len(snapshot.tangle.entry_points)} entry points) - "
          f"{ratio * 100:.0f} % of history dropped")

    # --- 3. serialise, ship, verify -----------------------------------------
    encoded = json.dumps(snapshot.to_data())
    print(f"serialised snapshot: {len(encoded) / 1024:.1f} KiB, "
          f"epoch {snapshot.epoch}, hash {snapshot.snapshot_hash[:12]}…")
    # The receiver recomputes the hash; a tampered copy is refused.
    snapshot = EpochSnapshot.from_data(json.loads(encoded))

    # --- 4. bootstrap a new gateway -----------------------------------------
    from repro.core.consensus import CreditBasedConsensus, InverseDifficultyPolicy
    # The newcomer must run the same difficulty policy as its peers
    # (D0=6 here) or the replicas would disagree on requirements.
    newcomer = FullNode.bootstrap_from_snapshot(
        "gateway-new", snapshot,
        consensus=CreditBasedConsensus(
            policy=InverseDifficultyPolicy(initial_difficulty=6)),
        rng=random.Random(5),
    )
    system.network.attach(newcomer)
    for peer in [system.manager] + system.gateways:
        newcomer.add_peer(peer.address)
        peer.add_peer(newcomer.address)
    print(f"new gateway starts with {newcomer.tangle_size} transactions "
          f"from the snapshot")

    newcomer.request_sync(gateway.address)
    system.run_for(5.0)
    print(f"after anti-entropy sync: {newcomer.tangle_size} transactions "
          f"({newcomer.stats.sync_transactions_received} fetched)")

    # --- 5. serve devices ----------------------------------------------------
    migrated = system.devices[0]
    migrated.gateway = "gateway-new"
    before = migrated.stats.submissions_accepted
    system.run_for(30.0)
    print(f"device {migrated.address} re-homed to the new gateway: "
          f"{migrated.stats.submissions_accepted - before} submissions "
          f"accepted through it")

    # Replicas agree on the recent region.
    recent = {tx.tx_hash for tx in gateway.tangle
              if gateway.tangle.arrival_time(tx.tx_hash) > now - 30.0}
    have = {tx.tx_hash for tx in newcomer.tangle}
    print(f"recent-region coverage on the newcomer: "
          f"{len(recent & have)}/{len(recent)}")


if __name__ == "__main__":
    main()
