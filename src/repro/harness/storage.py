"""Crash/restart differential harness for the storage layer.

The proof obligation of ISSUE 6: a node killed and restored from its
durable store must be *byte-identical* — tangle, ledger, ACL and
credit hashes — to a reference node that never crashed.  This module
runs one seeded workload against both nodes side by side, cold-restores
the durable node at randomized kill points, and compares content hashes
at every kill and at the end of the run; a final "cold" node rebuilt
from a reopened store on a brand-new process boundary closes the loop.

Everything in the returned result dict is a pure function of
``(seed, steps, kills, checkpoints)`` — no paths, no wall
clock — so CI can run the harness twice and byte-diff the JSON, the
same determinism gate the chaos reports already pass.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..core.acl import AclAction
from ..faults.report import node_state_hashes
from ..network.network import Network
from ..network.proc import build_node
from ..network.simulator import EventScheduler
from ..storage.persistence import NodePersistence
from ..storage.store import open_store
from ..tangle.transaction import TransactionKind
from .workload import WorkloadBuilder

__all__ = ["run_differential"]


def run_differential(*, seed: int, storage_dir: str, steps: int = 60,
                     kills: int = 3, checkpoints: int = 3) -> Dict:
    """Run the crash/restart differential; returns a deterministic dict.

    ``matched`` is True iff every kill-point restore and the final
    three-way comparison (reference, restarted, cold-rebuilt) agree on
    all four state hashes.
    """
    if steps < 20:
        raise ValueError("differential workload needs at least 20 steps")
    if kills < 1:
        raise ValueError("at least one kill point is required")
    if kills + checkpoints >= steps - 5:
        raise ValueError("too many kill/checkpoint points for the workload")

    builder = WorkloadBuilder("storage-diff", seed, devices=3, guests=2)
    rng = builder.rng
    devices, guests = builder.devices, builder.guests
    genesis, reference = builder.genesis, builder.reference

    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(rng.randrange(2 ** 63)))
    durable = build_node("durable", genesis, rng_seed=1)
    network.attach(reference)
    network.attach(durable)
    # No peering: the two replicas see the workload only through
    # ``ingest_local``, so gossip cannot paper over a bad restore.

    store = open_store("file", storage_dir, node="durable")
    persistence = NodePersistence(store)
    durable.attach_persistence(persistence)

    clock = scheduler.clock

    def issue(keys, kind: str, payload: bytes,
              parents=None) -> Tuple[bool, bool]:
        tx, ok_ref = builder.issue(keys, kind, payload, parents,
                                   timestamp=clock.now())
        return ok_ref, durable.ingest_local(tx)

    def acl_update(identities, *, action: str) -> Tuple[bool, bool]:
        return issue(builder.manager, TransactionKind.ACL,
                     builder.acl_payload(identities, action=action))

    # -- bootstrap: authorize every identity the workload uses -------------
    scheduler.run_until(1.0)
    ok_ref, ok_dur = acl_update(devices + guests,
                                action=AclAction.AUTHORIZE)
    divergences: List[Dict] = []
    if ok_ref is not ok_dur or not ok_ref:
        divergences.append({"step": -1, "action": "bootstrap-acl",
                            "reference": ok_ref, "durable": ok_dur})

    body = list(range(5, steps))
    kill_points = sorted(rng.sample(body, kills))
    checkpoint_points = sorted(rng.sample(
        [s for s in body if s not in kill_points], checkpoints))

    guest_authorized = {keys.node_id: True for keys in guests}
    last_transfer: Dict[bytes, Tuple[int, bytes, int]] = {}
    epoch_hashes: List[str] = []
    kill_results: List[Dict] = []

    for step in range(steps):
        scheduler.run_for(rng.uniform(0.2, 1.2))
        now = clock.now()
        roll = rng.random()
        action = "data"
        if roll < 0.15:
            action = "acl"
        elif roll < 0.45:
            action = "transfer"
        elif roll < 0.55 and last_transfer:
            action = "double-spend"
        elif roll < 0.65 and now > reference.consensus.max_parent_age + 5.0:
            action = "lazy"

        if action == "acl":
            guest = rng.choice(guests)
            authorized = guest_authorized[guest.node_id]
            ok_ref, ok_dur = acl_update(
                [guest],
                action=AclAction.DEAUTHORIZE if authorized
                else AclAction.AUTHORIZE)
            guest_authorized[guest.node_id] = not authorized
        elif action == "transfer":
            sender, transfer = builder.draw_transfer(devices, max_amount=20)
            ok_ref, ok_dur = issue(sender, TransactionKind.TRANSFER,
                                   transfer.to_bytes())
            if ok_ref:
                last_transfer[sender.node_id] = (
                    transfer.sequence, transfer.recipient, transfer.amount)
        elif action == "double-spend":
            sender_id = rng.choice(sorted(last_transfer))
            sender = next(keys for keys in devices
                          if keys.node_id == sender_id)
            sequence, old_recipient, amount = last_transfer[sender_id]
            recipient = rng.choice(
                [keys for keys in [builder.manager] + devices
                 if keys.node_id not in (sender_id, old_recipient)])
            ok_ref, ok_dur = issue(
                sender, TransactionKind.TRANSFER,
                builder.transfer_payload(sender, recipient.node_id, amount,
                                         sequence=sequence).to_bytes())
        elif action == "lazy":
            ok_ref, ok_dur = issue(
                rng.choice(devices), TransactionKind.DATA,
                rng.randbytes(16), (genesis.tx_hash, genesis.tx_hash))
        else:
            # Parents are drawn before the payload here, unlike
            # ``issue(parents=None)``: the pinned draw order.
            device = rng.choice(devices)
            parents = builder.pick_parents()
            ok_ref, ok_dur = issue(device, TransactionKind.DATA,
                                   rng.randbytes(16), parents)

        if ok_ref is not ok_dur:
            divergences.append({"step": step, "action": action,
                                "reference": ok_ref, "durable": ok_dur})

        if step in checkpoint_points:
            epoch = persistence.checkpoint(durable, now=clock.now())
            epoch_hashes.append(epoch.snapshot_hash)
        if step in kill_points:
            now = clock.now()
            expected = node_state_hashes(reference, credit_now=now)
            replayed = durable.cold_restore()
            restored = node_state_hashes(durable, credit_now=now)
            kill_results.append({
                "step": step,
                "replayed": replayed,
                "matched": restored == expected,
                "hashes": restored,
            })

    # -- final three-way comparison ----------------------------------------
    now = clock.now()
    final_reference = node_state_hashes(reference, credit_now=now)
    final_restarted = node_state_hashes(durable, credit_now=now)
    store.close()

    reopened = open_store("file", storage_dir, node="durable")
    restore = NodePersistence(reopened).load()
    cold = build_node("cold", genesis, rng_seed=2)
    if restore.snapshot is not None:
        cold.adopt_snapshot(restore.snapshot)
    cold_replayed = sum(
        cold.replay_attach(tx, arrival_time=arrival_time)
        for tx, arrival_time in restore.tail)
    final_cold = node_state_hashes(cold, credit_now=now)
    head_hash = reopened.head_hash
    record_count = len(reopened)
    reopened.close()

    matched = (not divergences
               and all(kill["matched"] for kill in kill_results)
               and final_reference == final_restarted == final_cold)
    return {
        "seed": seed,
        "backend": store.backend,
        "steps": steps,
        "kill_points": kill_points,
        "checkpoint_points": checkpoint_points,
        "kills": kill_results,
        "divergences": divergences,
        "final": {
            "reference": final_reference,
            "restarted": final_restarted,
            "cold": {"hashes": final_cold, "replayed": cold_replayed},
        },
        "epoch_hashes": epoch_hashes,
        "log": {"head": head_hash, "records": record_count},
        "matched": matched,
    }
