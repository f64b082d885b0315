#!/usr/bin/env python3
"""A two-factory federation on one public tangle (Section IV-A).

"In each smart factory, the existence of one or more managers are
permitted" — this example hard-codes two factory managers into one
genesis.  Each factory runs its own manager (full node), authorises its
own devices and distributes its own group key, yet every transaction
lands on one shared, mutually replicated ledger — the paper's
"break down these monolithic data siloes" story, end to end.

Run:  python examples/federation.py
"""

import random

from repro.analysis.metrics import format_table
from repro.core.authority import BadSignatureError, DataProtector
from repro.core.consensus import CreditBasedConsensus, InverseDifficultyPolicy
from repro.crypto.keys import KeyPair
from repro.devices.sensors import PowerMeterSensor, TemperatureSensor
from repro.network.network import Network
from repro.network.simulator import EventScheduler
from repro.network.transport import BACKBONE_LINK, WIRELESS_SENSOR_LINK
from repro.nodes.light_node import LightNode
from repro.nodes.manager import ManagerNode


def consensus():
    return CreditBasedConsensus(
        policy=InverseDifficultyPolicy(initial_difficulty=6))


def main():
    manager_a_keys = KeyPair.generate(seed=b"fed-example-a")
    manager_b_keys = KeyPair.generate(seed=b"fed-example-b")

    # One genesis, two trust anchors.
    genesis = ManagerNode.create_genesis(
        manager_a_keys, network_name="two-factory-federation",
        extra_managers=[manager_b_keys.public],
    )

    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(17))
    factory_a = ManagerNode("factory-a", manager_a_keys, genesis,
                            consensus=consensus(), rng=random.Random(1))
    factory_b = ManagerNode("factory-b", manager_b_keys, genesis,
                            consensus=consensus(), rng=random.Random(2))
    for node in (factory_a, factory_b):
        network.attach(node)
    factory_a.add_peer("factory-b")
    factory_b.add_peer("factory-a")
    network.set_link("factory-a", "factory-b", BACKBONE_LINK)

    # Each factory fields two devices, homed on its own manager node.
    devices = []
    for factory, sensor_cls, offset in (
        (factory_a, TemperatureSensor, 0),
        (factory_a, PowerMeterSensor, 1),
        (factory_b, TemperatureSensor, 2),
        (factory_b, PowerMeterSensor, 3),
    ):
        keys = KeyPair.generate(seed=f"fed-device-{offset}".encode())
        device = LightNode(
            f"device-{offset}", keys, gateway=factory.address,
            manager=factory.keypair.public,
            sensor=sensor_cls(seed=offset),
            report_interval=2.0, rng=random.Random(50 + offset),
        )
        network.attach(device)
        network.set_link(device.address, factory.address,
                         WIRELESS_SENSOR_LINK)
        devices.append((factory, device))

    # Each manager authorises ITS OWN devices and distributes ITS OWN key.
    for factory in (factory_a, factory_b):
        own = [d.keypair.public for f, d in devices if f is factory]
        factory.authorize_devices(own)
    scheduler.run_for(2.0)
    for factory, device in devices:
        if device.sensor.sensitive:
            factory.distribute_key(device.address, device.keypair.public)
    scheduler.run_for(2.0)

    for _, device in devices:
        device.start()
    scheduler.run_for(60.0)

    rows = []
    for factory, device in devices:
        rows.append((
            device.address, factory.address, device.sensor.sensor_type,
            device.stats.submissions_accepted,
        ))
    print(format_table(rows, headers=[
        "device", "factory", "sensor", "accepted"]))

    hashes_a = {tx.tx_hash for tx in factory_a.tangle}
    hashes_b = {tx.tx_hash for tx in factory_b.tangle}
    print(f"\nshared ledger: factory A holds {len(hashes_a)} txs, "
          f"factory B holds {len(hashes_b)}, "
          f"difference {len(hashes_a.symmetric_difference(hashes_b))}")

    # Confidentiality is per-factory: A cannot read B's sensitive data.
    b_key = factory_b.distributor.group_key()
    a_key = factory_a.distributor.group_key()
    assert a_key != b_key
    reader_a = DataProtector({"sensitive": a_key})
    unreadable = 0
    readable = 0
    for tx in factory_a.tangle:
        if not DataProtector.is_encrypted(tx.payload):
            continue
        try:
            reader_a.unprotect(tx.payload)
            readable += 1
        except BadSignatureError:
            # Both factories label their group "sensitive", but the keys
            # differ: B's envelopes fail A's authentication check.
            unreadable += 1
    print(f"factory A's key opens {readable} encrypted payloads "
          f"(its own) and fails on {unreadable} (factory B's) - "
          f"one ledger, separate confidentiality domains")


if __name__ == "__main__":
    main()
