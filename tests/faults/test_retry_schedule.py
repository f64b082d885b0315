"""The retry schedule of a node's recovery loops, pinned send for send.

Parent fetch and both halves of the Fig. 4 key-distribution handshake
pace their recovery on the node's
:class:`~repro.faults.backoff.BackoffPolicy` with jitter drawn from
``node.rng``.  Each case below runs one seeded simulation and records
every send of the handshake and parent-fetch kinds as ``(sim time,
sender, recipient, kind)``, the plain retry counters, the
``repro_retry_*`` instruments, and the next ``node.rng.random()`` of the
manager and of the fetching gateway.  The expected values are literals:
a change to the loops that moves a send, a counter or a single draw of
``node.rng`` (which also drives tip selection and the manager's PoW)
fails here.
"""

import random

from repro.crypto import rand
from repro.crypto.keys import KeyPair
from repro.faults.backoff import BackoffPolicy
from repro.network.network import Network
from repro.network.simulator import EventScheduler
from repro.network.transport import LatencyModel
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.telemetry.registry import MetricsRegistry

from .test_keydist_retry import build_system, distribute
from .test_parent_request import make_tx

RETRY_COUNTERS = ("repro_retry_attempts_total", "repro_retry_exhausted_total",
                  "repro_retry_recoveries_total")


def record_sends(network):
    """Log every handshake and parent-fetch send on *network*."""
    sent = []
    send = network.send

    def recording(sender, recipient, kind, body, *, size_bytes=0):
        if kind.startswith(("keydist_", "parent_")):
            sent.append((network.scheduler.clock.now(), sender, recipient,
                         kind))
        return send(sender, recipient, kind, body, size_bytes=size_bytes)

    network.send = recording
    return sent


def retry_metrics(registry):
    out = {name: {dict(labels)["protocol"]: value
                  for labels, value in registry.get(name).series().items()}
           for name in RETRY_COUNTERS}
    backoff = registry.get("repro_retry_backoff_seconds").merged()
    out["repro_retry_backoff_seconds"] = (backoff.count, backoff.total)
    return out


def keydist_outcome(system, sent):
    manager = system.manager
    return {
        "sent": sent,
        "keydist_retries": manager.keydist_retries,
        "keydist_exhausted": manager.keydist_exhausted,
        "metrics": retry_metrics(system.telemetry),
        "manager_next_draw": manager.rng.random(),
    }


def run_keydist(scenario, **build):
    with rand.deterministic(b"retry-schedule"):
        system = build_system(telemetry=True, **build)
        sent = record_sends(system.network)
        scenario(system, system.devices[0])
        return keydist_outcome(system, sent)


def build_pair():
    """Two peered full nodes on one registry (the parent-request rig)."""
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(5))
    keys = KeyPair.generate(seed=b"pr-manager")
    genesis = ManagerNode.create_genesis(keys)
    policy = BackoffPolicy(base_delay=0.5, max_delay=4.0,
                           jitter=0.25, max_attempts=4)
    registry = MetricsRegistry()
    nodes = []
    for name in ("alpha", "beta"):
        node = FullNode(name, genesis, rng=random.Random(7),
                        enforce_pow=False, retry_policy=policy,
                        telemetry=registry)
        network.attach(node)
        nodes.append(node)
    nodes[0].add_peer("beta")
    nodes[1].add_peer("alpha")
    return scheduler, network, nodes[0], nodes[1], keys, registry


def parent_fetch_outcome(beta, registry, sent):
    stats = beta.stats
    return {
        "sent": sent,
        "parent_requests_sent": stats.parent_requests_sent,
        "parent_fetch_recoveries": stats.parent_fetch_recoveries,
        "parent_fetch_exhausted": stats.parent_fetch_exhausted,
        "metrics": retry_metrics(registry),
        "gateway_next_draw": beta.rng.random(),
    }


def m1_lost_then_recovered(system, device):
    system.network.take_down(device.address)
    distribute(system, device)  # M1 dropped at the dead radio
    system.run_for(1.0)
    system.network.bring_up(device.address)
    system.run_for(30.0)


def m1_exhausted(system, device):
    system.network.take_down(device.address)
    distribute(system, device)
    system.run_for(20.0)


def m3_ack_lost(system, device):
    distribute(system, device)  # M1@1, M2@2, M3@3, ack@4
    system.run_for(3.5)
    system.network.take_down("manager")  # the ack is lost
    system.network.bring_up("manager")
    system.run_for(30.0)


def test_m1_lost_then_recovered():
    assert run_keydist(m1_lost_then_recovered) == {
        "sent": [(2.0, "manager", "device-0", "keydist_m1"),
                 (2.5090211140571554, "manager", "device-0", "keydist_m1"),
                 (3.615407128601077, "manager", "device-0", "keydist_m1"),
                 (3.6400889587183567, "device-0", "manager", "keydist_m2"),
                 (3.6827267241776083, "manager", "device-0", "keydist_m3"),
                 (3.7175411567771897, "device-0", "manager", "keydist_ack")],
        "keydist_retries": 2,
        "keydist_exhausted": 0,
        "metrics": {
            "repro_retry_attempts_total": {"keydist_m1": 2.0},
            "repro_retry_exhausted_total": {},
            "repro_retry_recoveries_total": {"keydist": 1.0},
            "repro_retry_backoff_seconds": (4, 4.530970778753622)},
        "manager_next_draw": 0.9932567966858084,
    }


def test_m1_exhausted_with_jitter():
    policy = BackoffPolicy(base_delay=0.5, max_delay=2.0,
                           jitter=0.25, max_attempts=3)
    assert run_keydist(m1_exhausted, retry_policy=policy) == {
        "sent": [(2.0, "manager", "device-0", "keydist_m1"),
                 (2.5090211140571554, "manager", "device-0", "keydist_m1"),
                 (3.615407128601077, "manager", "device-0", "keydist_m1")],
        "keydist_retries": 2,
        "keydist_exhausted": 1,
        "metrics": {
            "repro_retry_attempts_total": {"keydist_m1": 2.0},
            "repro_retry_exhausted_total": {"keydist_m1": 1.0},
            "repro_retry_recoveries_total": {},
            "repro_retry_backoff_seconds": (3, 3.9419227559020555)},
        "manager_next_draw": 0.712384182812537,
    }


def test_m3_ack_lost():
    policy = BackoffPolicy(base_delay=3.0, max_delay=24.0,
                           jitter=0.25, max_attempts=5)
    assert run_keydist(m3_ack_lost, retry_policy=policy,
                       link=LatencyModel(base_latency=1.0)) == {
        "sent": [(2.0, "manager", "device-0", "keydist_m1"),
                 (3.0, "device-0", "manager", "keydist_m2"),
                 (4.0, "manager", "device-0", "keydist_m3"),
                 (5.0, "device-0", "manager", "keydist_ack"),
                 (7.319158043631765, "manager", "device-0", "keydist_m3"),
                 (8.319158043631765, "device-0", "manager", "keydist_ack")],
        "keydist_retries": 1,
        "keydist_exhausted": 0,
        "metrics": {
            "repro_retry_attempts_total": {"keydist_m3": 1.0},
            "repro_retry_exhausted_total": {},
            "repro_retry_recoveries_total": {"keydist": 1.0},
            "repro_retry_backoff_seconds": (3, 13.352831609877633)},
        "manager_next_draw": 0.712384182812537,
    }


def test_parent_fetch_recovers_after_one_retry():
    scheduler, network, alpha, beta, keys, registry = build_pair()
    network.cut_link("alpha", "beta")
    parent = make_tx(keys, alpha.tangle, timestamp=0.0)
    alpha.lane.ingest(parent, source=None, admit=False)
    scheduler.run_until(1.0)
    sent = record_sends(network)
    # The child reaches beta past the cut; the first request is lost.
    beta.lane.ingest(make_tx(keys, alpha.tangle, parent=parent.tx_hash,
                             timestamp=1.0), source=None, admit=False)
    scheduler.run_until(1.8)
    network.heal_link("alpha", "beta")
    scheduler.run_until(10.0)
    assert parent.tx_hash in beta.tangle
    assert parent_fetch_outcome(beta, registry, sent) == {
        "sent": [(1.5404790956041454, "beta", "alpha", "parent_request"),
                 (2.578191389085271, "beta", "alpha", "parent_request"),
                 (2.578191389085271, "alpha", "beta", "parent_response")],
        "parent_requests_sent": 2,
        "parent_fetch_recoveries": 1,
        "parent_fetch_exhausted": 0,
        "metrics": {
            "repro_retry_attempts_total": {"parent_fetch": 2.0},
            "repro_retry_exhausted_total": {},
            "repro_retry_recoveries_total": {"parent_fetch": 1.0},
            "repro_retry_backoff_seconds": (3, 3.903658625605198)},
        "gateway_next_draw": 0.07243628666754276,
    }


def test_parent_fetch_runs_out_of_attempts():
    scheduler, network, alpha, beta, keys, registry = build_pair()
    network.cut_link("alpha", "beta")
    parent = make_tx(keys, alpha.tangle, timestamp=0.0)
    alpha.lane.ingest(parent, source=None, admit=False)
    scheduler.run_until(1.0)
    sent = record_sends(network)
    beta.lane.ingest(make_tx(keys, alpha.tangle, parent=parent.tx_hash,
                             timestamp=1.0), source=None, admit=False)
    scheduler.run_until(60.0)
    assert parent_fetch_outcome(beta, registry, sent) == {
        "sent": [(1.5404790956041454, "beta", "alpha", "parent_request"),
                 (2.578191389085271, "beta", "alpha", "parent_request"),
                 (4.903658625605198, "beta", "alpha", "parent_request"),
                 (8.97609491227274, "beta", "alpha", "parent_request")],
        "parent_requests_sent": 4,
        "parent_fetch_recoveries": 0,
        "parent_fetch_exhausted": 1,
        "metrics": {
            "repro_retry_attempts_total": {"parent_fetch": 4.0},
            "repro_retry_exhausted_total": {"parent_fetch": 1.0},
            "repro_retry_recoveries_total": {},
            "repro_retry_backoff_seconds": (4, 7.976094912272741)},
        "gateway_next_draw": 0.5358820043066892,
    }
