"""Tests for the key-distribution retry/backoff loop: the Fig. 4
handshake must complete across lossy links, crashed devices, and lost
or duplicated protocol messages — without ever tripping its own replay
defences."""

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.faults.backoff import BackoffPolicy
from repro.network.transport import LatencyModel, LinkOverlay


def build_system(*, seed=11, retry_policy=None, link=None, telemetry=False):
    """One gateway, two devices, authorised and settled (no keydist)."""
    system = BIoTSystem.build(BIoTConfig(
        device_count=2, gateway_count=1, seed=seed,
        initial_difficulty=6, retry_policy=retry_policy, telemetry=telemetry,
    ))
    system.manager.register_gateways(
        [keys.public for keys in system.gateway_keys.values()])
    system.manager.authorize_devices(
        [keys.public for keys in system.device_keys.values()])
    if link is not None:
        for device in system.devices:
            system.network.set_link("manager", device.address, link)
    system.run_for(2.0)
    return system


def distribute(system, device):
    system.manager.distribute_key(device.address, device.keypair.public)


def assert_no_session_state(manager):
    """A finished or abandoned handshake leaves nothing in the manager
    or its distributor; only the nonce_b replay set remembers it."""
    assert manager._keydist.pending == {}
    assert manager._by_session == {}
    assert manager.distributor._sessions == {}


class TestHappyPath:
    def test_single_attempt_no_retries(self):
        system = build_system()
        device = system.devices[0]
        distribute(system, device)
        system.run_for(5.0)
        assert device.key_agent.key_for("sensitive") is not None
        assert system.manager.keydist_retries == 0
        assert system.manager._keydist.pending == {}
        assert_no_session_state(system.manager)

    def test_in_flight_handshake_not_duplicated(self):
        system = build_system(link=LatencyModel(base_latency=1.0))
        device = system.devices[0]
        distribute(system, device)
        distribute(system, device)  # second call while M1 is in flight
        system.run_for(10.0)
        assert system.manager.distributor.completed_distributions == 1


class TestM1Loss:
    def test_device_down_then_up_recovers(self):
        system = build_system()
        device = system.devices[0]
        system.network.take_down(device.address)
        distribute(system, device)  # M1 dropped at the dead radio
        system.run_for(1.0)
        system.network.bring_up(device.address)
        system.run_for(30.0)
        assert device.key_agent.key_for("sensitive") is not None
        assert system.manager.keydist_retries >= 1
        assert system.manager._keydist.pending == {}
        assert_no_session_state(system.manager)

    def test_exhaustion_gives_up(self):
        policy = BackoffPolicy(base_delay=0.5, max_delay=1.0,
                               jitter=0.0, max_attempts=2)
        system = build_system(retry_policy=policy)
        device = system.devices[0]
        system.network.take_down(device.address)
        distribute(system, device)
        system.run_for(10.0)
        assert system.manager.keydist_exhausted >= 1
        assert system.manager._keydist.pending == {}
        assert_no_session_state(system.manager)
        # A later (post-repair) distribution starts fresh and succeeds.
        system.network.bring_up(device.address)
        distribute(system, device)
        system.run_for(10.0)
        assert device.key_agent.key_for("sensitive") is not None
        assert_no_session_state(system.manager)


class TestM3Loss:
    def test_m3_ack_loss_triggers_retransmit_and_reack(self):
        # Slow symmetric link so every protocol leg lands at a known
        # time; backoff larger than the RTT so retransmits are real.
        policy = BackoffPolicy(base_delay=3.0, max_delay=24.0,
                               jitter=0.25, max_attempts=5)
        system = build_system(retry_policy=policy,
                              link=LatencyModel(base_latency=1.0))
        device = system.devices[0]
        distribute(system, device)  # M1@1, M2@2, M3@3, ack@4
        system.run_for(3.5)
        assert device.key_agent.key_for("sensitive") is not None
        # Crash the manager while the ack is in flight: purged.
        system.network.take_down("manager")
        system.network.bring_up("manager")
        assert system.manager._keydist.pending  # still waiting for the ack
        system.run_for(30.0)
        # M3 was retransmitted; the device re-acked from its dedup set
        # without reinstalling, and the manager settled the session.
        assert system.manager.keydist_retries >= 1
        assert system.manager._keydist.pending == {}
        assert len(device._keydist_acked) == 1
        assert_no_session_state(system.manager)


class TestDuplication:
    def test_duplicated_m1_does_not_break_handshake(self):
        system = build_system()
        device = system.devices[0]
        token = system.network.add_overlay(
            "manager", device.address,
            LinkOverlay(duplicate_probability=0.9))
        distribute(system, device)
        system.run_for(30.0)
        system.network.remove_overlay(token)
        # The duplicate M1 trips the nonce_a replay defence and is
        # ignored; the handshake still completes exactly once.
        assert device.key_agent.key_for("sensitive") is not None
        assert system.manager.distributor.completed_distributions == 1
        assert system.manager._keydist.pending == {}


class TestLossyLink:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_handshake_completes_under_30_percent_loss(self, seed):
        system = build_system(
            seed=seed,
            link=LatencyModel(base_latency=0.05, loss_rate=0.3))
        device = system.devices[0]
        distribute(system, device)
        system.run_for(120.0)
        assert device.key_agent.key_for("sensitive") is not None, \
            f"handshake failed under 30% loss with seed {seed}"
        assert system.manager._keydist.pending == {}
