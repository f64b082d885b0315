"""Tests for repro.core.authority (Fig. 4 protocol + data protection)."""

import pytest

from repro.core.authority import (
    DEFAULT_GROUP,
    BadSignatureError,
    DataProtector,
    DeviceKeyAgent,
    ManagerKeyDistributor,
    ProtocolStateError,
    ReplayError,
    StaleTimestampError,
    symmetric_decrypt,
    symmetric_encrypt,
)
from repro.crypto.keys import KeyPair
from repro.devices.sensors import PowerMeterSensor, SensorReading, TemperatureSensor

MANAGER = KeyPair.generate(seed=b"authority-manager")
DEVICE = KeyPair.generate(seed=b"authority-device")
INTRUDER = KeyPair.generate(seed=b"authority-intruder")


def run_handshake(manager=None, device=None, *, group=DEFAULT_GROUP,
                  start=10.0):
    manager = manager or ManagerKeyDistributor(MANAGER)
    device = device or DeviceKeyAgent(DEVICE, MANAGER.public)
    session, m1 = manager.initiate(DEVICE.public, now=start, group=group)
    m2 = device.handle_m1(m1, now=start + 0.1)
    m3 = manager.handle_m2(session, m2, now=start + 0.2)
    installed = device.handle_m3(m3, now=start + 0.3)
    return manager, device, session, installed


class TestSymmetricEnvelope:
    KEY = bytes(range(32))

    def test_roundtrip(self):
        envelope = symmetric_encrypt(self.KEY, b"payload")
        assert symmetric_decrypt(self.KEY, envelope) == b"payload"

    def test_tamper_detected(self):
        envelope = bytearray(symmetric_encrypt(self.KEY, b"payload"))
        envelope[10] ^= 0x01
        with pytest.raises(BadSignatureError):
            symmetric_decrypt(self.KEY, bytes(envelope))

    def test_wrong_key_detected(self):
        envelope = symmetric_encrypt(self.KEY, b"payload")
        with pytest.raises(BadSignatureError):
            symmetric_decrypt(bytes(32), envelope)

    def test_short_envelope_rejected(self):
        with pytest.raises(BadSignatureError):
            symmetric_decrypt(self.KEY, b"tiny")

    def test_key_size_checked(self):
        with pytest.raises(ValueError):
            symmetric_encrypt(b"short", b"x")
        with pytest.raises(ValueError):
            symmetric_decrypt(b"short", bytes(48))


class TestKeyDistributionHappyPath:
    def test_full_handshake(self):
        manager, device, session, installed = run_handshake()
        assert installed == DEFAULT_GROUP
        assert manager.is_completed(session)
        assert device.key_for() == manager.group_key()
        assert manager.completed_distributions == 1

    def test_group_key_generated_once(self):
        manager = ManagerKeyDistributor(MANAGER)
        assert manager.group_key("g") == manager.group_key("g")
        assert manager.group_key("g") != manager.group_key("h")

    def test_multiple_devices_share_group_key(self):
        manager = ManagerKeyDistributor(MANAGER)
        other_keys = KeyPair.generate(seed=b"authority-device-2")
        device_a = DeviceKeyAgent(DEVICE, MANAGER.public)
        device_b = DeviceKeyAgent(other_keys, MANAGER.public)
        for device, keys in ((device_a, DEVICE), (device_b, other_keys)):
            session, m1 = manager.initiate(keys.public, now=1.0)
            m2 = device.handle_m1(m1, now=1.1)
            m3 = manager.handle_m2(session, m2, now=1.2)
            device.handle_m3(m3, now=1.3)
        assert device_a.key_for() == device_b.key_for()

    def test_rotation_changes_key(self):
        manager, device, _, _ = run_handshake()
        old = manager.group_key()
        new = manager.rotate_group_key()
        assert new != old
        # The device still holds the old key until it re-runs Fig. 4.
        assert device.key_for() == old

    def test_custom_group(self):
        _, device, _, installed = run_handshake(group="lab-secrets")
        assert installed == "lab-secrets"
        assert device.key_for("lab-secrets") is not None
        assert device.key_for(DEFAULT_GROUP) is None


class TestKeyDistributionAttacks:
    def test_m1_from_intruder_rejected(self):
        # An intruder who knows the device's public key but not the
        # manager's secret key cannot fake M1.
        fake_manager = ManagerKeyDistributor(INTRUDER)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        _, m1 = fake_manager.initiate(DEVICE.public, now=1.0)
        with pytest.raises(BadSignatureError):
            device.handle_m1(m1, now=1.1)

    def test_m1_for_other_device_rejected(self):
        manager = ManagerKeyDistributor(MANAGER)
        _, m1 = manager.initiate(INTRUDER.public, now=1.0)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        with pytest.raises(BadSignatureError):
            device.handle_m1(m1, now=1.1)

    def test_stale_m1_rejected(self):
        manager = ManagerKeyDistributor(MANAGER)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        _, m1 = manager.initiate(DEVICE.public, now=1.0)
        with pytest.raises(StaleTimestampError):
            device.handle_m1(m1, now=100.0)

    def test_replayed_m1_rejected(self):
        manager = ManagerKeyDistributor(MANAGER)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        _, m1 = manager.initiate(DEVICE.public, now=1.0)
        device.handle_m1(m1, now=1.1)
        with pytest.raises(ReplayError):
            device.handle_m1(m1, now=1.2)

    def test_tampered_m2_rejected(self):
        manager = ManagerKeyDistributor(MANAGER)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        session, m1 = manager.initiate(DEVICE.public, now=1.0)
        m2 = bytearray(device.handle_m1(m1, now=1.1))
        m2[12] ^= 0x01
        with pytest.raises(BadSignatureError):
            manager.handle_m2(session, bytes(m2), now=1.2)

    def test_m2_unknown_session_rejected(self):
        manager = ManagerKeyDistributor(MANAGER)
        with pytest.raises(ProtocolStateError):
            manager.handle_m2(b"bogus-session", b"m2", now=1.0)

    def test_m2_after_completion_rejected(self):
        manager, device, session, _ = run_handshake()
        _, m1 = manager.initiate(DEVICE.public, now=20.0)
        m2 = device.handle_m1(m1, now=20.1)
        with pytest.raises(ProtocolStateError):
            manager.handle_m2(session, m2, now=20.2)

    def test_stale_m2_rejected(self):
        manager = ManagerKeyDistributor(MANAGER)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        session, m1 = manager.initiate(DEVICE.public, now=1.0)
        m2 = device.handle_m1(m1, now=1.1)
        with pytest.raises(StaleTimestampError):
            manager.handle_m2(session, m2, now=60.0)

    def test_m3_without_pending_session_rejected(self):
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        with pytest.raises(ProtocolStateError):
            device.handle_m3(symmetric_encrypt(bytes(32), b"junk"), now=1.0)

    def test_key_not_installed_before_m3(self):
        manager = ManagerKeyDistributor(MANAGER)
        device = DeviceKeyAgent(DEVICE, MANAGER.public)
        _, m1 = manager.initiate(DEVICE.public, now=1.0)
        device.handle_m1(m1, now=1.1)
        assert device.key_for() is None  # staged, not committed


class TestDataProtector:
    def _protector_pair(self):
        key = ManagerKeyDistributor(MANAGER).group_key()
        return (DataProtector({DEFAULT_GROUP: key}),
                DataProtector({DEFAULT_GROUP: key}))

    def test_sensitive_reading_encrypted(self):
        protector, reader = self._protector_pair()
        reading = PowerMeterSensor(seed=1).read(5.0)
        payload = protector.protect(reading)
        assert DataProtector.is_encrypted(payload)
        assert reader.unprotect(payload) == reading

    def test_non_sensitive_reading_plain(self):
        protector, _ = self._protector_pair()
        reading = TemperatureSensor(seed=1).read(5.0)
        payload = protector.protect(reading)
        assert not DataProtector.is_encrypted(payload)
        # Anyone can read plaintext payloads.
        assert DataProtector().unprotect(payload) == reading

    def test_sensitive_without_key_refused(self):
        reading = PowerMeterSensor(seed=1).read(5.0)
        with pytest.raises(KeyError):
            DataProtector().protect(reading)

    def test_unprotect_without_key_refused(self):
        protector, _ = self._protector_pair()
        payload = protector.protect(PowerMeterSensor(seed=1).read(5.0))
        with pytest.raises(KeyError):
            DataProtector().unprotect(payload)

    def test_tampered_payload_detected(self):
        protector, reader = self._protector_pair()
        payload = bytearray(protector.protect(PowerMeterSensor(seed=1).read(5.0)))
        payload[-1] ^= 0x01
        with pytest.raises(BadSignatureError):
            reader.unprotect(bytes(payload))

    def test_unknown_marker_rejected(self):
        with pytest.raises(ValueError):
            DataProtector().unprotect(b"\x7fjunk")

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            DataProtector().unprotect(b"")

    def test_install_key_validates_size(self):
        with pytest.raises(ValueError):
            DataProtector().install_key("g", b"short")

    def test_has_key(self):
        protector, _ = self._protector_pair()
        assert protector.has_key()
        assert not protector.has_key("other-group")

    def test_end_to_end_with_handshake_key(self):
        manager, device, _, _ = run_handshake()
        protector = DataProtector({DEFAULT_GROUP: device.key_for()})
        authority = DataProtector({DEFAULT_GROUP: manager.group_key()})
        reading = PowerMeterSensor(seed=2).read(8.0)
        assert authority.unprotect(protector.protect(reading)) == reading
