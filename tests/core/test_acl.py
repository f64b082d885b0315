"""Tests for repro.core.acl (device authorisation, Eqn. 1)."""

import pytest

from repro.core.acl import (
    AclAction,
    AclPayload,
    AuthorizationList,
    GenesisConfig,
    Role,
)
from repro.crypto.keys import KeyPair
from repro.tangle.errors import MalformedPayloadError, UnauthorizedIssuerError
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction, TransactionKind

MANAGER = KeyPair.generate(seed=b"acl-manager")
DEVICE = KeyPair.generate(seed=b"acl-device")
INTRUDER = KeyPair.generate(seed=b"acl-intruder")


def make_genesis(**kwargs):
    config = GenesisConfig(manager=MANAGER.public, **kwargs)
    return Transaction.create_genesis(MANAGER, payload=config.to_bytes())


def acl_from_genesis(genesis):
    """The ACL a replica starts from (``Replica.__init__``)."""
    config = GenesisConfig.from_genesis(genesis)
    return AuthorizationList(config.manager, config.extra_managers)


def acl_tx(signer, payload, *, parents, timestamp=1.0):
    return Transaction.create(
        signer, kind=TransactionKind.ACL, payload=payload.to_bytes(),
        timestamp=timestamp, branch=parents, trunk=parents, difficulty=1,
    )


class TestGenesisConfig:
    def test_roundtrip(self):
        config = GenesisConfig(
            manager=MANAGER.public,
            network_name="factory-7",
            token_allocations=((DEVICE.node_id, 500),),
        )
        restored = GenesisConfig.from_bytes(config.to_bytes())
        assert restored == config

    def test_from_genesis(self):
        genesis = make_genesis(network_name="plant-a")
        config = GenesisConfig.from_genesis(genesis)
        assert config.manager == MANAGER.public
        assert config.network_name == "plant-a"

    def test_from_non_genesis_rejected(self):
        genesis = make_genesis()
        tx = Transaction.create(
            MANAGER, kind="data", payload=b"", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash, difficulty=1,
        )
        with pytest.raises(ValueError):
            GenesisConfig.from_genesis(tx)

    def test_garbage_payload_rejected(self):
        with pytest.raises(MalformedPayloadError):
            GenesisConfig.from_bytes(b"not a config")


class TestAclPayload:
    def test_roundtrip(self):
        payload = AclPayload(
            action=AclAction.AUTHORIZE, role=Role.DEVICE,
            identities=(DEVICE.public, INTRUDER.public),
        )
        assert AclPayload.from_bytes(payload.to_bytes()) == payload

    def test_validation(self):
        with pytest.raises(ValueError):
            AclPayload(action="grant", role=Role.DEVICE,
                       identities=(DEVICE.public,))
        with pytest.raises(ValueError):
            AclPayload(action=AclAction.AUTHORIZE, role="admin",
                       identities=(DEVICE.public,))
        with pytest.raises(ValueError):
            AclPayload(action=AclAction.AUTHORIZE, role=Role.DEVICE,
                       identities=())

    def test_garbage_rejected(self):
        with pytest.raises(MalformedPayloadError):
            AclPayload.from_bytes(b"\xff\xfe")


class TestAuthorizationList:
    def test_manager_implicitly_authorized(self):
        acl = AuthorizationList(MANAGER.public)
        assert acl.is_authorized(MANAGER.node_id)
        assert not acl.is_authorized(DEVICE.node_id)

    def test_authorize_devices(self):
        acl = AuthorizationList(MANAGER.public)
        genesis = make_genesis()
        update = AuthorizationList.make_update([DEVICE.public])
        acl.apply(acl_tx(MANAGER, update, parents=genesis.tx_hash))
        assert acl.is_authorized(DEVICE.node_id)
        assert acl.is_authorized_device(DEVICE.node_id)
        assert acl.authorized_devices() == [DEVICE.node_id]
        assert acl.updates_applied == 1

    def test_deauthorize(self):
        acl = AuthorizationList(MANAGER.public)
        genesis = make_genesis()
        acl.apply(acl_tx(MANAGER, AuthorizationList.make_update([DEVICE.public]),
                         parents=genesis.tx_hash))
        acl.apply(acl_tx(
            MANAGER,
            AuthorizationList.make_update([DEVICE.public],
                                          action=AclAction.DEAUTHORIZE),
            parents=genesis.tx_hash, timestamp=2.0,
        ))
        assert not acl.is_authorized(DEVICE.node_id)

    def test_gateway_registration_separate_role(self):
        acl = AuthorizationList(MANAGER.public)
        genesis = make_genesis()
        acl.apply(acl_tx(
            MANAGER,
            AuthorizationList.make_update([DEVICE.public], role=Role.GATEWAY),
            parents=genesis.tx_hash,
        ))
        assert acl.is_registered_gateway(DEVICE.node_id)
        assert not acl.is_authorized_device(DEVICE.node_id)
        assert acl.is_authorized(DEVICE.node_id)  # any role grants access

    def test_non_manager_update_rejected(self):
        acl = AuthorizationList(MANAGER.public)
        genesis = make_genesis()
        forged = acl_tx(INTRUDER,
                        AuthorizationList.make_update([INTRUDER.public]),
                        parents=genesis.tx_hash)
        with pytest.raises(UnauthorizedIssuerError):
            acl.apply(forged)
        assert not acl.is_authorized(INTRUDER.node_id)

    def test_apply_non_acl_rejected(self):
        acl = AuthorizationList(MANAGER.public)
        genesis = make_genesis()
        data = Transaction.create(
            MANAGER, kind="data", payload=b"x", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash, difficulty=1,
        )
        with pytest.raises(MalformedPayloadError):
            acl.apply(data)

    def test_identity_lookup(self):
        acl = AuthorizationList(MANAGER.public)
        genesis = make_genesis()
        acl.apply(acl_tx(MANAGER, AuthorizationList.make_update([DEVICE.public]),
                         parents=genesis.tx_hash))
        assert acl.identity_for(DEVICE.node_id) == DEVICE.public
        assert acl.identity_for(MANAGER.node_id) == MANAGER.public
        assert acl.identity_for(b"\x00" * 32) is None


class TestMultiManager:
    SECOND = KeyPair.generate(seed=b"acl-second-manager")

    def _acl(self):
        return AuthorizationList(MANAGER.public, (self.SECOND.public,))

    def test_both_managers_recognised(self):
        acl = self._acl()
        assert acl.is_manager(MANAGER.node_id)
        assert acl.is_manager(self.SECOND.node_id)
        assert not acl.is_manager(INTRUDER.node_id)
        assert acl.is_authorized(self.SECOND.node_id)

    def test_second_manager_can_publish_updates(self):
        acl = self._acl()
        genesis = make_genesis()
        update = acl_tx(self.SECOND,
                        AuthorizationList.make_update([DEVICE.public]),
                        parents=genesis.tx_hash)
        acl.apply(update)
        assert acl.is_authorized_device(DEVICE.node_id)

    def test_intruder_still_rejected(self):
        acl = self._acl()
        genesis = make_genesis()
        forged = acl_tx(INTRUDER,
                        AuthorizationList.make_update([INTRUDER.public]),
                        parents=genesis.tx_hash)
        with pytest.raises(UnauthorizedIssuerError):
            acl.apply(forged)

    def test_genesis_config_roundtrips_extra_managers(self):
        config = GenesisConfig(
            manager=MANAGER.public,
            extra_managers=(self.SECOND.public,),
        )
        restored = GenesisConfig.from_bytes(config.to_bytes())
        assert restored.extra_managers == (self.SECOND.public,)
        assert len(restored.all_managers) == 2

    def test_from_genesis_carries_extras(self):
        config = GenesisConfig(manager=MANAGER.public,
                               extra_managers=(self.SECOND.public,))
        genesis = Transaction.create_genesis(MANAGER,
                                             payload=config.to_bytes())
        acl = acl_from_genesis(genesis)
        assert acl.is_manager(self.SECOND.node_id)

    def test_identity_lookup_includes_extras(self):
        acl = self._acl()
        assert acl.identity_for(self.SECOND.node_id) == self.SECOND.public


class TestValidatorIntegration:
    def test_validator_blocks_unauthorized_data(self):
        genesis = make_genesis()
        acl = acl_from_genesis(genesis)
        tangle = Tangle(genesis, validators=[acl.validator])
        rogue = Transaction.create(
            INTRUDER, kind="data", payload=b"x", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash, difficulty=1,
        )
        with pytest.raises(UnauthorizedIssuerError):
            tangle.attach(rogue)

    def test_validator_allows_after_authorization(self):
        genesis = make_genesis()
        acl = acl_from_genesis(genesis)
        tangle = Tangle(genesis, validators=[acl.validator])
        update = acl_tx(MANAGER, AuthorizationList.make_update([DEVICE.public]),
                        parents=genesis.tx_hash)
        tangle.attach(update)
        acl.apply(update)
        data = Transaction.create(
            DEVICE, kind="data", payload=b"x", timestamp=2.0,
            branch=update.tx_hash, trunk=update.tx_hash, difficulty=1,
        )
        tangle.attach(data)
        assert data.tx_hash in tangle

    def test_validator_blocks_forged_acl(self):
        genesis = make_genesis()
        acl = acl_from_genesis(genesis)
        tangle = Tangle(genesis, validators=[acl.validator])
        forged = acl_tx(INTRUDER,
                        AuthorizationList.make_update([INTRUDER.public]),
                        parents=genesis.tx_hash)
        with pytest.raises(UnauthorizedIssuerError):
            tangle.attach(forged)
