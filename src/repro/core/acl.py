"""Device authorisation: the manager's on-ledger access-control list.

Section IV-A: "The public key of the manager will be hard-coded into
genesis config of blockchain, which means only the manager has the
rights to publish or update the authorization list of devices.  Then
the manager can manage IoT devices (authorize/deauthorize) through
posting a new transaction where records public keys of authorized IoT
devices":

    TX = Sign_SKM(PK_d1, PK_d2, ..., PK_dn)                      (Eqn. 1)

Gateways rebuild :class:`AuthorizationList` state from ACL transactions
and "decline to provide services for unauthorized IoT devices", which
is the system's Sybil/DDoS defence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..crypto.keys import PublicIdentity
from ..tangle.errors import MalformedPayloadError, UnauthorizedIssuerError
from ..tangle.tangle import Tangle
from ..tangle.transaction import Transaction, TransactionKind

__all__ = [
    "GenesisConfig",
    "AclAction",
    "AclPayload",
    "AuthorizationList",
    "Role",
]


class Role:
    """Entity roles recorded by ACL transactions."""

    DEVICE = "device"
    GATEWAY = "gateway"


class AclAction:
    """ACL operations."""

    AUTHORIZE = "authorize"
    DEAUTHORIZE = "deauthorize"


@dataclass(frozen=True)
class GenesisConfig:
    """The genesis payload: the hard-coded trust anchor.

    Attributes:
        manager: the primary manager's public identity.
        network_name: human-readable deployment label.
        token_allocations: optional initial balances for the token
            ledger, keyed by node id.
        extra_managers: additional manager identities.  "In each smart
            factory, the existence of one or more managers are
            permitted" (Section IV-A) — a federation of factories on one
            public tangle hard-codes every factory's manager here, and
            each may publish ACL updates.
    """

    manager: PublicIdentity
    network_name: str = "b-iot"
    token_allocations: Tuple[Tuple[bytes, int], ...] = ()
    extra_managers: Tuple[PublicIdentity, ...] = ()

    @property
    def all_managers(self) -> Tuple[PublicIdentity, ...]:
        """Every identity allowed to publish ACL updates."""
        return (self.manager,) + self.extra_managers

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "manager": self.manager.to_bytes().hex(),
                "network_name": self.network_name,
                "token_allocations": [
                    [account.hex(), amount]
                    for account, amount in self.token_allocations
                ],
                "extra_managers": [
                    identity.to_bytes().hex()
                    for identity in self.extra_managers
                ],
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GenesisConfig":
        try:
            fields = json.loads(data.decode())
            allocations = tuple(
                (bytes.fromhex(account), int(amount))
                for account, amount in fields.get("token_allocations", [])
            )
            extra = tuple(
                PublicIdentity.from_bytes(bytes.fromhex(encoded))
                for encoded in fields.get("extra_managers", [])
            )
            return cls(
                manager=PublicIdentity.from_bytes(bytes.fromhex(fields["manager"])),
                network_name=fields.get("network_name", "b-iot"),
                token_allocations=allocations,
                extra_managers=extra,
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise MalformedPayloadError(f"bad genesis config: {exc}") from exc

    @classmethod
    def from_genesis(cls, genesis: Transaction) -> "GenesisConfig":
        if not genesis.is_genesis:
            raise ValueError("not a genesis transaction")
        return cls.from_bytes(genesis.payload)


@dataclass(frozen=True)
class AclPayload:
    """One authorisation-list update (the body of an ACL transaction)."""

    action: str
    role: str
    identities: Tuple[PublicIdentity, ...]

    def __post_init__(self):
        if self.action not in (AclAction.AUTHORIZE, AclAction.DEAUTHORIZE):
            raise ValueError(f"unknown ACL action {self.action!r}")
        if self.role not in (Role.DEVICE, Role.GATEWAY):
            raise ValueError(f"unknown ACL role {self.role!r}")
        if not self.identities:
            raise ValueError("ACL update must name at least one identity")

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "action": self.action,
                "role": self.role,
                "identities": [
                    identity.to_bytes().hex() for identity in self.identities
                ],
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "AclPayload":
        try:
            fields = json.loads(data.decode())
            identities = tuple(
                PublicIdentity.from_bytes(bytes.fromhex(encoded))
                for encoded in fields["identities"]
            )
            return cls(
                action=fields["action"],
                role=fields["role"],
                identities=identities,
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise MalformedPayloadError(f"bad ACL payload: {exc}") from exc


class AuthorizationList:
    """Gateway-side ACL state, rebuilt from the ledger.

    Managers (from the genesis config — one or several) are implicitly
    authorised.  Everything else must be authorised by an ACL
    transaction *signed by a manager* — updates from any other key raise
    :class:`~repro.tangle.errors.UnauthorizedIssuerError` and are never
    applied.
    """

    def __init__(self, manager: PublicIdentity,
                 extra_managers: Tuple[PublicIdentity, ...] = ()):
        self.manager = manager
        self._manager_ids: Set[bytes] = {manager.node_id}
        self._manager_ids.update(m.node_id for m in extra_managers)
        self._authorized: Dict[str, Set[bytes]] = {
            Role.DEVICE: set(),
            Role.GATEWAY: set(),
        }
        self._identities: Dict[bytes, PublicIdentity] = {
            manager.node_id: manager
        }
        for identity in extra_managers:
            self._identities[identity.node_id] = identity
        self.updates_applied = 0

    def is_manager(self, node_id: bytes) -> bool:
        """Whether *node_id* may publish ACL updates."""
        return node_id in self._manager_ids

    # -- updates ---------------------------------------------------------

    def apply(self, tx: Transaction) -> AclPayload:
        """Apply one ACL transaction; only a manager may issue them."""
        if tx.kind != TransactionKind.ACL:
            raise MalformedPayloadError(f"{tx.short_hash} is not an ACL update")
        if not self.is_manager(tx.issuer.node_id):
            raise UnauthorizedIssuerError(
                f"ACL update {tx.short_hash} signed by {tx.issuer.short_id}, "
                f"not a manager"
            )
        payload = AclPayload.from_bytes(tx.payload)
        target = self._authorized[payload.role]
        for identity in payload.identities:
            if payload.action == AclAction.AUTHORIZE:
                target.add(identity.node_id)
                self._identities[identity.node_id] = identity
            else:
                target.discard(identity.node_id)
        self.updates_applied += 1
        return payload

    # -- queries ---------------------------------------------------------

    def is_authorized(self, node_id: bytes) -> bool:
        """Whether *node_id* may submit transactions (any role, or a
        manager itself)."""
        if node_id in self._manager_ids:
            return True
        return any(node_id in members for members in self._authorized.values())

    def is_authorized_device(self, node_id: bytes) -> bool:
        return node_id in self._authorized[Role.DEVICE]

    def is_registered_gateway(self, node_id: bytes) -> bool:
        return node_id in self._authorized[Role.GATEWAY]

    def authorized_devices(self) -> List[bytes]:
        return sorted(self._authorized[Role.DEVICE])

    def registered_gateways(self) -> List[bytes]:
        return sorted(self._authorized[Role.GATEWAY])

    def identity_for(self, node_id: bytes) -> Optional[PublicIdentity]:
        """Look up the full identity recorded for *node_id*."""
        return self._identities.get(node_id)

    # -- state transfer ----------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """Serialisable ACL state, for node snapshots.

        Needed because ACL *transactions* may be pruned while their
        *effect* (who is authorised) must survive.
        """
        return {
            "devices": [
                self._identities[node_id].to_bytes().hex()
                for node_id in sorted(self._authorized[Role.DEVICE])
            ],
            "gateways": [
                self._identities[node_id].to_bytes().hex()
                for node_id in sorted(self._authorized[Role.GATEWAY])
            ],
            "updates_applied": self.updates_applied,
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`export_state` output (replaces current sets)."""
        try:
            devices = [
                PublicIdentity.from_bytes(bytes.fromhex(encoded))
                for encoded in state["devices"]
            ]
            gateways = [
                PublicIdentity.from_bytes(bytes.fromhex(encoded))
                for encoded in state["gateways"]
            ]
            updates = int(state.get("updates_applied", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedPayloadError(f"bad ACL state: {exc}") from exc
        self._authorized[Role.DEVICE] = {d.node_id for d in devices}
        self._authorized[Role.GATEWAY] = {g.node_id for g in gateways}
        for identity in devices + gateways:
            self._identities[identity.node_id] = identity
        self.updates_applied = updates

    # -- enforcement -----------------------------------------------------

    def validator(self, tangle: Tangle, tx: Transaction) -> None:
        """Tangle validator enforcing the access policy.

        * ACL updates must come from the manager;
        * every other transaction kind must come from an authorised
          identity — "full nodes can decline to provide services for
          unauthorized IoT devices" (Section VI-C).
        """
        if tx.kind == TransactionKind.ACL:
            if not self.is_manager(tx.issuer.node_id):
                raise UnauthorizedIssuerError(
                    f"ACL update from non-manager {tx.issuer.short_id}"
                )
            return
        if not self.is_authorized(tx.issuer.node_id):
            raise UnauthorizedIssuerError(
                f"{tx.kind} transaction from unauthorised issuer "
                f"{tx.issuer.short_id}"
            )

    @staticmethod
    def make_update(identities: Iterable[PublicIdentity], *,
                    action: str = AclAction.AUTHORIZE,
                    role: str = Role.DEVICE) -> AclPayload:
        """Convenience constructor for an ACL payload."""
        return AclPayload(action=action, role=role, identities=tuple(identities))
