"""Full-node snapshots: pruned ledger + derived application state.

A :class:`~repro.tangle.snapshot.TangleSnapshot` alone is not enough to
bootstrap a gateway: the authorisation list, token balances and credit
histories derived from the *pruned* region would be lost, and the new
node would reject the very history its peers consider settled.  A
:class:`NodeSnapshot` bundles all four, and is the artifact a
constrained gateway persists (storage control) or ships to a new peer
(bootstrap).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict

from ..tangle.snapshot import TangleSnapshot

__all__ = ["NodeSnapshot"]


@dataclass(frozen=True)
class NodeSnapshot:
    """Everything a new full node needs to stand in for an old one.

    Attributes:
        tangle: the pruned DAG (retained region + entry points).
        acl_state: authorisation list as of the snapshot.
        ledger_state: balances and spent sequence slots.
        credit_state: behaviour histories (malicious history in full).
        created_at: ledger time of the snapshot — also the *credit
            horizon*: a restored node must not re-record behaviour for
            transactions at or before this time.
    """

    tangle: TangleSnapshot
    acl_state: Dict[str, object]
    ledger_state: Dict[str, object]
    credit_state: Dict[str, object]
    created_at: float

    def to_data(self) -> Dict[str, object]:
        """Plain JSON-ready data — the one serialisation behind
        :meth:`to_json` and a checkpoint's ``state`` (the tangle rides
        as its own JSON encoding)."""
        return {
            "tangle": self.tangle.to_json(),
            "acl_state": self.acl_state,
            "ledger_state": self.ledger_state,
            "credit_state": self.credit_state,
            "created_at": self.created_at,
        }

    @classmethod
    def from_data(cls, fields: Dict[str, object]) -> "NodeSnapshot":
        return cls(
            tangle=TangleSnapshot.from_json(fields["tangle"]),
            acl_state=fields["acl_state"],
            ledger_state=fields["ledger_state"],
            credit_state=fields["credit_state"],
            created_at=float(fields["created_at"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_data())

    @classmethod
    def from_json(cls, data: str) -> "NodeSnapshot":
        try:
            return cls.from_data(json.loads(data))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed node snapshot: {exc}") from exc
