"""Exception hierarchy for ledger validation.

Every reason a transaction can be refused has its own exception type so
tests and gateways can react to the *specific* failure (e.g. an
:class:`UnknownParentError` parks the transaction until its parent
arrives, an :class:`UnauthorizedIssuerError` is simply dropped).  A
double spend is not among them: conflicting transfers both attach, and
:meth:`~repro.tangle.ledger.TokenLedger.apply_or_conflict` arbitrates
their ledger effect (lowest hash wins) after the fact.
"""

from __future__ import annotations

__all__ = [
    "TangleError",
    "ValidationError",
    "UnknownParentError",
    "DuplicateTransactionError",
    "InvalidPowError",
    "InvalidSignatureError",
    "TimestampError",
    "SelfApprovalError",
    "MalformedPayloadError",
    "UnauthorizedIssuerError",
]


class TangleError(Exception):
    """Base class for all ledger errors."""


class ValidationError(TangleError):
    """A transaction failed validation and must not be attached."""


class UnknownParentError(ValidationError):
    """The transaction approves a parent the tangle has never seen."""


class DuplicateTransactionError(ValidationError):
    """The transaction hash is already attached."""


class InvalidPowError(ValidationError):
    """The nonce does not satisfy the declared difficulty."""


class InvalidSignatureError(ValidationError):
    """The issuer's signature does not verify."""


class TimestampError(ValidationError):
    """The timestamp is outside the acceptable window."""


class SelfApprovalError(ValidationError):
    """The transaction lists itself (or the same parent twice when
    forbidden) as an approval target."""


class MalformedPayloadError(ValidationError):
    """The payload cannot be decoded for the declared kind."""


class UnauthorizedIssuerError(ValidationError):
    """The issuer is not on the manager's authorisation list."""
