"""Backend lookup by name, kept for callers that still pass ``"accel"``.

There is one Ed25519 implementation, :mod:`repro.crypto.ed25519`;
:func:`get_backend` hands it back under its old name.
"""

from __future__ import annotations

from types import ModuleType

from .. import ed25519

__all__ = ["get_backend"]


def get_backend(name: str) -> ModuleType:
    """``"accel"`` is :mod:`repro.crypto.ed25519`; any other name raises
    ``ValueError``."""
    if name != "accel":
        raise ValueError(f"unknown crypto backend {name!r}; valid: accel")
    return ed25519
