"""Proof-of-work substrate: hashcash puzzles and device-charged solving.

* :mod:`~repro.pow.hashcash` — Eqn. 6 challenge construction, solver,
  verifier, and geometric attempt sampling;
* :mod:`~repro.pow.engine` — per-device execution with simulated-time
  accounting (the Raspberry Pi substitution point).
"""
