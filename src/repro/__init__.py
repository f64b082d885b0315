"""B-IoT: Blockchain Driven Internet of Things with Credit-Based
Consensus Mechanism — a full reproduction of the ICDCS 2019 paper.

The package is layered bottom-up:

* :mod:`repro.crypto` — hashing, AES, Ed25519/X25519, ECIES, identities;
* :mod:`repro.pow` — hashcash proof-of-work and device-charged solving;
* :mod:`repro.devices` — device profiles (the Raspberry Pi substitution),
  clocks and smart-factory sensor models;
* :mod:`repro.tangle` — the DAG-structured ledger (tips, weights, tip
  selection, token ledger, validation);
* :mod:`repro.chain` — the chain-structured baseline the paper argues
  against;
* :mod:`repro.network` — discrete-event simulator, lossy links, gossip;
* :mod:`repro.core` — **the contribution**: credit model, credit-based
  PoW consensus, ACL device management, data authority management, and
  the B-IoT system facade;
* :mod:`repro.nodes` — light node / gateway / manager roles;
* :mod:`repro.attacks` — threat-model attack harnesses;
* :mod:`repro.analysis` — metrics and credit tracing.

Quickstart::

    from repro.core.biot import BIoTConfig, BIoTSystem
    from repro.core.workflow import run_workflow
    system = BIoTSystem.build(BIoTConfig(device_count=4, seed=1))
    print(run_workflow(system).format())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
