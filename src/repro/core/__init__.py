"""The paper's primary contribution.

* :mod:`~repro.core.credit` — the credit model (Eqns. 2–5);
* :mod:`~repro.core.consensus` — credit-based PoW difficulty policies
  and enforcement;
* :mod:`~repro.core.acl` — manager-signed device authorisation (Eqn. 1);
* :mod:`~repro.core.authority` — data authority management: the Fig. 4
  key-distribution protocol and sensor-payload encryption;
* :mod:`~repro.core.biot` — the system facade (Fig. 3 architecture);
* :mod:`~repro.core.workflow` — the Fig. 6 workflow runner.
"""
