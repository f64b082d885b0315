"""Differential harnesses, process supervisor and scale bench.

B-IoT's availability claim is that every gateway full node ends up with
the same tangle, ledger, ACL and credit state.  This package carries
the evidence: three differentials that drive one seeded workload
through ever more hostile deliveries and compare every replica,
hash-for-hash, against a reference node that saw no faults at all.

* :mod:`~repro.harness.workload` — the one seeded workload builder
  (keys, genesis, reference node, ``issue()``) and
  :func:`~repro.harness.workload.build_workload`;
* :mod:`~repro.harness.submit` — the one submit client (serial
  chaining on the simulator, timeout/retry over TCP);
* :mod:`~repro.harness.compare` — the one convergence loop, leg summary
  and run-directory helper;
* :mod:`~repro.harness.storage` — crash/restart differential
  (``repro storage``);
* :mod:`~repro.harness.fleet` — sim ≡ wire differential
  (``repro fleet``);
* :mod:`~repro.harness.supervisor` — spawns and supervises
  ``repro node`` OS processes;
* :mod:`~repro.harness.controller` — parent-side control RPCs and the
  ``kill -9`` process differential (``repro fleet --processes``);
* :mod:`~repro.harness.scale` — the sharded multi-process scale bench.

Dependencies run one way: product code (``core``, ``tangle``,
``storage``, ``network`` including ``network.proc``, ``nodes``,
``faults.report``) never imports this package; ``repro.cli``
subcommands, tests and ``benchmarks/test_bench_fleet_scale.py`` do.
State hashing lives on the product side
(:meth:`repro.nodes.replica.Replica.state_hashes`) because
``repro node`` answers ``fleet_status`` with it.
"""
