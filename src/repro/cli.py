"""Command-line interface: run the system and the paper's experiments.

Usage::

    python -m repro workflow --devices 6 --gateways 2 --seconds 60
    python -m repro fig7
    python -m repro fig8 --attacks 24 60
    python -m repro fig9
    python -m repro fig10 --max-exponent 18
    python -m repro summary
    python -m repro telemetry --scenario smoke --require-all
    python -m repro trace --scenario smoke --seed 7
    python -m repro chaos --scenario partition-heal --seed 7
    python -m repro storage --seed 7
    python -m repro fleet --scenario smoke --seed 7
    python -m repro fleet --processes 3 --seed 7
    python -m repro node --address n0 --genesis genesis.hex \
        --storage-backend file --storage-dir /var/lib/biot

Each experiment subcommand prints the same series the matching
benchmark writes to ``benchmarks/out/``; ``workflow`` runs the Fig. 6
smart-factory workflow end to end.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.figures import (
    fig7_pow_running_time,
    fig8_credit_trace,
    fig9_pow_comparison,
    fig10_aes_timing,
)
from .analysis.metrics import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="B-IoT (ICDCS 2019) reproduction — system and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workflow = sub.add_parser(
        "workflow", help="run the Fig. 6 smart-factory workflow")
    workflow.add_argument("--devices", type=int, default=4)
    workflow.add_argument("--gateways", type=int, default=2)
    workflow.add_argument("--seconds", type=float, default=60.0,
                          help="reporting phase duration (simulated)")
    workflow.add_argument("--seed", type=int, default=42)
    workflow.add_argument("--difficulty", type=int, default=8,
                          help="initial PoW difficulty")

    fig7 = sub.add_parser("fig7", help="PoW running time vs difficulty")
    fig7.add_argument("--samples", type=int, default=5)
    fig7.add_argument("--seed", type=int, default=7)

    fig8 = sub.add_parser("fig8", help="credit trace under attack")
    fig8.add_argument("--attacks", type=float, nargs="*", default=[24.0],
                      help="attack times in seconds")
    fig8.add_argument("--duration", type=float, default=100.0)

    sub.add_parser("fig9", help="mean PoW per tx, four regimes")

    fig10 = sub.add_parser("fig10", help="AES time vs message length")
    fig10.add_argument("--max-exponent", type=int, default=20,
                       help="largest message as a power of two")

    summary = sub.add_parser(
        "summary", help="build a system and print its summary")
    summary.add_argument("--devices", type=int, default=4)
    summary.add_argument("--gateways", type=int, default=2)
    summary.add_argument("--seconds", type=float, default=30.0)
    summary.add_argument("--seed", type=int, default=42)

    report = sub.add_parser(
        "report", help="run all figures and print the consolidated "
                       "reproduction report (markdown)")
    report.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")

    telemetry = sub.add_parser(
        "telemetry", help="run an instrumented scenario and dump "
                          "JSONL/Prometheus telemetry artifacts")
    telemetry.add_argument("--scenario", choices=["smoke"], default="smoke")
    telemetry.add_argument("--seconds", type=float, default=40.0,
                           help="reporting phase duration (simulated)")
    telemetry.add_argument("--seed", type=int, default=42)
    telemetry.add_argument("--out-dir", type=str,
                           default="benchmarks/out/telemetry",
                           help="directory for telemetry.jsonl and "
                                "metrics.prom")
    telemetry.add_argument("--require-all", action="store_true",
                           help="fail if any registered metric was "
                                "never emitted during the scenario")

    trace = sub.add_parser(
        "trace", help="run the byte-deterministic causal-tracing "
                      "scenario and dump Chrome-trace / lifecycle "
                      "artifacts")
    trace.add_argument("--scenario", choices=["smoke"], default="smoke")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--seconds", type=float, default=20.0,
                       help="submission phase duration (simulated)")
    trace.add_argument("--sample-every", type=int, default=1,
                       help="sample every Nth submission round per "
                            "device (1 = every round)")
    trace.add_argument("--out-dir", type=str,
                       default="benchmarks/out/trace",
                       help="directory for trace.json, lifecycle.json "
                            "and lifecycle.txt")

    chaos = sub.add_parser(
        "chaos", help="run a canned fault-injection campaign and print "
                      "its byte-deterministic convergence report")
    chaos.add_argument("--scenario", default="smoke",
                       help="campaign name (see --list)")
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--out", type=str, default=None,
                       help="also write the canonical JSON report here")
    chaos.add_argument("--pretty", action="store_true",
                       help="indent the printed report (the --out file "
                            "stays canonical)")
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")

    storage = sub.add_parser(
        "storage", help="run the crash/restart storage differential and "
                        "print its byte-deterministic result")
    storage.add_argument("--seed", type=int, default=7)
    storage.add_argument("--steps", type=int, default=60,
                         help="workload length (transactions issued)")
    storage.add_argument("--dir", type=str, default=None,
                         help="store directory (must be empty; default "
                              "is a throwaway temporary directory)")
    storage.add_argument("--out", type=str, default=None,
                         help="also write the canonical JSON result here")

    fleet = sub.add_parser(
        "fleet", help="boot a localhost asyncio/TCP fleet, run the "
                      "seeded scenario over both transports, and "
                      "assert sim ≡ wire state hashes")
    fleet.add_argument("--scenario", default="smoke",
                       help="fleet scenario name (see --list)")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--nodes", type=int, default=None,
                       help="full-node count (default: the scenario's)")
    fleet.add_argument("--transactions", type=int, default=None,
                       help="workload length (default: the scenario's)")
    fleet.add_argument("--host", type=str, default="127.0.0.1",
                       help="interface the fleet listens on")
    fleet.add_argument("--time-scale", type=float, default=20.0,
                       help="simulated seconds per wall second on the "
                            "wire leg (>1 compresses protocol timers)")
    fleet.add_argument("--out-dir", type=str, default=None,
                       help="write fleet.json plus per-leg convergence "
                            "reports and hashes files here")
    fleet.add_argument("--list", action="store_true",
                       help="list available fleet scenarios and exit")
    fleet.add_argument("--processes", type=int, default=None,
                       help="run the multi-process differential instead: "
                            "spawn this many full-node OS processes, "
                            "kill -9 one mid-workload, cold-restart it, "
                            "and compare every process to the reference "
                            "hashes")
    fleet.add_argument("--no-crash", action="store_true",
                       help="skip the kill -9/cold-restart step "
                            "(multi-process mode)")
    fleet.add_argument("--run-dir", type=str, default=None,
                       help="working directory for stores/logs "
                            "(multi-process mode; default: temporary)")

    node = sub.add_parser(
        "node", help="run ONE full node as this OS process: listen on "
                     "TCP, bootstrap via seed nodes, serve Prometheus "
                     "metrics, and print a machine-readable ready line")
    node.add_argument("--address", required=True,
                      help="this node's fleet address (e.g. n0)")
    node.add_argument("--genesis", required=True,
                      help="path to the deployment genesis transaction "
                           "(hex-encoded bytes)")
    node.add_argument("--rng-seed", type=int, default=0,
                      help="node rng seed (must match the reference "
                           "fleet's for hash-comparable runs)")
    node.add_argument("--listen", type=str, default="127.0.0.1:0",
                      help="host:port to listen on (port 0 = ephemeral)")
    node.add_argument("--advertise-host", type=str, default=None,
                      help="host peers should dial (defaults to the "
                           "listen host; needed behind 0.0.0.0)")
    node.add_argument("--seed-node", action="append", default=[],
                      dest="seed_nodes", metavar="ADDR=HOST:PORT",
                      help="bootstrap seed (repeatable); omit to run "
                           "as a genesis seed node")
    node.add_argument("--storage-backend", choices=["none", "file"],
                      default="none",
                      help="journal under --storage-dir; a populated "
                           "one triggers an automatic cold restore "
                           "(restart path)")
    node.add_argument("--storage-dir", type=str, default=None)
    node.add_argument("--crypto-backend", choices=["accel"], default="accel",
                      help="accepted and ignored: there is one Ed25519 "
                           "implementation")
    node.add_argument("--metrics-port", type=int, default=None,
                      help="serve Prometheus text on this port "
                           "(0 = ephemeral; omitted = no exporter)")
    node.add_argument("--time-scale", type=float, default=1.0,
                      help="simulated seconds per wall second for "
                           "protocol timers")

    return parser


def _cmd_workflow(args) -> int:
    from .core.biot import BIoTConfig, BIoTSystem
    from .core.workflow import run_workflow
    from .crypto import rand

    # Seeded like ``trace`` and ``chaos``: the AES IVs would otherwise
    # come from os.urandom and move every PoW solve count with them.
    with rand.deterministic(f"workflow:{args.seed}".encode()):
        system = BIoTSystem.build(BIoTConfig(
            device_count=args.devices,
            gateway_count=args.gateways,
            seed=args.seed,
            initial_difficulty=args.difficulty,
        ))
        report = run_workflow(system, report_seconds=args.seconds)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_fig7(args) -> int:
    points = fig7_pow_running_time(samples_per_level=args.samples,
                                   seed=args.seed)
    rows = [
        (p.difficulty, f"{p.expected_seconds:.3f}",
         f"{p.sampled_seconds:.3f}",
         f"{p.paper_seconds:.3f}" if p.paper_seconds is not None else "-")
        for p in points
    ]
    print(format_table(rows, headers=[
        "difficulty", "expected (s)", "sampled (s)", "paper (s)"]))
    return 0


def _cmd_fig8(args) -> int:
    result = fig8_credit_trace(attack_times=tuple(args.attacks),
                               duration=args.duration)
    rows = [
        (f"{p.time:.1f}", f"{p.credit:.2f}", f"{p.positive:.2f}",
         f"{p.negative:.2f}")
        for p in result.tracer.points[::4]
    ]
    print(format_table(rows, headers=["t (s)", "Cr", "CrP", "CrN"]))
    print(f"\nminimum credit: {result.minimum_credit:.1f}")
    print(f"longest transaction gap: {result.longest_transaction_gap:.1f} s")
    return 0


def _cmd_fig9(args) -> int:
    rows = [
        (r.name, f"{r.mean_pow_seconds:.3f}", f"{r.paper_seconds:.3f}",
         r.transactions)
        for r in fig9_pow_comparison()
    ]
    print(format_table(rows, headers=[
        "regime", "mean PoW (s)", "paper (s)", "transactions"]))
    return 0


def _cmd_fig10(args) -> int:
    points = fig10_aes_timing(max_exponent=args.max_exponent)
    rows = [
        (p.message_bytes, f"{p.measured_seconds:.5f}",
         f"{p.modelled_rpi_seconds:.5f}",
         f"{p.paper_seconds:.5f}" if p.paper_seconds is not None else "-")
        for p in points
    ]
    print(format_table(rows, headers=[
        "bytes", "measured (s)", "RPi model (s)", "paper (s)"]))
    return 0


def _cmd_summary(args) -> int:
    from .core.biot import BIoTConfig, BIoTSystem
    from .crypto import rand

    with rand.deterministic(f"summary:{args.seed}".encode()):
        system = BIoTSystem.build(BIoTConfig(
            device_count=args.devices,
            gateway_count=args.gateways,
            seed=args.seed,
            initial_difficulty=8,
        ))
        system.initialize()
        system.start_devices()
        system.run_for(args.seconds)
    for key, value in system.summary().items():
        print(f"{key}: {value}")
    return 0


def _cmd_report(args) -> int:
    from .analysis.reporting import generate_report

    report = generate_report()
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
    return 0 if "FAIL" not in report else 1


def _cmd_telemetry(args) -> int:
    import os

    from .telemetry.exporters import (
        export_jsonl,
        render_summary,
        to_prometheus_text,
    )
    from .telemetry.scenario import run_smoke_scenario

    system = run_smoke_scenario(seed=args.seed, seconds=args.seconds)
    system.close()
    registry = system.telemetry

    os.makedirs(args.out_dir, exist_ok=True)
    jsonl_path = os.path.join(args.out_dir, "telemetry.jsonl")
    prom_path = os.path.join(args.out_dir, "metrics.prom")
    records = export_jsonl(jsonl_path, system.tracer)
    with open(prom_path, "w") as handle:
        handle.write(to_prometheus_text(registry))

    print(render_summary(registry))
    print(f"\n{records} records -> {jsonl_path}")
    print(f"exposition -> {prom_path}")

    missing = registry.unobserved()
    if missing:
        print("\nnever emitted: " + ", ".join(missing))
        if args.require_all:
            return 1
    return 0


def _cmd_trace(args) -> int:
    import json
    import os

    from .telemetry.scenario import run_trace_scenario
    from .telemetry.trace_export import (
        chrome_trace_json,
        lifecycle_report,
        render_lifecycle_text,
    )

    system = run_trace_scenario(seed=args.seed, seconds=args.seconds,
                                sample_every=args.sample_every)
    lifecycle = system.lifecycle
    node_count = len(system.full_nodes)

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.json")
    report_path = os.path.join(args.out_dir, "lifecycle.json")
    text_path = os.path.join(args.out_dir, "lifecycle.txt")
    with open(trace_path, "w") as handle:
        handle.write(chrome_trace_json(system.tracer, lifecycle) + "\n")
    report = lifecycle_report(lifecycle, node_count=node_count)
    with open(report_path, "w") as handle:
        handle.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":")) + "\n")
    text = render_lifecycle_text(lifecycle, node_count=node_count)
    with open(text_path, "w") as handle:
        handle.write(text)

    print(text)
    print(f"chrome trace -> {trace_path}  (open at https://ui.perfetto.dev)")
    print(f"lifecycle report -> {report_path}")
    print(f"lifecycle text -> {text_path}")
    return 0 if report["delivered"] else 1


def _cmd_chaos(args) -> int:
    from .faults.scenarios import SCENARIOS, run_scenario

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        print(f"unknown scenario {args.scenario!r} (known: {known})",
              file=sys.stderr)
        return 2
    report = run_scenario(args.scenario, seed=args.seed)
    print(report.to_json(indent=2 if args.pretty else None))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
    return 0 if report.converged else 1


def _cmd_storage(args) -> int:
    from .faults.report import canonical_json
    from .harness.compare import run_directory
    from .harness.storage import run_differential

    with run_directory(args.dir, prefix="repro-storage-") as directory:
        result = run_differential(seed=args.seed, storage_dir=directory,
                                  steps=args.steps)
    encoded = canonical_json(result)
    print(encoded)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(encoded + "\n")
    return 0 if result["matched"] else 1


def _cmd_node(args) -> int:
    from .network.proc import NodeProcessSpec, run_node_process

    try:
        host, _, port_text = args.listen.rpartition(":")
        spec = NodeProcessSpec(
            address=args.address,
            genesis_path=args.genesis,
            rng_seed=args.rng_seed,
            listen_host=host or "127.0.0.1",
            listen_port=int(port_text),
            advertise_host=args.advertise_host,
            seeds=list(args.seed_nodes),
            storage_backend=args.storage_backend,
            storage_dir=args.storage_dir,
            metrics_port=args.metrics_port,
            time_scale=args.time_scale,
        )
    except ValueError as exc:
        print(f"repro node: {exc}", file=sys.stderr)
        return 2
    return run_node_process(spec)


def _dump_artifacts(out_dir: str, artifacts) -> None:
    """Write ``{file name: text}`` under *out_dir*, one line each."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    for name, payload in artifacts.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(payload + "\n")
    print(f"artifacts -> {out_dir}")


def _print_verdict(title: str, result, legs) -> None:
    print(f"{title}: {'MATCHED' if result['matched'] else 'DIVERGED'}")
    for leg in legs:
        summary = result[leg]
        print(f"{leg}: converged={summary['converged']} "
              f"sync_rounds={summary['sync_rounds']} "
              f"rejected={len(summary['rejected'])}")


def _cmd_fleet_processes(args) -> int:
    from .faults.report import canonical_json
    from .harness.controller import run_proc_differential
    from .harness.fleet import FLEET_SCENARIOS

    if args.processes < 1:
        print("repro fleet: --processes must be >= 1", file=sys.stderr)
        return 2
    transactions = args.transactions
    if transactions is None:
        transactions = FLEET_SCENARIOS.get(
            args.scenario, {}).get("transactions", 12)

    result = run_proc_differential(
        seed=args.seed, processes=args.processes,
        transactions=transactions, run_dir=args.run_dir, host=args.host,
        time_scale=args.time_scale, crash=not args.no_crash)

    proc = result["proc"]
    _print_verdict("proc ≡ reference", result, ("proc",))
    if proc["crash"]:
        crash = proc["crash"]
        print(f"crash: {crash['victim']} killed at tx "
              f"{crash['killed_at']}, cold-restored at tx "
              f"{crash['restarted_at']} "
              f"({crash['restored_records']} journal records)")

    if args.out_dir:
        _dump_artifacts(args.out_dir, {
            "fleet-proc.json": canonical_json(result),
            "hashes-proc.json": canonical_json(proc["hashes"]),
        })
    return 0 if result["matched"] else 1


def _cmd_fleet(args) -> int:
    from .faults.report import canonical_json
    from .harness.fleet import FLEET_SCENARIOS, run_fleet_differential

    if args.processes is not None:
        return _cmd_fleet_processes(args)
    if args.list:
        for name in sorted(FLEET_SCENARIOS):
            shape = FLEET_SCENARIOS[name]
            print(f"{name}: {shape['node_count']} nodes, "
                  f"{shape['transactions']} transactions")
        return 0
    try:
        result, sim_report, wire_report = run_fleet_differential(
            seed=args.seed, scenario=args.scenario, node_count=args.nodes,
            transactions=args.transactions, host=args.host,
            time_scale=args.time_scale)
    except ValueError as exc:  # unknown scenario, fewer than 2 nodes
        print(exc, file=sys.stderr)
        return 2

    # The wire leg's convergence report, in the exact ChaosRunner
    # format; the sim leg's lands next to it under --out-dir.
    print(wire_report.to_json(indent=2))
    _print_verdict("\nsim ≡ wire", result, ("sim", "wire"))

    if args.out_dir:
        _dump_artifacts(args.out_dir, {
            "fleet.json": canonical_json(result),
            "report-sim.json": sim_report.to_json(),
            "report-wire.json": wire_report.to_json(),
            # Hashes-only files: byte-comparable between the two legs
            # (and across repeat runs) even though the wire report's
            # durations are wall-clock.
            "hashes-sim.json": canonical_json(result["sim"]["hashes"]),
            "hashes-wire.json": canonical_json(result["wire"]["hashes"]),
        })
    return 0 if result["matched"] else 1


_COMMANDS = {
    "workflow": _cmd_workflow,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "summary": _cmd_summary,
    "report": _cmd_report,
    "telemetry": _cmd_telemetry,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "storage": _cmd_storage,
    "fleet": _cmd_fleet,
    "node": _cmd_node,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
