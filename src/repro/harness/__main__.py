"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.harness list
    python -m repro.harness run recon-F1 [--scale smoke] [--out results/]
    python -m repro.harness all [--scale smoke] [--out results/]
    python -m repro.harness trace recon-T2 [--scale smoke] [--out results/]
    python -m repro.harness trace recon-T2 --out /tmp/t2.trace.json
    python -m repro.harness profile recon-T1 [--scale smoke] [--json]
    python -m repro.harness profile recon-T1 --out results/ --check
    python -m repro.harness profile --calibrate
    python -m repro.harness serve-bench [--scale smoke] [--rhs 10,100,256]
    python -m repro.harness serve-bench --http [PORT]
    python -m repro.harness postmortem [BUNDLE] [--json] [--chrome OUT]
    python -m repro.harness postmortem --synthetic --check

``trace --out`` accepts either a directory (writes
``<exp-id>.trace.json`` inside it) or an exact ``.json`` file path.
``profile`` re-runs the same representative solves and prints the
critical-path / roofline analysis (``--json`` for the machine-readable
document, ``--check`` to exit nonzero when the report's invariants
fail); ``profile --calibrate`` micro-benchmarks this host's kernels
and writes ``results/CALIB_machine.json`` for the predictor and later
profiles (see docs/PROFILING.md).
``serve-bench --http`` exposes the live telemetry endpoint
(``/metrics``, ``/healthz``, ``/traces``) while the benchmark runs.
``postmortem`` analyzes a cross-rank incident bundle
(``results/incidents/INCIDENT_<id>.json``, written automatically on
runtime failures; docs/INCIDENTS.md): it reconstructs the merged
cross-rank timeline, names the blocked/divergent op and the culprit
and straggler ranks, and renders text (default), JSON (``--json``),
or a Chrome trace (``--chrome OUT``).  Without a bundle path the
newest bundle in the incident store is used; ``--synthetic`` first
forces a tiny two-rank deadlock to produce one, and ``--check`` exits
nonzero unless the analysis identifies a culprit rank and op (the CI
smoke contract).

``run``/``all``/``trace``/``serve-bench`` accept ``--verify``: every
simulated solve runs with the SPMD runtime verifier enabled
(equivalent to setting ``REPRO_VERIFY=1``; see docs/CHECKING.md), so a
divergent collective, an unreceived message or a write to a received
or in-flight array fails the experiment with a precise diagnostic.  Every subcommand also accepts
``--backend {threads,processes}`` (equivalent to
``REPRO_COMM_BACKEND``; see docs/BACKENDS.md) to pick the SPMD
execution backend: ``threads`` keeps the in-process virtual-time
reference semantics, ``processes`` runs ranks as spawned worker
processes with shared-memory payload transport, making wall-clock
numbers true parallel measurements.  The static analyzer has its own
entry point: ``python -m repro.check lint src``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import EXPERIMENTS
from .runner import run_all, run_experiment, trace_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run all simulated solves with the SPMD runtime verifier "
        "(collective lockstep, finalize and aliasing checks; same as "
        "REPRO_VERIFY=1)",
    )
    parser.add_argument(
        "--backend", choices=("threads", "processes"), default=None,
        help="SPMD execution backend for all simulated solves "
        "(same as REPRO_COMM_BACKEND; see docs/BACKENDS.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_verify(p: argparse.ArgumentParser) -> None:
        # SUPPRESS keeps a pre-subcommand `--verify` from being reset by
        # the subparser's default when the flag is absent there.
        p.add_argument("--verify", action="store_true",
                       default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("--backend", choices=("threads", "processes"),
                       default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("exp_id", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--scale", choices=("full", "smoke"), default="full")
    run_p.add_argument("--out", default=None, help="directory for CSV output")
    run_p.add_argument("--plot", action="store_true",
                       help="also print the ASCII figure")
    _add_verify(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--scale", choices=("full", "smoke"), default="full")
    all_p.add_argument("--out", default=None, help="directory for CSV output")
    all_p.add_argument("--plot", action="store_true",
                       help="also print the ASCII figures")
    _add_verify(all_p)

    trace_p = sub.add_parser(
        "trace",
        help="trace an experiment's representative solves "
        "(writes Chrome trace JSON for Perfetto / chrome://tracing)",
    )
    trace_p.add_argument("exp_id", choices=sorted(EXPERIMENTS))
    trace_p.add_argument("--scale", choices=("full", "smoke"), default="full")
    trace_p.add_argument("--out", default="results",
                         help="directory for the .trace.json file "
                         "(default: results/), or an exact .json file path")
    _add_verify(trace_p)

    prof_p = sub.add_parser(
        "profile",
        help="critical-path + roofline analysis of an experiment's "
        "representative traced solves; --calibrate measures this "
        "host's kernel rates",
    )
    prof_p.add_argument("exp_id", nargs="?", choices=sorted(EXPERIMENTS),
                        help="experiment to profile (omit with "
                        "--calibrate)")
    prof_p.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    prof_p.add_argument("--json", action="store_true", dest="as_json",
                        help="print the JSON document instead of tables")
    prof_p.add_argument("--out", default=None,
                        help="directory for <exp-id>.profile.json (or an "
                        "exact .json path); with --calibrate, the "
                        "calibration file path")
    prof_p.add_argument("--check", action="store_true",
                        help="exit nonzero if the report is missing "
                        "phases or attribution does not sum to the "
                        "makespan within 1%%")
    prof_p.add_argument("--calibrate", action="store_true",
                        help="micro-benchmark this host and write "
                        "CALIB_machine.json instead of profiling")
    _add_verify(prof_p)

    serve_p = sub.add_parser(
        "serve-bench",
        help="benchmark the solver service (batched cached ARD) against "
        "per-request classical RD",
    )
    serve_p.add_argument("--scale", choices=("full", "smoke"), default="smoke")
    serve_p.add_argument("--rhs", default=None,
                         help="comma-separated request counts "
                         "(default: 10,100,256,1000)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="service worker threads (default: 2)")
    serve_p.add_argument("--out", default=None,
                         help="directory for serve_bench.stats.json")
    serve_p.add_argument("--http", nargs="?", const=True, default=False,
                         type=int, metavar="PORT",
                         help="expose the live telemetry endpoint while "
                         "the benchmark runs (loopback; ephemeral port "
                         "unless PORT is given)")
    _add_verify(serve_p)

    pm_p = sub.add_parser(
        "postmortem",
        help="analyze a cross-rank incident bundle: merged timeline, "
        "culprit rank/op, per-rank last-N-event tables "
        "(see docs/INCIDENTS.md)",
    )
    pm_p.add_argument("bundle", nargs="?", default=None,
                      help="bundle path (default: newest bundle in the "
                      "incident store)")
    pm_p.add_argument("--json", action="store_true", dest="as_json",
                      help="print the bundle analysis as JSON instead of "
                      "tables")
    pm_p.add_argument("--chrome", default=None, metavar="OUT",
                      help="also write the merged cross-rank timeline as "
                      "Chrome trace JSON to OUT")
    pm_p.add_argument("--check", action="store_true",
                      help="exit nonzero unless the analysis names a "
                      "culprit rank and op")
    pm_p.add_argument("--last", type=int, default=10, metavar="N",
                      help="rows in the per-rank last-N-event tables "
                      "(default: 10)")
    pm_p.add_argument("--synthetic", action="store_true",
                      help="force a tiny two-rank deadlock first and "
                      "analyze the bundle it produces (CI smoke)")
    _add_verify(pm_p)

    args = parser.parse_args(argv)
    if args.verify:
        os.environ["REPRO_VERIFY"] = "1"
    if args.backend:
        # The env var is the source of truth: thread-local configs are
        # built lazily from it, so every harness/service thread created
        # after this point inherits the backend.
        os.environ["REPRO_COMM_BACKEND"] = args.backend
        from ..config import set_config

        set_config(comm_backend=args.backend)
    if args.command == "list":
        for exp in EXPERIMENTS.values():
            print(f"{exp.exp_id:10s} {exp.title:24s} {exp.description}")
        return 0
    if args.command == "run":
        run_experiment(args.exp_id, args.scale, out_dir=args.out, plot=args.plot)
        return 0
    if args.command == "trace":
        trace_experiment(args.exp_id, args.scale, out_dir=args.out)
        return 0
    if args.command == "profile":
        from .profile import profile_experiment, run_calibration

        if args.calibrate:
            # With an exp_id the profile owns --out; the calibration
            # goes to its default path and the profile then loads it.
            run_calibration(args.out if args.exp_id is None else None)
            if args.exp_id is None:
                return 0
        elif args.exp_id is None:
            prof_p.error("an exp_id is required unless --calibrate is "
                         "given")
        try:
            profile_experiment(args.exp_id, args.scale, out=args.out,
                               as_json=args.as_json, check=args.check)
        except Exception as exc:
            if not args.check:
                raise
            print(f"profile check failed: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.command == "serve-bench":
        from .serve import serve_bench

        rhs = (tuple(int(v) for v in args.rhs.split(","))
               if args.rhs else None)
        serve_bench(args.scale, rhs, workers=args.workers, out_dir=args.out,
                    http=args.http)
        return 0
    if args.command == "postmortem":
        from ..obs.postmortem import run_postmortem

        return run_postmortem(args.bundle, as_json=args.as_json,
                              chrome_out=args.chrome, check=args.check,
                              last_n=args.last, synthetic=args.synthetic)
    run_all(args.scale, out_dir=args.out, plot=args.plot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
