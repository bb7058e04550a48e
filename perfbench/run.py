"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ard_stream --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs the workload untraced
and then again with the per-layer wrappers of ``layers.py`` installed,
prints the ledger, and reports the per-layer metrics.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is nonzero when any output was wrong.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import compileall
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is measured in this many fresh processes besides the run's own.
SETUP_PROBES = 4
#: Share of ``--seconds`` the traced run spends untraced (the overhead
#: baseline); the rest runs traced.
UNTRACED_SHARE = 0.4
#: Share of ``--seconds`` the traced run of a workload that never calls
#: ``solve(method="auto")`` spends on the one-shot segment (see
#: :func:`oneshot_segment`).
ONESHOT_SHARE = 0.25
#: Ledger rows plus the residual row must match the measured op time.
LEDGER_TOLERANCE = 0.02
#: Set before NumPy and the C allocator start, so the run re-executes
#: itself once with them.  One BLAS thread per rank thread: the two rank
#: threads already fill both cores.  One malloc arena: with an arena per
#: thread, peak RSS of identical runs ranged from 156 to 174 MB.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "MALLOC_ARENA_MAX": "1"}

def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ard_stream", "oneshot_auto", "service_burst"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build() -> None:
    """Compile the package's bytecode before anything is timed, so no
    measured phase pays the first-import compile."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        compileall.compile_dir(str(SRC / "repro"), quiet=2)


def pct(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[
        int(q) - 1]) if len(values) > 1 else float(values[0])


def ms(seconds: float) -> float:
    return 1e3 * seconds


# -- set-up -------------------------------------------------------------------


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of one fresh process (imports happen before timing)."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--setup-probe", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# -- the traced pass ----------------------------------------------------------


def closed_loop_rows(index, m) -> tuple[dict, float]:
    rows = collections.defaultdict(float)
    for root, _ in m.roots:
        index.self_times(root, out=rows)
    return rows, sum(ext for _, ext in m.roots)


def service_rows(index, m, probe, main_tid) -> tuple[dict, float]:
    """Per-request ledger of the open loop.

    A request's latency runs from its due time to its result and splits
    into: generator lateness, the caller thread from the burst's start
    to the end of this request's ``submit`` (register, earlier submits
    of the burst), queue wait until a worker took its batch, and the
    worker's serving window up to the moment its result was set.
    """
    from ledger import RESIDUAL, window_self_times

    done = m.done
    caller = sorted((s for s in index.by_id.values()
                     if s.tid == main_tid and s.parent is None),
                    key=lambda s: s.t0)
    starts = [s.t0 for s in caller]

    rows = collections.defaultdict(float)
    total = 0.0
    for due, start, s0, s1, rid in m.requests:
        end = done.get(rid)
        taken = probe.taken.get(rid)
        if end is None or taken is None:
            continue
        total += end - due
        rows["generator"] += start - due
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, s1)
        window_self_times(index, caller[lo:hi], start, s1, rows)
        served_from = max(s1, taken[0])
        rows["service.batcher"] += served_from - s1
        window_self_times(index, [index.by_id[taken[1]]], served_from, end,
                          rows)
    rows.setdefault(RESIDUAL, 0.0)
    return rows, total


def check_ledger(what, index, rows, op_total, nops) -> list[str]:
    """Problems of one ledger.  The rows sum to the op time by
    construction, so the check that can fail is the fault count: spans
    that double-count time (see ``SpanIndex.faults``)."""
    problems = []
    faults = index.faults()
    if faults:
        problems.append(f"{what}: {faults} spans double-count time")
    rows_total = sum(rows.values())
    if abs(rows_total - op_total) > LEDGER_TOLERANCE * op_total:
        problems.append(
            f"{what}: rows sum to {ms(rows_total / nops):.4f} ms/op but "
            f"ops took {ms(op_total / nops):.4f} ms/op")
    return problems


def inputs_stamp(wl) -> dict:
    return {"input_digest": wl.digest, **wl.stamp()}


def oneshot_metrics(auto, ard, rows, nops) -> dict:
    """The metrics only one-shot ``method="auto"`` calls reach: block
    Thomas self time per call and auto p50 over explicit-ARD p50 on the
    same inputs."""
    return {"core.thomas.ms": ms(rows.get("core.thomas", 0.0) / nops),
            "perfmodel.planner.auto_over_ard": (statistics.median(auto)
                                                / statistics.median(ard))}


def oneshot_segment(seed, seconds, m, problems) -> tuple[dict, str, dict]:
    """The one-shot segment, for workloads that never call ``solve(...,
    method="auto")``: untraced pairs of ``method="auto"`` and
    ``method="ard"`` on the same fresh matrices, then traced auto calls.

    Its ops count towards ``m``'s correctness and its ledger faults go
    to ``problems``.  Returns :func:`oneshot_metrics`, the printed
    ledger and the inputs' stamp.
    """
    import workloads
    from layers import Probe
    from ledger import Ledger

    wl = workloads.make("oneshot_auto", seed)
    wl.setup()
    paired_s = UNTRACED_SHARE * seconds
    pairs, auto, ard = wl.paired(paired_s)
    probe = Probe(Ledger()).install()
    try:
        seg = wl.run(seconds - paired_s, probe.ledger)
    finally:
        probe.restore()
    m.absorb(pairs)
    m.absorb(seg)
    index = probe.ledger.index()
    rows, op_total = closed_loop_rows(index, seg)
    nops = max(len(seg.roots), 1)
    problems += check_ledger("one-shot ledger", index, rows, op_total, nops)
    return (oneshot_metrics(auto, ard, rows, nops),
            ledger_report(rows, nops, op_total), inputs_stamp(wl))


def traced(args, make) -> tuple[dict, object, list, str, dict]:
    """Untraced baseline, then set-up and ops with every wrapper on, then
    (on every workload but ``oneshot_auto``) the one-shot segment.

    Returns the per-layer metrics, the traced phase's measurement, the
    problems that make the run incorrect, the printed ledgers and the
    inputs' stamp.
    """
    import threading

    from layers import ROW_METRICS, Probe, spmd_totals
    from ledger import RESIDUAL, Ledger

    oneshot = args.workload == "oneshot_auto"
    seconds = args.seconds * (1.0 if oneshot else 1.0 - ONESHOT_SHARE)
    base_s = UNTRACED_SHARE * seconds
    problems = []

    wl = make(base_s)
    try:
        wl.setup()
        if oneshot:
            base, auto, ard = wl.paired(base_s)
            base_lat = auto
        else:
            base = wl.run(base_s)
            base_lat = base.latencies
    finally:
        wl.close()

    probe = Probe(Ledger()).install()
    ledger = probe.ledger
    wl = make(seconds - base_s)
    try:
        token = ledger.open(RESIDUAL)
        wl.setup()
        setup_root = ledger.close(token)
        setup_index = ledger.index()
        probe.reset()
        cache_before = (wl.svc.cache.stats()
                        if args.workload == "service_burst" else None)
        m = wl.run(seconds - base_s, ledger)
        snap = wl.svc.metrics_snapshot() if cache_before else None
    finally:
        wl.close()
        probe.restore()
    # The untraced baseline's ops count towards correctness too.
    m.absorb(base)
    index = ledger.index()
    if args.workload == "service_burst":
        rows, op_total = service_rows(index, m, probe,
                                      threading.get_ident())
        nops = len(m.latencies)
    else:
        rows, op_total = closed_loop_rows(index, m)
        nops = len(m.roots)
    nops = max(nops, 1)
    setup_total = setup_root.t1 - setup_root.t0
    setup_rows = setup_index.self_times(setup_root)
    problems += check_ledger("op ledger", index, rows, op_total, nops)
    problems += check_ledger("set-up ledger", setup_index, setup_rows,
                             setup_total, 1)

    metrics = {}
    for row, name in ROW_METRICS.items():
        metrics[name] = ms(rows.get(row, 0.0) / nops)
        metrics[f"setup.{row}_ms"] = ms(setup_rows.get(row, 0.0))
    metrics["setup.total_ms"] = ms(setup_total)
    calls = ledger.calls
    metrics["perfmodel.planner.calls"] = calls["perfmodel.planner"] / nops
    metrics["linalg.blockops.lu_calls"] = calls["linalg.blockops.lu"] / nops
    metrics["linalg.blockops.solve_calls"] = (
        calls["linalg.blockops.solve"] / nops)
    spmd = spmd_totals(probe.spmd_runs)
    metrics["comm.runtime.runs_per_op"] = spmd["runs"] / nops
    metrics["comm.runtime.msgs_per_op"] = spmd["msgs"] / nops
    metrics["comm.runtime.bytes_per_op"] = spmd["bytes"] / nops
    metrics["core.ard.flops_per_rhs"] = (
        spmd["solve_flops"] / spmd["solve_rhs"] if spmd["solve_rhs"] else 0.0)
    metrics["core.ard.virtual_ms_per_op"] = ms(spmd["virtual_s"] / nops)

    if snap is not None:
        queue_wait = [probe.taken[rid][0] - probe.put_at[rid]
                      for *_, rid in m.requests
                      if rid in probe.taken and rid in probe.put_at]
        after = snap["cache"]
        hits = after["hits"] - cache_before.hits
        lookups = hits + after["misses"] - cache_before.misses
        summaries = snap["summaries"]

        def p50(name):
            s = summaries.get(name)
            return s["p50"] if s and s.get("p50") is not None else 0.0

        metrics["service.batcher.queue_wait_p50_ms"] = ms(
            statistics.median(queue_wait))
        metrics["service.batcher.batch_rhs_mean"] = statistics.fmean(
            probe.batch_rhs)
        metrics["service.cache.hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["service.cache.factor_ms_p50"] = ms(p50("factor.wall_s"))
        metrics["service.service.solve_ms_p50"] = ms(p50("solve.wall_s"))
        metrics["service.service.generator_late_p99_ms"] = ms(
            pct(m.late_s, 99))
    else:
        for name in ("service.batcher.queue_wait_p50_ms",
                     "service.batcher.batch_rhs_mean",
                     "service.cache.hit_ratio", "service.cache.factor_ms_p50",
                     "service.service.solve_ms_p50",
                     "service.service.generator_late_p99_ms"):
            metrics[name] = 0.0

    lat = m.latencies
    metrics["tail.latency_p90_ms"] = ms(pct(lat, 90))
    metrics["tail.latency_p99_ms"] = ms(pct(lat, 99))
    metrics["tail.samples"] = len(lat)
    metrics["ledger.op_ms"] = ms(op_total / nops)
    metrics["ledger.overhead_ratio"] = (statistics.median(lat)
                                        / statistics.median(base_lat))

    leftover = [(owner, attr) for owner, attr, *_ in ledger.patched()]
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    report = ledger_report(rows, nops, op_total, setup_rows, setup_total)
    stamps = inputs_stamp(wl)
    # core.thomas.ms is read from the one-shot ledger: the op ledger's
    # own row is 0 on every workload that bypasses block Thomas.
    if oneshot:
        metrics.update(oneshot_metrics(auto, ard, rows, nops))
    else:
        extra, seg_report, stamps["oneshot"] = oneshot_segment(
            args.seed, args.seconds - seconds, m, problems)
        metrics.update(extra)
        report += "\n\none-shot segment\n" + seg_report
    return metrics, m, problems, report, stamps


def ledger_report(rows, nops, op_total, setup_rows=None,
                  setup_total=0.0) -> str:
    """The ledger as a table; the set-up column only with ``setup_rows``."""
    from layers import ROW_METRICS

    def line(label, v, share="", s=None):
        setup = "" if setup_rows is None else f"{s:>12}"
        return f"{label:<26}{v:>12}{share:>8}{setup}"

    setup = setup_rows or {}
    lines = [line("ledger row", "ms/op", "share", "set-up ms")]
    for row in ROW_METRICS:
        v, s = rows.get(row, 0.0), setup.get(row, 0.0)
        if v == 0.0 and s == 0.0:
            continue
        lines.append(line(row, f"{ms(v / nops):.4f}",
                          f"{v / op_total if op_total else 0:.1%}",
                          f"{ms(s):.3f}"))
    lines.append(line("sum of rows", f"{ms(sum(rows.values()) / nops):.4f}",
                      "", f"{ms(sum(setup.values())):.3f}"))
    lines.append(line("measured op / set-up", f"{ms(op_total / nops):.4f}",
                      "", f"{ms(setup_total):.3f}"))
    return "\n".join(lines)


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        script = str(pathlib.Path(__file__).resolve())
        argv = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, script, *argv])
    if not args.setup_probe:
        build()
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # ignored tuning table

    import repro  # noqa: F401  (import cost is not part of set-up)
    import workloads

    def make(seconds):
        return workloads.make(args.workload, args.seed, seconds=seconds)

    if args.setup_probe:
        wl = make(1.0)
        try:
            setup_s = timed_setup(wl)
        finally:
            wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import stamp

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    problems: list[str] = []
    if args.trace:
        metrics, m, problems, report, inputs = traced(args, make)
    else:
        samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        wl = make(args.seconds)
        try:
            samples.append(timed_setup(wl))
            m = wl.run(args.seconds)
        finally:
            wl.close()
        lat = m.latencies
        metrics = {
            "rhs_per_s": m.rhs_ok / m.busy_s,
            "latency_p50_ms": ms(statistics.median(lat)),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = ("setup samples (s): "
                  + ", ".join(f"{s:.4f}" for s in samples))
        inputs = inputs_stamp(wl)
    info = {
        "workload": args.workload, "seed": args.seed,
        "latency_p90_ms": ms(pct(m.latencies, 90)),
        "seconds": args.seconds, "trace": args.trace,
        "samples": len(m.latencies), "fail_ratio": (
            m.failed / m.attempted if m.attempted else None),
        "tolerance": workloads.TOL, "errors": m.errors,
        **stamp.revision(ROOT), "host": stamp.host(), "stack": stamp.stack(),
        "pinned_env": PINNED_ENV, "tuning_table": stamp.tuning_table(),
        **inputs,
    }
    if m.late_s:
        info["generator_late_p99_ms"] = ms(pct(m.late_s, 99))
    print("stamp " + json.dumps(info, sort_keys=True))
    print(report)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    if m.late_s and pct(m.late_s, 99) > workloads.ServiceBurst.late_limit_s:
        print(f"invalid run: the generator fell behind its schedule "
              f"(p99 {ms(pct(m.late_s, 99)):.2f} ms > "
              f"{ms(workloads.ServiceBurst.late_limit_s):.0f} ms)",
              file=sys.stderr)
        return 3
    for error in m.errors:
        print(f"error: {error}", file=sys.stderr)
    correct = m.failed == 0 and m.attempted > 0 and not problems
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": {
                          e["name"]: {"value": metrics[e["name"]],
                                      "unit": e["unit"]}
                          for e in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
