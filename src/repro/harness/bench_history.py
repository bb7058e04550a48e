"""Perf-trajectory collector: one benchmark record per run, appended.

``python -m repro.harness bench-history`` measures the library's gated
performance numbers — transfer-block inversion time and speedup over
the per-block scipy LU loop, service throughput and its speedup over
per-request RD, the disabled-span guard cost, the always-on
flight-recorder overhead ratio (docs/INCIDENTS.md), a representative
ARD factor+solve wall time, and (on hosts with >= 4 cores) the
processes-backend wall clock and its speedup over threads
(docs/BACKENDS.md) — and appends them as one schema-versioned JSON
line to ``results/BENCH_history.jsonl``.  The growing file is the
repo's perf trajectory; :mod:`repro.obs.regress` gates the newest
record against the rolling median of its predecessors.

Wall-clock numbers are machine-dependent, so the gate compares records
*within* one history file (one machine/CI runner), never across; the
asserted absolute floors stay in ``benchmarks/``.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import time
from typing import Any, Callable

import numpy as np

from ..obs.log import console, get_logger
from ..obs.tracer import span

__all__ = [
    "BENCH_HISTORY_SCHEMA_VERSION",
    "collect_record",
    "append_record",
    "run_bench_history",
]

#: Version stamped into every history record; bump on field changes.
BENCH_HISTORY_SCHEMA_VERSION = 1

_log = get_logger("bench_history")

_SCALES = {
    "smoke": dict(lu_batch=(256, 8), solve=(64, 4, 4, 8), requests=64),
    "full": dict(lu_batch=(1024, 8), solve=(256, 8, 8, 32), requests=256),
}


def _best_of(fn: Callable[[], Any], rounds: int = 3) -> float:
    """Minimum wall time of ``rounds`` calls (noise-robust point value)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_metrics(nblocks: int, m: int) -> dict[str, float]:
    import scipy.linalg

    from ..linalg.blockops import invert_blocks

    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((nblocks, m, m))
    blocks += m * np.eye(m)

    inverse_s = _best_of(lambda: invert_blocks(blocks))
    loop_s = _best_of(
        lambda: [scipy.linalg.lu_factor(blocks[i]) for i in range(nblocks)]
    )
    return {
        "kernels.lu_batched_s": inverse_s,
        "kernels.lu_speedup": loop_s / inverse_s if inverse_s > 0 else 0.0,
    }


def _service_metrics(scale: str, requests: int) -> dict[str, float]:
    from .serve import serve_bench

    result = serve_bench(scale, rhs_counts=(requests,), verbose=False)
    row = result["rows"][0]
    return {
        "service.req_per_s": row["service_req_per_s"],
        "service.speedup_vs_rd": row["speedup"],
    }


def _solve_metrics(n: int, m: int, p: int, r: int) -> dict[str, float]:
    from ..core.ard import ARDFactorization
    from ..workloads import helmholtz_block_system, random_rhs

    matrix, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=0)

    def run() -> None:
        ARDFactorization(matrix, nranks=p).solve(b)

    return {"solve.ard_wall_s": _best_of(run, rounds=2)}


def _backend_metrics(n: int, m: int, p: int, r: int) -> dict[str, float]:
    """Processes-vs-threads ARD wall clock (see docs/BACKENDS.md).

    Only measured on hosts with >= 4 cores — with fewer cores than
    ranks the comparison is noise, and absent metrics are skipped by
    the gate — so single-core CI runners record nothing here.
    """
    import os

    if (os.cpu_count() or 1) < 4:
        return {}
    from ..comm.mp import shutdown_pool
    from ..core.ard import ARDFactorization
    from ..workloads import helmholtz_block_system, random_rhs

    matrix, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=0)

    def run(backend: str) -> Callable[[], Any]:
        return lambda: ARDFactorization(
            matrix, nranks=p, backend=backend).solve(b)

    try:
        run("processes")()  # warm the worker pool (spawn + imports)
        proc_s = _best_of(run("processes"), rounds=2)
        thread_s = _best_of(run("threads"), rounds=2)
    finally:
        shutdown_pool()
    return {
        "backends.ard_process_wall_s": proc_s,
        "backends.process_speedup": (thread_s / proc_s
                                     if proc_s > 0 else 0.0),
    }


def _planner_metrics(n: int, m: int, p: int, r: int) -> dict[str, float]:
    """Planner regret at the history shape (docs/PLANNER.md).

    Tunes this shape in-process (the deployed workflow: ``harness
    tune`` once, plan forever), then times ``method="auto"`` against
    the fixed portfolio methods on the same problem; regret is auto's
    wall time over the best fixed configuration.  With the shape
    measured, ``auto`` plans its measured argmin, so this stays near
    1.0 — the :data:`~repro.obs.regress.GATED_METRICS` gate fires when
    a planner change makes it drift up.
    """
    from ..core.api import solve
    from ..perfmodel.planner import set_default_table, tune_machine
    from ..workloads import helmholtz_block_system, random_rhs

    matrix, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=0)

    def run(method: str) -> Callable[[], Any]:
        return lambda: solve(matrix, b, method=method, nranks=p)

    set_default_table(tune_machine(quick=True, shapes=[(n, m, p, r)]))
    try:
        run("auto")()  # warm: plan resolution + kernel setup
        auto_s = _best_of(run("auto"), rounds=2)
        fixed_s = min(_best_of(run(meth), rounds=2)
                      for meth in ("ard", "rd", "thomas"))
    finally:
        set_default_table(None)
    return {
        "planner.auto_wall_s": auto_s,
        "planner.regret": auto_s / fixed_s if fixed_s > 0 else 0.0,
    }


def _flightrec_metrics(n: int, m: int, p: int, r: int) -> dict[str, float]:
    """Always-on flight-recorder cost at the canonical solve shape.

    The same representative ARD factor+solve as ``solve.ard_wall_s``,
    timed with the per-rank recorder off and on; the recorded metric is
    the on/off wall-time ratio, so the <3% overhead budget the recorder
    ships under (docs/INCIDENTS.md, ``benchmarks/bench_flightrec.py``)
    stays visible in the perf trajectory and the gate fires when a
    recorder change inflates the hot path.
    """
    from ..config import config_context
    from ..core.ard import ARDFactorization
    from ..workloads import helmholtz_block_system, random_rhs

    matrix, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=0)

    def run() -> None:
        ARDFactorization(matrix, nranks=p).solve(b)

    with config_context(flightrec=False):
        off_s = _best_of(run, rounds=3)
    with config_context(flightrec=True):
        on_s = _best_of(run, rounds=3)
    return {"obs.flightrec_overhead": on_s / off_s if off_s > 0 else 0.0}


def _span_guard_metrics(reps: int = 5000) -> dict[str, float]:
    def run() -> None:
        for _ in range(reps):
            with span("kernel"):
                pass

    return {"obs.disabled_span_us": _best_of(run, rounds=5) / reps * 1e6}


def collect_record(scale: str = "smoke") -> dict[str, Any]:
    """Measure all gated metrics; returns one history record (no I/O)."""
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")
    cfg = _SCALES[scale]
    metrics: dict[str, float] = {}
    metrics.update(_kernel_metrics(*cfg["lu_batch"]))
    metrics.update(_service_metrics(scale, cfg["requests"]))
    metrics.update(_solve_metrics(*cfg["solve"]))
    metrics.update(_backend_metrics(*cfg["solve"]))
    metrics.update(_planner_metrics(*cfg["solve"]))
    metrics.update(_flightrec_metrics(*cfg["solve"]))
    metrics.update(_span_guard_metrics())
    return {
        "schema_version": BENCH_HISTORY_SCHEMA_VERSION,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scale": scale,
        "metrics": metrics,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def append_record(path: str | pathlib.Path, record: dict[str, Any]) -> pathlib.Path:
    """Append ``record`` as one JSON line to the history file at ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def run_bench_history(
    out: str | pathlib.Path = "results/BENCH_history.jsonl",
    scale: str = "smoke",
    *,
    check: bool = False,
    threshold: float = 0.15,
    verbose: bool = True,
) -> int:
    """Collect one record, append it, optionally gate; returns exit code.

    With ``check=True`` the freshly appended record is compared against
    the rolling median via :func:`repro.obs.regress.check_regressions`
    and the return value is nonzero on regression — the CI entry point
    (``python -m repro.harness bench-history --check``).
    """
    record = collect_record(scale)
    path = append_record(out, record)
    _log.info("bench_history.recorded", path=str(path), scale=scale,
              **record["metrics"])
    if verbose:
        console(f"bench-history ({scale}): appended record to {path}")
        for name in sorted(record["metrics"]):
            console(f"  {name:28s} {record['metrics'][name]:.6g}")
    if not check:
        return 0
    from ..obs.regress import check_regressions, load_history

    history = load_history(path)
    regressions = check_regressions(history, threshold=threshold)
    if len(history) < 2:
        if verbose:
            console("bench-history: first record — gate seeded, nothing to "
                    "compare yet.")
        return 0
    if not regressions:
        if verbose:
            console(f"bench-history: gate OK ({len(history)} records, "
                    f"threshold {threshold:.0%}).")
        return 0
    if verbose:
        console(f"bench-history: gate FAIL — {len(regressions)} regression(s):")
        for reg in regressions:
            console(f"  {reg.describe()}")
    return 1
