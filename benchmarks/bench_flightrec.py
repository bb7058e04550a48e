"""Benchmarks of the always-on flight recorder's cost.

The recorder (:mod:`repro.obs.flightrec`) runs on every rank of every
solve, always — so its budget is explicit: < 3% of solve wall time at
the canonical bench shape (docs/INCIDENTS.md).  Three questions, one
benchmark each: what does a single hot-path ring record cost (the
per-message price), what does a representative ARD factor+solve cost
with the recorder off vs on, and does the paired on/off ratio stay
inside the 3% budget?  Run with ``REPRO_BENCH_SCALE=full`` for the
paper-scale problem.
"""

import os
import time

import numpy as np

from repro.config import config_context
from repro.core.ard import ARDFactorization
from repro.obs import FlightRecorder
from repro.workloads import helmholtz_block_system, random_rhs

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
N, M, P, R = (256, 8, 8, 32) if SCALE == "full" else (64, 4, 4, 8)

REC_REPS = 1000


def test_record_hot_path(benchmark):
    """Cost of 1000 send-record + retire pairs on a full-size ring.

    This is the exact sequence the runtime's send path executes per
    message; no allocation happens (the ring is preallocated), so the
    per-pair cost should sit in the sub-microsecond range."""
    rec = FlightRecorder(0, 2048)

    def run():
        for i in range(REC_REPS):
            rec.record_send(1, 0, i, 128)
            rec.mark_consumed(i)
        return rec

    out = benchmark(run)
    assert out.dropped == 0


def _system():
    matrix, _ = helmholtz_block_system(N, M)
    return matrix, random_rhs(N, M, R, seed=0)


def test_ard_solve_flightrec_off(benchmark):
    matrix, b = _system()

    def run():
        with config_context(flightrec=False):
            return ARDFactorization(matrix, nranks=P).solve(b)

    x = benchmark(run)
    assert x.shape == b.shape


def test_ard_solve_flightrec_on(benchmark):
    matrix, b = _system()

    def run():
        with config_context(flightrec=True):
            return ARDFactorization(matrix, nranks=P).solve(b)

    x = benchmark(run)
    assert x.shape == b.shape
    assert np.isfinite(x).all()


def test_overhead_budget_under_3_percent():
    """Recorder-on ARD factor+solve stays within the < 3% budget.

    Scheduler/BLAS noise dwarfs the recorder at these shapes, so the
    measurement follows the disabled-tracing gate's protocol
    (``tests/test_quality_gates.py``): time *paired* interleaved
    off/on rounds and take the best (minimum) on/off ratio — one quiet
    pair reveals the true ratio, while a real recorder regression
    inflates every pair.
    """
    matrix, b = _system()

    def run():
        ARDFactorization(matrix, nranks=P).solve(b)

    def timed():
        t0 = time.perf_counter_ns()
        run()
        return time.perf_counter_ns() - t0

    run()  # warm up
    ratios = []
    for _ in range(12):
        with config_context(flightrec=False):
            off = timed()
        with config_context(flightrec=True):
            on = timed()
        ratios.append(on / off)
    best = min(ratios)
    assert best < 1.03, (
        f"flight-recorder overhead {best - 1:.1%} exceeds the 3% budget "
        f"in every one of {len(ratios)} paired rounds at shape "
        f"(N={N}, M={M}, P={P}, R={R})"
    )
