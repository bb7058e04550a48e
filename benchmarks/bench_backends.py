"""Execution-backend benchmark: processes vs threads on ARD.

The thread backend's simulated ranks share the GIL, so its wall clock
is a serialized sum and only the *virtual* time is a parallel number;
the process backend (:mod:`repro.comm.mp`) runs each rank as a spawned
worker on its own core, with NumPy payloads crossing rank boundaries
through shared-memory segments (zero-copy receive).  This suite runs
the same ARD factor+solve under both backends and asserts the three
claims the backend PR makes:

- **speedup** — >= 2x wall clock over threads at the acceptance point
  (N=4096, M=8, P=4 at full scale) on hosts with >= 4 cores.  Skipped
  below 4 cores: with fewer cores than ranks the processes backend
  cannot beat the GIL by the asserted margin.
- **zero-copy hot path** — every rank's solve-phase stats show
  shared-memory transfers (``shm_sends > 0``) and no deepcopy
  fallbacks (``payload_deepcopies == 0``): the scan messages moved as
  out-of-band buffers, never through a serialize-the-world slow path.
- **parity** — both backends return bitwise-identical solutions and
  modelled virtual times: the backend changes where code runs, never
  what it computes.
- **shipped state** — a process-backend solve pickles each rank's
  whole ``ARDRankState`` into its job, so those bytes stay within 1% +
  4 KiB per rank of the states' ``nbytes``: nothing rides along that
  the solve does not read.  Recorded beside the solve-only wall time of
  each backend against one factorization.

Measurements land in ``results/BENCH_backends.json``.  Only the
speedup floor depends on the host's core count, so CI runs
``TestSpeedup::test_process_backend_speedup`` in a non-blocking step
and everything else in the blocking benchmark smoke.
"""

import json
import os
import pickle
import statistics
import time

import numpy as np
import pytest

from repro.comm.mp import shutdown_pool
from repro.core.ard import ARDFactorization
from repro.workloads import helmholtz_block_system, random_rhs

from conftest import SCALE

#: Acceptance point (full scale) per the backend PR; smoke keeps the
#: same rank geometry on a problem that fits in CI seconds.
if SCALE == "full":
    N, M, P, R = 4096, 8, 4, 8
else:
    N, M, P, R = 512, 8, 4, 8

#: Asserted wall-clock speedup floor of processes over threads (>= 4
#: cores only); measured headroom on a 4-core reference host is ~2.6x.
PROCESS_SPEEDUP_FLOOR = 2.0

#: Interleaved solve-only rounds per backend against one factorization.
SOLVE_ROUNDS = 10

_ENOUGH_CORES = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="module")
def matrix_and_rhs():
    matrix, _ = helmholtz_block_system(N, M)
    b = random_rhs(N, M, R, seed=0)
    return matrix, b


@pytest.fixture(scope="module")
def backend_results(results_dir):
    """Accumulates measurements; written once, pool torn down after."""
    data = {"params": {"n": N, "m": M, "p": P, "r": R, "scale": SCALE,
                       "cpu_count": os.cpu_count()}}
    yield data
    path = results_dir / "BENCH_backends.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    shutdown_pool()


def _factor_solve(matrix, b, backend):
    """One full factor+solve; returns (wall_s, factorization, x)."""
    t0 = time.perf_counter()
    fact = ARDFactorization(matrix, nranks=P, backend=backend)
    x = fact.solve(b)
    return time.perf_counter() - t0, fact, x


class TestZeroCopy:
    def test_scan_hot_path_is_zero_copy(self, matrix_and_rhs,
                                        backend_results):
        matrix, b = matrix_and_rhs
        _, fact, _ = _factor_solve(matrix, b, "processes")
        for result, phase in ((fact.factor_result, "factor"),
                              (fact.last_solve_result, "solve")):
            assert result.backend == "processes"
            stats = result.stats
            shm_sends = sum(s.shm_sends for s in stats)
            deepcopies = sum(s.payload_deepcopies for s in stats)
            assert shm_sends > 0, (
                f"{phase}: no shared-memory transfers recorded — the "
                "payload path fell back to in-band pickling")
            assert deepcopies == 0, (
                f"{phase}: {deepcopies} deepcopy fallback(s) on the "
                "hot path — some payload serialized without "
                "out-of-band buffers")
            backend_results[f"zero_copy.{phase}"] = {
                "shm_sends": shm_sends,
                "shm_bytes": sum(s.shm_bytes for s in stats),
                "payload_deepcopies": deepcopies,
            }


class TestParity:
    def test_backends_agree_bitwise(self, matrix_and_rhs, backend_results):
        matrix, b = matrix_and_rhs
        _, fact_t, x_t = _factor_solve(matrix, b, "threads")
        _, fact_p, x_p = _factor_solve(matrix, b, "processes")
        assert np.array_equal(x_t, x_p), (
            "processes backend produced different solution bits")
        vt_t = (fact_t.factor_result.virtual_time
                + fact_t.last_solve_result.virtual_time)
        vt_p = (fact_p.factor_result.virtual_time
                + fact_p.last_solve_result.virtual_time)
        assert vt_t == pytest.approx(vt_p, rel=1e-12), (
            "modelled virtual time diverged across backends")
        backend_results["parity"] = {"virtual_time_threads": vt_t,
                                     "virtual_time_processes": vt_p}


class TestSolveCost:
    def test_shipped_state_and_solve_wall_are_recorded(self, matrix_and_rhs,
                                                       backend_results):
        """Solve-only wall time per backend (median of interleaved
        rounds after a warm-up solve) and the pickled rank-state bytes
        each process-backend solve ships, against ``nbytes``."""
        matrix, b = matrix_and_rhs
        facts = {backend: ARDFactorization(matrix, nranks=P, backend=backend)
                 for backend in ("threads", "processes")}
        walls = {backend: [] for backend in facts}
        for fact in facts.values():
            fact.solve(b)
        for _ in range(SOLVE_ROUNDS):
            for backend, fact in facts.items():
                t0 = time.perf_counter()
                fact.solve(b)
                walls[backend].append(time.perf_counter() - t0)
        states = facts["processes"]._states
        shipped = sum(len(pickle.dumps(s, protocol=5)) for s in states)
        nbytes = facts["processes"].nbytes
        backend_results["solve"] = {
            "rounds": SOLVE_ROUNDS,
            "threads_solve_s": statistics.median(walls["threads"]),
            "processes_solve_s": statistics.median(walls["processes"]),
            "shipped_state_bytes": shipped,
            "state_nbytes": nbytes,
        }
        assert abs(shipped - nbytes) <= 0.01 * nbytes + 4096 * P, (
            f"a solve ships {shipped} B of rank state for {nbytes} B "
            "of stored factorization")


class TestSpeedup:
    @pytest.mark.skipif(
        not _ENOUGH_CORES,
        reason=f"processes-vs-threads speedup needs >= 4 cores "
               f"(host has {os.cpu_count()})")
    def test_process_backend_speedup(self, matrix_and_rhs, backend_results):
        matrix, b = matrix_and_rhs
        _factor_solve(matrix, b, "processes")  # warm pool + worker imports
        wall = {}
        for backend in ("processes", "threads"):
            wall[backend] = min(
                _factor_solve(matrix, b, backend)[0] for _ in range(2))
        speedup = wall["threads"] / wall["processes"]
        backend_results["speedup"] = {
            "threads_wall_s": wall["threads"],
            "processes_wall_s": wall["processes"],
            "process_speedup": speedup,
        }
        assert speedup >= PROCESS_SPEEDUP_FLOOR, (
            f"processes backend is {speedup:.2f}x threads on ARD "
            f"(N={N}, M={M}, P={P}), below the "
            f"{PROCESS_SPEEDUP_FLOOR}x floor")

    def test_wall_clock_is_recorded(self, matrix_and_rhs, backend_results):
        """Even below 4 cores, record the honest numbers (no assert)."""
        matrix, b = matrix_and_rhs
        wall_p, fact, _ = _factor_solve(matrix, b, "processes")
        wall_t, _, _ = _factor_solve(matrix, b, "threads")
        backend_results["recorded"] = {
            "threads_wall_s": wall_t,
            "processes_wall_s": wall_p,
            "process_speedup": wall_t / wall_p if wall_p > 0 else 0.0,
            "asserted": _ENOUGH_CORES,
        }
        assert fact.last_solve_result.wall_time > 0
