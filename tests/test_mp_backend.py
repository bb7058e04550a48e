"""Process-backend tests: parity, transport, diagnostics, fork safety.

The conformance matrix in ``test_comm_conformance.py`` pins the
Communicator API contract; this module covers what is specific to the
process backend (:mod:`repro.comm.mp`):

- **bitwise parity** — RD, ARD, SPIKE and block-cyclic-reduction
  solves return identical bits and identical modelled virtual times
  under both backends (the backend changes where code runs, never what
  it computes);
- **shared-memory transport** — pack/unpack round trips, zero-copy
  receive (unpacked arrays are views into the segment), segment
  lifecycle (released with the last reference, swept per pool);
- **observability interop** — one trace_id across worker processes,
  cross-process divergence detection, deadlock reports with the
  wait-for graph, log-record forwarding into the parent's sink;
- **failure paths** — rank exceptions, worker death, unconsumed
  messages, pool recovery after each;
- **fork safety** — module-level logging state re-resolves in a new
  process instead of writing through an inherited stream.
"""

from __future__ import annotations

import gc
import io
import json
import os

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.comm import shm
from repro.comm.mp import shutdown_pool
from repro.exceptions import (
    CommError,
    DeadlockError,
    SpmdDivergenceError,
    UnconsumedMessageWarning,
)
from repro.workloads import helmholtz_block_system, random_rhs

N, M, P, R = 32, 4, 4, 3


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


# ---------------------------------------------------------------------------
# programs (module level: must be picklable for the process backend)
# ---------------------------------------------------------------------------

def prog_error_rank1(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.allreduce(comm.rank)


def prog_cycle(comm):
    return comm.recv(source=(comm.rank + 1) % comm.size, tag=5)


def prog_divergent(comm):
    if comm.rank == 1:
        return comm.reduce(comm.rank, root=0)  # wrong collective  # repro: noqa[RC101]
    return comm.allreduce(comm.rank)


def prog_traced(comm):
    from repro.obs import span

    with span("work"):
        comm.send(np.arange(256.0), (comm.rank + 1) % comm.size, tag=2)
        return comm.recv(source=(comm.rank - 1) % comm.size, tag=2).sum()


def prog_unconsumed(comm):
    if comm.rank == 0:
        comm.send("orphan", 1, tag=9)
    return comm.allreduce(1)


def prog_worker_exit(comm):
    if comm.rank == 1:
        os._exit(3)
    return comm.allreduce(comm.rank)


def prog_logging(comm):
    from repro.obs.log import get_logger

    get_logger("mp.test").info("worker.hello", rank=comm.rank)
    return comm.rank


# ---------------------------------------------------------------------------
# bitwise parity across backends (acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def system():
    matrix, _ = helmholtz_block_system(N, M)
    b = random_rhs(N, M, nrhs=R, seed=7)
    return matrix, b


def _both_backends(run):
    threads = run("threads")
    processes = run("processes")
    return threads, processes


class TestBitwiseParity:
    def test_rd_parity(self, system):
        from repro.core.distribute import distribute_matrix, distribute_rhs
        from repro.core.rd import rd_solve_spmd

        matrix, b = system

        def run(backend):
            chunks = distribute_matrix(matrix, P)
            d_chunks = distribute_rhs(b, P)
            return run_spmd(
                rd_solve_spmd, P, copy_messages=False,
                rank_args=[(c, d) for c, d in zip(chunks, d_chunks)],
                backend=backend)

        t, p = _both_backends(run)
        assert p.backend == "processes"
        for vt, vp in zip(t.values, p.values):
            np.testing.assert_array_equal(vt, vp)
        assert t.virtual_time == pytest.approx(p.virtual_time, rel=1e-12)

    def test_ard_parity(self, system):
        from repro.core.ard import ARDFactorization

        matrix, b = system

        def run(backend):
            fact = ARDFactorization(matrix, nranks=P, backend=backend)
            return fact, fact.solve(b)

        (ft, xt), (fp, xp) = _both_backends(run)
        np.testing.assert_array_equal(xt, xp)
        assert fp.factor_result.backend == "processes"
        assert (ft.factor_result.virtual_time
                == pytest.approx(fp.factor_result.virtual_time, rel=1e-12))
        assert (ft.last_solve_result.virtual_time
                == pytest.approx(fp.last_solve_result.virtual_time,
                                 rel=1e-12))

    def test_ard_parity_wide_panel(self):
        """A 17-column panel, with each rank's rows written in place on
        threads and copied back on processes."""
        from repro.core.ard import ARDFactorization

        matrix, _ = helmholtz_block_system(64, M)
        b = random_rhs(64, M, nrhs=17, seed=8)
        xt = ARDFactorization(matrix, nranks=P, backend="threads").solve(b)
        xp = ARDFactorization(matrix, nranks=P, backend="processes").solve(b)
        np.testing.assert_array_equal(xt, xp)
        assert matrix.residual(xt, b) < 1e-10

    def test_ard_parity_one_column(self):
        """A one-column panel runs the same kernel on both backends, bit
        for bit."""
        from repro.core.ard import ARDFactorization

        matrix, _ = helmholtz_block_system(64, M)
        b = random_rhs(64, M, nrhs=1, seed=9)
        xt = ARDFactorization(matrix, nranks=P, backend="threads").solve(b)
        xp = ARDFactorization(matrix, nranks=P, backend="processes").solve(b)
        np.testing.assert_array_equal(xt, xp)
        assert matrix.residual(xt, b) < 1e-10

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_callers_rhs_unchanged(self, system, backend):
        """Every method only reads the caller's right-hand side, on
        both backends."""
        from repro.core.api import SOLVE_METHODS, solve

        matrix, b = system
        before = b.copy()
        for method in SOLVE_METHODS:
            solve(matrix, b, method=method, nranks=2, backend=backend)
            assert b.tobytes() == before.tobytes(), method

    def test_spike_parity(self, system):
        from repro.core.spike import SpikeFactorization

        matrix, b = system

        def run(backend):
            return SpikeFactorization(matrix, nranks=P,
                                      backend=backend).solve(b)

        xt, xp = _both_backends(run)
        np.testing.assert_array_equal(xt, xp)

    def test_bcyclic_parity(self, system):
        from repro.core.bcyclic import bcyclic_solve

        matrix, b = system

        def run(backend):
            return bcyclic_solve(matrix, b, backend=backend)

        (xt, rt), (xp, rp) = _both_backends(run)
        np.testing.assert_array_equal(xt, xp)
        assert rt.virtual_time == pytest.approx(rp.virtual_time, rel=1e-12)

    def test_solve_api_accepts_backend(self, system):
        from repro.core.api import solve

        matrix, b = system
        xt = solve(matrix, b, method="ard", nranks=P, backend="threads")
        xp = solve(matrix, b, method="ard", nranks=P, backend="processes")
        np.testing.assert_array_equal(xt, xp)

    def test_zero_copy_counters(self):
        from repro.core.ard import ARDFactorization

        # Big enough blocks/RHS that scan messages clear the shm
        # threshold (the tiny parity system rides in-band by design).
        matrix, _ = helmholtz_block_system(32, 8)
        b = random_rhs(32, 8, nrhs=32, seed=7)
        fact = ARDFactorization(matrix, nranks=P, backend="processes")
        fact.solve(b)
        stats = fact.last_solve_result.stats
        assert sum(s.shm_sends for s in stats) > 0
        assert sum(s.shm_bytes for s in stats) > 0
        assert sum(s.payload_deepcopies for s in stats) == 0
        assert sum(s.shm_sends for s in fact.factor_result.stats) > 0
        # The thread backend never touches shared memory.
        threads = ARDFactorization(matrix, nranks=P, backend="threads")
        assert all(s.shm_sends == 0 for s in threads.factor_result.stats)


# ---------------------------------------------------------------------------
# shared-memory transport
# ---------------------------------------------------------------------------

class TestShmTransport:
    def test_small_payload_stays_inline(self):
        packed, used_shm = shm.pack(("tiny", 42))
        assert not used_shm and packed.shm_name is None
        assert shm.unpack(packed) == ("tiny", 42)

    def test_large_array_round_trips_through_segment(self):
        arr = np.arange(8192, dtype=np.float64)
        packed, used_shm = shm.pack({"x": arr, "tag": "big"})
        assert used_shm and packed.shm_name is not None
        out = shm.unpack(packed)
        assert out["tag"] == "big"
        np.testing.assert_array_equal(out["x"], arr)

    def test_receive_is_zero_copy_view(self):
        arr = np.arange(4096, dtype=np.float64)
        packed, used_shm = shm.pack(arr)
        assert used_shm
        out = shm.unpack(packed)
        # The unpacked array is a view into the mapped segment, not a
        # copy: it must not own its data.
        assert not out.flags["OWNDATA"]
        assert out.base is not None

    def test_segment_released_with_last_reference(self):
        arr = np.arange(4096, dtype=np.float64)
        packed, _ = shm.pack(arr)
        name = packed.shm_name
        assert os.path.exists(f"/dev/shm/{name}")
        out = shm.unpack(packed)
        del out
        gc.collect()
        shm._drain_pending()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_receiver_never_touches_the_resource_tracker(self, monkeypatch):
        # The sender's tracker forgets a posted segment and the receiver
        # unlinks it; a receiver-side register (CPython <= 3.12 registers
        # every SharedMemory open) leaves the tracker believing it leaked.
        from multiprocessing import resource_tracker

        packed, used_shm = shm.pack(np.ones(1000))
        assert used_shm
        name = packed.shm_name
        calls = []
        for fn in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker, fn,
                lambda seg, rtype, fn=fn: calls.append((fn, seg)))
        out = shm.unpack(packed)
        np.testing.assert_array_equal(out, np.ones(1000))
        del out
        gc.collect()
        shm._drain_pending()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert [c for c in calls if c[1].lstrip("/") == name] == []

    def test_sweep_prefix_removes_leaked_segments(self):
        packed, _ = shm.pack(np.arange(4096, dtype=np.float64),
                             prefix=shm.segment_prefix(0xDEAD))
        assert os.path.exists(f"/dev/shm/{packed.shm_name}")
        shm.sweep_prefix(0xDEAD)
        assert not os.path.exists(f"/dev/shm/{packed.shm_name}")

    def test_no_segments_leak_after_jobs(self, system):
        run_spmd(prog_traced, 3, backend="processes")
        gc.collect()
        leaked = [f for f in os.listdir("/dev/shm")
                  if f.startswith("rshm")]
        assert leaked == []


# ---------------------------------------------------------------------------
# observability interop
# ---------------------------------------------------------------------------

class TestObservability:
    def test_one_trace_id_across_processes(self):
        result = run_spmd(prog_traced, 3, trace=True, backend="processes")
        assert result.trace_id is not None
        assert result.traces is not None and len(result.traces) == 3
        for trace in result.traces:
            assert trace.trace_id == result.trace_id
            assert any(s.name == "work" for s in trace.spans)
            # Message rows ship back with the trace.
            assert any(row[0] == "send" for row in trace.comm)

    def test_divergent_collective_caught_cross_process(self):
        with pytest.raises(SpmdDivergenceError):
            run_spmd(prog_divergent, 3, verify=True, backend="processes")

    def test_deadlock_reported_with_wait_for_graph(self):
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(prog_cycle, 3, backend="processes")
        report = str(exc_info.value)
        assert "wait-for cycle" in report
        for rank in range(3):
            assert f"rank {rank}" in report

    def test_worker_logs_forwarded_to_parent_sink(self):
        from repro.obs.log import configure_logging, disable_logging

        buffer = io.StringIO()
        configure_logging(stream=buffer)
        try:
            run_spmd(prog_logging, 3, backend="processes")
        finally:
            disable_logging()
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines() if line]
        hello = [r for r in records if r.get("event") == "worker.hello"]
        assert sorted(r["rank"] for r in hello) == [0, 1, 2]


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

class TestFailurePaths:
    def test_rank_exception_propagates(self):
        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(prog_error_rank1, 3, backend="processes")

    def test_pool_recovers_after_error(self):
        with pytest.raises(ValueError):
            run_spmd(prog_error_rank1, 3, backend="processes")
        result = run_spmd(prog_traced, 3, backend="processes")
        assert result.backend == "processes"

    def test_worker_death_is_actionable(self):
        with pytest.raises(CommError, match="died"):
            run_spmd(prog_worker_exit, 3, backend="processes")
        # The pool is rebuilt; the next job runs clean.
        result = run_spmd(prog_traced, 3, backend="processes")
        assert result.backend == "processes"

    def test_unconsumed_message_warns(self):
        with pytest.warns(UnconsumedMessageWarning, match="orphan|tag"):
            run_spmd(prog_unconsumed, 2, backend="processes")


# ---------------------------------------------------------------------------
# configuration and fork safety
# ---------------------------------------------------------------------------

class TestConfigAndForkSafety:
    def test_env_var_selects_backend(self, monkeypatch):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_COMM_BACKEND", "processes")
        assert ReproConfig().comm_backend == "processes"
        monkeypatch.delenv("REPRO_COMM_BACKEND")
        assert ReproConfig().comm_backend == "threads"

    def test_invalid_backend_rejected(self):
        from repro.exceptions import CommError, ConfigError

        with pytest.raises(ConfigError, match="comm_backend"):
            from repro.config import ReproConfig

            ReproConfig(comm_backend="carrier-pigeon")
        with pytest.raises(CommError, match="backend"):
            run_spmd(prog_traced, 2, backend="carrier-pigeon")

    def test_config_context_selects_backend(self, system):
        from repro.config import config_context

        with config_context(comm_backend="processes"):
            result = run_spmd(prog_traced, 2)
        assert result.backend == "processes"

    def test_log_state_resets_in_new_process(self, monkeypatch):
        # Simulate inheriting module state from a parent process: with a
        # foreign owner pid, the first logging call must forget the
        # inherited sink and re-resolve from the environment instead of
        # writing through the parent's stream.
        from repro.obs import log as log_mod

        buffer = io.StringIO()
        log_mod.configure_logging(stream=buffer)
        try:
            monkeypatch.setattr(log_mod, "_owner_pid", os.getpid() - 1)
            monkeypatch.delenv("REPRO_LOG", raising=False)
            assert log_mod.active_log() is None  # inherited sink dropped
            assert log_mod._owner_pid == os.getpid()
        finally:
            log_mod.disable_logging()

    def test_nranks_one_runs_in_process(self):
        result = run_spmd(prog_traced, 1, backend="processes")
        assert result.backend == "threads"  # documented: no spawn for P=1
