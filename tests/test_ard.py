"""Tests for accelerated recursive doubling — the paper's contribution."""

import builtins
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core.ard import (
    ARDFactorization,
    ard_factor_spmd,
    ard_solve_spmd,
)
from repro.core.distribute import distribute_matrix, distribute_rhs, gather_solution
from repro.exceptions import ShapeError
from repro.linalg.blocktridiag import BlockTridiagonalMatrix
from repro.linalg.reference import dense_solve
from repro.workloads import helmholtz_block_system, random_rhs

from .conftest import stored_arrays


def _ard_spmd(matrix, b, nranks):
    chunks = distribute_matrix(matrix, nranks)
    d_chunks = distribute_rhs(b, nranks)

    def program(comm, chunk, d):
        state = ard_factor_spmd(comm, chunk)
        return ard_solve_spmd(comm, state, d)

    result = run_spmd(
        program, nranks, rank_args=[(c, d) for c, d in zip(chunks, d_chunks)]
    )
    return gather_solution(list(result.values)), result


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
class TestArdCorrectness:
    def test_matches_dense(self, p):
        mat, _ = helmholtz_block_system(17, 3)
        b = random_rhs(17, 3, nrhs=4, seed=0)
        x, _ = _ard_spmd(mat, b, p)
        np.testing.assert_allclose(x, dense_solve(mat, b), rtol=1e-8, atol=1e-10)

    def test_matches_rd(self, p):
        from repro.core.rd import rd_solve_spmd

        mat, _ = helmholtz_block_system(13, 2)
        b = random_rhs(13, 2, nrhs=3, seed=1)
        x_ard, _ = _ard_spmd(mat, b, p)
        chunks = distribute_matrix(mat, p)
        d_chunks = distribute_rhs(b, p)
        res = run_spmd(
            rd_solve_spmd, p,
            rank_args=[(c, d) for c, d in zip(chunks, d_chunks)],
        )
        x_rd = gather_solution(list(res.values))
        np.testing.assert_allclose(x_ard, x_rd, rtol=1e-9, atol=1e-11)

    def test_single_block(self, p):
        mat, _ = helmholtz_block_system(1, 4)
        b = random_rhs(1, 4, nrhs=2, seed=2)
        x, _ = _ard_spmd(mat, b, p)
        assert mat.residual(x, b) < 1e-11

    def test_more_ranks_than_rows(self, p):
        mat, _ = helmholtz_block_system(2, 3)
        b = random_rhs(2, 3, nrhs=2, seed=3)
        x, _ = _ard_spmd(mat, b, p)
        assert mat.residual(x, b) < 1e-11


class TestFactorSolveSplit:
    def test_one_factor_many_solves(self):
        mat, _ = helmholtz_block_system(12, 3)
        chunks = distribute_matrix(mat, 3)
        bs = [random_rhs(12, 3, nrhs=r, seed=r) for r in (1, 2, 7)]
        d_sets = [distribute_rhs(b, 3) for b in bs]

        def program(comm, chunk):
            state = ard_factor_spmd(comm, chunk)
            return [ard_solve_spmd(comm, state, d[comm.rank]) for d in d_sets]

        result = run_spmd(program, 3, rank_args=[(c,) for c in chunks])
        for idx, b in enumerate(bs):
            x = gather_solution([result.values[r][idx] for r in range(3)])
            assert mat.residual(x, b) < 1e-10

    def test_factor_stores_no_rhs_work(self):
        """The factor phase must never touch triangular solves with
        RHS-sized panels (its trsm traffic is T1/T2 construction only)."""
        mat, _ = helmholtz_block_system(8, 4)
        chunks = distribute_matrix(mat, 2)

        res = run_spmd(ard_factor_spmd, 2, rank_args=[(c,) for c in chunks])
        state = res.values[0]
        assert state.trace is not None
        assert state.ops.ntransfer > 0
        assert res.total_flops > 0

    def test_solve_cheaper_than_factor_in_matrix_work(self):
        """Solve-phase flops are O(M^2 R) per row: for R << M they must be
        far below the factor phase's O(M^3)."""
        m = 16
        mat, _ = helmholtz_block_system(32, m)
        chunks = distribute_matrix(mat, 2)
        d = distribute_rhs(random_rhs(32, m, 1, seed=4), 2)

        def program(comm, chunk, drows):
            state = ard_factor_spmd(comm, chunk)
            comm.stats.bytes_sent = 0
            from repro.util.flops import current_counter

            before = current_counter().total
            ard_solve_spmd(comm, state, drows)
            return current_counter().total - before

        res = run_spmd(program, 2, rank_args=[(c, dd) for c, dd in zip(chunks, d)])
        solve_flops = max(res.values)
        factor_flops = max(s.flops for s in res.stats) - solve_flops
        assert solve_flops * 5 < factor_flops

    def test_state_nbytes(self):
        mat, _ = helmholtz_block_system(8, 3)
        chunks = distribute_matrix(mat, 2)
        res = run_spmd(ard_factor_spmd, 2, rank_args=[(c,) for c in chunks])
        assert all(s.nbytes > 0 for s in res.values)


class TestDriverFactorization:
    def test_solve_and_residual(self):
        mat, _ = helmholtz_block_system(16, 4)
        fact = ARDFactorization(mat, nranks=4)
        b = random_rhs(16, 4, nrhs=8, seed=5)
        x = fact.solve(b)
        assert mat.residual(x, b) < 1e-10

    def test_repeated_solves_varied_r(self):
        mat, _ = helmholtz_block_system(10, 3)
        fact = ARDFactorization(mat, nranks=2)
        for r in (1, 3, 9):
            b = random_rhs(10, 3, nrhs=r, seed=r)
            assert mat.residual(fact.solve(b), b) < 1e-10

    def test_rhs_layouts(self):
        mat, _ = helmholtz_block_system(6, 2)
        fact = ARDFactorization(mat, nranks=2)
        flat = random_rhs(6, 2, 1, seed=6).reshape(12)
        assert fact.solve(flat).shape == (12,)
        two_d = random_rhs(6, 2, 3, seed=7).reshape(12, 3)
        assert fact.solve(two_d).shape == (12, 3)

    def test_phase_results_exposed(self):
        mat, _ = helmholtz_block_system(8, 2)
        fact = ARDFactorization(mat, nranks=2)
        assert fact.factor_virtual_time > 0
        assert fact.last_solve_result is None
        fact.solve(random_rhs(8, 2, 2, seed=8))
        assert fact.last_solve_result.virtual_time > 0
        assert fact.nbytes > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nbytes_counts_every_stored_array(self, dtype):
        """The footprint is every array the rank states hold:
        ``W = [T2, T1, U^-1]`` and ``E_loc`` (padded to ``S b`` rows),
        ``Ê``, the scan trace and the closing factors and blocks, and
        solves of widths 1 to 17 leave it as the factor set it (on the
        thread backend, where the ranks solve against these states)."""
        mat, _ = helmholtz_block_system(64, 4)
        mat = BlockTridiagonalMatrix(mat.lower.astype(dtype),
                                     mat.diag.astype(dtype),
                                     mat.upper.astype(dtype))
        fact = ARDFactorization(mat, nranks=2, backend="threads")
        itemsize = np.dtype(dtype).itemsize
        expected = 0
        for state in fact._states:
            ops = state.ops
            t, m = ops.ntransfer, ops.block_size
            s, b = ops.nsub, ops.sub_rows
            assert ops.w.shape == (s * b, m, 3 * m)
            assert ops.e.shape == (s * b, m, 2 * m)
            assert ops.e_hat.shape == (s, 2 * m, 2 * m)
            arrays = (ops.w, ops.e, ops.e_hat)
            assert sum(a.nbytes for a in arrays) == (
                (5 * s * b + 4 * s) * m * m * itemsize)
            expected += sum(a.nbytes for a in arrays) + state.trace.nbytes
            if state.closing_lu is not None:
                expected += state.closing_lu.nbytes + 2 * m * m * itemsize
        assert fact.nbytes == expected
        for k in range(1, 18):
            fact.solve(random_rhs(64, 4, k, seed=k).astype(dtype))
        assert fact.nbytes == expected

    def test_validation(self):
        mat, _ = helmholtz_block_system(4, 2)
        with pytest.raises(ShapeError):
            ARDFactorization(np.eye(8), nranks=2)
        with pytest.raises(ShapeError):
            ARDFactorization(mat, nranks=0)


class TestWarmSolve:
    def test_runs_no_import_statement(self, monkeypatch):
        """A warm 2-rank solve executes no ``import`` statement: each
        one takes the import lock and searches the module cache, and
        does so on every solve."""
        mat, _ = helmholtz_block_system(64, 4)
        fact = ARDFactorization(mat, nranks=2, backend="threads")
        b = random_rhs(64, 4, 4, seed=0)
        fact.solve(b)
        imports = []
        real = builtins.__import__

        def counting(name, *args, **kwargs):
            imports.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting)
        x = fact.solve(b)
        monkeypatch.undo()
        assert imports == []
        assert mat.residual(x, b) < 1e-10


class TestAcceleration:
    def test_solve_flops_linear_in_r_without_m3_term(self):
        """Headline property: per-RHS cost has no M^3 component."""
        m = 12
        mat, _ = helmholtz_block_system(24, m)
        fact = ARDFactorization(mat, nranks=4)
        flops = {}
        for r in (1, 4, 8, 32):
            fact.solve(random_rhs(24, m, r, seed=9))
            flops[r] = fact.last_solve_result.total_flops
        # Perfectly linear in R: one kernel at every panel width.
        for r in (4, 8, 32):
            assert flops[r] / flops[1] == pytest.approx(r, rel=0.05)

    def test_ard_beats_rd_in_virtual_time(self):
        from repro.core.distribute import distribute_matrix as dm
        from repro.core.rd import rd_solve_spmd

        mat, _ = helmholtz_block_system(32, 8)
        r = 16
        b = random_rhs(32, 8, r, seed=10)
        fact = ARDFactorization(mat, nranks=4)
        fact.solve(b)
        ard_vt = fact.factor_result.virtual_time + fact.last_solve_result.virtual_time
        chunks = dm(mat, 4)
        d_chunks = distribute_rhs(b, 4)
        rd_res = run_spmd(
            rd_solve_spmd, 4,
            rank_args=[(c, d) for c, d in zip(chunks, d_chunks)],
        )
        assert rd_res.virtual_time > 3.0 * ard_vt

    def test_factor_message_volume_exceeds_solve(self):
        mat, _ = helmholtz_block_system(32, 16)
        fact = ARDFactorization(mat, nranks=4)
        fact.solve(random_rhs(32, 16, 1, seed=11))
        assert (
            fact.factor_result.total_bytes_sent
            > fact.last_solve_result.total_bytes_sent
        )


def held(fact):
    """Every array the factorization's rank states hold, with a copy of
    its contents."""
    return [(a, a.copy()) for s in fact._states for a in stored_arrays(s)]


def assert_still_held(fact, before):
    """The states hold the very arrays of ``before``, unchanged."""
    after = [a for s in fact._states for a in stored_arrays(s)]
    assert len(after) == len(before)
    for a, (b, copy) in zip(after, before):
        assert a is b
        np.testing.assert_array_equal(a, copy)


class TestStoredState:
    """A rank state holds what its solve reads, fixed at factor time,
    and ``nbytes`` says how much that is.  These run on the thread
    backend, where the ranks solve against the factorization's own
    states."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_nbytes_is_every_stored_array_and_the_pickled_size(self, p):
        """``nbytes`` sums every array the state holds, and a state
        pickles to within 1% + 4 KiB of it; solves of widths 1 to 17
        change neither, nor any stored array."""
        mat, _ = helmholtz_block_system(256, 8)
        fact = ARDFactorization(mat, nranks=p, backend="threads")
        before = held(fact)
        nbytes = [state.nbytes for state in fact._states]
        pickled = [len(pickle.dumps(state, protocol=5))
                   for state in fact._states]
        for state, size in zip(fact._states, pickled):
            assert state.nbytes == sum(
                a.nbytes for a in stored_arrays(state))
            assert abs(size - state.nbytes) <= 0.01 * state.nbytes + 4096
        for k in range(1, 18):
            fact.solve(random_rhs(256, 8, k, seed=k))
        assert [state.nbytes for state in fact._states] == nbytes
        assert [len(pickle.dumps(state, protocol=5))
                for state in fact._states] == pickled
        assert_still_held(fact, before)

    def test_footprint_at_the_stream_shape(self):
        """At (1024, 8, P = 2) a factorization holds at most 2.85 MB,
        its pickled size is within 1% of ``nbytes``, and wide and
        one-column solves add nothing to it."""
        n, m = 1024, 8
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=2, backend="threads")
        factored = fact.nbytes
        assert factored <= 2.85e6
        pickled = sum(len(pickle.dumps(s, protocol=5)) for s in fact._states)
        assert abs(pickled - factored) <= 0.01 * factored
        fact.solve(random_rhs(n, m, 16, seed=2))
        fact.solve(random_rhs(n, m, 1, seed=3))
        assert fact.nbytes == factored

    def test_band_is_built_once_by_the_first_narrow_solve(self):
        """The ``?tbtrs`` band this test once watched being built is
        gone: narrow and wide solves, interleaved, leave every state
        holding the very arrays the factor stored, unchanged."""
        mat, _ = helmholtz_block_system(64, 4)
        fact = ARDFactorization(mat, nranks=3, backend="threads")
        factored = fact.nbytes
        before = held(fact)
        for seed in range(4):
            fact.solve(random_rhs(64, 4, 17, seed=seed))
            fact.solve(random_rhs(64, 4, 1 + 8 * (seed % 2), seed=seed))
        assert fact.nbytes == factored
        assert_still_held(fact, before)

    @pytest.mark.parametrize("n, p", [(64, 1), (64, 2), (64, 3), (3, 5)])
    def test_only_the_closing_rank_keeps_closing_blocks(self, n, p):
        """No rank keeps its matrix rows: only the closing rank stores
        two blocks, ``D_{N-1}`` and ``L_{N-1}``, and no stored array
        has the chunk's ``(h, M, M)`` shape."""
        m = 4
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=p, backend="threads")
        fact.solve(random_rhs(n, m, 16, seed=4))
        closing = [r for r, s in enumerate(fact._states)
                   if s.closing_blocks is not None]
        assert closing == [fact._states[0].closing_rank]
        d_block, l_block = fact._states[closing[0]].closing_blocks
        np.testing.assert_array_equal(d_block, mat.diag[-1])
        np.testing.assert_array_equal(
            l_block, mat.lower[-1] if n > 1 else np.zeros((m, m)))
        for state in fact._states:
            assert state.closing_lu is None or state.closing_blocks is not None
            if state.nrows > 1:
                assert all(a.shape != (state.nrows, m, m)
                           for a in stored_arrays(state))

    def test_concurrent_first_narrow_solves_are_bitwise_sequential(self):
        """Threads that each make a fresh factorization's first
        one-column solve at once (more threads than cores, a short
        switch interval) each get the answer a sequential solve gives,
        bit for bit, and leave the states as the factor stored them:
        concurrent solves share only arrays they read."""
        mat, _ = helmholtz_block_system(128, 8)
        nthreads = 4
        panels = [random_rhs(128, 8, 1, seed=seed) for seed in range(nthreads)]
        reference = ARDFactorization(mat, nranks=2, backend="threads")
        expected = [reference.solve(b) for b in panels]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                fact = ARDFactorization(mat, nranks=2, backend="threads")
                before = held(fact)
                start = threading.Barrier(nthreads)  # repro: noqa[RC103]
                got = [None] * nthreads

                def solve(i, fact=fact, start=start, got=got):
                    start.wait(timeout=10)
                    got[i] = fact.solve(panels[i])

                threads = [threading.Thread(target=solve, args=(i,))  # repro: noqa[RC103]
                           for i in range(nthreads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                for x, ref in zip(got, expected):
                    assert x is not None and np.array_equal(x, ref)
                assert_still_held(fact, before)
        finally:
            sys.setswitchinterval(interval)

    def test_process_solves_leave_the_parent_states_unchanged(self):
        """On processes each worker solves against a shipped copy of its
        state; the answer is the thread backend's, bit for bit, and the
        parent's states hold what they held."""
        from repro.comm.mp import shutdown_pool

        mat, _ = helmholtz_block_system(32, 4)
        b = random_rhs(32, 4, 16, seed=7)
        threads = ARDFactorization(mat, nranks=2, backend="threads")
        procs = ARDFactorization(mat, nranks=2, backend="processes")
        try:
            nbytes, before = procs.nbytes, held(procs)
            assert np.array_equal(procs.solve(b), threads.solve(b))
            assert procs.nbytes == nbytes
            assert_still_held(procs, before)
        finally:
            shutdown_pool()
