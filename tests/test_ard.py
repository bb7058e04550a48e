"""Tests for accelerated recursive doubling — the paper's contribution."""

import dataclasses
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
from repro.core.recurrence import BAND_MAX_WORK
from repro.exceptions import ShapeError
from repro.linalg.blocktridiag import BlockTridiagonalMatrix
from repro.linalg.reference import dense_solve
from repro.workloads import helmholtz_block_system, random_rhs


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
        ``Ê``, the scan trace, the closing factors and blocks, and the
        band once a narrow panel has built it, ``3 t M^2`` numbers (on
        the thread backend, where the ranks solve against these
        states)."""
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
            assert ops.band is None
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
        fact.solve(random_rhs(64, 4, 1, seed=3))
        for state in fact._states:
            ops = state.ops
            t, m = ops.ntransfer, ops.block_size
            assert ops.band.shape == (3 * m, t * m)
            expected += 3 * t * m * m * itemsize
        assert fact.nbytes == expected

    def test_validation(self):
        mat, _ = helmholtz_block_system(4, 2)
        with pytest.raises(ShapeError):
            ARDFactorization(np.eye(8), nranks=2)
        with pytest.raises(ShapeError):
            ARDFactorization(mat, nranks=0)


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
        # Perfectly linear in R along one code path, panels widen only:
        # the band solve at R = 1, 4 and the lockstep kernel at 8, 32.
        assert flops[4] / flops[1] == pytest.approx(4.0, rel=0.05)
        assert flops[32] / flops[8] == pytest.approx(4.0, rel=0.05)

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


def stored_arrays(obj):
    """Every array ``obj`` holds: through dataclass fields, ``__slots__``
    and tuples or lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from stored_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from stored_arrays(getattr(obj, field.name))
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            yield from stored_arrays(getattr(obj, name, None))


def _narrow(n, m, seed):
    """A panel the band solve takes: ``k M <= BAND_MAX_WORK``."""
    return random_rhs(n, m, BAND_MAX_WORK // m, seed=seed)


def _wide(n, m, seed):
    """A panel the lockstep kernel takes: ``k M > BAND_MAX_WORK``."""
    return random_rhs(n, m, BAND_MAX_WORK // m + 1, seed=seed)


class TestStoredState:
    """A rank state holds what its solve reads, and ``nbytes`` says how
    much that is.  The band is built by the first narrow solve, so these
    run on the thread backend, where the ranks solve against the
    factorization's own states."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_nbytes_is_every_stored_array_and_the_pickled_size(self, p):
        """``nbytes`` sums every array the state holds, and a state
        pickles to within 1% + 4 KiB of it, before and after a narrow
        solve builds the band."""
        mat, _ = helmholtz_block_system(256, 8)
        fact = ARDFactorization(mat, nranks=p, backend="threads")
        for narrow_solves in (0, 1):
            if narrow_solves:
                fact.solve(_narrow(256, 8, seed=1))
            for state in fact._states:
                assert state.nbytes == sum(
                    a.nbytes for a in stored_arrays(state))
                pickled = len(pickle.dumps(state, protocol=5))
                assert abs(pickled - state.nbytes) <= (
                    0.01 * state.nbytes + 4096), (narrow_solves, pickled)

    def test_footprint_at_the_stream_shape(self):
        """At (1024, 8, P = 2) a factorization that has solved only wide
        panels holds at most 2.85 MB, and its pickled size is within 1%
        of ``nbytes``; one narrow solve adds ``3 t M^2`` numbers per
        rank."""
        n, m = 1024, 8
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=2, backend="threads")
        fact.solve(random_rhs(n, m, 16, seed=2))
        wide_only = fact.nbytes
        assert wide_only <= 2.85e6
        pickled = sum(len(pickle.dumps(s, protocol=5)) for s in fact._states)
        assert abs(pickled - wide_only) <= 0.01 * wide_only
        fact.solve(_narrow(n, m, seed=3))
        assert fact.nbytes - wide_only == sum(
            3 * s.ops.ntransfer * m * m * 8 for s in fact._states)

    def test_band_is_built_once_by_the_first_narrow_solve(self):
        mat, _ = helmholtz_block_system(64, 4)
        fact = ARDFactorization(mat, nranks=3, backend="threads")
        wide_only = fact.nbytes
        for seed in range(2):
            fact.solve(_wide(64, 4, seed))
        assert all(s.ops.band is None for s in fact._states)
        assert fact.nbytes == wide_only
        fact.solve(_narrow(64, 4, seed=2))
        bands = [s.ops.band for s in fact._states]
        assert all(band is not None for band in bands)
        for seed in range(3, 5):
            fact.solve(_narrow(64, 4, seed))
            fact.solve(_wide(64, 4, seed))
        assert all(s.ops.band is band
                   for s, band in zip(fact._states, bands))

    @pytest.mark.parametrize("n, p", [(64, 1), (64, 2), (64, 3), (3, 5)])
    def test_only_the_closing_rank_keeps_closing_blocks(self, n, p):
        """No rank keeps its matrix rows: only the closing rank stores
        two blocks, ``D_{N-1}`` and ``L_{N-1}``, and no stored array
        has the chunk's ``(h, M, M)`` shape."""
        m = 4
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=p, backend="threads")
        fact.solve(_narrow(n, m, seed=4))
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
        """Threads whose solves all build the band (more threads than
        cores, a short switch interval) each get the answer a sequential
        solve gives, bit for bit, and the band left behind is the one a
        sequential solve builds.  The panels have one column: with more
        than one, the closing solve calls LAPACK ``getrs`` on factors
        every thread shares, and SciPy's bundled OpenBLAS 0.3.30 corrupts
        the heap under such concurrent calls unless it runs a single
        BLAS thread."""
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
                for state, ref in zip(fact._states, reference._states):
                    assert np.array_equal(state.ops.band, ref.ops.band)
        finally:
            sys.setswitchinterval(interval)

    def test_process_solves_leave_the_parent_states_unchanged(self):
        """On processes each worker solves against a shipped copy of its
        state, so the band it builds stays there; the answer is the
        thread backend's, bit for bit."""
        from repro.comm.mp import shutdown_pool

        mat, _ = helmholtz_block_system(32, 4)
        b = _narrow(32, 4, seed=7)
        threads = ARDFactorization(mat, nranks=2, backend="threads")
        procs = ARDFactorization(mat, nranks=2, backend="processes")
        try:
            before = procs.nbytes
            assert np.array_equal(procs.solve(b), threads.solve(b))
            assert procs.nbytes == before
            assert all(s.ops.band is None for s in procs._states)
        finally:
            shutdown_pool()
