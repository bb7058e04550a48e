"""Tests for matrix/RHS distribution across ranks."""

import numpy as np
import pytest

from repro.core.distribute import (
    LocalChunk,
    distribute_matrix,
    distribute_rhs,
    gather_solution,
)
from repro.exceptions import ShapeError
from repro.workloads import helmholtz_block_system, random_rhs


class TestLocalChunk:
    def test_properties(self):
        mat, _ = helmholtz_block_system(10, 3)
        chunks = distribute_matrix(mat, 3)
        c = chunks[1]
        assert c.nrows == c.hi - c.lo
        assert c.block_size == 3
        assert c.nblocks == 10
        assert not c.owns_closing_row
        assert chunks[2].owns_closing_row

    def test_ntransfer_interior_vs_closing(self):
        mat, _ = helmholtz_block_system(10, 3)
        chunks = distribute_matrix(mat, 3)
        assert chunks[0].ntransfer == chunks[0].nrows
        assert chunks[2].ntransfer == chunks[2].nrows - 1

    def test_validation_range(self):
        with pytest.raises(ShapeError):
            LocalChunk(
                nblocks=4, lo=3, hi=2,
                diag=np.zeros((0, 2, 2)), sub=np.zeros((0, 2, 2)),
                sup=np.zeros((0, 2, 2)),
            )

    def test_validation_shapes(self):
        with pytest.raises(ShapeError):
            LocalChunk(
                nblocks=4, lo=0, hi=2,
                diag=np.zeros((2, 2, 2)), sub=np.zeros((1, 2, 2)),
                sup=np.zeros((2, 2, 2)),
            )


class TestDistributeMatrix:
    def test_blocks_match_source(self):
        mat, _ = helmholtz_block_system(10, 3)
        chunks = distribute_matrix(mat, 3)
        for chunk in chunks:
            for j in range(chunk.nrows):
                i = chunk.lo + j
                np.testing.assert_array_equal(chunk.diag[j], mat.diag[i])
                if i > 0:
                    np.testing.assert_array_equal(chunk.sub[j], mat.lower[i - 1])
                else:
                    np.testing.assert_array_equal(chunk.sub[j], 0.0)
                if i < 9:
                    np.testing.assert_array_equal(chunk.sup[j], mat.upper[i])
                else:
                    np.testing.assert_array_equal(chunk.sup[j], 0.0)

    def test_chunks_cover_rows(self):
        mat, _ = helmholtz_block_system(11, 2)
        for p in (1, 2, 3, 5, 11, 16):
            chunks = distribute_matrix(mat, p)
            rows = [i for c in chunks for i in range(c.lo, c.hi)]
            assert rows == list(range(11))

    def test_empty_ranks_when_p_exceeds_n(self):
        mat, _ = helmholtz_block_system(3, 2)
        chunks = distribute_matrix(mat, 5)
        assert [c.nrows for c in chunks] == [1, 1, 1, 0, 0]
        assert chunks[2].owns_closing_row
        assert not chunks[4].owns_closing_row

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_boundary_blocks_are_zero(self, n, p):
        """Row 0 has no ``L`` block and row ``N - 1`` no ``U`` block; every
        other row carries the source's blocks (N = 2, P = 3 leaves an
        empty rank)."""
        mat, _ = helmholtz_block_system(n, 3)
        chunks = distribute_matrix(mat, p)
        assert sum(c.nrows for c in chunks) == n
        if n < p:
            assert chunks[-1].nrows == 0
            assert chunks[-1].sub.shape == chunks[-1].sup.shape == (0, 3, 3)
        np.testing.assert_array_equal(chunks[0].sub[0], 0.0)
        last = [c for c in chunks if c.nrows][-1]
        np.testing.assert_array_equal(last.sup[-1], 0.0)
        sub = np.concatenate([c.sub for c in chunks])
        sup = np.concatenate([c.sup for c in chunks])
        np.testing.assert_array_equal(sub[1:], mat.lower)
        np.testing.assert_array_equal(sup[:-1], mat.upper)

    def test_chunks_are_copies(self):
        mat, _ = helmholtz_block_system(4, 2)
        chunks = distribute_matrix(mat, 2)
        chunks[0].diag[0, 0, 0] = 99.0
        assert mat.diag[0, 0, 0] != 99.0


class TestDistributeRhs:
    def test_round_trip(self):
        b = random_rhs(10, 3, nrhs=2, seed=0)
        parts = distribute_rhs(b, 3)
        np.testing.assert_array_equal(gather_solution(parts), b)

    def test_chunks_are_read_only_views(self):
        """Ranks read the caller's rows in place; a write raises and
        leaves the caller's array writeable."""
        b = random_rhs(10, 3, nrhs=2, seed=0)
        parts = distribute_rhs(b, 3)
        for part in parts:
            assert np.shares_memory(part, b)
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0, 0] = 1.0
        assert b.flags.writeable

    def test_rank_write_into_rhs_raises(self):
        from repro.comm import run_spmd

        b = random_rhs(8, 2, nrhs=1, seed=1)

        def program(comm, d):
            d[0] += 1.0

        with pytest.raises(ValueError, match="read-only"):
            run_spmd(program, 2, rank_args=[(d,) for d in distribute_rhs(b, 2)])
        np.testing.assert_array_equal(b, random_rhs(8, 2, nrhs=1, seed=1))

    def test_gather_into_out_copies_only_foreign_chunks(self):
        b = random_rhs(10, 3, nrhs=2, seed=0)
        out = np.zeros_like(b)
        views = [out[0:4], out[4:7]]
        views[0][...] = b[0:4]
        views[1][...] = b[4:7]
        foreign = b[7:10].copy()
        got = gather_solution([views[0], views[1], foreign], out=out)
        assert got is out
        np.testing.assert_array_equal(out, b)

    def test_rejects_non_3d(self):
        with pytest.raises(ShapeError):
            distribute_rhs(np.zeros((4, 3)), 2)

    def test_empty_chunks_allowed_in_gather(self):
        b = random_rhs(2, 3, nrhs=1, seed=0)
        parts = distribute_rhs(b, 4)
        assert parts[3].shape == (0, 3, 1)
        np.testing.assert_array_equal(gather_solution(parts), b)

    def test_gather_nothing_rejected(self):
        with pytest.raises(ShapeError):
            gather_solution([np.zeros((0, 2, 1))])
