"""Tests for batched block kernels (repro.linalg.blockops)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import config_context
from repro.exceptions import ShapeError, SingularBlockError
from repro.linalg.blockops import (
    BatchedLU,
    as_block_batch,
    gemm,
    gemm_add,
    identity_blocks,
    solve_blocks,
    transpose_blocks,
)
from repro.util.flops import counting_flops


def _spd_batch(rng, n, m):
    a = rng.standard_normal((n, m, m))
    return a + m * np.eye(m)


class TestValidation:
    def test_as_block_batch_ok(self):
        a = np.zeros((2, 3, 3))
        assert as_block_batch(a) is a

    def test_as_block_batch_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            as_block_batch(np.zeros((2, 3, 4)))

    def test_as_block_batch_rejects_2d(self):
        with pytest.raises(ShapeError):
            as_block_batch(np.zeros((3, 3)))


class TestGemm:
    def test_matches_matmul(self, rng):
        a = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal((4, 3, 5))
        np.testing.assert_allclose(gemm(a, b), a @ b)

    def test_counts_flops(self, rng):
        a = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal((4, 3, 5))
        with config_context(flop_counting=True), counting_flops() as fc:
            gemm(a, b)
        assert fc.by_kernel["gemm"] == 4 * 2 * 3 * 3 * 5

    def test_no_counting_by_default(self, rng):
        a = rng.standard_normal((2, 2, 2))
        with counting_flops() as fc:
            gemm(a, a)
        assert fc.total == 0

    def test_2d_inputs(self, rng):
        a = rng.standard_normal((3, 3))
        with config_context(flop_counting=True), counting_flops() as fc:
            gemm(a, a)
        assert fc.by_kernel["gemm"] == 2 * 27

    def test_gemm_add(self, rng):
        a = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal((2, 3, 2))
        c = rng.standard_normal((2, 3, 2))
        np.testing.assert_allclose(gemm_add(a, b, c), a @ b + c)


class TestHelpers:
    def test_identity_blocks(self):
        eye = identity_blocks(3, 4)
        assert eye.shape == (3, 4, 4)
        for i in range(3):
            np.testing.assert_array_equal(eye[i], np.eye(4))

    def test_transpose_blocks(self, rng):
        a = rng.standard_normal((2, 3, 3))
        t = transpose_blocks(a)
        np.testing.assert_array_equal(t[1], a[1].T)

    def test_solve_blocks(self, rng):
        a = _spd_batch(rng, 3, 4)
        b = rng.standard_normal((3, 4, 2))
        x = solve_blocks(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_solve_blocks_singular(self):
        a = np.zeros((1, 2, 2))
        with pytest.raises(SingularBlockError):
            solve_blocks(a, np.ones((1, 2, 1)))


class TestBatchedLU:
    def test_solve_matches_direct(self, rng):
        a = _spd_batch(rng, 5, 3)
        b = rng.standard_normal((5, 3, 4))
        lu = BatchedLU(a)
        np.testing.assert_allclose(lu.solve(b), np.linalg.solve(a, b), atol=1e-10)

    def test_solve_single_vector_layout(self, rng):
        a = _spd_batch(rng, 4, 3)
        b = rng.standard_normal((4, 3))
        x = lu_x = BatchedLU(a).solve(b)
        assert x.shape == (4, 3)
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", a, lu_x), b, atol=1e-10
        )

    def test_transposed_solve(self, rng):
        a = _spd_batch(rng, 3, 4)
        b = rng.standard_normal((3, 4, 2))
        x = BatchedLU(a).solve(b, transposed=True)
        np.testing.assert_allclose(np.swapaxes(a, 1, 2) @ x, b, atol=1e-10)

    def test_solve_one(self, rng):
        a = _spd_batch(rng, 3, 4)
        b = rng.standard_normal((4, 2))
        x = BatchedLU(a).solve_one(1, b)
        np.testing.assert_allclose(a[1] @ x, b, atol=1e-10)

    def test_solve_one_out_of_range(self, rng):
        lu = BatchedLU(_spd_batch(rng, 2, 3))
        with pytest.raises(ShapeError):
            lu.solve_one(5, np.zeros(3))

    def test_singular_block_reported_with_offset(self):
        blocks = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(SingularBlockError) as exc:
            BatchedLU(blocks, block_offset=10)
        assert exc.value.block_index == 11

    def test_nonfinite_block_flagged(self):
        """NaN/inf inputs must raise, not slip through the diagonal
        check (NaN comparisons are always False) — regression test for
        the overflowed-closing-system path."""
        for bad in (np.nan, np.inf):
            block = np.array([[[1.0, 0.0], [0.0, bad]]])
            with pytest.raises(SingularBlockError, match="non-finite"):
                BatchedLU(block)

    def test_nearly_singular_flagged(self):
        block = np.diag([1.0, 1e-16])[None]
        with pytest.raises(SingularBlockError):
            BatchedLU(block)

    def test_check_singular_disabled(self):
        import warnings

        block = np.diag([1.0, 0.0])[None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's LinAlgWarning
            lu = BatchedLU(block, check_singular=False)
        assert lu.n == 1

    def test_rhs_shape_mismatch(self, rng):
        lu = BatchedLU(_spd_batch(rng, 2, 3))
        with pytest.raises(ShapeError):
            lu.solve(np.zeros((3, 3, 1)))

    def test_flop_accounting(self, rng):
        a = _spd_batch(rng, 4, 3)
        with config_context(flop_counting=True), counting_flops() as fc:
            lu = BatchedLU(a)
            lu.solve(rng.standard_normal((4, 3, 2)))
        assert fc.by_kernel["lu"] == 4 * (2 * 27 // 3)
        assert fc.by_kernel["trsm"] == 4 * 2 * 9 * 2

    def test_copy_independent(self, rng):
        lu = BatchedLU(_spd_batch(rng, 2, 3))
        dup = lu.copy()
        dup._lu[:] = 0.0
        assert not np.allclose(lu._lu, 0.0)

    @pytest.mark.parametrize("backend", ["batched", "scipy_loop"])
    def test_stack_matches_one_batch(self, rng, backend):
        """Single-block factors stacked into one batch (how Thomas and
        SPIKE store theirs) solve and copy exactly like the batch
        factored at once."""
        a = _spd_batch(rng, 5, 3)
        whole = BatchedLU(a, backend=backend)
        stacked = BatchedLU.stack(
            [BatchedLU(a[i:i + 1], backend=backend) for i in range(5)])
        b = rng.standard_normal((5, 3, 2))
        for lu in (stacked, stacked.copy()):
            assert (lu.n, lu.backend, lu.nbytes) == (5, backend, whole.nbytes)
            for transposed in (False, True):
                np.testing.assert_array_equal(
                    lu.solve(b, transposed=transposed),
                    whole.solve(b, transposed=transposed))

    def test_nbytes_positive(self, rng):
        assert BatchedLU(_spd_batch(rng, 2, 3)).nbytes > 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 1000))
    def test_property_solve_roundtrip(self, n, m, r, seed):
        rng = np.random.default_rng(seed)
        a = _spd_batch(rng, n, m)
        b = rng.standard_normal((n, m, r))
        x = BatchedLU(a).solve(b)
        np.testing.assert_allclose(a @ x, b, atol=1e-8)
