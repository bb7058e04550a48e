"""Tests for the batched LU (repro.linalg.blockops.BatchedLU): its
factors, its solve layouts, its singularity check, and its parity with
the transfer-block inverse (:func:`repro.linalg.blockops.invert_blocks`)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import config_context
from repro.exceptions import SingularBlockError
from repro.linalg.blockops import BatchedLU, gemm, invert_blocks
from repro.util.flops import counting_flops, lu_solve_flops


def _spd_batch(rng, n, m, dtype=np.float64):
    a = rng.standard_normal((n, m, m))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((n, m, m))
    return (a + m * np.eye(m)).astype(dtype)


class TestFactorBatched:
    def test_zero_pivot_stays_finite(self):
        """An exactly singular block must not poison its factors with
        inf/NaN: LAPACK ``getrf`` leaves a zero pivot unscaled
        (``info > 0``), so the check names the block singular, not
        non-finite."""
        a = np.stack([np.eye(2), np.ones((2, 2))])
        with pytest.raises(SingularBlockError,
                           match=r"singular to working precision .*= 0\.00e\+00"
                           ) as exc:
            BatchedLU(a)
        assert exc.value.block_index == 1


class TestSolveBatched:
    def test_transposed(self, rng):
        """``transposed`` solves with ``blocks[i].T`` — the plain
        transpose, not the conjugate one — in the batch solve and in
        ``solve_one``."""
        a = _spd_batch(rng, 3, 5, np.complex128)
        b = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
        lu = BatchedLU(a)
        at = np.swapaxes(a, 1, 2)
        np.testing.assert_allclose(at @ lu.solve(b, transposed=True), b,
                                   atol=1e-10)
        np.testing.assert_allclose(
            at[2] @ lu.solve_one(2, b[2], transposed=True), b[2], atol=1e-10)

    def test_vector_rhs(self, rng):
        """``(n, m)`` right-hand sides to ``solve`` and ``(m,)`` ones to
        ``solve_one`` keep their layout and are charged as one column."""
        a = _spd_batch(rng, 4, 3)
        b = rng.standard_normal((4, 3))
        lu = BatchedLU(a)
        with config_context(flop_counting=True), counting_flops() as fc:
            x = lu.solve(b)
            x1 = lu.solve_one(1, b[1])
        assert x.shape == (4, 3) and x1.shape == (3,)
        np.testing.assert_allclose(np.einsum("nij,nj->ni", a, x), b, atol=1e-10)
        np.testing.assert_allclose(a[1] @ x1, b[1], atol=1e-10)
        assert fc.by_kernel["trsm"] == 5 * lu_solve_flops(3, 1)


class TestFirstSingularBlock:
    """The check ``BatchedLU`` runs on its factors: non-finite entries,
    or ``min |U_kk| / max |U_kk|`` below ``singularity_rcond``."""

    def test_healthy_batch(self, rng):
        lu = BatchedLU(_spd_batch(rng, 3, 4))
        assert lu.n == 3 and np.isfinite(lu._lu).all()

    def test_reports_lowest_index(self):
        blocks = np.stack([np.eye(2), np.zeros((2, 2)), np.diag([1.0, np.nan])])
        with pytest.raises(SingularBlockError,
                           match=r"block 1 is singular .*= 0\.00e\+00") as exc:
            BatchedLU(blocks)
        assert exc.value.block_index == 1

    def test_nonfinite_takes_precedence(self):
        """A NaN pivot fails every comparison, so a non-finite block
        must be caught as such — ahead of a later singular block."""
        blocks = np.stack([np.diag([1.0, np.nan]), np.zeros((2, 2))])
        with pytest.raises(SingularBlockError, match="non-finite") as exc:
            BatchedLU(blocks)
        assert exc.value.block_index == 0

    def test_rcond_threshold(self):
        """``singularity_rcond`` is the threshold of both kernels; a
        ``diag(1, 1e-10)`` block measures 1e-10 in each."""
        block = np.diag([1.0, 1e-10])[None]
        for kernel in (BatchedLU, invert_blocks):
            kernel(block)
            with config_context(singularity_rcond=1e-8):
                with pytest.raises(SingularBlockError):
                    kernel(block)


class TestBackendParity:
    """The two block kernels — ``BatchedLU`` (``batched``) and
    ``invert_blocks`` (``inverse``) — report the same block for the same
    bad batch and agree on every solve."""

    KERNELS = pytest.mark.parametrize(
        "kernel", [BatchedLU, invert_blocks], ids=["batched", "inverse"])

    @KERNELS
    def test_singularity_error_parity(self, kernel):
        blocks = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(SingularBlockError, match="block 11") as exc:
            kernel(blocks, block_offset=10)
        assert exc.value.block_index == 11

    @KERNELS
    def test_nonfinite_error_parity(self, kernel):
        block = np.array([[[1.0, 0.0], [0.0, np.inf]]])
        with pytest.raises(SingularBlockError, match="non-finite") as exc:
            kernel(block)
        assert exc.value.block_index == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 6), st.integers(1, 4),
           st.integers(0, 10_000))
    def test_property_backend_parity(self, n, m, r, seed):
        rng = np.random.default_rng(seed)
        a = _spd_batch(rng, n, m)
        b = rng.standard_normal((n, m, r))
        x_lu = BatchedLU(a).solve(b)
        x_inv = gemm(invert_blocks(a), b)
        np.testing.assert_allclose(x_inv, x_lu, rtol=1e-10,
                                   atol=1e-10 * np.abs(x_lu).max())
