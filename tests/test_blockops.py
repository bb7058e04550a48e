"""Tests for the block kernels (repro.linalg.blockops): batched GEMM,
the transfer-block inverse, and the per-block LU."""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import repro
from repro.config import config_context
from repro.exceptions import ShapeError, SingularBlockError
from repro.linalg.blockops import BatchedLU, as_block_batch, gemm, invert_blocks
from repro.util.flops import counting_flops


def _random(rng, shape, dtype=np.float64):
    a = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(shape)
    return a.astype(dtype)


def _spd_batch(rng, n, m, dtype=np.float64):
    return (_random(rng, (n, m, m), dtype) + m * np.eye(m)).astype(dtype)


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


class TestDifferential:
    """Both block kernels against ``np.linalg.solve``, per dtype and
    right-hand-side layout: ``(n, m, r)`` panels, ``(n, m)`` vectors,
    and the transposed system."""

    TOL = {np.float32: 1e-4, np.float64: 1e-12, np.complex128: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    @pytest.mark.parametrize("layout", ["panel", "vector", "transposed"])
    def test_kernels_match_dense_solve(self, rng, dtype, layout):
        a = _spd_batch(rng, 7, 5, dtype)
        b = _random(rng, (7, 5) if layout == "vector" else (7, 5, 3), dtype)
        transposed = layout == "transposed"
        blocks = np.swapaxes(a, 1, 2) if transposed else a
        panel = b.reshape(7, 5, -1)
        want = np.linalg.solve(blocks, panel).reshape(b.shape)
        via_inverse = gemm(invert_blocks(blocks), panel).reshape(b.shape)
        via_lu = BatchedLU(a).solve(b, transposed=transposed)
        tol = self.TOL[dtype]
        for got in (via_inverse, via_lu):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


class TestInvertBlocks:
    def test_inverse_times_block_is_identity(self, rng):
        a = _spd_batch(rng, 6, 4)
        np.testing.assert_allclose(invert_blocks(a) @ a,
                                   np.broadcast_to(np.eye(4), a.shape),
                                   atol=1e-12)

    def test_singular_block_reported_with_global_index(self, rng):
        """The batched ``inv`` raises for the whole batch without naming
        a block; the error must carry the offending global index."""
        a = _spd_batch(rng, 5, 3)
        a[3] = 0.0
        with pytest.raises(SingularBlockError, match="block 13") as exc:
            invert_blocks(a, block_offset=10)
        assert exc.value.block_index == 13

    def test_nonfinite_block_flagged(self, rng):
        """``np.linalg.inv(diag(1, inf))`` returns a finite inverse, so
        the check must read the input."""
        a = _spd_batch(rng, 3, 2)
        a[1] = np.diag([1.0, np.inf])
        with pytest.raises(SingularBlockError, match="non-finite") as exc:
            invert_blocks(a, block_offset=4)
        assert exc.value.block_index == 5

    @pytest.mark.parametrize("first, second", [
        (0.0, np.nan), (np.nan, 0.0), (np.diag([1.0, 1e-16]), 0.0)],
        ids=["singular-then-nan", "nan-then-singular",
             "ill-conditioned-then-singular"])
    def test_lowest_bad_index_wins(self, rng, first, second):
        a = _spd_batch(rng, 4, 2)
        a[1] = first
        a[2] = second
        with pytest.raises(SingularBlockError) as exc:
            invert_blocks(a)
        assert exc.value.block_index == 1

    def test_ill_conditioned_block_fails_rcond(self):
        with pytest.raises(SingularBlockError, match="rcond") as exc:
            invert_blocks(np.diag([1.0, 1e-16])[None])
        assert exc.value.block_index == 0

    def test_empty_batch(self):
        assert invert_blocks(np.empty((0, 3, 3))).shape == (0, 3, 3)

    def test_flop_accounting(self, rng):
        """Charged as what ``inv`` runs: LU plus a solve against the
        identity, per block."""
        with config_context(flop_counting=True), counting_flops() as fc:
            invert_blocks(_spd_batch(rng, 4, 3))
        assert fc.by_kernel["lu"] == 4 * (2 * 27 // 3)
        assert fc.by_kernel["trsm"] == 4 * 2 * 9 * 3


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

    def test_pivots_past_zero_leading_entry(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        b = np.array([[2.0, 3.0]])
        np.testing.assert_array_equal(BatchedLU(a).solve(b), [[3.0, 2.0]])
        np.testing.assert_array_equal(invert_blocks(a), a)

    def test_dtype_promotion(self, rng):
        lu = BatchedLU(_spd_batch(rng, 2, 3, np.float32))
        assert lu.solve(np.ones((2, 3, 1))).dtype == np.float64

    def test_empty_batch(self):
        lu = BatchedLU(np.empty((0, 3, 3)))
        assert lu.n == 0 and lu.solve(np.empty((0, 3, 2))).shape == (0, 3, 2)

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

    @pytest.mark.parametrize("reference", ["batched", "scipy_loop"])
    def test_stack_matches_one_batch(self, rng, reference):
        """Single-block factors stacked into one batch (how Thomas and
        SPIKE store theirs) solve and copy exactly like the batch
        factored at once (``batched``) and like a loop of the
        ``scipy.linalg.lu_factor``/``lu_solve`` wrappers that
        ``BatchedLU`` bypasses (``scipy_loop``)."""
        a = _spd_batch(rng, 5, 3)
        b = rng.standard_normal((5, 3, 2))
        if reference == "batched":
            whole = BatchedLU(a)
            want = {t: whole.solve(b, transposed=t) for t in (False, True)}
        else:
            factors = [scipy.linalg.lu_factor(block) for block in a]
            want = {t: np.stack([scipy.linalg.lu_solve(f, rhs, trans=int(t))
                                 for f, rhs in zip(factors, b)])
                    for t in (False, True)}
        stacked = BatchedLU.stack([BatchedLU(a[i:i + 1]) for i in range(5)])
        for lu in (stacked, stacked.copy()):
            assert (lu.n, lu.nbytes) == (5, BatchedLU(a).nbytes)
            for transposed in (False, True):
                np.testing.assert_array_equal(
                    lu.solve(b, transposed=transposed), want[transposed])

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


#: Four threads solve against shared factors: 3,000 ``BatchedLU.solve``
#: and ``solve_one`` calls each on one 8x8 LU with 8 right-hand sides,
#: then 150 ``ARDFactorization.solve`` calls each, 2 to 16 columns, on
#: one (64, 4, P = 2) factorization.  Exits nonzero on a wrong answer.
_SHARED_FACTORS_PROBE = textwrap.dedent("""
    import sys
    import threading

    import numpy as np

    from repro.core.ard import ARDFactorization
    from repro.linalg.blockops import BatchedLU
    from repro.workloads import helmholtz_block_system, random_rhs

    rng = np.random.default_rng(0)
    lu = BatchedLU(rng.standard_normal((1, 8, 8)) + 8 * np.eye(8))
    b = rng.standard_normal((1, 8, 8))
    want = lu.solve(b)
    mat, _ = helmholtz_block_system(64, 4)
    fact = ARDFactorization(mat, nranks=2, backend="threads")
    wrong = []

    def lu_solves():
        for _ in range(3000):
            if not (np.array_equal(lu.solve(b), want)
                    and np.array_equal(lu.solve_one(0, b[0]), want[0])):
                wrong.append("lu")

    def ard_solves(i):
        for j in range(150):
            panel = random_rhs(64, 4, 2 + (7 * i + j) % 15, seed=1000 * i + j)
            if not mat.residual(fact.solve(panel), panel) < 1e-10:
                wrong.append("ard")

    for target, args in ((lu_solves, ()), (ard_solves, None)):
        threads = [threading.Thread(target=target,
                                    args=(i,) if args is None else args)
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    sys.exit(1 if wrong else 0)
""")


class TestSharedFactors:
    def test_concurrent_solves_on_shared_factors(self):
        """Threads solving against the same LU factors, with OpenBLAS
        free to use four threads, get right answers and do not corrupt
        the heap.  It runs in a subprocess, so a crash shows as a
        nonzero exit rather than taking down the test session."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="4",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _SHARED_FACTORS_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
