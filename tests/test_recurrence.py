"""Tests for transfer operators and local kernels (repro.core.recurrence).

These validate the algebra the solvers build on: the transfer maps
reproduce the block-row equations, the aggregates equal the explicit
product of ``2M x 2M`` companion matrices, and the trajectory kernels
(band solve and row loop), the vector aggregate and the solution rows
``f + E s_lo`` match a sequential recurrence kept in this file.
"""

import numpy as np
import pytest

import repro.core.recurrence as rec
from repro.config import config_context
from repro.core.distribute import distribute_matrix
from repro.core.recurrence import (
    BAND_MAX_WORK,
    TransferOperators,
    forward_solution,
    local_matrix_aggregate,
    local_vector_aggregate,
)
from repro.exceptions import ReproError, ShapeError, SingularBlockError
from repro.linalg.blocktridiag import BlockTridiagonalMatrix
from repro.linalg.reference import dense_solve
from repro.util.flops import counting_flops, gemm_flops, tbtrs_flops
from repro.workloads import helmholtz_block_system, random_rhs


def companion(t1, t2):
    """Explicit 2M x 2M transfer matrix [[T1, T2], [I, 0]]."""
    m = t1.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=np.result_type(t1, t2))
    out[:m, :m] = t1
    out[:m, m:] = t2
    out[m:, :m] = np.eye(m)
    return out


def sequential_states(ops, rhs, entry=None):
    """Reference recurrence, one row at a time:
    ``y_j = T1_j y_{j-1} + T2_j y_{j-2} + rhs_j`` from ``[y_{-1}; y_{-2}]
    = entry`` (zero by default)."""
    t, m, k = rhs.shape
    dtype = np.result_type(ops.dtype, rhs.dtype)
    if entry is None:
        entry = np.zeros((2 * m, k), dtype=dtype)
    cur, prev = entry[:m], entry[m:]
    out = np.empty((t, m, k), dtype=dtype)
    for j in range(t):
        cur, prev = ops.t1[j] @ cur + ops.t2[j] @ prev + rhs[j], cur
        out[j] = cur
    return out


def random_chunk(nblocks, m, dtype=np.float64, nranks=1, rank=0, seed=0):
    """A chunk of a random system whose transfer maps are contractions."""
    rng = np.random.default_rng(seed)

    def blocks(k, scale):
        b = rng.standard_normal((k, m, m)) * scale
        if np.dtype(dtype).kind == "c":
            b = b + 1j * rng.standard_normal((k, m, m)) * scale
        return b.astype(dtype)

    eye = np.eye(m, dtype=dtype)
    mat = BlockTridiagonalMatrix(
        blocks(nblocks - 1, 0.2 / m),
        blocks(nblocks, 0.2 / m),
        blocks(nblocks - 1, 0.1 / m) + eye,
    )
    return distribute_matrix(mat, nranks)[rank]


def rel_err(got, ref):
    scale = max(float(np.abs(ref).max(initial=0.0)), 1e-300)
    return float(np.abs(got - ref).max(initial=0.0)) / scale


@pytest.fixture
def chunk_and_matrix():
    mat, _ = helmholtz_block_system(8, 3)
    chunks = distribute_matrix(mat, 2)
    return chunks[0], mat


class TestTransferOperators:
    def test_satisfies_row_equation(self, chunk_and_matrix):
        """L x_{i-1} + D x_i + U x_{i+1} = d  <=>  the transfer map."""
        chunk, mat = chunk_and_matrix
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(0)
        d = rng.standard_normal((chunk.nrows, 3, 1))
        g = ops.g(d)
        for j in range(ops.ntransfer):
            i = chunk.lo + j
            x_prev = rng.standard_normal((3, 1))
            x_cur = rng.standard_normal((3, 1))
            x_next = ops.t1[j] @ x_cur + ops.t2[j] @ x_prev + g[j]
            lhs = mat.diag[i] @ x_cur + mat.upper[i] @ x_next
            if i > 0:
                lhs += mat.lower[i - 1] @ x_prev
            np.testing.assert_allclose(lhs, d[j], atol=1e-10)

    def test_first_row_has_zero_t2(self):
        mat, _ = helmholtz_block_system(4, 2)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        np.testing.assert_array_equal(ops.t2[0], 0.0)

    def test_empty_chunk(self):
        mat, _ = helmholtz_block_system(2, 2)
        chunk = distribute_matrix(mat, 4)[3]  # owns nothing
        ops = TransferOperators(chunk)
        assert ops.ntransfer == 0
        assert ops.t1.shape == (0, 2, 2)
        g = ops.g(np.zeros((0, 2, 3)))
        assert g.shape == (0, 2, 3)

    def test_singular_superdiagonal_detected(self):
        diag = np.stack([np.eye(2)] * 3)
        lower = np.stack([np.eye(2)] * 2)
        upper = np.stack([np.eye(2), np.zeros((2, 2))])  # U_1 singular
        mat = BlockTridiagonalMatrix(lower, diag, upper)
        chunk = distribute_matrix(mat, 1)[0]
        with pytest.raises(SingularBlockError) as exc:
            TransferOperators(chunk)
        assert exc.value.block_index == 1

    def test_g_validation(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        with pytest.raises(ShapeError):
            ops.g(np.zeros((1, 3, 1)))  # too few rows
        with pytest.raises(ShapeError):
            ops.g(np.zeros((chunk.nrows, 5, 1)))  # wrong block size

    def test_nbytes(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        assert ops.nbytes == (ops.uinv.nbytes + ops.t21.nbytes
                              + ops.band.nbytes + ops.e.nbytes)

    @pytest.mark.parametrize("t", [1, 2, 3, 7])
    def test_band_is_the_trajectory_system(self, t):
        """Unpacking the LAPACK band gives the unit block lower-triangular
        matrix with ``-T1_j`` and ``-T2_j`` below the diagonal."""
        m = 3
        ops = TransferOperators(random_chunk(t + 1, m))
        n = t * m
        assert ops.band.shape == (3 * m, n) and ops.band.flags.f_contiguous
        dense = np.zeros((n, n))
        for d in range(3 * m):
            for c in range(n - d):
                dense[c + d, c] = ops.band[d, c]
        expect = np.eye(n)
        for j in range(t):
            if j >= 1:
                expect[j * m:(j + 1) * m, (j - 1) * m:j * m] = -ops.t1[j]
            if j >= 2:
                expect[j * m:(j + 1) * m, (j - 2) * m:(j - 1) * m] = -ops.t2[j]
        np.testing.assert_array_equal(dense, expect)

    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_e_is_the_entry_response(self, m):
        """``E_j s`` is the row the recurrence reaches from entry ``s``
        with no right-hand side, on both sides of the crossover."""
        ops = TransferOperators(random_chunk(20, m, nranks=2))
        assert ops.e.shape == (ops.ntransfer, m, 2 * m)
        entry = np.eye(2 * m)
        ref = sequential_states(ops, np.zeros((ops.ntransfer, m, 2 * m)),
                                entry)
        assert rel_err(ops.e, ref) < 1e-13


class TestLocalMatrixAggregate:
    def test_matches_explicit_product(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        agg = local_matrix_aggregate(ops)
        explicit = np.eye(6)
        for j in range(ops.ntransfer):
            explicit = companion(ops.t1[j], ops.t2[j]) @ explicit
        np.testing.assert_allclose(agg, explicit, atol=1e-10)

    def test_empty_chunk_gives_identity(self):
        mat, _ = helmholtz_block_system(2, 3)
        chunk = distribute_matrix(mat, 3)[2]
        ops = TransferOperators(chunk)
        np.testing.assert_array_equal(local_matrix_aggregate(ops), np.eye(6))


class TestLocalVectorAggregate:
    def test_matches_affine_application(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(1)
        d = rng.standard_normal((chunk.nrows, 3, 2))
        g = ops.g(d)
        agg, f_rows = local_vector_aggregate(ops, g)
        # Run the affine recurrence from zero state explicitly.
        state = np.zeros((6, 2))
        for j in range(ops.ntransfer):
            gfull = np.vstack([g[j], np.zeros((3, 2))])
            state = companion(ops.t1[j], ops.t2[j]) @ state + gfull
        np.testing.assert_allclose(agg, state, atol=1e-10)
        np.testing.assert_allclose(f_rows, sequential_states(ops, g),
                                   atol=1e-10)

    def test_row_count_validation(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        with pytest.raises(ShapeError):
            local_vector_aggregate(ops, np.zeros((ops.ntransfer + 1, 3, 1)))


class TestForwardSolution:
    def test_reproduces_reference_solution(self):
        mat, _ = helmholtz_block_system(6, 2)
        b = random_rhs(6, 2, nrhs=2, seed=3)
        x_ref = dense_solve(mat, b)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        _, f_rows = local_vector_aggregate(ops, ops.g(b))
        entry = np.vstack([x_ref[0], np.zeros((2, 2))])  # s_0 = [x_0; 0]
        x = forward_solution(ops, f_rows, entry, 6)
        np.testing.assert_allclose(x, x_ref, atol=1e-9)

    def test_zero_rows(self):
        mat, _ = helmholtz_block_system(2, 2)
        chunk = distribute_matrix(mat, 3)[2]
        ops = TransferOperators(chunk)
        out = forward_solution(ops, np.zeros((0, 2, 1)), np.zeros((4, 1)), 0)
        assert out.shape == (0, 2, 1)

    def test_first_row_is_entry_state_top(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(2)
        g = ops.g(rng.standard_normal((chunk.nrows, 3, 1)))
        _, f_rows = local_vector_aggregate(ops, g)
        entry = rng.standard_normal((6, 1))
        out = forward_solution(ops, f_rows, entry, chunk.nrows)
        np.testing.assert_array_equal(out[0], entry[:3])

    def test_too_many_rows_rejected(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        with pytest.raises(ShapeError):
            forward_solution(ops, np.zeros((ops.ntransfer, 3, 1)),
                             np.zeros((6, 1)), ops.ntransfer + 2)


#: (matrix dtype, rhs dtype, relative tolerance) the trajectory kernels
#: are checked at: ``stbtrs``, ``dtbtrs``, ``ztbtrs``, and a real band
#: against a complex panel.
DTYPE_CASES = [
    (np.float32, np.float32, 1e-5),
    (np.float64, np.float64, 1e-13),
    (np.complex128, np.complex128, 1e-13),
    (np.float64, np.complex128, 1e-13),
]


def run_kernel(kernel, ops, rhs):
    """One trajectory kernel, called directly."""
    if kernel == "band":
        return rec._band_trajectory(ops.band, rhs)
    return rec._loop_trajectory(ops.t21, rhs)


def _panel(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


class TestTrajectory:
    """Both trajectory kernels, called directly, against the sequential
    recurrence, and the three public kernels built on them."""

    @pytest.mark.parametrize("kernel", ["band", "loop"])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 64])
    @pytest.mark.parametrize("mat_dtype, rhs_dtype, tol", DTYPE_CASES)
    def test_matches_sequential(self, kernel, t, mat_dtype, rhs_dtype, tol):
        # One rank owns all t + 1 rows: the closing-rank layout,
        # ntransfer = nrows - 1.
        chunk = random_chunk(t + 1, 3, dtype=mat_dtype)
        ops = TransferOperators(chunk)
        assert ops.ntransfer == chunk.nrows - 1 == t
        rhs = _panel(np.random.default_rng(t), (t, 3, 4), rhs_dtype)
        got = run_kernel(kernel, ops, rhs)
        ref = sequential_states(ops, rhs)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert rel_err(got, ref) <= tol

    @pytest.mark.parametrize("kernel", ["band", "loop"])
    def test_interior_chunk(self, kernel):
        """A non-closing chunk: every owned row is a transfer."""
        chunk = random_chunk(40, 4, nranks=2, rank=0)
        ops = TransferOperators(chunk)
        assert ops.ntransfer == chunk.nrows == 20
        rhs = np.random.default_rng(5).standard_normal((20, 4, 3))
        got = run_kernel(kernel, ops, rhs)
        assert rel_err(got, sequential_states(ops, rhs)) <= 1e-13

    @pytest.mark.parametrize("m, k", [(8, BAND_MAX_WORK // 8),
                                      (8, BAND_MAX_WORK // 8 + 1),
                                      (4, 1), (16, 64)])
    def test_dispatch_and_flops(self, m, k):
        """One ``?tbtrs`` call up to ``BAND_MAX_WORK``, the row loop
        above it, each charged what it runs."""
        ops = TransferOperators(random_chunk(11, m))
        t = ops.ntransfer
        rhs = np.random.default_rng(0).standard_normal((t, m, k))
        with config_context(flop_counting=True), counting_flops() as fc:
            got = rec._trajectory(ops, rhs)
        if k * m <= BAND_MAX_WORK:
            assert fc.snapshot() == {"trsm": tbtrs_flops(t * m, 3 * m - 1, k)}
        else:
            assert fc.snapshot() == {"gemm": t * gemm_flops(m, 2 * m, k)}
        assert rel_err(got, sequential_states(ops, rhs)) <= 1e-13

    def test_nonzero_info_raises(self, monkeypatch):
        ops = TransferOperators(random_chunk(5, 2))

        def fake_lapack(names, arrays):
            def tbtrs(ab, b, **kwargs):
                return b, -3
            tbtrs.typecode = "d"
            return (tbtrs,)

        monkeypatch.setattr(rec, "get_lapack_funcs", fake_lapack)
        with pytest.raises(ReproError, match="info=-3"):
            rec._band_trajectory(ops.band, np.ones((4, 2, 1)))

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 16, 19])
    def test_all_kernels_match_sequential(self, n):
        mat, _ = helmholtz_block_system(n, 3)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(4)
        g = ops.g(rng.standard_normal((chunk.nrows, 3, 2)))
        entry = rng.standard_normal((6, 2))
        t = ops.ntransfer
        agg_a = local_matrix_aggregate(ops)
        agg_b, f_rows = local_vector_aggregate(ops, g[:t])
        x = forward_solution(ops, f_rows, entry, chunk.nrows)

        explicit = np.eye(6)
        for j in range(t):
            explicit = companion(ops.t1[j], ops.t2[j]) @ explicit
        f_ref = sequential_states(ops, g[:t])
        x_ref = np.concatenate(
            [entry[None, :3], sequential_states(ops, g[:t], entry)])
        b_ref = np.concatenate([f_ref[-1], f_ref[-2]]) if t >= 2 else None
        np.testing.assert_allclose(agg_a, explicit, rtol=1e-9, atol=1e-11)
        if b_ref is not None:
            np.testing.assert_allclose(agg_b, b_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(x, x_ref[:chunk.nrows], rtol=1e-9,
                                   atol=1e-11)

    @pytest.mark.parametrize("n, m, p, r", [(64, 4, 2, 1), (256, 8, 2, 16),
                                            (96, 16, 3, 4), (64, 8, 2, 64),
                                            (48, 32, 2, 8)])
    def test_forward_solution_through_e_matches_two_passes(self, n, m, p, r):
        """``f + E s_lo`` against a second recurrence pass from the entry
        state, on interior and closing chunks, both kernels."""
        for rank in range(p):
            chunk = random_chunk(n, m, nranks=p, rank=rank, seed=rank)
            ops = TransferOperators(chunk)
            rng = np.random.default_rng(rank)
            g = ops.g(rng.standard_normal((chunk.nrows, m, r)))
            entry = rng.standard_normal((2 * m, r))
            _, f_rows = local_vector_aggregate(ops, g)
            x = forward_solution(ops, f_rows, entry, chunk.nrows)
            two_pass = np.concatenate(
                [entry[None, :m], sequential_states(ops, g, entry)])
            assert rel_err(x, two_pass[:chunk.nrows]) <= 1e-13

    def test_forward_solution_matches_reference(self):
        mat, _ = helmholtz_block_system(12, 2)
        b = random_rhs(12, 2, nrhs=3, seed=5)
        x_ref = dense_solve(mat, b)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        _, f_rows = local_vector_aggregate(ops, ops.g(b))
        entry = np.vstack([x_ref[0], np.zeros((2, 3))])
        x = forward_solution(ops, f_rows, entry, 12)
        np.testing.assert_allclose(x, x_ref, atol=1e-9)
