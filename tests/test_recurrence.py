"""Tests for transfer operators and local kernels (repro.core.recurrence).

These validate the algebra the solvers build on: the transfer maps
reproduce the block-row equations, the aggregates equal the explicit
product of ``2M x 2M`` companion matrices, and the trajectory kernel
(the lockstep sub-chunk loop, at narrow and wide panel widths), the
composed response ``E_loc Ê``, the vector aggregate and the solution
rows ``f + E s_lo`` match a sequential recurrence kept in this file.
"""

import pickle

import numpy as np
import pytest

from repro.config import config_context
from repro.core.distribute import distribute_matrix
from repro.core.recurrence import (
    TransferOperators,
    ZeroEntryStates,
    forward_solution,
    local_matrix_aggregate,
    local_vector_aggregate,
    sub_chunks,
)
from repro.exceptions import ShapeError, SingularBlockError
from repro.linalg.blocktridiag import BlockTridiagonalMatrix
from repro.linalg.reference import dense_solve
from repro.util.flops import counting_flops, gemm_flops
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


def restarted_states(ops, rhs):
    """Reference for the lockstep rows: the recurrence restarted from a
    zero entry at every sub-chunk start, padded to ``S b`` rows."""
    t, m, k = rhs.shape
    s, b = ops.nsub, ops.sub_rows
    out = np.zeros((s * b, m, k), dtype=np.result_type(ops.dtype, rhs.dtype))
    for i in range(s):
        lo, hi = i * b, min((i + 1) * b, t)
        cur = np.zeros((m, k), dtype=out.dtype)
        prev = np.zeros((m, k), dtype=out.dtype)
        for j in range(lo, hi):
            cur, prev = ops.t1[j] @ cur + ops.t2[j] @ prev + rhs[j], cur
            out[j] = cur
    return out


def chunk_relative(ops, f):
    """The kernel's zero-entry states relative to the chunk's entry:
    ``rows + E_loc sub_entries``."""
    t, m = ops.ntransfer, ops.block_size
    s, b = ops.nsub, ops.sub_rows
    k = f.rows.shape[2]
    response = ops.e.reshape(s, b * m, 2 * m) @ f.sub_entries
    return (f.rows + response.reshape(s * b, m, k))[:t]


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
        """Each block is stored once: ``T1``, ``T2`` and ``U^{-1}`` are
        views of ``W``.  ``nbytes`` is ``W``, ``E_loc`` and ``Ê``, and
        solves of widths 1 to 17 change neither it, the stored arrays
        nor the pickled size."""
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        for view in (ops.t1, ops.t2, ops.t21, ops.uinv):
            assert view.base is ops.w
        stored = (ops.w, ops.e, ops.e_hat)
        copies = [a.copy() for a in stored]
        nbytes = ops.nbytes
        assert nbytes == sum(a.nbytes for a in stored)
        pickled = len(pickle.dumps(ops, protocol=5))
        rng = np.random.default_rng(0)
        for k in range(1, 18):
            d = rng.standard_normal((chunk.nrows, 3, k))
            _, f = local_vector_aggregate(ops, d)
            forward_solution(ops, f, rng.standard_normal((6, k)), chunk.nrows)
        assert ops.nbytes == nbytes
        assert len(pickle.dumps(ops, protocol=5)) == pickled
        for held, array, copy in zip((ops.w, ops.e, ops.e_hat), stored,
                                     copies):
            assert held is array
            np.testing.assert_array_equal(held, copy)

    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_e_is_the_entry_response(self, m):
        """``E_loc_j Ê_i s`` is the row the recurrence reaches from entry
        ``s`` with no right-hand side, with ``M`` on both sides of the
        crossover."""
        ops = TransferOperators(random_chunk(20, m, nranks=2))
        t, s, b = ops.ntransfer, ops.nsub, ops.sub_rows
        assert (s, b) == sub_chunks(t) == (3, 4)
        assert ops.e.shape == (s * b, m, 2 * m)
        assert ops.e_hat.shape == (s, 2 * m, 2 * m)
        composed = np.stack([ops.e[j] @ ops.e_hat[j // b] for j in range(t)])
        ref = sequential_states(ops, np.zeros((t, m, 2 * m)), np.eye(2 * m))
        assert rel_err(composed, ref) < 1e-13

    @pytest.mark.parametrize("t", [1, 2, 3, 7, 16, 17, 64])
    def test_composed_response_matches_sequential(self, t):
        """``E_loc Ê`` against the sequential ``E`` on closing and
        interior layouts, including a last sub-chunk of one real row
        (t = 3, 7); padding rows of ``E_loc`` stay zero."""
        m = 3
        for chunk in (random_chunk(t + 1, m), random_chunk(2 * t, m, nranks=2)):
            ops = TransferOperators(chunk)
            assert ops.ntransfer == t
            b = ops.sub_rows
            composed = np.stack([ops.e[j] @ ops.e_hat[j // b]
                                 for j in range(t)])
            ref = sequential_states(ops, np.zeros((t, m, 2 * m)),
                                    np.eye(2 * m))
            assert rel_err(composed, ref) < 1e-13
            np.testing.assert_array_equal(ops.e[t:], 0.0)
            np.testing.assert_array_equal(ops.w[t:], 0.0)

    @pytest.mark.parametrize("t, expect", [(0, (0, 0)), (1, (1, 1)),
                                           (2, (1, 2)), (3, (2, 2)),
                                           (15, (4, 4)), (16, (4, 4)),
                                           (17, (4, 5)), (511, (23, 23))])
    def test_sub_chunks(self, t, expect):
        s, b = sub_chunks(t)
        assert (s, b) == expect
        assert s * b >= t > (s - 1) * b or t == 0


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
        agg, f = local_vector_aggregate(ops, d)
        # Run the affine recurrence from zero state explicitly.
        state = np.zeros((6, 2))
        for j in range(ops.ntransfer):
            gfull = np.vstack([g[j], np.zeros((3, 2))])
            state = companion(ops.t1[j], ops.t2[j]) @ state + gfull
        np.testing.assert_allclose(agg, state, atol=1e-10)
        np.testing.assert_allclose(chunk_relative(ops, f),
                                   sequential_states(ops, g), atol=1e-10)

    def test_row_count_validation(self, chunk_and_matrix):
        """The right-hand-side rows must cover every transfer and match
        the block size."""
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        with pytest.raises(ShapeError):
            local_vector_aggregate(ops, np.zeros((ops.ntransfer - 1, 3, 1)))
        with pytest.raises(ShapeError):
            local_vector_aggregate(ops, np.zeros((ops.ntransfer, 2, 1)))


class TestForwardSolution:
    def test_reproduces_reference_solution(self):
        mat, _ = helmholtz_block_system(6, 2)
        b = random_rhs(6, 2, nrhs=2, seed=3)
        x_ref = dense_solve(mat, b)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        _, f = local_vector_aggregate(ops, b)
        entry = np.vstack([x_ref[0], np.zeros((2, 2))])  # s_0 = [x_0; 0]
        x = forward_solution(ops, f, entry, 6)
        np.testing.assert_allclose(x, x_ref, atol=1e-9)

    def test_zero_rows(self):
        mat, _ = helmholtz_block_system(2, 2)
        chunk = distribute_matrix(mat, 3)[2]
        ops = TransferOperators(chunk)
        f = ZeroEntryStates(np.zeros((0, 2, 1)), np.zeros((0, 4, 1)))
        out = forward_solution(ops, f, np.zeros((4, 1)), 0)
        assert out.shape == (0, 2, 1)

    def test_first_row_is_entry_state_top(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(2)
        d = rng.standard_normal((chunk.nrows, 3, 1))
        _, f = local_vector_aggregate(ops, d)
        entry = rng.standard_normal((6, 1))
        out = forward_solution(ops, f, entry, chunk.nrows)
        np.testing.assert_array_equal(out[0], entry[:3])

    def test_too_many_rows_rejected(self, chunk_and_matrix):
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        f = ZeroEntryStates(np.zeros((ops.ntransfer, 3, 1)),
                            np.zeros((ops.nsub, 6, 1)))
        with pytest.raises(ShapeError):
            forward_solution(ops, f, np.zeros((6, 1)), ops.ntransfer + 2)

    def test_writes_into_out(self, chunk_and_matrix):
        """With ``out`` the rows land in the caller's array, which is
        returned; a wrong shape is rejected."""
        chunk, _ = chunk_and_matrix
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(3)
        _, f = local_vector_aggregate(
            ops, rng.standard_normal((chunk.nrows, 3, 2)))
        entry = rng.standard_normal((6, 2))
        out = np.empty((chunk.nrows, 3, 2))
        got = forward_solution(ops, f, entry, chunk.nrows, out=out)
        assert got is out
        np.testing.assert_array_equal(
            out, forward_solution(ops, f, entry, chunk.nrows))
        with pytest.raises(ShapeError):
            forward_solution(ops, f, entry, chunk.nrows,
                             out=np.empty((chunk.nrows, 3, 1)))


#: (matrix dtype, rhs dtype, relative tolerance) the trajectory kernel
#: is checked at: single, double and complex precision, and a real
#: matrix against a complex panel.
DTYPE_CASES = [
    (np.float32, np.float32, 1e-5),
    (np.float64, np.float64, 1e-13),
    (np.complex128, np.complex128, 1e-13),
    (np.float64, np.complex128, 1e-13),
]


def widths(kernel, m, panel):
    """Panel widths a ``kernel`` id checks the one kernel at: ``band``
    the widths the retired ``?tbtrs`` path served (one column, and the
    widest with ``k M <= 16``), ``loop`` the test's own ``panel``
    width."""
    return (1, 16 // m) if kernel == "band" else (panel,)


def _panel(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


#: Trajectory lengths the kernels are checked at: empty, shorter than
#: the two-row state, one full sub-chunk, a last sub-chunk of one real
#: row (3, 7, 13), exact and ragged squares, and a benchmark-size chunk.
TRAJECTORY_ROWS = [0, 1, 2, 3, 7, 13, 15, 16, 17, 64, 511]


def check_kernel(ops, d, tol):
    """The kernel's states from right-hand-side rows ``d`` against the
    sequential recurrence on ``g = U^{-1} d``, and its rows against the
    recurrence restarted per sub-chunk.  The caller's rows are only
    read."""
    before = d.copy()
    d.flags.writeable = False
    _, f = local_vector_aggregate(ops, d)
    np.testing.assert_array_equal(d, before)
    g = ops.g(d)
    ref = sequential_states(ops, g)
    got = chunk_relative(ops, f)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert rel_err(got, ref) <= tol
    local = restarted_states(ops, g)
    assert f.rows.shape == local.shape and f.rows.dtype == local.dtype
    assert rel_err(f.rows, local) <= tol
    assert f.sub_entries.shape == (ops.nsub, 2 * ops.block_size, d.shape[2])


class TestTrajectory:
    """The trajectory kernel, called at each test's panel width
    (``loop``) and at the widths the retired ``?tbtrs`` path served
    (``band``), against the sequential recurrence, and the three public
    kernels built on it."""

    @pytest.mark.parametrize("kernel", ["band", "loop"])
    @pytest.mark.parametrize("t", TRAJECTORY_ROWS)
    @pytest.mark.parametrize("mat_dtype, rhs_dtype, tol", DTYPE_CASES)
    def test_matches_sequential(self, kernel, t, mat_dtype, rhs_dtype, tol):
        # One rank owns all t + 1 rows: the closing-rank layout,
        # ntransfer = nrows - 1.
        chunk = random_chunk(t + 1, 3, dtype=mat_dtype)
        ops = TransferOperators(chunk)
        assert ops.ntransfer == chunk.nrows - 1 == t
        for k in widths(kernel, 3, panel=4):
            d = _panel(np.random.default_rng(t), (t + 1, 3, k), rhs_dtype)
            check_kernel(ops, d, tol)

    @pytest.mark.parametrize("kernel", ["band", "loop"])
    @pytest.mark.parametrize("t", TRAJECTORY_ROWS[1:])
    @pytest.mark.parametrize("mat_dtype, rhs_dtype, tol", DTYPE_CASES)
    def test_interior_matches_sequential(self, kernel, t, mat_dtype,
                                         rhs_dtype, tol):
        """The interior layout: rank 0 of two, every owned row a
        transfer."""
        chunk = random_chunk(2 * t, 3, dtype=mat_dtype, nranks=2)
        ops = TransferOperators(chunk)
        assert ops.ntransfer == chunk.nrows == t
        for k in widths(kernel, 3, panel=4):
            d = _panel(np.random.default_rng(t), (t, 3, k), rhs_dtype)
            check_kernel(ops, d, tol)

    @pytest.mark.parametrize("kernel", ["band", "loop"])
    def test_interior_chunk(self, kernel):
        """A non-closing chunk: every owned row is a transfer."""
        chunk = random_chunk(40, 4, nranks=2, rank=0)
        ops = TransferOperators(chunk)
        assert ops.ntransfer == chunk.nrows == 20
        for k in widths(kernel, 4, panel=3):
            rhs = np.random.default_rng(5).standard_normal((20, 4, k))
            check_kernel(ops, rhs, 1e-13)

    @pytest.mark.parametrize("m, k", [(8, 8), (8, 9), (8, 16), (8, 17),
                                      (4, 1), (16, 64)])
    def test_dispatch_and_flops(self, m, k):
        """One kernel at every width, charged what it runs: per
        sub-chunk one ``U^{-1}`` gemm for row 0, one ``[T1, U^{-1}]``
        for row 1 and ``b - 2`` ``W`` gemms for the rest (padding rows
        included), then ``S - 2`` across the sub-chunk entries and one
        for the exit state.  The operators do not grow."""
        ops = TransferOperators(random_chunk(11, m))
        t, s, b = ops.ntransfer, ops.nsub, ops.sub_rows
        assert (s, b) == (3, 4)
        nbytes = ops.nbytes
        d = np.random.default_rng(0).standard_normal((t + 1, m, k))
        with config_context(flop_counting=True), counting_flops() as fc:
            _, f = local_vector_aggregate(ops, d)
        assert f.sub_entries.shape == (s, 2 * m, k)
        assert fc.snapshot() == {"gemm": (
            s * gemm_flops(m, m, k) + s * gemm_flops(m, 2 * m, k)
            + s * (b - 2) * gemm_flops(m, 3 * m, k)
            + (s - 1) * gemm_flops(2 * m, 2 * m, k))}
        assert ops.nbytes == nbytes
        assert rel_err(chunk_relative(ops, f),
                       sequential_states(ops, ops.g(d))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 16, 19])
    def test_all_kernels_match_sequential(self, n):
        mat, _ = helmholtz_block_system(n, 3)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        rng = np.random.default_rng(4)
        d = rng.standard_normal((chunk.nrows, 3, 2))
        g = ops.g(d)
        entry = rng.standard_normal((6, 2))
        t = ops.ntransfer
        agg_a = local_matrix_aggregate(ops)
        agg_b, f = local_vector_aggregate(ops, d)
        x = forward_solution(ops, f, entry, chunk.nrows)

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
        state, on interior and closing chunks, narrow and wide panels."""
        for rank in range(p):
            chunk = random_chunk(n, m, nranks=p, rank=rank, seed=rank)
            ops = TransferOperators(chunk)
            rng = np.random.default_rng(rank)
            d = rng.standard_normal((chunk.nrows, m, r))
            g = ops.g(d)
            entry = rng.standard_normal((2 * m, r))
            _, f = local_vector_aggregate(ops, d)
            x = forward_solution(ops, f, entry, chunk.nrows)
            two_pass = np.concatenate(
                [entry[None, :m], sequential_states(ops, g, entry)])
            assert rel_err(x, two_pass[:chunk.nrows]) <= 1e-13

    def test_forward_solution_matches_reference(self):
        mat, _ = helmholtz_block_system(12, 2)
        b = random_rhs(12, 2, nrhs=3, seed=5)
        x_ref = dense_solve(mat, b)
        chunk = distribute_matrix(mat, 1)[0]
        ops = TransferOperators(chunk)
        _, f = local_vector_aggregate(ops, b)
        entry = np.vstack([x_ref[0], np.zeros((2, 3))])
        x = forward_solution(ops, f, entry, 12)
        np.testing.assert_allclose(x, x_ref, atol=1e-9)
