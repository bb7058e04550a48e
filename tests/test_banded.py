"""Tests for the block banded generalization (repro.banded)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.banded import BandedARDFactorization, BlockBandedMatrix
from repro.core import ARDFactorization
from repro.exceptions import ShapeError, SingularBlockError
from repro.workloads import banded_oscillatory_system, helmholtz_block_system, random_rhs


def _dense_solve(matrix, b):
    n, m = matrix.nblocks, matrix.block_size
    r = b.shape[2]
    x = np.linalg.solve(matrix.to_dense(), b.reshape(n * m, r))
    return x.reshape(n, m, r)


class TestBlockBandedMatrix:
    def test_shapes_and_metadata(self):
        mat, info = banded_oscillatory_system(12, 3, bandwidth=2, seed=0)
        assert mat.nblocks == 12
        assert mat.block_size == 3
        assert mat.bandwidth == 2
        assert mat.shape == (36, 36)
        assert info["bandwidth"] == 2

    def test_matvec_matches_dense(self):
        mat, _ = banded_oscillatory_system(10, 2, bandwidth=2, seed=1)
        x = random_rhs(10, 2, 3, seed=2)
        dense = mat.to_dense() @ x.reshape(20, 3)
        np.testing.assert_allclose(
            mat.matvec(x).reshape(20, 3), dense, atol=1e-12
        )

    def test_from_dense_roundtrip(self):
        mat, _ = banded_oscillatory_system(8, 2, bandwidth=2, seed=3)
        back = BlockBandedMatrix.from_dense(mat.to_dense(), 2, 2)
        assert back.allclose(mat)

    def test_from_dense_off_band_rejected(self):
        a = np.eye(8)
        a[0, 7] = 1.0
        with pytest.raises(ShapeError, match="outside"):
            BlockBandedMatrix.from_dense(a, 2, 1)

    def test_from_tridiagonal(self):
        tri, _ = helmholtz_block_system(6, 2)
        banded = BlockBandedMatrix.from_tridiagonal(tri)
        np.testing.assert_allclose(banded.to_dense(), tri.to_dense())

    def test_block_access(self):
        mat, _ = banded_oscillatory_system(6, 2, bandwidth=2, seed=4)
        np.testing.assert_array_equal(mat.block(2, 4), mat.bands[4, 2])
        np.testing.assert_array_equal(mat.block(0, 5), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            mat.block(6, 0)

    def test_out_of_range_nonzeros_rejected(self):
        bands = np.ones((3, 2, 1, 1))  # offset -1 nonzero in row 0: invalid
        with pytest.raises(ShapeError, match="out-of-range"):
            BlockBandedMatrix(bands)

    def test_to_block_tridiagonal(self):
        """b = 3 rows per super-row, N = 7: two pad unknowns, decoupled
        identities reached through identity outermost blocks."""
        n, m, b = 7, 2, 3
        mat, _ = banded_oscillatory_system(n, m, bandwidth=b, seed=24)
        tri = mat.to_block_tridiagonal()
        assert (tri.nblocks, tri.block_size) == (3, b * m)
        expected = np.zeros((9 * m, 9 * m))
        expected[:n * m, :n * m] = mat.to_dense()
        for j in (7, 8):  # pad unknown j = i + b of row i = 4, 5
            expected[j * m:(j + 1) * m, j * m:(j + 1) * m] = np.eye(m)
            expected[(j - b) * m:(j - b + 1) * m, j * m:(j + 1) * m] = np.eye(m)
        np.testing.assert_array_equal(tri.to_dense(), expected)

    def test_residual(self):
        mat, _ = banded_oscillatory_system(8, 2, bandwidth=2, seed=5)
        b = random_rhs(8, 2, 1, seed=6)
        x = _dense_solve(mat, b)
        assert mat.residual(x, b) < 1e-11


@pytest.mark.parametrize("bandwidth", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
class TestBandedArdCorrectness:
    def test_matches_dense(self, bandwidth, p):
        n = max(2 * bandwidth + 1, 14)
        mat, _ = banded_oscillatory_system(n, 3, bandwidth=bandwidth, seed=9)
        b = random_rhs(n, 3, nrhs=3, seed=10)
        x = BandedARDFactorization(mat, nranks=p).solve(b)
        np.testing.assert_allclose(x, _dense_solve(mat, b), rtol=1e-7,
                                   atol=1e-9)

    def test_more_ranks_than_rows(self, bandwidth, p):
        n = 2 * bandwidth + 2
        mat, _ = banded_oscillatory_system(n, 2, bandwidth=bandwidth, seed=11)
        b = random_rhs(n, 2, nrhs=1, seed=12)
        x = BandedARDFactorization(mat, nranks=p + 4).solve(b)
        assert mat.residual(x, b) < 1e-9


class TestBandwidthOneEquivalence:
    def test_matches_tridiagonal_ard(self):
        """b=1 banded ARD is the tridiagonal ARD: the paper's algorithm
        is the special case, bit for bit."""
        tri, _ = helmholtz_block_system(16, 3)
        banded = BlockBandedMatrix.from_tridiagonal(tri)
        b = random_rhs(16, 3, nrhs=4, seed=13)
        x_tri = ARDFactorization(tri, nranks=4).solve(b)
        x_band = BandedARDFactorization(banded, nranks=4).solve(b)
        np.testing.assert_array_equal(x_band, x_tri)


class TestFactorSolveSplit:
    def test_factor_reuse(self):
        mat, _ = banded_oscillatory_system(20, 2, bandwidth=2, seed=14)
        fact = BandedARDFactorization(mat, nranks=3)
        for seed in range(3):
            b = random_rhs(20, 2, nrhs=2, seed=seed)
            assert mat.residual(fact.solve(b), b) < 1e-9

    def test_solve_flops_linear_in_r(self):
        mat, _ = banded_oscillatory_system(24, 3, bandwidth=2, seed=15)
        fact = BandedARDFactorization(mat, nranks=2)
        flops = {}
        for r in (1, 8):
            fact.solve(random_rhs(24, 3, r, seed=16))
            flops[r] = fact.last_solve_result.total_flops
        assert flops[8] / flops[1] == pytest.approx(8.0, rel=0.05)

    def test_refine_supported(self):
        mat, _ = banded_oscillatory_system(18, 2, bandwidth=2, seed=17)
        fact = BandedARDFactorization(mat, nranks=2)
        b = random_rhs(18, 2, nrhs=2, seed=18)
        assert mat.residual(fact.solve(b, refine=1), b) < 1e-12

    def test_metadata(self):
        mat, _ = banded_oscillatory_system(12, 2, bandwidth=2, seed=19)
        fact = BandedARDFactorization(mat, nranks=2)
        assert fact.bandwidth == 2
        assert fact.nbytes > 0
        assert fact.factor_virtual_time > 0

    def test_regrouped_matrix_is_not_kept(self, monkeypatch):
        """The factorization keeps its rank states, not the regrouped
        block tridiagonal matrix it factored: refinement runs against
        the banded matrix."""
        regroup = BlockBandedMatrix.to_block_tridiagonal
        refs = []

        def regroup_and_watch(matrix):
            tri = regroup(matrix)
            refs.append(weakref.ref(tri.diag))
            return tri

        monkeypatch.setattr(BlockBandedMatrix, "to_block_tridiagonal",
                            regroup_and_watch)
        mat, _ = banded_oscillatory_system(128, 4, bandwidth=4, seed=20)
        fact = BandedARDFactorization(mat, nranks=2)
        gc.collect()
        (ref,) = refs
        assert ref() is None
        b = random_rhs(128, 4, nrhs=2, seed=21)
        assert mat.residual(fact.solve(b, refine=1), b) < 1e-12


class TestSmallSystems:
    def test_n_up_to_2b_matches_dense(self):
        """N = 1 .. 2b: one or two super-rows, padded when b does not
        divide N."""
        b, m = 2, 3
        rng = np.random.default_rng(22)
        for n in range(1, 2 * b + 1):
            bands = rng.standard_normal((2 * b + 1, n, m, m))
            for k in range(-b, b + 1):
                bands[b + k, [i for i in range(n) if not 0 <= i + k < n]] = 0
            mat = BlockBandedMatrix(bands)
            rhs = random_rhs(n, m, nrhs=2, seed=n)
            xref = _dense_solve(mat, rhs)
            for p in (1, 2, 3):
                x = BandedARDFactorization(mat, nranks=p).solve(rhs)
                np.testing.assert_allclose(
                    x, xref, rtol=0, atol=1e-12 * np.abs(xref).max(),
                    err_msg=f"N={n}, P={p}")


class TestValidation:
    def test_singular_outermost_block_names_its_row(self):
        mat, _ = banded_oscillatory_system(12, 2, bandwidth=2, seed=23)
        bands = mat.bands.copy()
        bands[4, 5] = 0.0  # A_{5,7}, row 5's outermost block
        with pytest.raises(SingularBlockError) as exc:
            BandedARDFactorization(BlockBandedMatrix(bands), nranks=2)
        assert exc.value.block_index == 5

    def test_wrong_type_rejected(self):
        tri, _ = helmholtz_block_system(6, 2)
        with pytest.raises(ShapeError, match="BlockBandedMatrix"):
            BandedARDFactorization(tri, nranks=1)

    def test_generator_validation(self):
        with pytest.raises(ShapeError):
            banded_oscillatory_system(3, 2, bandwidth=2)
        with pytest.raises(ShapeError):
            banded_oscillatory_system(8, 2, bandwidth=0)

    def test_unrotated_generator(self):
        mat, info = banded_oscillatory_system(10, 2, bandwidth=2, seed=21,
                                              rotate=False)
        assert info["rotate"] is False
        # Off-diagonal blocks are scalar multiples of identity.
        off = mat.bands[4, 0]
        assert abs(off[0, 1]) < 1e-14


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(7, 30),
    m=st.integers(1, 4),
    bw=st.integers(1, 3),
    p=st.integers(1, 5),
    seed=st.integers(0, 5000),
)
def test_property_banded_matches_dense(n, m, bw, p, seed):
    if n < 2 * bw + 1:
        n = 2 * bw + 1
    mat, _ = banded_oscillatory_system(n, m, bandwidth=bw, seed=seed)
    b = random_rhs(n, m, nrhs=2, seed=seed + 1)
    x = BandedARDFactorization(mat, nranks=p).solve(b)
    xref = _dense_solve(mat, b)
    scale = max(1.0, float(np.max(np.abs(xref))))
    assert float(np.max(np.abs(x - xref))) / scale < 1e-7
