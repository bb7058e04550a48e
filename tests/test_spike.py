"""Tests for the SPIKE-style partitioned solver (stable extension)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import run_spmd
from repro.core.distribute import distribute_matrix, distribute_rhs, gather_solution
from repro.core.spike import (
    SpikeFactorization,
    _LocalThomas,
    max_spike_ranks,
    spike_factor_spmd,
    spike_solve,
    spike_solve_spmd,
)
from repro.core.thomas import ThomasFactorization
from repro.exceptions import ShapeError
from repro.linalg.reference import dense_solve
from repro.workloads import (
    heat_implicit_system,
    poisson_block_system,
    random_block_dd_system,
    random_rhs,
)

from .conftest import stored_arrays


class TestMaxSpikeRanks:
    def test_clamps_to_two_rows_per_rank(self):
        assert max_spike_ranks(10, 8) == 5
        assert max_spike_ranks(10, 3) == 3
        assert max_spike_ranks(3, 4) == 1
        assert max_spike_ranks(1, 4) == 1


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
class TestSpikeCorrectness:
    def test_matches_dense_poisson(self, p):
        mat, _ = poisson_block_system(20, 3)
        b = random_rhs(20, 3, nrhs=2, seed=0)
        x = SpikeFactorization(mat, nranks=p).solve(b)
        np.testing.assert_allclose(x, dense_solve(mat, b), rtol=1e-8, atol=1e-10)

    def test_matches_dense_absorbing_helmholtz(self, p):
        # Plain (indefinite) Helmholtz sub-blocks can defeat SPIKE's
        # unpivoted local Thomas; the absorbing variant's complex shift
        # keeps every leading Schur complement nonsingular.
        from repro.workloads import absorbing_helmholtz_system

        mat, _ = absorbing_helmholtz_system(21, 2)
        b = random_rhs(21, 2, nrhs=3, seed=1)
        x = SpikeFactorization(mat, nranks=p).solve(b)
        np.testing.assert_allclose(x, dense_solve(mat, b), rtol=1e-7, atol=1e-9)

    def test_random_dd(self, p):
        mat, _ = random_block_dd_system(18, 3, seed=2)
        b = random_rhs(18, 3, nrhs=2, seed=3)
        assert mat.residual(SpikeFactorization(mat, nranks=p).solve(b), b) < 1e-10


class TestStableWhereRdIsNot:
    """SPIKE's raison d'etre: dominant systems at lengths where the
    recurrence-based solvers have already lost all accuracy."""

    @pytest.mark.parametrize("gen,kw", [
        (poisson_block_system, {}),
        (heat_implicit_system, {"dt": 0.1}),
        (random_block_dd_system, {"seed": 4}),
    ])
    def test_large_n_dominant(self, gen, kw):
        mat, _ = gen(128, 4, **kw)
        b = random_rhs(128, 4, nrhs=2, seed=5)
        x = SpikeFactorization(mat, nranks=8).solve(b)
        assert mat.residual(x, b) < 1e-11

    def test_poisson_512(self):
        mat, _ = poisson_block_system(512, 3)
        b = random_rhs(512, 3, nrhs=1, seed=6)
        assert mat.residual(spike_solve(mat, b, nranks=16), b) < 1e-11


class TestFactorSolveSplit:
    def test_factor_reuse(self):
        mat, _ = poisson_block_system(24, 3)
        fact = SpikeFactorization(mat, nranks=4)
        for seed in range(3):
            b = random_rhs(24, 3, nrhs=2, seed=seed)
            assert mat.residual(fact.solve(b), b) < 1e-11

    def test_solve_flops_linear_in_r(self):
        mat, _ = poisson_block_system(32, 4)
        fact = SpikeFactorization(mat, nranks=4)
        flops = {}
        for r in (1, 8):
            fact.solve(random_rhs(32, 4, r, seed=7))
            flops[r] = fact.last_solve_result.total_flops
        assert flops[8] / flops[1] == pytest.approx(8.0, rel=0.05)

    def test_nranks_clamped(self):
        mat, _ = poisson_block_system(6, 2)
        fact = SpikeFactorization(mat, nranks=16)
        assert fact.nranks == 3
        b = random_rhs(6, 2, nrhs=1, seed=8)
        assert mat.residual(fact.solve(b), b) < 1e-11

    def test_state_nbytes(self):
        mat, _ = poisson_block_system(8, 2)
        fact = SpikeFactorization(mat, nranks=2)
        assert fact.nbytes > 0
        assert fact.factor_virtual_time > 0

    def test_validation(self):
        mat, _ = poisson_block_system(4, 2)
        with pytest.raises(ShapeError):
            SpikeFactorization(np.eye(8), nranks=2)
        with pytest.raises(ShapeError):
            SpikeFactorization(mat, nranks=0)


class TestStoredState:
    """A rank state holds what its solve reads and ``nbytes`` says how
    much that is: of its matrix rows a rank keeps only the sub-diagonal
    blocks its forward sweep reads.  The process backend pickles every
    state into each solve, so the pickled size is what a solve ships."""

    @pytest.mark.parametrize("mode", ["root", "bcyclic"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_nbytes_is_every_stored_array_and_the_pickled_size(self, p, mode):
        mat, _ = random_block_dd_system(256, 8, seed=30)
        fact = SpikeFactorization(mat, nranks=p, reduced_mode=mode,
                                  backend="threads")
        for state in fact._states:
            assert state.nbytes == sum(a.nbytes for a in stored_arrays(state))
            size = len(pickle.dumps(state, protocol=5))
            assert abs(size - state.nbytes) <= 0.01 * state.nbytes + 4096
        b = random_rhs(256, 8, nrhs=3, seed=31)
        assert mat.residual(fact.solve(b), b) < 1e-11

    def test_block_thomas_is_thomas_factorization_bitwise(self):
        """The rank-local block Thomas, which also factors the root's
        interface system, keeps no ``diag``/``sup`` blocks and computes
        exactly what :class:`ThomasFactorization` does."""
        mat, _ = random_block_dd_system(7, 4, seed=32)
        b = random_rhs(7, 4, nrhs=3, seed=33)
        edge = np.zeros_like(mat.diag[:1])
        local = _LocalThomas(np.concatenate([edge, mat.lower]), mat.diag,
                             np.concatenate([mat.upper, edge]))
        np.testing.assert_array_equal(local.solve(b),
                                      ThomasFactorization(mat).solve(b))


class TestSpmdLevel:
    def test_single_populated_rank_among_many(self):
        """kranks == 1 with idle ranks still participating in collectives."""
        mat, _ = poisson_block_system(3, 2)
        chunks = distribute_matrix(mat, 1)
        b = random_rhs(3, 2, nrhs=1, seed=9)

        def program(comm, chunk=chunks[0], d=distribute_rhs(b, 1)[0]):
            state = spike_factor_spmd(comm, chunk)
            return spike_solve_spmd(comm, state, d)

        res = run_spmd(program, 1)
        x = gather_solution(list(res.values))
        assert mat.residual(x, b) < 1e-11

    def test_undersized_chunk_rejected(self):
        mat, _ = poisson_block_system(3, 2)
        chunks = distribute_matrix(mat, 2)  # chunk sizes [2, 1]
        with pytest.raises(ShapeError, match="at least|>= 2"):
            run_spmd(spike_factor_spmd, 2, rank_args=[(c,) for c in chunks])

    def test_spmd_pipeline_matches_driver(self):
        mat, _ = poisson_block_system(16, 3)
        b = random_rhs(16, 3, nrhs=2, seed=10)
        chunks = distribute_matrix(mat, 4)
        d_chunks = distribute_rhs(b, 4)

        def program(comm, chunk, d):
            state = spike_factor_spmd(comm, chunk)
            return spike_solve_spmd(comm, state, d)

        res = run_spmd(program, 4, rank_args=list(zip(chunks, d_chunks)))
        x_spmd = gather_solution(list(res.values))
        x_driver = SpikeFactorization(mat, nranks=4).solve(b)
        np.testing.assert_allclose(x_spmd, x_driver, atol=1e-12)


class TestApiIntegration:
    def test_solve_method(self):
        mat, _ = poisson_block_system(20, 3)
        b = random_rhs(20, 3, nrhs=2, seed=11)
        from repro import solve

        x, info = solve(mat, b, method="spike", nranks=4, return_info=True)
        assert info.method == "spike"
        assert info.virtual_time > 0
        assert mat.residual(x, b) < 1e-11

    def test_factor_method(self):
        from repro import factor

        mat, _ = poisson_block_system(12, 2)
        fact = factor(mat, method="spike", nranks=3)
        b = random_rhs(12, 2, nrhs=1, seed=12)
        assert mat.residual(fact.solve(b), b) < 1e-11


class TestBcyclicReducedMode:
    """The fully-distributed reduced-solve variant must match the
    root-gather variant exactly in result, with no root bottleneck."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_matches_root_mode(self, p):
        mat, _ = random_block_dd_system(24, 3, seed=20)
        b = random_rhs(24, 3, nrhs=2, seed=21)
        x_root = SpikeFactorization(mat, nranks=p, reduced_mode="root").solve(b)
        x_bc = SpikeFactorization(mat, nranks=p, reduced_mode="bcyclic").solve(b)
        np.testing.assert_allclose(x_bc, x_root, rtol=1e-9, atol=1e-11)

    def test_invalid_mode_rejected(self):
        mat, _ = poisson_block_system(8, 2)
        with pytest.raises(ShapeError, match="reduced_mode"):
            SpikeFactorization(mat, nranks=2, reduced_mode="magic")

    def test_no_root_hotspot_in_messages(self):
        """In bcyclic mode no rank's solve-phase traffic dominates; in
        root mode rank 0 receives/sends a Theta(P) share."""
        mat, _ = random_block_dd_system(64, 2, seed=22)
        b = random_rhs(64, 2, nrhs=1, seed=23)
        p = 8
        root = SpikeFactorization(mat, nranks=p, reduced_mode="root")
        root.solve(b)
        bc = SpikeFactorization(mat, nranks=p, reduced_mode="bcyclic")
        bc.solve(b)
        root_tx = [s.msgs_sent for s in root.last_solve_result.stats]
        bc_tx = [s.msgs_sent for s in bc.last_solve_result.stats]
        # Root mode: rank 0 sends ~P scatter messages.
        assert root_tx[0] >= p - 1
        # Bcyclic mode: the busiest rank sends only O(log P) messages.
        assert max(bc_tx) <= 4 * (p.bit_length() + 2)

    def test_refine_supported(self):
        mat, _ = poisson_block_system(24, 3)
        fact = SpikeFactorization(mat, nranks=4, reduced_mode="bcyclic")
        b = random_rhs(24, 3, nrhs=2, seed=24)
        assert mat.residual(fact.solve(b, refine=1), b) < 1e-13


class TestComplexSupport:
    def test_absorbing_helmholtz(self):
        from repro.workloads import absorbing_helmholtz_system

        mat, _ = absorbing_helmholtz_system(24, 3)
        assert mat.dtype.kind == "c"
        b = random_rhs(24, 3, nrhs=2, seed=13).astype(np.complex128)
        b += 1j * random_rhs(24, 3, nrhs=2, seed=14)
        x = SpikeFactorization(mat, nranks=4).solve(b)
        assert mat.residual(x, b) < 1e-11


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 40), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 3), st.integers(0, 500))
def test_property_spike_matches_dense(n, m, p, r, seed):
    mat, _ = random_block_dd_system(n, m, seed=seed)
    b = random_rhs(n, m, nrhs=r, seed=seed + 1)
    x = SpikeFactorization(mat, nranks=p).solve(b)
    np.testing.assert_allclose(x, dense_solve(mat, b), rtol=1e-7, atol=1e-9)
