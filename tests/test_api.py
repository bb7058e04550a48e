"""Tests for the front-end solve/factor API."""

import numpy as np
import pytest

from repro.core.api import FACTOR_METHODS, SOLVE_METHODS, SolveInfo, factor, solve
from repro.exceptions import ConfigError, ShapeError, StabilityWarning
from repro.linalg.reference import dense_solve
from repro.workloads import poisson_block_system, random_rhs


@pytest.fixture
def system():
    # The absorbing Helmholtz system lies in every solver's domain:
    # bounded transfer growth (RD/ARD) *and* Thomas-factorable local
    # systems (SPIKE) — and it exercises complex arithmetic throughout.
    from repro.workloads import absorbing_helmholtz_system

    mat, _ = absorbing_helmholtz_system(12, 3)
    b = random_rhs(12, 3, nrhs=3, seed=0).astype(mat.dtype)
    return mat, b


class TestSolveMethods:
    @pytest.mark.parametrize("method", SOLVE_METHODS)
    def test_all_methods_agree(self, system, method):
        mat, b = system
        x = solve(mat, b, method=method, nranks=3)
        np.testing.assert_allclose(x, dense_solve(mat, b), rtol=1e-7, atol=1e-9)

    def test_default_is_ard(self, system):
        mat, b = system
        _, info = solve(mat, b, return_info=True)
        assert info.method == "ard"

    def test_unknown_method(self, system):
        mat, b = system
        with pytest.raises(ConfigError, match="unknown method"):
            solve(mat, b, method="gaussian")

    def test_rejects_non_matrix(self, system):
        _, b = system
        with pytest.raises(ShapeError):
            solve(np.eye(36), b)

    def test_rejects_bad_nranks(self, system):
        mat, b = system
        with pytest.raises(ShapeError):
            solve(mat, b, nranks=0)

    def test_layout_preserved(self, system):
        mat, _ = system
        flat = random_rhs(12, 3, 1, seed=1).reshape(36)
        assert solve(mat, flat, method="thomas").shape == (36,)
        two_d = random_rhs(12, 3, 2, seed=2).reshape(36, 2)
        assert solve(mat, two_d, method="ard", nranks=2).shape == (36, 2)


class TestSolveInfo:
    def test_info_fields_ard(self, system):
        mat, b = system
        x, info = solve(mat, b, method="ard", nranks=2, return_info=True)
        assert isinstance(info, SolveInfo)
        assert info.nrhs == 3
        assert info.nranks == 2
        assert info.residual < 1e-10
        assert info.virtual_time > 0
        assert info.factor_result is not None
        assert info.solve_result is not None

    def test_info_fields_rd(self, system):
        mat, b = system
        _, info = solve(mat, b, method="rd", nranks=2, return_info=True)
        assert info.virtual_time > 0
        assert info.factor_result is None

    def test_info_fields_sequential(self, system):
        mat, b = system
        _, info = solve(mat, b, method="thomas", return_info=True)
        assert info.virtual_time is None
        assert info.nranks == 1

    def test_check_warns_on_growing_system(self):
        mat, _ = poisson_block_system(24, 3)
        b = random_rhs(24, 3, 1, seed=3)
        with pytest.warns(StabilityWarning):
            solve(mat, b, method="rd", nranks=2, check=True)

    def test_check_silent_on_bounded_system(self, system):
        import warnings

        mat, b = system
        with warnings.catch_warnings():
            warnings.simplefilter("error", StabilityWarning)
            solve(mat, b, method="ard", nranks=2, check=True)


class TestFactor:
    @pytest.mark.parametrize("method", FACTOR_METHODS)
    def test_factor_solve(self, system, method):
        mat, b = system
        fact = factor(mat, method=method, nranks=2)
        assert mat.residual(fact.solve(b), b) < 1e-10

    def test_unknown_factor_method(self, system):
        mat, _ = system
        with pytest.raises(ConfigError):
            factor(mat, method="dense")

    def test_factor_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            factor(np.eye(4), method="thomas")


def forbid_launches(monkeypatch):
    """Make any SPMD run, on either backend, fail the test."""
    import repro.comm.mp as mp
    import repro.comm.runtime as runtime

    def launched(*args, **kwargs):
        raise AssertionError("ranks were launched")

    monkeypatch.setattr(runtime, "Runtime", launched)
    monkeypatch.setattr(mp, "run_spmd_processes", launched)


class TestNoRightHandSide:
    """One contract for ``R = 0``: an empty ``(N, M, 0)`` solution from
    every method and factorization, with no rank launched."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("method", SOLVE_METHODS)
    def test_solve(self, system, method, backend, monkeypatch):
        mat, _ = system
        forbid_launches(monkeypatch)
        x, info = solve(mat, np.zeros((12, 3, 0), dtype=mat.dtype),
                        method=method, nranks=2, backend=backend,
                        return_info=True)
        assert x.shape == (12, 3, 0) and x.dtype == mat.dtype
        assert info.nrhs == 0 and info.residual == 0.0

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("method", FACTOR_METHODS)
    def test_factorization_solve(self, system, method, backend,
                                 monkeypatch):
        mat, _ = system
        fact = factor(mat, method=method, nranks=2, backend=backend)
        forbid_launches(monkeypatch)
        x = fact.solve(np.zeros((12, 3, 0), dtype=mat.dtype))
        assert x.shape == (12, 3, 0) and x.dtype == mat.dtype


class TestUnknownKwargs:
    """Mistyped options must fail loudly as ConfigError, not silently."""

    def test_solve_rejects_unknown_kwargs(self, system):
        mat, b = system
        with pytest.raises(ConfigError, match="unknown keyword"):
            solve(mat, b, method="thomas", nrank=4)

    def test_factor_rejects_unknown_kwargs(self, system):
        mat, _ = system
        with pytest.raises(ConfigError, match="refined"):
            factor(mat, method="thomas", refined=1)

    def test_error_names_all_strays(self, system):
        mat, b = system
        with pytest.raises(ConfigError, match="bogus.*nrank"):
            solve(mat, b, bogus=1, nrank=2)

    def test_config_error_is_repro_error(self, system):
        from repro.exceptions import ReproError

        mat, b = system
        with pytest.raises(ReproError):
            solve(mat, b, tracing=True)


class TestOneDimensionalRhs:
    """Flat 1-D right-hand sides are accepted uniformly and the
    solution comes back in the caller's layout (shared helper:
    ``reshape_rhs`` / ``restore_rhs_shape``)."""

    @pytest.mark.parametrize("method", FACTOR_METHODS)
    def test_factorizations_accept_flat_1d(self, system, method):
        mat, _ = system
        flat = random_rhs(12, 3, 1, seed=5).reshape(36).astype(mat.dtype)
        fact = factor(mat, method=method, nranks=2)
        x = fact.solve(flat)
        assert x.shape == (36,)
        assert mat.residual(x.reshape(12, 3, 1), flat.reshape(12, 3, 1)) < 1e-8

    @pytest.mark.parametrize("method", SOLVE_METHODS)
    def test_solve_accepts_flat_1d(self, system, method):
        mat, _ = system
        flat = random_rhs(12, 3, 1, seed=6).reshape(36).astype(mat.dtype)
        x = solve(mat, flat, method=method, nranks=2)
        assert x.shape == (36,)
        assert mat.residual(x.reshape(12, 3, 1), flat.reshape(12, 3, 1)) < 1e-8

    @pytest.mark.parametrize("method", FACTOR_METHODS)
    def test_factorizations_accept_nm_2d(self, system, method):
        mat, _ = system
        b = random_rhs(12, 3, 1, seed=7).reshape(12, 3).astype(mat.dtype)
        x = factor(mat, method=method, nranks=2).solve(b)
        assert x.shape == (12, 3)

    def test_refine_preserves_1d_layout(self, system):
        mat, _ = system
        flat = random_rhs(12, 3, 1, seed=8).reshape(36).astype(mat.dtype)
        x = factor(mat, method="ard", nranks=2).solve(flat, refine=1)
        assert x.shape == (36,)


class TestFingerprint:
    def test_fingerprint_exposed(self, system):
        from repro.core.api import fingerprint

        mat, _ = system
        assert fingerprint(mat) == mat.fingerprint()
        key = fingerprint(mat, method="ard", nranks=2)
        assert key.startswith("ard:p2:") and key.endswith(mat.fingerprint())

    def test_fingerprint_validates(self, system):
        from repro.core.api import fingerprint

        mat, _ = system
        with pytest.raises(ConfigError):
            fingerprint(mat, method="gaussian")
        with pytest.raises(ShapeError):
            fingerprint("not a matrix")


class TestPackageExports:
    def test_lazy_top_level_exports(self):
        import repro

        assert repro.BlockTridiagonalMatrix is not None
        assert callable(repro.solve)
        assert callable(repro.factor)
        assert callable(repro.fingerprint)
        assert repro.ARDFactorization is not None
        assert repro.SolverService is not None
        assert callable(repro.run_spmd)
        assert repro.__version__

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            repro.nonexistent_name
