"""Planner tests: ``method="auto"`` is ARD on the requested ranks.

Covers the ``repro.perfmodel.planner`` contracts: the plan is the ARD
reference at every shape (even where the analytic model ranks another
method first), planning reads no file, ``auto`` through
:func:`~repro.core.api.solve`, :func:`~repro.core.api.factor` and the
service gives the bits of ``method="ard"`` on either backend and
follows the caller's comm backend, and the plan record.  Also the
drift tests pinning the API's method lists against each other and the
predictor.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.comm
from repro.comm.mp import shutdown_pool
from repro.config import config_context
from repro.core.api import FACTOR_METHODS, SOLVE_METHODS, factor, solve
from repro.core.ard import ARDFactorization
from repro.exceptions import ConfigError
from repro.perfmodel.calibrate import MachineCalibration, save_calibration
from repro.perfmodel.planner import Plan, host_fingerprint, plan
from repro.perfmodel.predictor import PREDICTABLE_METHODS, predict_time
from repro.service import SolverService
from repro.workloads import helmholtz_block_system, random_rhs

#: Shapes (n, m, p, r) where the analytic model ranks block Thomas
#: first but Thomas runs several times slower than ARD on two ranks.
MODEL_THOMAS_SHAPES = [(256, 16, 2, 4), (512, 8, 2, 1), (128, 4, 2, 8)]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


class TestColdStart:
    @pytest.mark.parametrize("shape", [(256, 8, 4, 8), (64, 4, 1, 1),
                                       (2048, 4, 8, 64)])
    def test_no_table_plans_the_reference(self, shape):
        n, m, p, r = shape
        for dtype in (None, np.float32, np.complex128):
            assert plan(n, m, p, r, dtype) == Plan("ard", p)

    @pytest.mark.parametrize("shape", MODEL_THOMAS_SHAPES)
    def test_model_only_thomas_pick_runs_ard(self, shape):
        """The model prices Thomas below ARD here, but the plan is the
        reference."""
        n, m, p, r = shape
        assert (predict_time("thomas", n=n, m=m, p=1, r=r)
                < predict_time("ard", n=n, m=m, p=p, r=r))
        assert plan(n, m, p, r) == Plan("ard", p)

    def test_auto_solve_without_table_runs_ard(self):
        matrix, _ = helmholtz_block_system(128, 4, theta=0.3)
        b = random_rhs(128, 4, nrhs=8, seed=0)
        x, info = solve(matrix, b, method="auto", nranks=2, return_info=True)
        assert (info.method, info.nranks) == ("ard", 2)
        assert info.plan == Plan("ard", 2)
        assert matrix.residual(x, b) < 1e-10

    def test_invalid_shape_and_method_rejected(self):
        """Bad shapes raise; there is no candidate list to restrict."""
        for shape in [(0, 8, 1, 1), (64, 0, 1, 1), (64, 8, 0, 1),
                      (64, 8, 1, -1)]:
            with pytest.raises(ConfigError, match="invalid plan shape"):
                plan(*shape)
        with pytest.raises(TypeError):
            plan(64, 8, methods=("ard",))


#: Runs in a fresh interpreter whose working directory holds a
#: truncated tuning table and a calibration file; prints what the
#: planned calls resolved to, which of the two files were opened and
#: which warnings were raised.
_NO_FILE_PROBE = """
import json, os, sys, warnings

FILES = {"TUNE_host.json", "CALIB_machine.json"}
opened = set()

def audit(event, args):
    if event == "open" and not isinstance(args[0], int):
        name = os.path.basename(os.fsdecode(args[0]))
        if name in FILES:
            opened.add(name)

from repro.core.api import factor, solve
from repro.perfmodel.planner import plan
from repro.service import SolverService
from repro.workloads import helmholtz_block_system, random_rhs

A, _ = helmholtz_block_system(64, 4, theta=0.3)
b = random_rhs(64, 4, nrhs=2, seed=0)
sys.addaudithook(audit)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    resolved = [plan(64, 4, 2, 2, A.dtype).to_dict()]
    _, info = solve(A, b, method="auto", nranks=2, return_info=True)
    resolved.append(info.plan.to_dict())
    F = factor(A, method="auto", nranks=2)
    resolved.append({"method": type(F).__name__, "nranks": F.nranks})
    with SolverService(workers=1, nranks=2) as svc:
        handle = svc.register(A)
        svc.solve(handle, b, timeout=60)
    resolved.append(handle.plan.to_dict())
print(json.dumps({"resolved": resolved, "opened": sorted(opened),
                  "warnings": [str(w.message) for w in caught]}))
"""


class TestTablePersistence:
    """What remains of the per-host tuning table: the fingerprint
    ``perfbench`` stamps, and planning that reads no file."""

    def test_fingerprint_ignores_kernel_release(self, monkeypatch):
        before = host_fingerprint()
        monkeypatch.setattr(platform, "release", lambda: "99.0-other")
        monkeypatch.setattr(platform, "platform",
                            lambda *a, **k: "Linux-99.0-other-x86_64")
        assert host_fingerprint() == before
        assert f"numpy-{np.__version__}" in before

    def test_planning_reads_no_file(self, tmp_path):
        """A truncated tuning table and a calibration file in the
        working directory change nothing: ``plan()``, ``solve`` and
        ``factor`` with ``auto`` and a service request resolve ARD on
        the requested ranks, open neither file and warn about nothing."""
        results = tmp_path / "results"
        save_calibration(MachineCalibration(
            gemm_flop_rate=1e10, lu_flop_rate=1e9, trsm_flop_rate=1e9,
            copy_bandwidth=1e10, latency=1e-6, block_size=64, batch=32,
        ), results / "CALIB_machine.json")
        (results / "TUNE_host.json").write_text('{"schema_version": 4, "ho')
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _NO_FILE_PROBE],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        ard = {"method": "ard", "nranks": 2}
        assert report["resolved"] == [
            ard, ard, {"method": "ARDFactorization", "nranks": 2}, ard]
        assert report["opened"] == []
        assert report["warnings"] == []


class TestAutoDispatch:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_auto_is_bitwise_ard(self, backend, monkeypatch):
        """``solve`` and ``factor`` with ``auto`` and the service
        default give the bits of ``method="ard"`` on the same ranks."""
        monkeypatch.setenv("REPRO_COMM_BACKEND", backend)  # service workers
        matrix, _ = helmholtz_block_system(64, 4, theta=0.3)
        b = random_rhs(64, 4, nrhs=3, seed=0)
        ref = solve(matrix, b, method="ard", nranks=2, backend=backend)

        x, info = solve(matrix, b, method="auto", nranks=2, backend=backend,
                        return_info=True)
        assert (info.method, info.plan) == ("ard", Plan("ard", 2))
        assert np.array_equal(x, ref)

        fact = factor(matrix, method="auto", nranks=2, backend=backend)
        assert isinstance(fact, ARDFactorization) and fact.nranks == 2
        assert np.array_equal(fact.solve(b), ref)

        with SolverService(workers=1, nranks=2) as svc:
            handle = svc.register(matrix)
            assert (handle.method, handle.nranks) == ("ard", 2)
            assert handle.plan == Plan("ard", 2)
            assert np.array_equal(svc.solve(handle, b, timeout=60), ref)

    def test_auto_passes_callers_backend(self, monkeypatch):
        """``auto`` defers to the configured comm backend exactly like
        an explicit ``method="ard"`` (the spy runs both on threads)."""
        real = repro.comm.run_spmd
        seen = []

        def spy(*args, backend=None, **kwargs):
            seen.append(backend)
            return real(*args, backend="threads", **kwargs)

        monkeypatch.setattr(repro.comm, "run_spmd", spy)
        matrix, _ = helmholtz_block_system(128, 8)
        b = random_rhs(128, 8, nrhs=8, seed=0)
        recorded = {}
        with config_context(comm_backend="processes"):
            for method in ("ard", "auto"):
                seen.clear()
                _, info = solve(matrix, b, method=method, nranks=4,
                                return_info=True)
                assert info.method == "ard"
                recorded[method] = set(seen)
        assert recorded["auto"] == recorded["ard"] == {None}


class TestPortfolioDrift:
    """Drift conformance: the method lists cannot drift apart."""

    def test_predictable_base_methods_are_solvable(self):
        base = {meth for meth in PREDICTABLE_METHODS if "_" not in meth}
        assert base <= set(SOLVE_METHODS)

    def test_auto_is_exposed(self):
        assert "auto" in SOLVE_METHODS
        assert "auto" in FACTOR_METHODS
        assert set(FACTOR_METHODS) - {"auto"} <= set(SOLVE_METHODS)


class TestPlanRecord:
    def test_plan_holds_method_and_ranks(self):
        """A plan is ``(method, nranks)``, planned from the shape and
        dtype alone."""
        assert [f.name for f in dataclasses.fields(Plan)] == [
            "method", "nranks"]
        assert list(inspect.signature(plan).parameters) == [
            "n", "m", "p", "r", "dtype"]
        assert Plan("ard", 4).to_dict() == {"method": "ard", "nranks": 4}

    def test_plan_is_frozen(self):
        result = plan(64, 8, 4, 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.method = "rd"
