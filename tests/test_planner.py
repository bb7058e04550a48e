"""Planner tests: the evidence rule, table persistence, auto dispatch.

Covers the ``repro.perfmodel.planner`` contracts that the benchmarks
cannot pin deterministically: without table evidence for both a
candidate and the reference the plan is the ARD reference (even where
the analytic model ranks another method first), stale/foreign/corrupt
tables are rejected or ignored rather than trusted or fatal,
interpolation has bounded reach, and the ``method="auto"`` dispatch in
:func:`repro.core.api.solve` follows the installed table and the
caller's comm backend.  Also the drift tests pinning the planner
portfolio against the API's method lists (the same drift-test pattern
as the collective-op set in ``test_check.py``) and the plan record.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import warnings

import numpy as np
import pytest

import repro.comm
from repro.config import config_context
from repro.core.api import FACTOR_METHODS, SOLVE_METHODS, solve
from repro.exceptions import ConfigError
from repro.harness import tune as tune_cli
from repro.perfmodel.planner import (
    MAX_INTERP_DISTANCE,
    PLAN_METHODS,
    TUNE_SCHEMA_VERSION,
    Plan,
    TuneEntry,
    TuningTable,
    _candidates,
    clear_plan_cache,
    host_fingerprint,
    load_table,
    plan,
    save_table,
    set_default_table,
    tune_machine,
)
from repro.perfmodel.predictor import PREDICTABLE_METHODS, predict_time
from repro.service import SolverService
from repro.workloads import helmholtz_block_system, random_rhs

#: Direct factorizations outside the planner portfolio: not iterative
#: block-tridiagonal methods, no cost model, never planned.  A method
#: added to SOLVE_METHODS must land here *or* in PLAN_METHODS — the
#: drift test below fails otherwise.
DIRECT_METHODS = {"dense", "banded", "sparse"}

#: Shapes (n, m, p, r) where the analytic model ranks block Thomas
#: first but Thomas runs several times slower than ARD on two ranks.
MODEL_THOMAS_SHAPES = [(256, 16, 2, 4), (512, 8, 2, 1), (128, 4, 2, 8)]


@pytest.fixture(autouse=True)
def _fresh_planner_state():
    """Isolate the process-wide table override and plan memo per test."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def _entry(time, *, shape=(64, 8, 4, 8), dtype="float64", method="ard"):
    n, m, p, r = shape
    return TuneEntry(n=n, m=m, p=p, r=r, dtype=dtype, method=method,
                     time=time)


def _table(entries, host=None):
    return TuningTable(host=host if host is not None else host_fingerprint(),
                       entries=tuple(entries))


def _assert_reference(result, p, provenance):
    assert (result.method, result.nranks) == ("ard", p)
    assert result.provenance == provenance


class TestColdStart:
    @pytest.mark.parametrize("shape", [(256, 8, 4, 8), (64, 4, 1, 1),
                                       (2048, 4, 8, 64)])
    def test_no_table_plans_the_reference(self, shape):
        n, m, p, r = shape
        result = plan(n, m, p, r, table=None, calibration=None)
        _assert_reference(result, p, "model")
        assert result.predicted_time == pytest.approx(
            predict_time("ard", n=n, m=m, p=p, r=r))

    @pytest.mark.parametrize("shape", MODEL_THOMAS_SHAPES)
    def test_model_only_thomas_pick_runs_ard(self, shape):
        """The model prices Thomas below ARD here, but a model-only
        ranking never leaves the reference."""
        n, m, p, r = shape
        assert (predict_time("thomas", n=n, m=m, p=1, r=r)
                < predict_time("ard", n=n, m=m, p=p, r=r))
        _assert_reference(plan(n, m, p, r, table=None, calibration=None),
                          p, "model")

    def test_auto_solve_without_table_runs_ard(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no results/TUNE_host.json here
        matrix, _ = helmholtz_block_system(128, 4, theta=0.3)
        b = random_rhs(128, 4, nrhs=8, seed=0)
        x, info = solve(matrix, b, method="auto", nranks=2, return_info=True)
        assert (info.method, info.nranks) == ("ard", 2)
        _assert_reference(info.plan, 2, "model")
        assert matrix.residual(x, b) < 1e-10

    def test_invalid_shape_and_method_rejected(self):
        with pytest.raises(ConfigError):
            plan(0, 8, table=None)
        with pytest.raises(ConfigError):
            plan(64, 8, methods=("ard", "dense"), table=None)
        with pytest.raises(ConfigError, match="'ard'"):
            plan(64, 8, methods=("thomas", "cyclic"), table=None)


class TestTablePersistence:
    def test_roundtrip(self, tmp_path):
        table = _table([_entry(0.5), _entry(1.5, method="thomas")])
        path = save_table(table, tmp_path / "TUNE_host.json")
        loaded = load_table(path)
        assert loaded is not None
        assert loaded.entries == table.entries

    def test_stale_schema_rejected(self, tmp_path):
        path = save_table(_table([_entry(0.5)]), tmp_path / "t.json")
        data = json.loads(path.read_text())
        data["schema_version"] = TUNE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="schema_version"):
            load_table(path)

    @pytest.mark.parametrize("corrupt", [
        lambda text, data: text[: len(text) // 2],
        lambda text, data: "[]",
        lambda text, data: json.dumps({**data, "entries": [{"n": 64}]}),
        lambda text, data: json.dumps(
            {**data, "entries": [{**data["entries"][0], "n": "64"}]}),
        lambda text, data: json.dumps({**data, "entries": 7}),
    ], ids=["truncated", "not-an-object", "missing-field", "string-shape",
            "entries-not-a-list"])
    def test_malformed_table_rejected(self, tmp_path, corrupt):
        path = save_table(_table([_entry(0.5)]), tmp_path / "t.json")
        text = path.read_text()
        path.write_text(corrupt(text, json.loads(text)))
        with pytest.raises(ConfigError):
            load_table(path)

    def test_host_mismatch_warned_and_ignored(self, tmp_path):
        table = _table([_entry(0.5)], host="other-machine/cpu64")
        path = save_table(table, tmp_path / "t.json")
        with pytest.warns(RuntimeWarning, match="other-machine"):
            assert load_table(path) is None
        with pytest.raises(ConfigError, match="other-machine"):
            load_table(path, strict_host=True)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="harness tune"):
            load_table(tmp_path / "absent.json")

    def test_fingerprint_ignores_kernel_release(self, monkeypatch):
        before = host_fingerprint()
        monkeypatch.setattr(platform, "release", lambda: "99.0-other")
        monkeypatch.setattr(platform, "platform",
                            lambda *a, **k: "Linux-99.0-other-x86_64")
        assert host_fingerprint() == before
        assert f"numpy-{np.__version__}" in before

    def test_corrupt_default_table_falls_back_to_reference(
            self, tmp_path, monkeypatch):
        """A truncated committed table warns once and ``auto`` runs the
        reference, for one-shot solves and service requests alike."""
        monkeypatch.chdir(tmp_path)
        path = save_table(_table([_entry(0.5)]),
                          tmp_path / "results" / "TUNE_host.json")
        path.write_text(path.read_text()[:40])
        matrix, _ = helmholtz_block_system(64, 4, theta=0.3)
        b = random_rhs(64, 4, nrhs=2, seed=0)
        with pytest.warns(RuntimeWarning, match="ignoring tuning table"):
            x, info = solve(matrix, b, method="auto", nranks=2,
                            return_info=True)
        assert (info.method, info.nranks) == ("ard", 2)
        assert matrix.residual(x, b) < 1e-10

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with SolverService(workers=1, nranks=2) as svc:
                x = svc.solve(matrix, b, timeout=60)
        assert matrix.residual(x, b) < 1e-10
        assert not [w for w in caught
                    if "ignoring tuning table" in str(w.message)]


class TestEvidenceGrades:
    SHAPE = (64, 8, 4, 8)

    def _measured_table(self):
        # Thomas measured clearly faster than the measured reference.
        return _table([
            _entry(5e-3, shape=self.SHAPE),
            _entry(1e-3, shape=self.SHAPE, method="thomas"),
        ])

    def test_exact_hit_is_measured(self):
        result = plan(*self.SHAPE, table=self._measured_table(),
                      calibration=None)
        assert result.method == "thomas"
        assert result.provenance == "measured"
        assert result.predicted_time == pytest.approx(1e-3)
        assert result.nranks == 1

    def test_nearby_shape_interpolates(self):
        n, m, p, r = self.SHAPE
        result = plan(2 * n, m, p, r, table=self._measured_table(),
                      calibration=None)
        assert result.provenance == "interpolated"

    def test_distant_shape_falls_back_to_model(self):
        n, m, p, r = self.SHAPE
        far_n = n * 2 ** (int(MAX_INTERP_DISTANCE) + 2)
        result = plan(far_n, m, p, r, table=self._measured_table(),
                      calibration=None)
        _assert_reference(result, p, "model")

    def test_unmeasured_dtype_demoted_to_model(self):
        """A table measured only for float64 is no evidence at float32:
        the plan is the reference, at the model's prediction."""
        table = self._measured_table()
        assert plan(*self.SHAPE, dtype=np.float64, table=table,
                    calibration=None).method == "thomas"
        result = plan(*self.SHAPE, dtype=np.float32, table=table,
                      calibration=None)
        _assert_reference(result, self.SHAPE[2], "model")

    @pytest.mark.parametrize("entries, expect", [
        # Candidate measured, reference not: no comparison possible.
        ([dict(time=1e-6, method="thomas")], ("ard", "model")),
        # Reference measured, no candidate: the reference, measured.
        ([dict(time=1e-2)], ("ard", "measured")),
        # Both measured, candidate slower.
        ([dict(time=1e-2), dict(time=2e-2, method="thomas")],
         ("ard", "measured")),
        # Reference measured only at another dtype.
        ([dict(time=1e-2, dtype="float32"), dict(time=1e-6, method="thomas")],
         ("ard", "model")),
        # Both measured, candidate faster.
        ([dict(time=1e-2), dict(time=1e-3, method="cyclic")],
         ("cyclic", "measured")),
    ], ids=["candidate-only", "reference-only", "candidate-slower",
            "reference-other-dtype", "candidate-faster"])
    def test_candidate_needs_evidence_on_both_sides(self, entries, expect):
        table = _table([_entry(shape=self.SHAPE, **e) for e in entries])
        result = plan(*self.SHAPE, table=table, calibration=None)
        assert (result.method, result.provenance) == expect


class TestAutoDispatch:
    def test_solve_auto_follows_installed_table(self):
        """``method="auto"`` resolves through the installed table and
        stamps the plan into ``SolveInfo``."""
        shape = (32, 4, 2, 4)
        table = _table([
            _entry(1e-6, shape=shape, method="thomas"),
            _entry(1.0, shape=shape),
        ])
        matrix, _ = helmholtz_block_system(32, 4)
        b = random_rhs(32, 4, nrhs=4, seed=0)
        set_default_table(table)
        try:
            x, info = solve(matrix, b, method="auto", nranks=2,
                            return_info=True)
        finally:
            set_default_table(None)
        assert info.method == "thomas"
        assert info.plan is not None
        assert info.plan.method == "thomas"
        assert info.plan.provenance == "measured"
        assert info.plan.nranks == info.nranks == 1
        reference = solve(matrix, b, method="thomas")
        np.testing.assert_allclose(x, reference, rtol=1e-10)

    def test_auto_passes_callers_backend(self, tmp_path, monkeypatch):
        """``auto`` defers to the configured comm backend exactly like
        an explicit ``method="ard"`` (the spy runs both on threads)."""
        monkeypatch.chdir(tmp_path)  # no tuning table: auto plans ARD
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

    def test_quick_tune_measures_every_anchor(self):
        """The sweep measures every candidate method at every shape, so
        a plan against the fresh table is the measured argmin."""
        shape = (16, 4, 2, 2)
        table = tune_machine(quick=True, shapes=[shape])
        assert table.quick
        assert sorted(e.method for e in table.entries) == sorted(
            c["method"] for c in _candidates(shape[2])) == sorted(PLAN_METHODS)
        result = plan(*shape, table=table, calibration=None)
        assert result.provenance == "measured"
        assert result.predicted_time == min(e.time for e in table.entries)


class TestTuneCheck:
    """``harness tune --check`` fails unless every plan is the measured
    argmin of its shape."""

    SHAPE = (32, 4, 2, 4)

    @pytest.fixture
    def fake_sweep(self, monkeypatch):
        table = _table([_entry(1e-2, shape=self.SHAPE),
                        _entry(1e-3, shape=self.SHAPE, method="thomas")])
        monkeypatch.setattr(tune_cli, "tune_machine",
                            lambda quick, progress: table)

    def test_passes_on_argmin(self, fake_sweep, tmp_path):
        assert tune_cli.run_tune(str(tmp_path / "t.json"), check=True) == 0

    def test_fails_when_plan_misses_argmin(self, fake_sweep, tmp_path,
                                           monkeypatch):
        real_plan = tune_cli.plan
        monkeypatch.setattr(tune_cli, "plan", lambda *a, **k: real_plan(
            *a, **k, methods=("ard",)))
        assert tune_cli.run_tune(str(tmp_path / "t.json"), check=True) == 1


class TestPortfolioDrift:
    """Drift conformance: the method lists cannot drift apart."""

    def test_plan_methods_partition_solve_methods(self):
        assert set(PLAN_METHODS) == (
            set(SOLVE_METHODS) - {"auto"} - DIRECT_METHODS
        ), ("every iterative solve() method must be plannable (or added "
            "to DIRECT_METHODS here with a cost model waiver)")

    def test_plan_methods_are_predictable(self):
        assert set(PLAN_METHODS) <= set(PREDICTABLE_METHODS), (
            "the planner scales interpolated measurements by "
            "predict_time; teach the predictor about new portfolio "
            "methods first"
        )

    def test_predictable_base_methods_are_solvable(self):
        base = {meth for meth in PREDICTABLE_METHODS if "_" not in meth}
        assert base <= set(SOLVE_METHODS)

    def test_auto_is_exposed(self):
        assert "auto" in SOLVE_METHODS
        assert "auto" in FACTOR_METHODS
        assert set(FACTOR_METHODS) - {"auto"} <= set(SOLVE_METHODS)


class TestPlanRecord:
    def test_plan_holds_method_and_ranks_plus_evidence(self):
        """Schema 4: a plan and a table entry carry (method, nranks)
        plus evidence, and nothing that selects a kernel."""
        assert TUNE_SCHEMA_VERSION == 4
        assert [f.name for f in dataclasses.fields(Plan)] == [
            "method", "nranks", "predicted_time", "provenance"]
        assert [f.name for f in dataclasses.fields(TuneEntry)] == [
            "n", "m", "p", "r", "dtype", "method", "time"]

    def test_plan_is_frozen(self):
        result = plan(64, 8, 4, 8, table=None, calibration=None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.method = "rd"
