"""Planner tests: cold start, table persistence, evidence grades, guard.

Covers the ``repro.perfmodel.planner`` contracts that the benchmarks
cannot pin deterministically: the pure-model cold start matches the
analytic ranking, stale/foreign tables are rejected or ignored rather
than silently trusted, dtype fallback demotes its evidence to
``provenance="model"``, interpolation has bounded reach, and the
``method="auto"`` dispatch in :func:`repro.core.api.solve` follows the
installed table.  Also the drift tests pinning the planner portfolio
against the API's method lists (the same drift-test pattern as the
collective-op set in ``test_check.py``) and the tunable-threshold
config plumbing.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.config import TUNABLE_THRESHOLDS, config_context, get_config, set_config
from repro.core.api import FACTOR_METHODS, SOLVE_METHODS, solve
from repro.exceptions import ConfigError
from repro.perfmodel.planner import (
    MAX_INTERP_DISTANCE,
    MODEL_MARGIN,
    PLAN_METHODS,
    TUNE_SCHEMA_VERSION,
    TuneEntry,
    TuningTable,
    apply_tuning,
    clear_plan_cache,
    host_fingerprint,
    load_table,
    plan,
    save_table,
    set_default_table,
    tune_machine,
)
from repro.perfmodel.predictor import PREDICTABLE_METHODS, predict_time
from repro.workloads import helmholtz_block_system, random_rhs

#: Methods the planner simulates on ``p`` ranks (mirrors the planner's
#: portfolio split; sequential methods plan single-rank).
DISTRIBUTED = {"ard", "rd", "spike"}

#: Direct factorizations outside the planner portfolio: not iterative
#: block-tridiagonal methods, no cost model, never planned.  A method
#: added to SOLVE_METHODS must land here *or* in PLAN_METHODS — the
#: drift test below fails otherwise.
DIRECT_METHODS = {"dense", "banded", "sparse"}


@pytest.fixture(autouse=True)
def _fresh_planner_state():
    """Isolate the process-wide table override and plan memo per test."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def _entry(time, *, shape=(64, 8, 4, 8), dtype="float64", method="ard",
           comm_backend="threads", recurrence_mode="auto",
           blockops_backend="batched", provenance="measured"):
    n, m, p, r = shape
    return TuneEntry(n=n, m=m, p=p, r=r, dtype=dtype, method=method,
                     schedule="kogge_stone", comm_backend=comm_backend,
                     recurrence_mode=recurrence_mode,
                     blockops_backend=blockops_backend,
                     time=time, provenance=provenance)


def _table(entries, host=None, thresholds=None):
    return TuningTable(host=host if host is not None else host_fingerprint(),
                       thresholds=dict(thresholds or TUNABLE_THRESHOLDS),
                       entries=tuple(entries))


def _model_ranking(n, m, p, r):
    """The analytic model's per-method predictions, as plan() sees them."""
    return {
        meth: predict_time(meth, n=n, m=m,
                           p=p if meth in DISTRIBUTED else 1, r=r)
        for meth in PLAN_METHODS
    }


class TestColdStart:
    @pytest.mark.parametrize("shape", [(256, 8, 4, 8), (64, 4, 1, 1),
                                       (2048, 4, 8, 64)])
    def test_matches_model_ranking_under_guard(self, shape):
        """With no table the plan is the model's argmin — unless the
        never-lose guard clamps a marginal non-ARD winner back to the
        reference."""
        n, m, p, r = shape
        preds = _model_ranking(n, m, p, r)
        best_method = min(preds, key=preds.get)
        result = plan(n, m, p, r, table=None, calibration=None)
        assert result.provenance == "model"
        if best_method == "ard":
            assert result.method == "ard"
            assert not result.clamped
        elif preds[best_method] <= preds["ard"] * (1 - MODEL_MARGIN):
            assert result.method == best_method
            assert not result.clamped
        else:
            assert result.method == "ard"
            assert result.clamped
        if result.method == "ard" or result.clamped:
            # Reference configuration: shipped kernel defaults.
            assert result.blockops_backend == "batched"
            assert result.recurrence_mode == "auto"
        assert result.schedule == "kogge_stone"
        expect_ranks = p if result.method in DISTRIBUTED else 1
        assert result.nranks == expect_ranks

    def test_invalid_shape_and_method_rejected(self):
        with pytest.raises(ConfigError):
            plan(0, 8, table=None)
        with pytest.raises(ConfigError):
            plan(64, 8, methods=("ard", "dense"), table=None)


class TestTablePersistence:
    def test_roundtrip(self, tmp_path):
        table = _table([_entry(0.5), _entry(1.5, method="thomas")])
        path = save_table(table, tmp_path / "TUNE_host.json")
        loaded = load_table(path)
        assert loaded is not None
        assert loaded.entries == table.entries
        assert loaded.thresholds == table.thresholds

    def test_stale_schema_rejected(self, tmp_path):
        path = save_table(_table([_entry(0.5)]), tmp_path / "t.json")
        data = json.loads(path.read_text())
        data["schema_version"] = TUNE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="schema_version"):
            load_table(path)

    def test_unknown_threshold_rejected(self):
        data = _table([_entry(0.5)]).to_dict()
        data["thresholds"]["bogus_knob"] = 7
        with pytest.raises(ConfigError, match="bogus_knob"):
            TuningTable.from_dict(data)

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


class TestEvidenceGrades:
    SHAPE = (64, 8, 4, 8)

    def _measured_table(self):
        # Thomas measured clearly fastest; the reference ARD config
        # measured too, so every grade decision is table-driven.
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
        assert result.provenance == "model"

    def test_unmeasured_dtype_demoted_to_model(self):
        """A table measured only for float64 still informs the float32
        ranking via the nearest-itemsize dtype, but never with measured
        confidence (the dtype-fallback contract)."""
        table = self._measured_table()
        assert plan(*self.SHAPE, dtype=np.float64, table=table,
                    calibration=None).provenance == "measured"
        result = plan(*self.SHAPE, dtype=np.float32, table=table,
                      calibration=None)
        assert result.provenance == "model"

    def test_never_lose_guard_invariant(self):
        """A model-only winner must beat the reference's prediction by
        the margin; otherwise the plan is the reference, flagged
        clamped.  Checked against the model ranking recomputed here."""
        # Only the reference is measured: every other candidate runs on
        # scaled model predictions, so the guard decides the outcome.
        table = _table([_entry(1e-2, shape=self.SHAPE)])
        n, m, p, r = self.SHAPE
        preds = _model_ranking(n, m, p, r)
        best_method = min(preds, key=preds.get)
        result = plan(n, m, p, r, table=table, calibration=None)
        if result.clamped:
            assert result.method == "ard"
            assert result.blockops_backend == "batched"
            assert result.recurrence_mode == "auto"
        elif result.provenance == "model":
            # Unclamped model winner: must genuinely clear the margin.
            assert preds[result.method] <= preds["ard"] * (1 - MODEL_MARGIN)
            assert result.method == best_method


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

    def test_quick_tune_measures_every_anchor(self):
        """The quick sweep still measures one anchor per portfolio
        method (cross-family ranking is the model's blind spot), and a
        plan against the fresh table is measured-grade."""
        shape = (16, 4, 2, 2)
        table = tune_machine(quick=True, shapes=[shape])
        assert table.quick
        measured = {e.method for e in table.entries
                    if e.provenance == "measured"}
        assert measured == set(PLAN_METHODS)
        result = plan(*shape, table=table, calibration=None)
        assert result.provenance == "measured"


class TestPortfolioDrift:
    """Drift conformance: the method lists cannot drift apart."""

    def test_plan_methods_partition_solve_methods(self):
        assert set(PLAN_METHODS) == (
            set(SOLVE_METHODS) - {"auto"} - DIRECT_METHODS
        ), ("every iterative solve() method must be plannable (or added "
            "to DIRECT_METHODS here with a cost model waiver)")

    def test_plan_methods_are_predictable(self):
        assert set(PLAN_METHODS) <= set(PREDICTABLE_METHODS), (
            "the planner ranks by predict_time; teach the predictor "
            "about new portfolio methods first"
        )

    def test_predictable_base_methods_are_solvable(self):
        base = {meth for meth in PREDICTABLE_METHODS if "_" not in meth}
        assert base <= set(SOLVE_METHODS)

    def test_auto_is_exposed(self):
        assert "auto" in SOLVE_METHODS
        assert "auto" in FACTOR_METHODS
        assert set(FACTOR_METHODS) - {"auto"} <= set(SOLVE_METHODS)


class TestTunableThresholds:
    def test_config_override_and_restore(self):
        before = get_config().vector_solve_max_work
        with config_context(vector_solve_max_work=7):
            assert get_config().vector_solve_max_work == 7
        assert get_config().vector_solve_max_work == before

    @pytest.mark.parametrize("value", [0, -3, True, 2.5])
    def test_rejects_non_positive_ints(self, value):
        for name in TUNABLE_THRESHOLDS:
            with pytest.raises(ConfigError):
                with config_context(**{name: value}):
                    pass

    def test_apply_tuning_installs_thresholds(self):
        thresholds = dict(TUNABLE_THRESHOLDS, vector_solve_max_work=123)
        table = _table([_entry(0.5)], thresholds=thresholds)
        try:
            applied = apply_tuning(table)
            assert applied["vector_solve_max_work"] == 123
            assert get_config().vector_solve_max_work == 123
        finally:
            set_config(**TUNABLE_THRESHOLDS)

    def test_plan_is_frozen(self):
        result = plan(64, 8, 4, 8, table=None, calibration=None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.method = "rd"
