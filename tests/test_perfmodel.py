"""Tests for the analytic complexity/time models and calibration."""

import pytest

from repro.comm import CostModel, run_spmd
from repro.config import config_context
from repro.core import (
    ARDFactorization,
    CyclicReductionFactorization,
    ThomasFactorization,
    distribute_matrix,
    distribute_rhs,
    rd_solve_spmd,
)
from repro.exceptions import ConfigError
from repro.perfmodel import (
    PAPER_ERA_MODEL,
    calibrate_flop_rate,
    calibrated_cost_model,
    predict_cost,
    predict_flops,
    predict_time,
    speedup_model,
)
from repro.util.flops import counting_flops
from repro.workloads import helmholtz_block_system, random_rhs


class TestPredictorDispatch:
    def test_all_methods_positive(self):
        for method in ("ard", "ard_factor", "ard_solve", "rd", "thomas",
                       "cyclic", "bcr_parallel"):
            assert predict_flops(method, n=64, m=4, p=4, r=8) > 0
            assert predict_time(method, n=64, m=4, p=4, r=8) > 0

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            predict_cost("nope", n=4, m=2)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            predict_cost("rd", n=0, m=2)

    def test_phase_lookup(self):
        cost = predict_cost("ard_factor", n=64, m=4, p=4)
        assert cost.phase("scan").messages > 0
        with pytest.raises(KeyError):
            cost.phase("nonexistent")


class TestModelShapes:
    def test_rd_linear_in_r(self):
        f1 = predict_flops("rd", n=128, m=8, p=8, r=1)
        f64 = predict_flops("rd", n=128, m=8, p=8, r=64)
        assert f64 / f1 == pytest.approx(64.0, rel=0.01)

    def test_ard_sublinear_in_r(self):
        f1 = predict_flops("ard", n=128, m=8, p=8, r=1)
        f64 = predict_flops("ard", n=128, m=8, p=8, r=64)
        assert f64 / f1 < 32  # far below RD's 64x

    def test_ard_factor_cubic_in_m(self):
        f4 = predict_flops("ard_factor", n=128, m=4, p=8)
        f8 = predict_flops("ard_factor", n=128, m=8, p=8)
        assert f8 / f4 == pytest.approx(8.0, rel=0.15)

    def test_ard_solve_quadratic_in_m(self):
        f4 = predict_flops("ard_solve", n=128, m=4, p=8, r=16)
        f8 = predict_flops("ard_solve", n=128, m=8, p=8, r=16)
        assert f8 / f4 == pytest.approx(4.0, rel=0.15)

    def test_strong_scaling_decreases_then_flattens(self):
        times = [
            predict_time("ard_factor", n=4096, m=8, p=p, cost_model=PAPER_ERA_MODEL)
            for p in (1, 4, 16, 64)
        ]
        assert times == sorted(times, reverse=True)
        # Efficiency degrades: halving gains at high P.
        assert times[2] / times[3] < 4.0

    def test_speedup_model_regimes(self):
        assert speedup_model(64, 1) == pytest.approx(1.0, rel=0.02)
        assert speedup_model(64, 16) == pytest.approx(12.8, rel=0.01)
        assert speedup_model(64, 10**6) == pytest.approx(64.0, rel=0.01)


#: Shapes for the ARD model checks.  The factor builds ``E_loc`` with
#: the lockstep kernel everywhere; per right-hand-side batch,
#: (512, 8, 2, 8) has 256 rows per rank and an 8-column panel on the
#: band solve, and (1024, 8, 2, 16), the ``ard_stream`` benchmark
#: shape, 512 rows and a 16-column panel on the lockstep kernel.
ARD_MODEL_SHAPES = [(64, 4, 4, 8), (96, 8, 8, 4), (512, 8, 2, 8),
                    (1024, 8, 2, 16)]


class TestModelVsInstrumented:
    @pytest.mark.parametrize("n,m,p,r", ARD_MODEL_SHAPES)
    def test_ard_factor_within_10pct(self, n, m, p, r):
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=p)
        measured = max(s.flops for s in fact.factor_result.stats)
        predicted = predict_flops("ard_factor", n=n, m=m, p=p)
        assert measured / predicted == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("n,m,p,r", ARD_MODEL_SHAPES)
    def test_ard_solve_within_10pct(self, n, m, p, r):
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=p)
        fact.solve(random_rhs(n, m, r, seed=0))
        measured = max(s.flops for s in fact.last_solve_result.stats)
        predicted = predict_flops("ard_solve", n=n, m=m, p=p, r=r)
        assert measured / predicted == pytest.approx(1.0, abs=0.1)

    def test_rd_within_10pct(self):
        n, m, p, r = 64, 4, 4, 4
        mat, _ = helmholtz_block_system(n, m)
        chunks = distribute_matrix(mat, p)
        d = distribute_rhs(random_rhs(n, m, r, seed=1), p)
        res = run_spmd(
            rd_solve_spmd, p, rank_args=[(c, dd) for c, dd in zip(chunks, d)]
        )
        measured = max(s.flops for s in res.stats)
        predicted = predict_flops("rd", n=n, m=m, p=p, r=r)
        assert measured / predicted == pytest.approx(1.0, abs=0.1)

    def test_thomas_within_5pct(self):
        n, m, r = 64, 6, 8
        mat, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=2)
        with config_context(flop_counting=True), counting_flops() as fc:
            ThomasFactorization(mat).solve(b)
        assert fc.total / predict_flops("thomas", n=n, m=m, r=r) == pytest.approx(
            1.0, abs=0.05
        )

    def test_cyclic_within_10pct(self):
        n, m, r = 64, 6, 8
        mat, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=3)
        with config_context(flop_counting=True), counting_flops() as fc:
            CyclicReductionFactorization(mat).solve(b)
        assert fc.total / predict_flops("cyclic", n=n, m=m, r=r) == pytest.approx(
            1.0, abs=0.1
        )

    def test_predicted_time_brackets_virtual_time(self):
        n, m, p, r = 128, 8, 8, 16
        mat, _ = helmholtz_block_system(n, m)
        fact = ARDFactorization(mat, nranks=p, cost_model=PAPER_ERA_MODEL)
        fact.solve(random_rhs(n, m, r, seed=4))
        measured = (
            fact.factor_result.virtual_time + fact.last_solve_result.virtual_time
        )
        predicted = predict_time("ard", n=n, m=m, p=p, r=r,
                                 cost_model=PAPER_ERA_MODEL)
        assert 0.3 * predicted < measured < 1.7 * predicted


class TestCalibration:
    def test_flop_rate_sane(self):
        rate = calibrate_flop_rate(m=96, reps=2)
        assert 1e7 < rate < 1e13  # any real machine lands here

    def test_calibrated_model(self):
        cm = calibrated_cost_model(m=96, reps=2)
        assert isinstance(cm, CostModel)
        assert cm.latency == PAPER_ERA_MODEL.latency

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_flop_rate(m=1)


class TestMachineCalibration:
    """The measured-machine snapshot: round-trip, schema gating, and
    the acceptance criterion that a loaded calibration actually changes
    the predictor's answer (it is consumed, not just parsed)."""

    @pytest.fixture(scope="class")
    def calib(self):
        from repro.perfmodel import calibrate_machine

        # Tiny shape: the test cares about plumbing, not rate accuracy.
        return calibrate_machine(block_size=8, batch=4, reps=1)

    def test_rates_sane(self, calib):
        assert 1e5 < calib.gemm_flop_rate < 1e14
        assert 1e5 < calib.lu_flop_rate < 1e14
        assert 1e5 < calib.trsm_flop_rate < 1e14
        assert calib.copy_bandwidth > 1e5
        assert 0.0 < calib.latency < 1.0
        assert calib.peak_flop_rate() == max(
            calib.gemm_flop_rate, calib.lu_flop_rate, calib.trsm_flop_rate)

    def test_save_load_round_trip(self, calib, tmp_path):
        from repro.perfmodel import load_calibration, save_calibration

        path = save_calibration(calib, tmp_path / "CALIB_machine.json")
        assert load_calibration(path) == calib

    def test_missing_file_raises(self, tmp_path):
        from repro.perfmodel import load_calibration

        with pytest.raises(ConfigError, match="--calibrate"):
            load_calibration(tmp_path / "nope.json")

    def test_unsupported_schema_version_rejected(self, calib, tmp_path):
        import json

        from repro.perfmodel import load_calibration, save_calibration

        path = save_calibration(calib, tmp_path / "CALIB_machine.json")
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="schema_version"):
            load_calibration(path)

    def test_cost_model_uses_measured_rates(self, calib):
        cm = calib.cost_model()
        assert cm.flop_rate == calib.gemm_flop_rate
        assert cm.inv_bandwidth == pytest.approx(1.0 / calib.copy_bandwidth)
        assert cm.latency == calib.latency
        assert cm.overhead == PAPER_ERA_MODEL.overhead

    def test_predict_time_consumes_calibration(self, calib, tmp_path):
        """Acceptance criterion: a prediction made against the written
        calibration file differs from the hard-coded default, and the
        path and in-memory forms agree."""
        from repro.perfmodel import save_calibration

        kwargs = dict(n=256, m=8, p=8, r=32)
        default = predict_time("ard", **kwargs)
        via_object = predict_time("ard", calibration=calib, **kwargs)
        path = save_calibration(calib, tmp_path / "CALIB_machine.json")
        via_path = predict_time("ard", calibration=path, **kwargs)
        assert via_path == via_object
        assert via_object != default
        assert via_object > 0.0

    def test_calibration_cost_model_helper(self, calib, tmp_path):
        from repro.perfmodel import calibration_cost_model, save_calibration

        path = save_calibration(calib, tmp_path / "CALIB_machine.json")
        cm = calibration_cost_model(path)
        assert isinstance(cm, CostModel)
        assert cm.flop_rate == calib.gemm_flop_rate
