"""Analytic complexity/time models and host calibration."""

from .complexity import (
    AlgorithmCost,
    PhaseCost,
    ard_factor_cost,
    ard_solve_cost,
    bcr_parallel_cost,
    cyclic_factor_cost,
    cyclic_solve_cost,
    rd_cost,
    speedup_model,
    spike_factor_cost,
    spike_solve_cost,
    thomas_factor_cost,
    thomas_solve_cost,
)
from .calibrate import (
    CALIB_SCHEMA_VERSION,
    DEFAULT_CALIB_PATH,
    MachineCalibration,
    calibrate_machine,
    load_calibration,
    save_calibration,
)
from .machine import (
    DEFAULT_COST_MODEL,
    PAPER_ERA_MODEL,
    calibrate_flop_rate,
    calibrated_cost_model,
    calibration_cost_model,
)
from .planner import Plan, plan
from .predictor import PREDICTABLE_METHODS, predict_cost, predict_flops, predict_time
from .scaling import (
    ard_breakeven_r,
    efficiency,
    isoefficiency_n,
    sequential_time,
    speedup,
)

__all__ = [
    "AlgorithmCost",
    "PhaseCost",
    "ard_factor_cost",
    "ard_solve_cost",
    "bcr_parallel_cost",
    "cyclic_factor_cost",
    "cyclic_solve_cost",
    "rd_cost",
    "speedup_model",
    "spike_factor_cost",
    "spike_solve_cost",
    "thomas_factor_cost",
    "thomas_solve_cost",
    "CALIB_SCHEMA_VERSION",
    "DEFAULT_CALIB_PATH",
    "MachineCalibration",
    "calibrate_machine",
    "load_calibration",
    "save_calibration",
    "DEFAULT_COST_MODEL",
    "PAPER_ERA_MODEL",
    "calibrate_flop_rate",
    "calibrated_cost_model",
    "calibration_cost_model",
    "Plan",
    "plan",
    "PREDICTABLE_METHODS",
    "predict_cost",
    "predict_flops",
    "predict_time",
    "ard_breakeven_r",
    "efficiency",
    "isoefficiency_n",
    "sequential_time",
    "speedup",
]
