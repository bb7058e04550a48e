"""Experiment harness: regenerates every table/figure in EXPERIMENTS.md."""

from .experiments import (
    EXPERIMENTS,
    Experiment,
    ExperimentResult,
    collecting_sim_stats,
    get_experiment,
)
from .runner import run_all, run_experiment, trace_experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "collecting_sim_stats",
    "get_experiment",
    "run_all",
    "run_experiment",
    "trace_experiment",
]
