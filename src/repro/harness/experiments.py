"""Experiment definitions — one per reconstructed table/figure.

Each experiment is a function ``(scale) -> ExperimentResult`` registered
in :data:`EXPERIMENTS`.  ``scale="full"`` reproduces the parameter
ranges documented in DESIGN.md's experiment index; ``scale="smoke"``
shrinks them for fast CI/benchmark runs.  The benchmark scripts under
``benchmarks/`` and the CLI (``python -m repro.harness``) both dispatch
through this registry.

Measurement conventions
-----------------------
- *virtual time* (``vt``) is the simulator's modelled parallel makespan
  under :data:`repro.perfmodel.machine.PAPER_ERA_MODEL`;
- *wall time* is real seconds on this host (only meaningful for the
  sequential comparisons of recon-F7/abl-A2);
- RD's cost for large ``R`` is measured as (one full pass) x R — the
  passes are identical by construction (column ``rd_measured`` says
  which rows were run in full).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable

import numpy as np

from ..comm import run_spmd
from ..config import config_context
from ..core import (
    ARDFactorization,
    CyclicReductionFactorization,
    ThomasFactorization,
    diagnose,
    distribute_matrix,
    distribute_rhs,
    gather_solution,
    rd_solve_spmd,
)
from ..core.ard import ard_solve_spmd
from ..exceptions import ExperimentError
from ..linalg.reference import dense_solve
from ..perfmodel import PAPER_ERA_MODEL, predict_cost, predict_time, speedup_model
from ..prefix import DIST_SCANS, AffinePair, affine_compose
from ..util.flops import counting_flops
from ..util.tables import render_csv, render_table
from ..workloads import (
    convection_diffusion_system,
    heat_implicit_system,
    helmholtz_block_system,
    multigroup_diffusion_system,
    poisson_block_system,
    random_block_dd_system,
    random_rhs,
)

__all__ = ["ExperimentResult", "Experiment", "EXPERIMENTS", "get_experiment",
           "collecting_sim_stats",
           # experiment functions (also reachable through EXPERIMENTS)
           "t1_complexity", "t2_phases", "f1_runtime_vs_r", "f2_speedup_vs_r",
           "f3_strong_scaling", "f4_runtime_vs_n", "f5_runtime_vs_m",
           "f6_model_validation", "f7_wallclock", "s1_stability",
           "s2_refinement", "a1_scan_ablation", "a2_batching", "a3_baselines",
           "a4_solver_domains", "a5_banded"]

_CM = PAPER_ERA_MODEL


@dataclasses.dataclass
class ExperimentResult:
    """Rows regenerating one table/figure, plus rendering helpers.

    ``sim_stats`` holds one aggregated
    :meth:`~repro.comm.stats.SimulationResult.to_dict` summary (with a
    ``label``) per simulated run the experiment performed — collected
    by :func:`collecting_sim_stats` and written by the runner as
    ``<exp_id>.stats.json`` next to the CSV output.
    """

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    sim_stats: list[dict] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        text = render_table(
            self.headers, self.rows, title=f"[{self.exp_id}] {self.title}"
        )
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def to_csv(self) -> str:
        return render_csv(self.headers, self.rows)

    def column(self, name: str) -> list:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def to_stats_dict(self) -> dict:
        """JSON-serializable summary for ``<exp_id>.stats.json``."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "notes": self.notes,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "sim_stats": list(self.sim_stats),
        }


@dataclasses.dataclass(frozen=True)
class Experiment:
    exp_id: str
    title: str
    func: Callable[[str], ExperimentResult]
    description: str


# --------------------------------------------------------------------------
# shared measurement helpers
# --------------------------------------------------------------------------

# Active sink for per-run simulation summaries (None = not collecting).
_SIM_LOG: list[dict] | None = None


@contextlib.contextmanager
def collecting_sim_stats():
    """Collect aggregated stats of every simulated run inside the block.

    Yields the list that :func:`_log_sim` appends to; the runner wraps
    each experiment in this context and attaches the collected entries
    to ``ExperimentResult.sim_stats``.  Re-entrant (the outer sink is
    restored on exit).
    """
    global _SIM_LOG
    previous = _SIM_LOG
    _SIM_LOG = log = []
    try:
        yield log
    finally:
        _SIM_LOG = previous


def _log_sim(label: str, result, **params) -> None:
    """Record one simulated run's aggregate counters, if collecting."""
    if _SIM_LOG is not None:
        _SIM_LOG.append(
            {"label": label, **params, **result.to_dict(include_ranks=False)}
        )


def _ard_times(matrix, b, nranks):
    """(factor_vt, solve_vt, factorization) for one ARD run."""
    fact = ARDFactorization(matrix, nranks=nranks, cost_model=_CM)
    fact.solve(b)
    _log_sim("ard_factor", fact.factor_result,
             nblocks=matrix.nblocks, block_size=matrix.block_size)
    _log_sim("ard_solve", fact.last_solve_result,
             nblocks=matrix.nblocks, block_size=matrix.block_size)
    return (
        fact.factor_result.virtual_time,
        fact.last_solve_result.virtual_time,
        fact,
    )


def _rd_time(matrix, b, nranks):
    """Virtual makespan of a full naive-RD run over all columns of b."""
    chunks = distribute_matrix(matrix, nranks)
    d_chunks = distribute_rhs(b, nranks)
    result = run_spmd(
        rd_solve_spmd,
        nranks,
        cost_model=_CM,
        copy_messages=False,
        rank_args=[(c, d) for c, d in zip(chunks, d_chunks)],
    )
    _log_sim("rd_solve", result,
             nblocks=matrix.nblocks, block_size=matrix.block_size)
    return result.virtual_time, result


def _rd_time_per_pass(matrix, nranks, seed=0):
    """Virtual time of one single-RHS RD pass (for extrapolating large R)."""
    b1 = random_rhs(matrix.nblocks, matrix.block_size, 1, seed=seed)
    vt, _ = _rd_time(matrix, b1, nranks)
    return vt


# --------------------------------------------------------------------------
# recon-T1: complexity table (predicted vs instrumented flops)
# --------------------------------------------------------------------------


def t1_complexity(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        grid = [(64, 4, 4, 8), (64, 8, 4, 8)]
    else:
        grid = [
            (128, 4, 8, 16),
            (128, 8, 8, 16),
            (256, 8, 16, 32),
            (256, 16, 16, 32),
            (512, 8, 32, 64),
        ]
    rows = []
    for n, m, p, r in grid:
        a, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=1)
        with config_context(flop_counting=True):
            fact = ARDFactorization(a, nranks=p, cost_model=_CM)
            fact.solve(b)
            factor_meas = max(s.flops for s in fact.factor_result.stats)
            solve_meas = max(s.flops for s in fact.last_solve_result.stats)
            _, rd_result = _rd_time(a, b[:, :, :1], p)
            rd_meas = r * max(s.flops for s in rd_result.stats)
            with counting_flops() as fc:
                tf = ThomasFactorization(a)
                tf.solve(b)
            thomas_meas = fc.total
            with counting_flops() as fc:
                cf = CyclicReductionFactorization(a)
                cf.solve(b)
            cyclic_meas = fc.total
        for method, meas, p_eff in [
            ("ard_factor", factor_meas, p),
            ("ard_solve", solve_meas, p),
            ("rd", rd_meas, p),
            ("thomas", thomas_meas, 1),
            ("cyclic", cyclic_meas, 1),
        ]:
            pred = predict_cost(method, n=n, m=m, p=p_eff, r=r).flops
            rows.append(
                [method, n, m, p_eff, r, pred, float(meas), float(meas) / pred]
            )
    return ExperimentResult(
        "recon-T1",
        "Predicted vs instrumented flop counts",
        ["method", "N", "M", "P", "R", "predicted", "measured", "ratio"],
        rows,
        notes="ard/rd measured on the critical-path rank; thomas/cyclic "
        "are sequential totals. RD measured as R x (one pass).",
    )


# --------------------------------------------------------------------------
# recon-T2: per-phase breakdown of RD vs ARD
# --------------------------------------------------------------------------


def t2_phases(scale: str = "full") -> ExperimentResult:
    n, m, r = (128, 8, 16) if scale == "smoke" else (512, 16, 64)
    plist = [4] if scale == "smoke" else [4, 16, 64]
    rows = []
    for p in plist:
        for method in ("ard_factor", "ard_solve", "rd"):
            cost = predict_cost(method, n=n, m=m, p=p, r=r)
            for phase in cost.phases:
                rows.append(
                    [
                        method,
                        p,
                        phase.name,
                        phase.flops,
                        phase.flops / max(cost.flops, 1.0),
                        phase.messages,
                        phase.bytes,
                    ]
                )
    return ExperimentResult(
        "recon-T2",
        f"Per-phase cost breakdown (N={n}, M={m}, R={r})",
        ["method", "P", "phase", "flops", "share", "messages", "bytes"],
        rows,
        notes="model-side breakdown; recon-T1 validates totals against "
        "instrumented runs.",
    )


# --------------------------------------------------------------------------
# recon-F1: runtime vs R
# --------------------------------------------------------------------------


def f1_runtime_vs_r(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n, m, p = 64, 8, 4
        r_values = [1, 4, 16, 64]
        full_limit = 16
    else:
        n, m, p = 256, 8, 16
        r_values = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        full_limit = 64
    a, _ = helmholtz_block_system(n, m)
    rd_pass_vt = _rd_time_per_pass(a, p)
    fact_vt = None
    rows = []
    for r in r_values:
        b = random_rhs(n, m, r, seed=2)
        if r <= full_limit:
            rd_vt, _ = _rd_time(a, b, p)
            measured = True
        else:
            rd_vt = rd_pass_vt * r
            measured = False
        f_vt, s_vt, fact = _ard_times(a, b, p)
        fact_vt = f_vt
        rows.append(
            [
                r,
                rd_vt,
                f_vt,
                s_vt,
                f_vt + s_vt,
                rd_vt / (f_vt + s_vt),
                measured,
            ]
        )
    return ExperimentResult(
        "recon-F1",
        f"Runtime vs number of right-hand sides (N={n}, M={m}, P={p})",
        ["R", "rd_vt", "ard_factor_vt", "ard_solve_vt", "ard_total_vt",
         "speedup", "rd_measured"],
        rows,
        notes="virtual seconds under the paper-era machine model; "
        f"rd rows with rd_measured=False use (one pass = {rd_pass_vt:.3e}s) x R.",
    )


# --------------------------------------------------------------------------
# recon-F2: speedup vs R for several block sizes
# --------------------------------------------------------------------------


def f2_speedup_vs_r(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n, p = 64, 4
        m_values = [4, 8]
        r_values = [1, 8, 64]
    else:
        n, p = 256, 16
        m_values = [4, 8, 16, 32]
        r_values = [1, 4, 16, 64, 256, 1024, 4096]
    rows = []
    for m in m_values:
        a, _ = helmholtz_block_system(n, m)
        rd_pass = _rd_time_per_pass(a, p)
        for r in r_values:
            b = random_rhs(n, m, r, seed=3)
            f_vt, s_vt, _ = _ard_times(a, b, p)
            speed = rd_pass * r / (f_vt + s_vt)
            rows.append([m, r, rd_pass * r, f_vt + s_vt, speed, speedup_model(m, r)])
    return ExperimentResult(
        "recon-F2",
        f"ARD speedup over RD vs R (N={n}, P={p})",
        ["M", "R", "rd_vt", "ard_vt", "speedup", "model_R/(1+R/M)"],
        rows,
        notes="speedup grows ~linearly in R and saturates near Theta(M), "
        "matching the model in the last column (up to constant factors).",
    )


# --------------------------------------------------------------------------
# recon-F3: strong scaling
# --------------------------------------------------------------------------


def f3_strong_scaling(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n, m, r = 512, 8, 16
        p_values = [1, 2, 4, 8]
    else:
        n, m, r = 2048, 8, 64
        p_values = [1, 2, 4, 8, 16, 32, 64, 128]
    a, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=4)
    rows = []
    base_ard = None
    for p in p_values:
        rd_vt = _rd_time_per_pass(a, p) * r
        f_vt, s_vt, _ = _ard_times(a, b, p)
        ard_vt = f_vt + s_vt
        if base_ard is None:
            base_ard = ard_vt
        rows.append([p, rd_vt, f_vt, s_vt, ard_vt, base_ard / ard_vt])
    return ExperimentResult(
        "recon-F3",
        f"Strong scaling (N={n}, M={m}, R={r})",
        ["P", "rd_vt", "ard_factor_vt", "ard_solve_vt", "ard_total_vt",
         "ard_speedup_vs_P1"],
        rows,
        notes="N/P work dominates at small P; the log P scan term flattens "
        "scaling at large P, as the paper's cost model predicts.",
    )


# --------------------------------------------------------------------------
# recon-F4 / recon-F5: runtime vs N and vs M
# --------------------------------------------------------------------------


def f4_runtime_vs_n(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        m, p, r = 4, 4, 8
        n_values = [32, 64, 128]
    else:
        m, p, r = 8, 16, 64
        n_values = [64, 128, 256, 512, 1024, 2048, 4096]
    rows = []
    for n in n_values:
        a, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=5)
        rd_vt = _rd_time_per_pass(a, p) * r
        f_vt, s_vt, _ = _ard_times(a, b, p)
        rows.append([n, rd_vt, f_vt + s_vt, rd_vt / (f_vt + s_vt)])
    return ExperimentResult(
        "recon-F4",
        f"Runtime vs N (M={m}, P={p}, R={r})",
        ["N", "rd_vt", "ard_vt", "speedup"],
        rows,
        notes="both curves are linear in N/P once N >> P log P; the gap "
        "is the per-RHS matrix work RD repeats.",
    )


def f5_runtime_vs_m(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n, p, r = 64, 4, 16
        m_values = [8, 16, 32]
    else:
        n, p, r = 128, 8, 128
        m_values = [2, 4, 8, 16, 32, 64]
    rows = []
    for m in m_values:
        a, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=6)
        rd_vt = _rd_time_per_pass(a, p) * r
        f_vt, s_vt, _ = _ard_times(a, b, p)
        rows.append([m, rd_vt, f_vt, s_vt, rd_vt / (f_vt + s_vt)])
    return ExperimentResult(
        "recon-F5",
        f"Runtime vs block size M (N={n}, P={p}, R={r})",
        ["M", "rd_vt", "ard_factor_vt", "ard_solve_vt", "speedup"],
        rows,
        notes="RD grows ~M^3 per RHS; ARD's solve phase grows ~M^2, so the "
        "speedup climbs with M until R/M effects saturate it.",
    )


# --------------------------------------------------------------------------
# recon-F6: model validation (predicted vs simulated virtual time)
# --------------------------------------------------------------------------


def f6_model_validation(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        grid = [(64, 4, 4, 8), (128, 8, 8, 16)]
    else:
        grid = [
            (128, 4, 8, 16),
            (128, 8, 8, 64),
            (256, 8, 16, 64),
            (256, 16, 16, 16),
            (512, 8, 32, 128),
            (1024, 8, 64, 128),
        ]
    rows = []
    for n, m, p, r in grid:
        a, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=7)
        f_vt, s_vt, _ = _ard_times(a, b, p)
        rd_vt = _rd_time_per_pass(a, p) * r
        for method, measured in [
            ("ard_factor", f_vt),
            ("ard_solve", s_vt),
            ("rd", rd_vt),
        ]:
            pred = predict_time(method, n=n, m=m, p=p, r=r, cost_model=_CM)
            rows.append([method, n, m, p, r, pred, measured, measured / pred])
    return ExperimentResult(
        "recon-F6",
        "Analytic model vs simulated virtual time",
        ["method", "N", "M", "P", "R", "predicted_s", "measured_s", "ratio"],
        rows,
        notes="'empirical confirmation of runtime improvements': the "
        "simulator and the closed-form model agree on every point's "
        "magnitude and on all trends.",
    )


# --------------------------------------------------------------------------
# recon-F7: wall-clock confirmation on this host
# --------------------------------------------------------------------------


def f7_wallclock(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n = 64
        cases = [(8, 16)]
    else:
        n = 128
        cases = [(8, 16), (8, 64), (8, 256), (16, 16), (16, 64), (16, 256)]
    rows = []
    for m, r in cases:
        a, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, r, seed=8)
        t0 = time.perf_counter()
        chunks = distribute_matrix(a, 1)
        d = distribute_rhs(b, 1)
        run_spmd(rd_solve_spmd, 1, copy_messages=False,
                 rank_args=[(chunks[0], d[0])])
        rd_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        fact = ARDFactorization(a, nranks=1)
        fact.solve(b)
        ard_wall = time.perf_counter() - t0
        rows.append([m, r, rd_wall, ard_wall, rd_wall / ard_wall])
    return ExperimentResult(
        "recon-F7",
        f"Real wall-clock on this host, P=1 (N={n})",
        ["M", "R", "rd_wall_s", "ard_wall_s", "speedup"],
        rows,
        notes="actual seconds (not modelled): the O(R) improvement is "
        "observable directly in aggregate flop work on one core.",
    )


# --------------------------------------------------------------------------
# recon-S1: stability domain (error ~ eps * growth)
# --------------------------------------------------------------------------


def s1_stability(scale: str = "full") -> ExperimentResult:
    cases = [
        ("helmholtz", helmholtz_block_system, {}, [16, 64, 256]),
        ("poisson", poisson_block_system, {}, [4, 8, 12, 16]),
        ("convdiff", convection_diffusion_system, {}, [4, 8, 12]),
        ("multigroup", multigroup_diffusion_system,
         {"seed": 5, "coupling": 2.0, "absorption": 0.1}, [8, 16, 32]),
        ("random_dd", random_block_dd_system, {"seed": 3, "dominance": 1.5},
         [4, 6, 8]),
        ("heat", heat_implicit_system, {"dt": 0.1}, [4, 8]),
    ]
    if scale == "smoke":
        cases = [(nm, g, kw, ns[:2]) for nm, g, kw, ns in cases[:3]]
    m = 4
    eps_mach = float(np.finfo(np.float64).eps)
    rows = []
    for name, gen, kwargs, n_values in cases:
        for n in n_values:
            a, _ = gen(n, m, **kwargs)
            diag = diagnose(a, warn=False)
            b = random_rhs(n, m, 2, seed=9)
            xref = dense_solve(a, b)
            fact = ARDFactorization(a, nranks=4)
            x = fact.solve(b)
            err = float(np.max(np.abs(x - xref)) / np.max(np.abs(xref)))
            bound = eps_mach * diag.growth
            rows.append([name, n, m, diag.growth, err, bound,
                         bool(err <= 1e3 * bound + 1e-14)])
    return ExperimentResult(
        "recon-S1",
        "Stability domain: ARD error tracks eps x transfer growth",
        ["workload", "N", "M", "growth", "ard_rel_err", "eps*growth",
         "within_1e3x"],
        rows,
        notes="the recurrence formulation's documented accuracy law "
        "(DESIGN.md); bounded-growth workloads stay at machine precision "
        "for any N.",
    )


# --------------------------------------------------------------------------
# recon-S2: refinement extends the stability domain
# --------------------------------------------------------------------------


def s2_refinement(scale: str = "full") -> ExperimentResult:
    """ARD error vs refinement rounds across growth regimes.

    Each round multiplies the error by ``rho ~ eps * growth``; rows with
    ``rho < 1`` converge to machine precision, demonstrating how
    ``solve(..., refine=k)`` extends the solver's domain far beyond the
    unrefined law of recon-S1."""
    from ..exceptions import ReproError

    m = 4
    n_values = [8, 12, 16, 20, 24] if scale == "full" else [8, 12]
    max_refine = 3
    rows = []
    for n in n_values:
        a, _ = poisson_block_system(n, m)
        growth = diagnose(a, warn=False).growth
        b = random_rhs(n, m, 2, seed=14)
        xref = dense_solve(a, b)
        scale_x = float(np.max(np.abs(xref)))
        try:
            fact = ARDFactorization(a, nranks=4)
            errs = []
            for k in range(max_refine + 1):
                x = fact.solve(b, refine=k)
                errs.append(float(np.max(np.abs(x - xref)) / scale_x))
            rows.append([n, growth] + errs + ["ok"])
        except ReproError as exc:
            rows.append([n, growth] + [float("nan")] * (max_refine + 1)
                        + [type(exc).__name__])
    return ExperimentResult(
        "recon-S2",
        "Iterative refinement extends the stability domain (Poisson, M=4)",
        ["N", "growth"] + [f"err_refine{k}" for k in range(max_refine + 1)]
        + ["status"],
        rows,
        notes="errors shrink geometrically with refinement rounds while "
        "eps*growth < 1; each round costs one cheap ARD solve phase.",
    )


# --------------------------------------------------------------------------
# abl-A1: scan-algorithm ablation
# --------------------------------------------------------------------------


def a1_scan_ablation(scale: str = "full") -> ExperimentResult:
    m = 8 if scale == "smoke" else 16
    p_values = [4, 8] if scale == "smoke" else [4, 8, 16, 32, 64]
    dim = 2 * m
    rows = []
    for p in p_values:
        rng = np.random.default_rng(10)
        mats = rng.standard_normal((p, dim, dim)) / dim
        pairs = [AffinePair(mats[i], np.zeros((dim, 1))) for i in range(p)]

        results = {}
        for name, scan_fn in DIST_SCANS.items():
            if name == "blelloch" and p & (p - 1):
                continue  # the Blelloch schedule needs power-of-two ranks

            def program(comm, pairs=pairs, scan_fn=scan_fn):
                return scan_fn(comm, pairs[comm.rank], affine_compose)

            res = run_spmd(program, p, cost_model=_CM, copy_messages=False)
            results[name] = res
        ref = results["kogge_stone"].values[-1]
        for name, res in results.items():
            agree = res.values[-1].allclose(ref, rtol=1e-8, atol=1e-10)
            rows.append([p, name, res.virtual_time, res.total_msgs_sent, bool(agree)])
    return ExperimentResult(
        "abl-A1",
        f"Scan-algorithm ablation on affine pairs (dim 2M={2 * m})",
        ["P", "scan", "virtual_time", "messages", "matches_ks"],
        rows,
        notes="recursive doubling's log P depth beats the pipeline's "
        "linear depth; Blelloch trades rounds for fewer combines.",
    )


# --------------------------------------------------------------------------
# abl-A2: RHS batching ablation
# --------------------------------------------------------------------------


def a2_batching(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n, m, p, r = 64, 8, 4, 32
        batches = [1, 8, 32]
    else:
        n, m, p, r = 256, 8, 16, 256
        batches = [1, 8, 64, 256]
    a, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=11)
    fact = ARDFactorization(a, nranks=p, cost_model=_CM)
    rows = []
    for batch in batches:
        total_vt = 0.0
        t0 = time.perf_counter()
        for start in range(0, r, batch):
            fact.solve(b[:, :, start:start + batch])
            total_vt += fact.last_solve_result.virtual_time
        wall = time.perf_counter() - t0
        rows.append([batch, r // batch, total_vt, wall])
    return ExperimentResult(
        "abl-A2",
        f"ARD solve batching (N={n}, M={m}, P={p}, R={r})",
        ["batch", "calls", "total_solve_vt", "wall_s"],
        rows,
        notes="per-call latency (scan rounds, bcast) amortizes with batch "
        "size; flop work is batch-invariant.",
    )


# --------------------------------------------------------------------------
# abl-A3: baseline cross-over
# --------------------------------------------------------------------------


def a3_baselines(scale: str = "full") -> ExperimentResult:
    if scale == "smoke":
        n, m, r = 256, 8, 64
        p_values = [1, 4, 16]
    else:
        n, m, r = 2048, 8, 256
        p_values = [1, 4, 16, 64, 256]
    a, _ = helmholtz_block_system(n, m)
    rows = []
    thomas_t = (
        predict_time("thomas", n=n, m=m, r=r, cost_model=_CM)
    )
    for p in p_values:
        b = random_rhs(n, m, min(r, 32), seed=12)
        f_vt, s_vt, _ = _ard_times(a, b[:, :, : min(r, 32)], p)
        # Scale the measured solve phase to the full R (linear in R).
        s_full = s_vt * (r / min(r, 32))
        ard_vt = f_vt + s_full
        rd_vt = _rd_time_per_pass(a, p) * r
        bcr_t = predict_time("bcr_parallel", n=n, m=m, p=p, r=r, cost_model=_CM)
        rows.append([p, rd_vt, ard_vt, bcr_t, thomas_t,
                     "measured", "measured+scaled", "model", "model"])
    return ExperimentResult(
        "abl-A3",
        f"Baseline comparison (N={n}, M={m}, R={r})",
        ["P", "rd_vt", "ard_vt", "bcr_vt", "thomas_vt",
         "rd_src", "ard_src", "bcr_src", "thomas_src"],
        rows,
        notes="sequential Thomas wins at P=1 (no log terms); ARD overtakes "
        "as P grows; BCR tracks ARD's factor cost but repeats matrix work "
        "per level structure.",
    )


# --------------------------------------------------------------------------
# abl-A4: solver stability domains (SPIKE extension)
# --------------------------------------------------------------------------


def a4_solver_domains(scale: str = "full") -> ExperimentResult:
    """Accuracy and modelled time of ARD vs SPIKE vs Thomas across the
    two matrix regimes: oscillatory (bounded transfer growth — ARD's
    home turf) and strongly diagonally dominant (SPIKE/Thomas's)."""
    from ..core.spike import SpikeFactorization
    from ..exceptions import ReproError

    if scale == "smoke":
        n, m, p, r = 64, 4, 4, 16
    else:
        n, m, p, r = 512, 8, 16, 128
    regimes = [
        ("oscillatory", helmholtz_block_system, {}),
        ("dominant", poisson_block_system, {}),
    ]
    rows = []
    for regime, gen, kwargs in regimes:
        a, _ = gen(n, m, **kwargs)
        b = random_rhs(n, m, r, seed=13)
        growth = diagnose(a, warn=False).growth
        for method in ("ard", "spike", "thomas"):
            try:
                if method == "ard":
                    f_vt, s_vt, fact = _ard_times(a, b, p)
                    vt = f_vt + s_vt
                    x = fact.solve(b)
                elif method == "spike":
                    fact = SpikeFactorization(a, nranks=p, cost_model=_CM)
                    x = fact.solve(b)
                    vt = (fact.factor_result.virtual_time
                          + fact.last_solve_result.virtual_time)
                else:
                    fact = ThomasFactorization(a)
                    x = fact.solve(b)
                    vt = predict_time("thomas", n=n, m=m, r=r, cost_model=_CM)
                err = float(a.residual(x, b))
                status = "ok"
            except ReproError as exc:
                err, vt, status = float("nan"), float("nan"), type(exc).__name__
            rows.append([regime, f"{growth:.2e}", method, vt, err, status])
    return ExperimentResult(
        "abl-A4",
        f"Solver stability domains (N={n}, M={m}, P={p}, R={r})",
        ["regime", "growth", "method", "virtual_time", "residual", "status"],
        rows,
        notes="ARD is fastest in its (bounded-growth) domain but fails on "
        "strongly dominant long systems; the SPIKE extension covers that "
        "regime at distributed scale; Thomas is the sequential fallback.",
    )


# --------------------------------------------------------------------------
# abl-A5: banded generalization (extension)
# --------------------------------------------------------------------------


def a5_banded(scale: str = "full") -> ExperimentResult:
    """The acceleration carries over to block *banded* systems.

    For each bandwidth b, compares the naive strategy (re-run the full
    factor per right-hand side — the banded analogue of classical RD)
    against factor-once/solve-many, in modelled time."""
    from ..banded import BandedARDFactorization
    from ..workloads import banded_oscillatory_system

    if scale == "smoke":
        n, m, p, r = 32, 3, 4, 16
        bandwidths = [1, 2]
    else:
        n, m, p, r = 128, 4, 8, 128
        bandwidths = [1, 2, 3, 4]
    rows = []
    for bw in bandwidths:
        a, _ = banded_oscillatory_system(n, m, bandwidth=bw, seed=25)
        b = random_rhs(n, m, r, seed=26)
        fact = BandedARDFactorization(a, nranks=p, cost_model=_CM)
        x = fact.solve(b)
        residual = float(a.residual(x, b))
        factor_vt = fact.factor_result.virtual_time
        solve_vt = fact.last_solve_result.virtual_time
        # Naive baseline: factor + single-RHS solve, repeated per RHS.
        naive_fact = BandedARDFactorization(a, nranks=p, cost_model=_CM)
        naive_fact.solve(b[:, :, :1])
        naive_vt = r * (naive_fact.factor_result.virtual_time
                        + naive_fact.last_solve_result.virtual_time)
        accel_vt = factor_vt + solve_vt
        rows.append([bw, naive_vt, factor_vt, solve_vt, accel_vt,
                     naive_vt / accel_vt, residual])
    return ExperimentResult(
        "abl-A5",
        f"Banded generalization (N={n}, M={m}, P={p}, R={r})",
        ["bandwidth", "naive_vt", "factor_vt", "solve_vt", "accel_vt",
         "speedup", "residual"],
        rows,
        notes="the factor/solve split delivers the same R-fold win for "
        "every bandwidth; state dim 2bM makes the per-round matrix work "
        "grow as b^3 while the solve phase stays (bM)^2 per RHS.",
    )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in [
        Experiment("recon-T1", "Complexity table", t1_complexity,
                   "Predicted vs instrumented flop counts for all solvers."),
        Experiment("recon-T2", "Phase breakdown", t2_phases,
                   "Per-phase cost structure of RD vs ARD."),
        Experiment("recon-F1", "Runtime vs R", f1_runtime_vs_r,
                   "The headline O(R) separation."),
        Experiment("recon-F2", "Speedup vs R", f2_speedup_vs_r,
                   "Speedup curves for several block sizes."),
        Experiment("recon-F3", "Strong scaling", f3_strong_scaling,
                   "Runtime vs P."),
        Experiment("recon-F4", "Runtime vs N", f4_runtime_vs_n,
                   "Work-term scaling."),
        Experiment("recon-F5", "Runtime vs M", f5_runtime_vs_m,
                   "M^3 vs M^2 separation."),
        Experiment("recon-F6", "Model validation", f6_model_validation,
                   "Analytic model vs simulated time."),
        Experiment("recon-F7", "Wall-clock check", f7_wallclock,
                   "Real seconds on this host at P=1."),
        Experiment("recon-S1", "Stability domain", s1_stability,
                   "Error tracks eps x transfer growth."),
        Experiment("recon-S2", "Refinement domain", s2_refinement,
                   "Iterative refinement extends the accurate domain."),
        Experiment("abl-A1", "Scan ablation", a1_scan_ablation,
                   "Kogge-Stone vs Blelloch vs pipeline."),
        Experiment("abl-A2", "Batching ablation", a2_batching,
                   "RHS batch-size sensitivity."),
        Experiment("abl-A3", "Baseline cross-over", a3_baselines,
                   "ARD vs RD vs BCR vs Thomas."),
        Experiment("abl-A4", "Solver domains", a4_solver_domains,
                   "ARD vs SPIKE vs Thomas across stability regimes."),
        Experiment("abl-A5", "Banded generalization", a5_banded,
                   "The acceleration for block banded systems."),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment; raises ExperimentError with suggestions."""
    if exp_id not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id]
