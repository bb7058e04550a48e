"""Planner acceptance benchmark: regret and monolithic recovery.

Not a paper figure: this is the acceptance gate for the solver planner
(``repro.perfmodel.planner``, docs/PLANNER.md).  At the three canonical
bench shapes from ``bench_kernels.py`` — the (512, 8) service shape at
streamed and monolithic RHS widths, and the monolithic width again at
16 ranks (where BENCH_kernels.json recorded monolithic ARD regressing
to 0.75x of seed) — it:

- measures the *entire* candidate portfolio once with the tuning sweep
  (best-of-3 wall time per configuration) and plans against the
  resulting table.  The planner's time is then *defined* as the
  measured time of the configuration it chose, so ``regret = chosen /
  best-of-portfolio`` is exactly 1.0 whenever the planner picks the
  measured argmin — the assertion verifies planner logic (the evidence
  rule, table lookup), not host timing noise;
- asserts ``planner.regret <=`` :data:`REGRET_CEILING` at every shape
  (the same ceiling :mod:`repro.obs.regress` gates in bench-history);
- asserts the monolithic shapes recover to >= 1.0x of the seed
  configuration (``sequential`` recurrence) under
  ``method="auto"`` — the seed path is itself in the portfolio, so a
  planner that picks the measured argmin can never lose to it;
- runs one honest end-to-end ``solve(method="auto")`` with the table
  installed to confirm the dispatch path (plan stamped into
  ``SolveInfo``, config overrides applied) and records — not asserts —
  its wall time and the one-shot planning overhead.

Persists ``results/BENCH_planner.json``.  ``pytest
benchmarks/bench_planner.py`` runs the suite; timing is manual
best-of-k, unaffected by ``--benchmark-disable``.
"""

import json
import time

import pytest

from repro.core.api import solve
from repro.perfmodel.planner import plan, set_default_table, tune_machine
from repro.workloads import helmholtz_block_system, random_rhs

#: Canonical shapes (n, m, p, r): bench_kernels' streamed and
#: monolithic service points plus the 16-rank monolithic point.
SHAPES = ((512, 8, 4, 16), (512, 8, 4, 256), (512, 8, 16, 256))

#: Shapes where monolithic ARD regressed under the new kernel defaults
#: (results/BENCH_kernels.json ``mono_speedup`` 0.75x) — ``auto`` must
#: recover them to >= 1.0x of the seed configuration.
MONO_SHAPES = frozenset({(512, 8, 4, 256), (512, 8, 16, 256)})

#: Same ceiling the bench-history gate enforces on ``planner.regret``.
REGRET_CEILING = 1.15

#: The pre-vectorization seed configuration, as a portfolio config key
#: (method, recurrence mode).
SEED_CONFIG = ("ard", "sequential")

#: Fixed baselines the seeded bench-history record compares auto
#: against: ARD under the shipped kernel default (the reference plan)
#: and plain RD.
ARD_REF_CONFIG = ("ard", "auto")
RD_CONFIG = ("rd", "auto")

REPS = 3


def _config_key(obj):
    """(method, recurrence mode) of a Plan or TuneEntry."""
    return (obj.method, obj.recurrence_mode)


@pytest.fixture(scope="module")
def portfolio():
    """Measured wall time of every portfolio config at every shape.

    Returns ``(times, table)``: ``times[shape][config_key]`` in wall
    seconds (best of three, as the sweep times them), and the
    :class:`TuningTable` holding all of it — the ground truth the
    planner is judged against.
    """
    table = tune_machine(shapes=SHAPES)
    times = {}
    for e in table.entries:
        times.setdefault(e.shape(), {})[_config_key(e)] = e.time
    return times, table


@pytest.fixture(scope="module")
def planner_results(results_dir):
    """Accumulates each test's measurements; written once at teardown."""
    data = {}
    yield data
    path = results_dir / "BENCH_planner.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestPlannerRegret:
    def test_regret_and_mono_recovery(self, portfolio, planner_results):
        times, table = portfolio
        rows = []
        for shape in SHAPES:
            n, m, p, r = shape
            per_shape = times[shape]
            chosen = plan(n, m, p, r, table=table)
            auto_s = per_shape[_config_key(chosen)]
            best_s = min(per_shape.values())
            seed_s = per_shape[SEED_CONFIG]
            regret = auto_s / best_s
            recovery = seed_s / auto_s
            rows.append({
                "n": n, "m": m, "p": p, "r": r,
                "chosen": "/".join(_config_key(chosen)),
                "provenance": chosen.provenance,
                "auto_s": auto_s, "best_s": best_s, "seed_s": seed_s,
                "ard_ref_s": per_shape[ARD_REF_CONFIG],
                "rd_s": per_shape[RD_CONFIG],
                "regret": regret, "recovery_vs_seed": recovery,
            })
            assert regret <= REGRET_CEILING, (
                f"planner regret at (n,m,p,r)={shape} is {regret:.3f} "
                f"(chose {_config_key(chosen)}), above the "
                f"{REGRET_CEILING} ceiling"
            )
            if shape in MONO_SHAPES:
                assert recovery >= 1.0, (
                    f"method='auto' at the monolithic shape {shape} is "
                    f"{recovery:.2f}x the seed configuration — the planner "
                    f"lost to the path it was built to recover"
                )
        planner_results["regret"] = rows


class TestAutoDispatch:
    def test_solve_auto_end_to_end(self, portfolio, planner_results):
        """The real ``method="auto"`` path with the table installed:
        the plan is resolved, stamped into ``SolveInfo``, and matches
        the direct :func:`plan` call; the end-to-end wall time and the
        one-shot planning overhead are recorded, not asserted (they
        include real host noise)."""
        times, table = portfolio
        n, m, p, r = shape = (512, 8, 4, 256)
        expected = plan(n, m, p, r, table=table)

        mat, _ = helmholtz_block_system(n, m)
        rhs = random_rhs(n, m, nrhs=r, seed=0)
        set_default_table(table)
        try:
            t0 = time.perf_counter()
            x, info = solve(mat, rhs, method="auto", nranks=p,
                            return_info=True)
            first_call_s = time.perf_counter() - t0
            assert info.plan is not None
            assert info.method == expected.method
            assert _config_key(info.plan) == _config_key(expected)
            best = float("inf")
            for _ in range(REPS):
                t0 = time.perf_counter()
                solve(mat, rhs, method="auto", nranks=p)
                best = min(best, time.perf_counter() - t0)
        finally:
            set_default_table(None)
        planner_results["auto_dispatch"] = {
            "n": n, "m": m, "p": p, "r": r,
            "chosen": "/".join(_config_key(info.plan)),
            "auto_wall_s": best,
            "first_call_s": first_call_s,
            "portfolio_best_s": min(times[shape].values()),
            "seed_s": times[shape][SEED_CONFIG],
        }
