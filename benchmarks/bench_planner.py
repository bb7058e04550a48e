"""Planner acceptance benchmark: regret and monolithic recovery.

Not a paper figure: this is the acceptance gate for the solver planner
(``repro.perfmodel.planner``, docs/PLANNER.md).  At three canonical
shapes — the (512, 8) service shape at streamed and monolithic RHS
widths, and the monolithic width again at 16 ranks — it:

- measures the *entire* candidate portfolio once with the tuning sweep
  (best-of-3 wall time per configuration) and plans against the
  resulting table.  The planner's time is then *defined* as the
  measured time of the configuration it chose, so ``regret = chosen /
  best-of-portfolio`` is exactly 1.0 whenever the planner picks the
  measured argmin — the assertion verifies planner logic (the evidence
  rule, table lookup), not host timing noise;
- asserts ``planner.regret <=`` :data:`REGRET_CEILING` at every shape
  (the same ceiling :mod:`repro.obs.regress` gates in bench-history);
- runs one honest end-to-end ``solve(method="auto")`` with the table
  installed to confirm the dispatch path (plan stamped into
  ``SolveInfo``) and records — not asserts — its wall time and the
  one-shot planning overhead.

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

#: Canonical shapes (n, m, p, r): the streamed and monolithic service
#: points plus the 16-rank monolithic point.
SHAPES = ((512, 8, 4, 16), (512, 8, 4, 256), (512, 8, 16, 256))

#: Same ceiling the bench-history gate enforces on ``planner.regret``.
REGRET_CEILING = 1.15

#: Fixed baselines the seeded bench-history record compares auto
#: against: ARD (the reference plan) and plain RD.
ARD_REF_CONFIG = "ard"
RD_CONFIG = "rd"

REPS = 3


@pytest.fixture(scope="module")
def portfolio():
    """Measured wall time of every portfolio method at every shape.

    Returns ``(times, table)``: ``times[shape][method]`` in wall
    seconds (best of three, as the sweep times them), and the
    :class:`TuningTable` holding all of it — the ground truth the
    planner is judged against.
    """
    table = tune_machine(shapes=SHAPES)
    times = {}
    for e in table.entries:
        times.setdefault(e.shape(), {})[e.method] = e.time
    return times, table


@pytest.fixture(scope="module")
def planner_results(results_dir):
    """Accumulates each test's measurements; written once at teardown."""
    data = {}
    yield data
    path = results_dir / "BENCH_planner.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestPlannerRegret:
    def test_regret(self, portfolio, planner_results):
        times, table = portfolio
        rows = []
        for shape in SHAPES:
            n, m, p, r = shape
            per_shape = times[shape]
            chosen = plan(n, m, p, r, table=table)
            auto_s = per_shape[chosen.method]
            best_s = min(per_shape.values())
            regret = auto_s / best_s
            rows.append({
                "n": n, "m": m, "p": p, "r": r,
                "chosen": chosen.method,
                "provenance": chosen.provenance,
                "auto_s": auto_s, "best_s": best_s,
                "ard_ref_s": per_shape[ARD_REF_CONFIG],
                "rd_s": per_shape[RD_CONFIG],
                "regret": regret,
            })
            assert regret <= REGRET_CEILING, (
                f"planner regret at (n,m,p,r)={shape} is {regret:.3f} "
                f"(chose {chosen.method}), above the "
                f"{REGRET_CEILING} ceiling"
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
            assert info.plan.method == expected.method
            best = float("inf")
            for _ in range(REPS):
                t0 = time.perf_counter()
                solve(mat, rhs, method="auto", nranks=p)
                best = min(best, time.perf_counter() - t0)
        finally:
            set_default_table(None)
        planner_results["auto_dispatch"] = {
            "n": n, "m": m, "p": p, "r": r,
            "chosen": info.plan.method,
            "auto_wall_s": best,
            "first_call_s": first_call_s,
            "portfolio_best_s": min(times[shape].values()),
            "ard_ref_s": times[shape][ARD_REF_CONFIG],
        }
