"""``python -m repro.harness tune`` — run the planner tuning sweep.

Thin CLI wrapper over :func:`repro.perfmodel.tune_machine`: measures
every candidate configuration at every grid shape and writes the
schema-versioned per-host tuning table.  ``--check`` reloads the
artifact and plans every measured shape against it; it fails unless
each plan is that shape's measured argmin, which is deterministic for
a given table.  The ``--quick`` sweep is the CI smoke configuration;
the full sweep is what a user runs once per machine.  See
docs/PLANNER.md.
"""

from __future__ import annotations

from ..exceptions import ReproError
from ..obs.log import console
from ..perfmodel.planner import (
    DEFAULT_TUNE_PATH,
    clear_plan_cache,
    load_table,
    plan,
    save_table,
    tune_machine,
)

__all__ = ["run_tune"]


def run_tune(out: str | None = None, quick: bool = False,
             check: bool = False) -> int:
    """Run the sweep, write the table, optionally verify it.  Exit code."""
    path = out or DEFAULT_TUNE_PATH
    mode = "quick" if quick else "full"
    console(f"tune: running {mode} sweep")
    table = tune_machine(quick=quick, progress=lambda s: console(f"tune: {s}"))
    written = save_table(table, path)
    console(f"tune: wrote {written} ({len(table.entries)} entries, "
            f"host {table.host})")
    if not check:
        return 0

    clear_plan_cache()
    try:
        reloaded = load_table(written)
    except ReproError as exc:
        console(f"tune check failed: reload: {exc}")
        return 1
    if reloaded is None:
        console("tune check failed: written table does not match this host")
        return 1
    if reloaded.entries != table.entries:
        console("tune check failed: entries changed across round-trip")
        return 1
    by_problem: dict[tuple, list] = {}
    for e in reloaded.entries:
        by_problem.setdefault((*e.shape(), e.dtype), []).append(e)
    failed = False
    for (n, m, p, r, dtype), measured in by_problem.items():
        best = min(measured, key=lambda e: e.time)
        try:
            chosen = plan(n, m, p, r, dtype, table=reloaded)
        except ReproError as exc:
            console(f"tune check failed: planning: {exc}")
            return 1
        ok = (chosen.provenance == "measured"
              and chosen.predicted_time == best.time)
        failed |= not ok
        console(f"tune: plan({n}, {m}, p={p}, r={r}, {dtype}) -> "
                f"{chosen.method} [{chosen.provenance}]"
                + ("" if ok else f" but the measured argmin is {best.method}"))
    if failed:
        console("tune check failed: a plan is not its shape's measured argmin")
        return 1
    console("tune: check passed")
    return 0
