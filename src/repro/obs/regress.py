"""Perf-trajectory regression gate over ``results/BENCH_history.jsonl``.

``python -m repro.harness bench-history`` appends one schema-versioned
record per run (see :mod:`repro.harness.bench_history`); this module is
the gate that reads the trajectory back: the newest record is compared
against the **rolling median** of the preceding window for every gated
metric, and any change worse than the threshold (default 15%) fails the
check.  The median baseline absorbs single-run noise — one lucky or
unlucky historical run cannot move the reference the way a
newest-vs-previous comparison would.

Directionality is owned here, in :data:`GATED_METRICS`: throughput
metrics (``higher`` is better) regress by dropping, latency/overhead
metrics (``lower`` is better) regress by rising.  Metrics absent from a
record are skipped, so the gate tolerates partial runs and older
schema versions.

CLI (non-blocking in CI via ``continue-on-error``)::

    python -m repro.obs.regress results/BENCH_history.jsonl --threshold 0.15

Exit status: ``0`` when no gated metric regressed (including the seeded
single-record case), ``1`` on regression, ``2`` on a missing/unreadable
history file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from .log import console

__all__ = [
    "GATED_METRICS",
    "Regression",
    "load_history",
    "check_regressions",
    "main",
]

#: Gated metric -> direction of goodness ("higher" or "lower" is better).
GATED_METRICS: dict[str, str] = {
    "kernels.lu_batched_s": "lower",
    "kernels.lu_speedup": "higher",
    "service.req_per_s": "higher",
    "service.speedup_vs_rd": "higher",
    "obs.disabled_span_us": "lower",
    # Always-on flight-recorder cost: ARD factor+solve wall time with
    # the per-rank recorder on over off (the <3% budget of
    # docs/INCIDENTS.md); rises when a recorder change inflates the
    # comm hot path.
    "obs.flightrec_overhead": "lower",
    "solve.ard_wall_s": "lower",
    # Processes-vs-threads ARD wall clock (docs/BACKENDS.md); only
    # recorded on hosts with >= 4 cores, skipped elsewhere.
    "backends.ard_process_wall_s": "lower",
    "backends.process_speedup": "higher",
    # Predicted-vs-measured drift recorded by bench_f6_model_validation
    # (median |log ratio| over recon-F6's parity points): rises when the
    # analytic model or a calibration change degrades parity.
    "perfmodel.model_error": "lower",
}


@dataclasses.dataclass(frozen=True)
class Regression:
    """One gated metric that moved past the threshold.

    ``change`` is the signed relative move in the *bad* direction
    (``0.20`` = 20% worse than the rolling-median baseline).
    """

    metric: str
    direction: str
    newest: float
    baseline: float
    change: float
    threshold: float

    def describe(self) -> str:
        """One human-readable line for CLI/CI output."""
        arrow = "rose" if self.direction == "lower" else "fell"
        return (f"{self.metric}: {arrow} {self.change:.1%} "
                f"(newest {self.newest:.6g} vs median {self.baseline:.6g}, "
                f"threshold {self.threshold:.0%})")


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """Load the JSONL history; one dict per non-empty line, in order."""
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def check_regressions(history: list[dict[str, Any]], *,
                      threshold: float = 0.15,
                      window: int = 8) -> list[Regression]:
    """Compare the newest record against the rolling-median baseline.

    For each metric in :data:`GATED_METRICS` present in the newest
    record's ``"metrics"`` dict *and* in at least one of the up-to-
    ``window`` preceding records, the baseline is the median of the
    preceding values; a move worse than ``threshold`` in the metric's
    bad direction yields a :class:`Regression`.  Fewer than two records
    (the freshly seeded store) can never regress.
    """
    if len(history) < 2:
        return []
    newest = history[-1].get("metrics", {})
    previous = [r.get("metrics", {}) for r in history[-(window + 1):-1]]
    out: list[Regression] = []
    for metric, direction in sorted(GATED_METRICS.items()):
        value = newest.get(metric)
        if value is None:
            continue
        past = [p[metric] for p in previous
                if isinstance(p.get(metric), (int, float))]
        if not past:
            continue
        baseline = statistics.median(past)
        if baseline == 0:
            continue
        if direction == "lower":
            change = (value - baseline) / abs(baseline)
        else:
            change = (baseline - value) / abs(baseline)
        if change > threshold:
            out.append(Regression(metric=metric, direction=direction,
                                  newest=float(value),
                                  baseline=float(baseline),
                                  change=float(change),
                                  threshold=threshold))
    return out


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for exit codes."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Gate the newest benchmark record against the "
                    "rolling median of the perf trajectory.",
    )
    parser.add_argument("history", nargs="?",
                        default="results/BENCH_history.jsonl",
                        help="JSONL history file (default: %(default)s)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated relative regression "
                             "(default: %(default)s)")
    parser.add_argument("--window", type=int, default=8,
                        help="rolling-median window size "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    try:
        history = load_history(args.history)
    except OSError as exc:
        console(f"regress: cannot read history: {exc}")
        return 2
    if len(history) < 2:
        console(f"regress: {len(history)} record(s) in {args.history} — "
                "seeded, nothing to compare yet.")
        return 0
    regressions = check_regressions(history, threshold=args.threshold,
                                    window=args.window)
    gated = sum(1 for m in GATED_METRICS
                if history[-1].get("metrics", {}).get(m) is not None)
    if not regressions:
        console(f"regress: OK — {gated} gated metric(s) within "
                f"{args.threshold:.0%} of the rolling median "
                f"({len(history)} records).")
        return 0
    console(f"regress: FAIL — {len(regressions)} regression(s):")
    for reg in regressions:
        console(f"  {reg.describe()}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
