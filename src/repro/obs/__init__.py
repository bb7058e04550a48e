"""Per-rank tracing and metrics (the library's observability layer).

The paper's cost story is *per phase*: ARD amortizes the matrix-prefix
scan so only the vector phases repeat per right-hand-side batch.  This
package makes that story observable instead of analytic.  Three pieces:

:mod:`repro.obs.tracer`
    A per-rank :class:`Tracer` with nestable spans recording both wall
    time and virtual-clock time.  Installed thread-locally alongside
    the rank's :class:`~repro.util.flops.FlopCounter`; instrumented
    code calls the module-level :func:`span` / :func:`instant` helpers,
    which are no-ops when tracing is disabled (the same guard pattern
    as :func:`repro.util.flops.record_flops`, so instrumentation is
    safe to leave in hot paths permanently).
:mod:`repro.obs.chrome`
    Chrome trace-event JSON export — one timeline track per simulated
    rank, dual virtual/wall clocks — loadable in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``.
:mod:`repro.obs.report`
    :class:`PhaseReport`: aggregated time + flops + bytes per solver
    phase per rank, surfaced on :class:`repro.core.api.SolveInfo`.
:mod:`repro.obs.metrics`
    Thread-safe counters / gauges / summaries (with windowed
    quantiles) and a combined ``snapshot()`` — the aggregate view
    long-lived components expose (the solver service,
    :mod:`repro.service`, reports cache hit rates and batch sizes
    through one :class:`MetricsRegistry`).
:mod:`repro.obs.context`
    :class:`TraceContext` propagation: one ``trace_id`` correlates the
    spans of every rank, the service request lifecycle, message
    envelopes, and structured log records of one logical operation.
:mod:`repro.obs.log`
    Leveled, schema-versioned JSONL event log carrying the active
    trace context; :func:`console` for deliberate CLI output (lint
    rule RC107 steers bare ``print()`` here).
:mod:`repro.obs.export` / :mod:`repro.obs.http`
    Prometheus text rendering of metrics snapshots and the stdlib
    ``/metrics`` + ``/healthz`` + ``/traces`` + ``/critpath`` HTTP
    endpoint (``SolverService(expose_http=...)``).
:mod:`repro.obs.health`
    Numerical-health probes (residual norm, pivot growth, condition
    estimate) classified against warn/page thresholds.
:mod:`repro.obs.flightrec`
    Always-on per-rank flight recorder: a fixed-capacity, preallocated
    ring of compact comm/phase records every rank keeps at all times
    (no allocation on the hot path), snapshotted only when something
    fails.  Its row is the one record of every message event; traced
    ranks keep the same rows in ``RankTrace.comm``.
:mod:`repro.obs.postmortem`
    Cross-rank incident bundles: on any runtime failure path the
    rings, config, plan notes, calibration fingerprint, and log tail
    are captured into ``results/incidents/INCIDENT_<trace_id>.json``;
    ``python -m repro.harness postmortem`` reconstructs the merged
    timeline and names the blocked op and culprit rank
    (docs/INCIDENTS.md).
:mod:`repro.obs.critpath`
    Cross-rank span-DAG reconstruction (send→recv edges paired by the
    ``seq`` stamps of message rows), critical-path extraction,
    and per-rank compute/comm/idle/overlap attribution
    (``python -m repro.harness profile <exp-id>``).
:mod:`repro.obs.roofline`
    Roofline classification of traced phases (compute- vs
    bandwidth-bound) against paper-era or calibrated machine rates
    (:mod:`repro.perfmodel.calibrate`).

Quick start
-----------
>>> from repro import solve
>>> from repro.workloads import poisson_block_system, random_rhs
>>> A, _ = poisson_block_system(16, 4)
>>> b = random_rhs(16, 4, nrhs=4, seed=0)
>>> x, info = solve(A, b, method="ard", nranks=4, trace=True,
...                 return_info=True)
>>> sorted(info.phase_report.virtual_by_phase()) is not None
True

See ``docs/OBSERVABILITY.md`` for the span taxonomy and the harness
CLI (``python -m repro.harness trace <exp-id>``).
"""

from .chrome import chrome_trace_events, write_chrome_trace
from .critpath import (
    CritPathReport,
    CritSegment,
    EdgeSet,
    MessageEdge,
    RankAttribution,
    analyze_critical_path,
    reconstruct_edges,
)
from .context import (
    TraceContext,
    current_trace_context,
    new_request_id,
    new_trace_context,
    new_trace_id,
    trace_context,
)
from .export import render_prometheus
from .flightrec import (
    RECORD_FIELDS,
    FlightRecorder,
    current_flightrec,
    flight_recording,
    note_event,
    recent_notes,
)
from .health import (
    HealthReport,
    HealthThresholds,
    probe_factor,
    probe_solve,
)
from .http import TelemetryServer
from .log import (
    EventLog,
    Logger,
    active_log,
    configure_logging,
    console,
    disable_logging,
    get_logger,
)
from .metrics import SUMMARY_WINDOW, Counter, Gauge, MetricsRegistry, Summary
from .postmortem import (
    INCIDENT_SCHEMA_VERSION,
    IncidentStore,
    analyze_bundle,
    capture_incident,
    classify_reason,
    force_synthetic_incident,
    load_bundle,
    record_failure,
    render_text,
    run_postmortem,
    to_chrome,
)
from .report import PhaseReport, PhaseStat, build_phase_report
from .roofline import (
    MachineRates,
    RooflinePoint,
    RooflineReport,
    build_roofline,
)
from .tracer import (
    EventRecord,
    RankTrace,
    SpanRecord,
    Tracer,
    current_tracer,
    instant,
    kernel_time,
    span,
    tracing,
)

__all__ = [
    "Tracer",
    "RankTrace",
    "SpanRecord",
    "EventRecord",
    "current_tracer",
    "tracing",
    "span",
    "instant",
    "kernel_time",
    "PhaseReport",
    "PhaseStat",
    "build_phase_report",
    "chrome_trace_events",
    "write_chrome_trace",
    "MessageEdge",
    "EdgeSet",
    "CritSegment",
    "RankAttribution",
    "CritPathReport",
    "reconstruct_edges",
    "analyze_critical_path",
    "MachineRates",
    "RooflinePoint",
    "RooflineReport",
    "build_roofline",
    "Counter",
    "Gauge",
    "Summary",
    "SUMMARY_WINDOW",
    "MetricsRegistry",
    "TraceContext",
    "new_trace_id",
    "new_request_id",
    "new_trace_context",
    "current_trace_context",
    "trace_context",
    "EventLog",
    "Logger",
    "configure_logging",
    "disable_logging",
    "active_log",
    "get_logger",
    "console",
    "render_prometheus",
    "TelemetryServer",
    "HealthThresholds",
    "HealthReport",
    "probe_solve",
    "probe_factor",
    "RECORD_FIELDS",
    "FlightRecorder",
    "current_flightrec",
    "flight_recording",
    "note_event",
    "recent_notes",
    "INCIDENT_SCHEMA_VERSION",
    "IncidentStore",
    "classify_reason",
    "capture_incident",
    "record_failure",
    "load_bundle",
    "analyze_bundle",
    "render_text",
    "to_chrome",
    "force_synthetic_incident",
    "run_postmortem",
]
