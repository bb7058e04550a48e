"""Per-rank tracer with nestable spans on dual (wall, virtual) clocks.

Each simulated rank owns one :class:`Tracer`, installed thread-locally
by :func:`repro.comm.runtime.run_spmd` when tracing is requested —
exactly the ownership model of :class:`repro.util.flops.FlopCounter`.
Instrumented code never touches a tracer object directly; it calls the
module-level helpers::

    from repro.obs import span

    with span("scan"):
        ...  # recursive-doubling rounds

When no tracer is installed on the thread, :func:`span` returns a
shared no-op context manager: the cost of disabled instrumentation is
one thread-local attribute lookup, the same guard pattern (and the same
budget) as :func:`repro.util.flops.record_flops`.

Spans record, at entry and exit: virtual-clock time (via the bound
:class:`~repro.comm.clock.VirtualClock`, synchronized so lazily
accounted flops are attributed to the span that executed them), wall
time (``time.perf_counter``), and the deltas of the rank's flop and
point-to-point traffic counters.  Because virtual time only advances
through counted flops and modelled message events, spans that tile a
rank's execution partition its final virtual time exactly — the
property :class:`repro.obs.report.PhaseReport` relies on.

Span categories (``cat``):

``"phase"``
    Top-level solver phases (``build`` / ``scan`` / ``closing`` /
    ``backsub`` …).  These tile each rank's timeline and feed the
    :class:`~repro.obs.report.PhaseReport`.
``"coll"``
    One span per user-facing collective call (``bcast``,
    ``allgather``, …), emitted by the communicator.
``"detail"``
    Fine-grained sub-steps (e.g. the closing factorization) that nest
    inside phases and are excluded from phase aggregation.
``"request"``
    Request lifecycle stages emitted by the solver service
    (:mod:`repro.service`): ``queued`` / ``batched`` / ``solved``
    spans per request, recorded with :meth:`Tracer.closed_span`
    because the stage boundaries are measured across threads.

Messages are not spans: each send, wait and receive is one
flight-recorder row (:mod:`repro.obs.flightrec`), kept in
:attr:`RankTrace.comm` on traced runs.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from .flightrec import _ACTIVE as _FR_ACTIVE
from .flightrec import _state as _fr_state

__all__ = [
    "SpanRecord",
    "EventRecord",
    "RankTrace",
    "Tracer",
    "current_tracer",
    "tracing",
    "span",
    "instant",
    "kernel_time",
]


@dataclasses.dataclass
class SpanRecord:
    """One closed span on a rank's timeline.

    Attributes
    ----------
    name / cat / depth:
        Span name, category (see module docstring), and nesting depth
        at entry (0 for top-level phases).
    v_start / v_end:
        Virtual-clock boundaries in modelled seconds (both 0.0 when the
        tracer has no bound clock, e.g. outside the SPMD runtime).
    w_start / w_end:
        Wall-clock boundaries (``time.perf_counter`` seconds).
    flops / bytes_sent / msgs_sent:
        Deltas of the rank's counters across the span (children
        included — aggregate top-level spans only to avoid double
        counting).
    attrs:
        Free-form annotations (partner rank, tag, byte counts, …).
    """

    name: str
    cat: str
    depth: int
    v_start: float
    v_end: float
    w_start: float
    w_end: float
    flops: int = 0
    bytes_sent: int = 0
    msgs_sent: int = 0
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def v_dur(self) -> float:
        """Virtual duration in modelled seconds."""
        return self.v_end - self.v_start

    @property
    def w_dur(self) -> float:
        """Wall duration in real seconds."""
        return self.w_end - self.w_start

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable for simple attrs)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class EventRecord:
    """One instantaneous event (e.g. a verified collective)."""

    name: str
    cat: str
    v_ts: float
    w_ts: float
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable for simple attrs)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RankTrace:
    """Finished timeline of one simulated rank.

    ``spans`` are appended at span *exit* (children precede parents);
    sort by ``v_start`` for chronological order.  ``comm`` holds the
    rank's message rows in program order (layout
    :data:`repro.obs.flightrec.RECORD_FIELDS`; unlike the flight
    recorder's ring it never wraps).  ``kernel_wall`` /
    ``kernel_calls`` hold the measured wall seconds and call counts of
    the instrumented block kernels (``kernel.lu``, ``kernel.trsm``,
    ``kernel.gemm``, ``comm.copy``) — the wall-clock counterpart of the
    flop counter's per-kernel breakdown.
    """

    rank: int
    spans: list[SpanRecord] = dataclasses.field(default_factory=list)
    events: list[EventRecord] = dataclasses.field(default_factory=list)
    comm: list[tuple] = dataclasses.field(default_factory=list)
    kernel_wall: dict[str, float] = dataclasses.field(default_factory=dict)
    kernel_calls: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Correlation id of the operation this timeline belongs to
    #: (see :mod:`repro.obs.context`); ``None`` for uncorrelated runs.
    trace_id: str | None = None

    def phase_spans(self) -> list[SpanRecord]:
        """The ``cat == "phase"`` spans in chronological order."""
        return sorted(
            (s for s in self.spans if s.cat == "phase"),
            key=lambda s: (s.v_start, s.w_start),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable for simple attrs)."""
        out = {
            "rank": self.rank,
            "spans": [s.to_dict() for s in self.spans],
            "events": [e.to_dict() for e in self.events],
            "comm": [list(row) for row in self.comm],
            "kernel_wall": dict(self.kernel_wall),
            "kernel_calls": dict(self.kernel_calls),
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


class _Span:
    """Live context manager for one span; records on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_attrs", "_depth",
                 "_v0", "_w0", "_flops0", "_bytes0", "_msgs0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        t = self._tracer
        self._depth = t._depth
        t._depth += 1
        self._v0 = t._vnow()
        self._flops0 = t.counter.total if t.counter is not None else 0
        st = t.stats
        self._bytes0 = st.bytes_sent if st is not None else 0
        self._msgs0 = st.msgs_sent if st is not None else 0
        self._w0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        w1 = time.perf_counter()
        t = self._tracer
        t._depth -= 1
        st = t.stats
        t.spans.append(SpanRecord(
            name=self._name,
            cat=self._cat,
            depth=self._depth,
            v_start=self._v0,
            v_end=t._vnow(),
            w_start=self._w0,
            w_end=w1,
            flops=(t.counter.total - self._flops0)
            if t.counter is not None else 0,
            bytes_sent=(st.bytes_sent - self._bytes0) if st is not None else 0,
            msgs_sent=(st.msgs_sent - self._msgs0) if st is not None else 0,
            attrs=self._attrs,
        ))
        return False


class Tracer:
    """Collects spans, events and message rows for one simulated rank.

    Parameters
    ----------
    rank:
        Rank id stamped into the finished :class:`RankTrace`.
    clock:
        Optional :class:`~repro.comm.clock.VirtualClock`; span
        boundaries call ``clock.sync_compute()`` so lazily accounted
        flops land in the span that executed them.  Without a clock,
        virtual timestamps are 0.0 and only wall times are meaningful.
    counter:
        Optional :class:`~repro.util.flops.FlopCounter` for per-span
        flop deltas.
    stats:
        Optional :class:`~repro.comm.stats.RankStats` for per-span
        traffic deltas.
    trace_id:
        Optional correlation id (see :mod:`repro.obs.context`) stamped
        into the finished :class:`RankTrace` so merged multi-rank /
        multi-run exports remain attributable to one operation.
    """

    __slots__ = ("rank", "clock", "counter", "stats", "spans", "events",
                 "comm", "kernel_wall", "kernel_calls", "trace_id", "_depth")

    def __init__(self, rank: int = 0, clock=None, counter=None, stats=None,
                 trace_id: str | None = None):
        self.rank = rank
        self.clock = clock
        self.counter = counter
        self.stats = stats
        self.trace_id = trace_id
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.comm: list[tuple] = []  # message rows, from the runtime
        self.kernel_wall: dict[str, float] = {}
        self.kernel_calls: dict[str, int] = {}
        self._depth = 0

    def _vnow(self) -> float:
        clock = self.clock
        return clock.sync_compute() if clock is not None else 0.0

    def span(self, name: str, cat: str = "phase", **attrs: Any) -> _Span:
        """Open a nestable span; use as a context manager."""
        return _Span(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "comm", **attrs: Any) -> None:
        """Record an instantaneous event at the current clocks."""
        self.events.append(EventRecord(
            name=name, cat=cat, v_ts=self._vnow(),
            w_ts=time.perf_counter(), attrs=attrs,
        ))

    def closed_span(self, name: str, cat: str, v_start: float, v_end: float,
                    w_start: float, w_end: float, **attrs: Any) -> None:
        """Record a span whose boundaries the caller already measured
        (used by the service for request stages timed across threads)."""
        self.spans.append(SpanRecord(
            name=name, cat=cat, depth=self._depth,
            v_start=v_start, v_end=v_end, w_start=w_start, w_end=w_end,
            attrs=attrs,
        ))

    def add_kernel_time(self, name: str, seconds: float) -> None:
        """Accumulate measured wall time for one block-kernel call."""
        self.kernel_wall[name] = self.kernel_wall.get(name, 0.0) + seconds
        self.kernel_calls[name] = self.kernel_calls.get(name, 0) + 1

    def finish(self) -> RankTrace:
        """Freeze the collected records into a :class:`RankTrace`."""
        return RankTrace(rank=self.rank, spans=self.spans, events=self.events,
                         comm=self.comm, kernel_wall=self.kernel_wall,
                         kernel_calls=self.kernel_calls,
                         trace_id=self.trace_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer(rank={self.rank}, spans={len(self.spans)}, "
                f"events={len(self.events)})")


class _NullSpan:
    """Shared no-op span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_state = threading.local()


def current_tracer() -> Tracer | None:
    """The tracer active on this thread, or ``None`` (tracing off)."""
    return getattr(_state, "tracer", None)


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (a fresh one by default) on this thread.

    >>> from repro.obs import tracing, span
    >>> with tracing() as tr:
    ...     with span("work"):
    ...         pass
    >>> [s.name for s in tr.spans]
    ['work']
    """
    if tracer is None:
        tracer = Tracer()
    previous = current_tracer()
    _state.tracer = tracer
    try:
        yield tracer
    finally:
        _state.tracer = previous


def span(name: str, cat: str = "phase", **attrs: Any):
    """Open a span on the active tracer; a shared no-op when disabled.

    The disabled path costs one thread-local lookup — safe to leave in
    hot paths permanently (guarded by the tracing-overhead quality
    gate in ``tests/test_quality_gates.py``).  When no tracer is
    installed but the thread carries a
    :class:`repro.obs.flightrec.FlightRecorder`, top-level ``phase``
    spans still mark their boundaries in the recorder's ring so
    untraced production runs keep a phase timeline for post-mortems;
    the extra check is gated on a process-global recorder count so the
    fully disabled path stays at one lookup.
    """
    tracer = getattr(_state, "tracer", None)
    if tracer is None:
        if _FR_ACTIVE.count and cat == "phase":
            rec = getattr(_fr_state, "recorder", None)
            if rec is not None:
                return rec.phase_span(name)
        return _NULL_SPAN
    return tracer.span(name, cat, **attrs)


def instant(name: str, cat: str = "comm", **attrs: Any) -> None:
    """Record an instantaneous event on the active tracer, if any."""
    tracer = getattr(_state, "tracer", None)
    if tracer is not None:
        tracer.instant(name, cat, **attrs)


class _KernelTimer:
    """Live context manager timing one block-kernel call."""

    __slots__ = ("_tracer", "_name", "_t0")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()
        return None

    def __exit__(self, *exc) -> bool:
        self._tracer.add_kernel_time(
            self._name, time.perf_counter() - self._t0
        )
        return False


def kernel_time(name: str):
    """Time one kernel call on the active tracer; no-op when disabled.

    Unlike :func:`span`, kernel timings are plain per-name wall-clock
    accumulators (no virtual-clock sync, no per-call records), so the
    enabled cost is two ``perf_counter`` reads — cheap enough for the
    innermost block kernels (``kernel.lu`` / ``kernel.trsm`` /
    ``kernel.gemm`` / ``comm.copy``).  The disabled path is the same
    one-lookup guard as :func:`span`.
    """
    tracer = getattr(_state, "tracer", None)
    if tracer is None:
        return _NULL_SPAN
    return _KernelTimer(tracer, name)
