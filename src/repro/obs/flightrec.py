"""Always-on per-rank flight recorder: a fixed-capacity comm ring buffer.

Production failures rarely happen under ``trace=True``: the tracer,
critpath profiler, and verifier histories are opt-in, so an untraced
deadlock or worker death leaves nothing but an exception string.  The
flight recorder closes that gap with the classic black-box pattern —
every rank keeps a small **preallocated ring buffer** of compact
records (one tuple per comm op, kernel phase boundary, or probe) that
costs almost nothing while the run is healthy and is snapshotted into a
:mod:`repro.obs.postmortem` incident bundle the moment a failure path
fires.

Design constraints, in order:

1. **No allocation on the hot path.**  The ring is a preallocated list
   of ``capacity`` slots; recording stores one tuple and bumps an
   integer.  No dict churn, no datetime formatting, no locking (each
   recorder is owned by exactly one rank thread; the single cross-
   thread touch — :meth:`FlightRecorder.mark_consumed` from the
   receiving rank on the threads backend — mutates a dict under the
   GIL and tolerates benign races).
2. **Self-describing truncation.**  When an overwrite evicts a record
   at least as new as the oldest *in-flight* send (posted, never
   consumed), the bundle can no longer explain that send's fate; the
   recorder counts such evictions in :attr:`FlightRecorder.dropped`
   and logs a one-time ``flightrec.dropped`` warning so a truncated
   bundle says so instead of lying by omission.
3. **Always on, bounded overhead.**  ``ReproConfig.flightrec`` defaults
   to on; ``benchmarks/bench_flightrec.py`` asserts the recorder costs
   <3% of solve wall time at the canonical shape.

Record layout (a plain tuple, indexed by :data:`RECORD_FIELDS`)::

    (kind, w_ts, v_ts, op, peer, tag, seq, nbytes, extra)

``kind`` is one of ``send``/``recv``/``wait``/``coll``/``phase``/
``phase_end``; ``w_ts`` is epoch wall time (comparable across
processes), ``v_ts`` the rank's virtual-clock reading (0.0 when no
clock is attached, e.g. service worker threads); ``peer``/``tag``/
``seq``/``nbytes`` are ``-1``/``0`` where not applicable.

Plan selections and health probes are process-global, not per-rank, so
they go to a separate bounded note buffer via :func:`note_event`; the
incident capture merges :func:`recent_notes` into the bundle.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from .log import get_logger

__all__ = [
    "RECORD_FIELDS",
    "FlightRecorder",
    "current_flightrec",
    "flight_recording",
    "note_event",
    "recent_notes",
]

#: Field names of one ring record, positionally (tuple layout contract
#: between the recorder, the bundle schema, and the postmortem analyzer).
RECORD_FIELDS = (
    "kind", "w_ts", "v_ts", "op", "peer", "tag", "seq", "nbytes", "extra",
)

_log = get_logger("flightrec")


class _PhaseSpan:
    """Context manager recording ``phase``/``phase_end`` ring records."""

    __slots__ = ("_rec", "_name")

    def __init__(self, rec: "FlightRecorder", name: str):
        self._rec = rec
        self._name = name

    def __enter__(self) -> "_PhaseSpan":
        self._rec._record("phase", self._name, -1, -1, -1, 0)
        return self

    def __exit__(self, *exc: object) -> None:
        self._rec._record("phase_end", self._name, -1, -1, -1, 0)


class FlightRecorder:
    """Fixed-capacity append-only ring of compact per-rank event records.

    Parameters
    ----------
    rank:
        World rank (or service worker index) this recorder belongs to.
    capacity:
        Number of preallocated ring slots; the newest ``capacity``
        records survive to the snapshot.
    clock:
        Optional object with a cheap ``now`` attribute (the rank's
        :class:`repro.comm.clock.VirtualClock`); sampled per record
        without syncing.
    """

    __slots__ = ("rank", "capacity", "clock", "dropped",
                 "_ring", "_next", "_inflight", "_oldest_inflight",
                 "_warned")

    def __init__(self, rank: int, capacity: int, clock: Any = None):
        if capacity < 8:
            raise ValueError(f"flightrec capacity must be >= 8, got {capacity}")
        self.rank = rank
        self.capacity = capacity
        self.clock = clock
        self.dropped = 0
        self._ring: list[tuple | None] = [None] * capacity
        self._next = 0
        self._inflight: dict[int, int] = {}
        self._oldest_inflight: int | None = None
        self._warned = False

    def _record(self, kind: str, op: str, peer: int, tag: int,
                seq: int, nbytes: int, extra: Any = None) -> None:
        i = self._next
        oldest = self._oldest_inflight
        if oldest is not None and i >= self.capacity and i - self.capacity >= oldest:
            self.dropped += 1
            if not self._warned:
                self._warned = True
                _log.warning(
                    "flightrec.dropped",
                    message="ring overwrote records newer than the oldest "
                            "in-flight send; bundle will be truncated",
                    rank=self.rank, capacity=self.capacity,
                )
        clock = self.clock
        self._ring[i % self.capacity] = (
            kind, time.time(), clock.now if clock is not None else 0.0,
            op, peer, tag, seq, nbytes, extra,
        )
        self._next = i + 1

    def record_send(self, dest: int, tag: int, seq: int, nbytes: int) -> None:
        """Record a posted send and register it as in-flight."""
        self._inflight[seq] = self._next
        if self._oldest_inflight is None:
            self._oldest_inflight = self._next
        self._record("send", "send", dest, tag, seq, nbytes)

    def record_recv(self, source: int, tag: int, seq: int, nbytes: int) -> None:
        """Record a completed receive of message ``seq`` from ``source``."""
        self._record("recv", "recv", source, tag, seq, nbytes)

    def record_wait(self, op: str, source: Any, tag: Any) -> None:
        """Record that the rank is about to block (op = recv/collective)."""
        peer = source if isinstance(source, int) else -1
        self._record("wait", op, peer, tag if isinstance(tag, int) else -1,
                     -1, 0)

    def record_coll(self, op: str, root: int | None, nbytes: int) -> None:
        """Record entry into an outermost collective operation."""
        self._record("coll", op, -1 if root is None else root, -1, -1, nbytes)

    def mark_consumed(self, seq: int) -> None:
        """Retire in-flight send ``seq`` (called when it is received).

        On the threads backend the *receiving* rank calls this on the
        sender's recorder; the dict mutation is GIL-atomic and a stale
        ``_oldest_inflight`` only over-counts drops (conservative).
        """
        idx = self._inflight.pop(seq, None)
        if idx is not None and idx == self._oldest_inflight:
            self._oldest_inflight = (min(self._inflight.values())
                                     if self._inflight else None)

    def phase_span(self, name: str) -> _PhaseSpan:
        """Context manager marking a kernel-phase boundary in the ring."""
        return _PhaseSpan(self, name)

    def snapshot(self) -> dict[str, Any]:
        """Chronological copy of the ring as a JSON-ready dict."""
        i = self._next
        if i <= self.capacity:
            records = list(self._ring[:i])
        else:
            start = i % self.capacity
            records = self._ring[start:] + self._ring[:start]
        return {
            "rank": self.rank,
            "capacity": self.capacity,
            "count": i,
            "dropped": self.dropped,
            "fields": list(RECORD_FIELDS),
            "records": [list(r) for r in records if r is not None],
        }


class _ActiveCount:
    """Process-wide count of installed recorders (tracer fast-path gate)."""

    __slots__ = ("count", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def inc(self) -> None:
        with self._lock:
            self.count += 1

    def dec(self) -> None:
        with self._lock:
            self.count -= 1


#: Module-global recorder count: ``repro.obs.tracer.span`` only pays the
#: second thread-local lookup when this is nonzero, keeping the fully
#: disabled span path at one ``getattr``.
_ACTIVE = _ActiveCount()

_state = threading.local()


def current_flightrec() -> FlightRecorder | None:
    """The flight recorder installed on this thread, or ``None``."""
    return getattr(_state, "recorder", None)


@contextmanager
def flight_recording(rec: FlightRecorder | None) -> Iterator[FlightRecorder | None]:
    """Install ``rec`` as this thread's flight recorder (no-op if None).

    Used by both SPMD backends around each rank's program and by the
    service around each worker thread's serve loop.
    """
    if rec is None:
        yield None
        return
    previous = getattr(_state, "recorder", None)
    _state.recorder = rec
    _ACTIVE.inc()
    try:
        yield rec
    finally:
        _state.recorder = previous
        _ACTIVE.dec()


_notes_lock = threading.Lock()
_notes: deque = deque(maxlen=64)


def note_event(kind: str, **fields: Any) -> None:
    """Append a process-global annotation (plan selection, health probe).

    Notes live outside the per-rank rings because they are minted on
    arbitrary threads (the planner, the service health prober) before
    or between SPMD runs; the most recent 64 ride along in every
    incident bundle.
    """
    with _notes_lock:
        _notes.append({"kind": kind, "w_ts": time.time(), "fields": fields})


def recent_notes() -> list[dict[str, Any]]:
    """Copy of the bounded process-global note buffer, oldest first."""
    with _notes_lock:
        return list(_notes)
