"""The in-process solver service: cache + batcher + worker pool.

:class:`SolverService` turns the library's one-shot ``factor``/``solve``
calls into a long-lived request-serving component:

- :meth:`~SolverService.register` fingerprints a matrix and returns a
  :class:`FactorHandle` (optionally factoring eagerly through the
  cache);
- :meth:`~SolverService.submit` admits a request ``(handle-or-matrix,
  b)`` and returns a future-backed :class:`SolveTicket`;
- worker threads drain the :class:`~repro.service.batcher.RequestBatcher`,
  resolve the factorization through the single-flight
  :class:`~repro.service.cache.FactorizationCache`, and serve each
  batch as **one** multi-RHS ``factorization.solve(B)`` — the paper's
  ``O(M^2 R)`` amortized solve instead of ``R`` independent passes.

Admission control is explicit: at most ``max_pending`` requests may be
queued; past that the service either raises
:class:`~repro.exceptions.ServiceOverloadError` (``overload="reject"``,
the default — callers see backpressure immediately) or blocks the
submitting thread until space frees (``overload="block"``).  A
per-request ``deadline`` bounds *queue* time: requests still waiting
when it expires fail with
:class:`~repro.exceptions.DeadlineExceededError` without consuming
solve work (a request already picked up is always served — the result
is imminent and discarding it would waste the batch).

Observability: every lifecycle stage is measured.  With ``trace=True``
each worker records ``cat="request"`` spans (``queued`` /
``factor`` / ``solved``) on its own :class:`~repro.obs.tracer.Tracer`
(:meth:`~SolverService.traces` returns the per-worker timelines), and
:meth:`~SolverService.metrics_snapshot` merges the
:class:`~repro.obs.MetricsRegistry` instruments with the cache's
hit/miss/eviction counters into one JSON-serializable dict.

Telemetry pipeline (docs/OBSERVABILITY.md):

- every admitted request gets a :class:`~repro.obs.context.TraceContext`
  child (fresh ``request_id``; the caller's ``trace_id`` is adopted
  when one is active).  The serving worker installs it, so lifecycle
  spans, structured log records (:mod:`repro.obs.log`, component
  ``"service"``), and the nested SPMD rank spans of the solve all share
  one ``trace_id`` — :meth:`~SolverService.write_trace` merges them
  into one Chrome trace;
- ``expose_http=True`` (or a port number) starts a loopback
  :class:`~repro.obs.http.TelemetryServer` with ``/metrics``
  (Prometheus text), ``/healthz``, ``/traces``, ``/critpath``, and
  ``/incidents``;
- ``health=True`` (default: on iff the endpoint is exposed) runs the
  numerical-health probes of :mod:`repro.obs.health`: per-solve
  residual norm, plus pivot growth and a condition estimate once per
  factorization (on the cache-miss path, where their cost amortizes).

Incident capture (docs/INCIDENTS.md): each worker thread carries a
:class:`~repro.obs.flightrec.FlightRecorder` ring recording batch
phases.  On a deadline breach, an admission-reject storm, or a health
``page`` the service snapshots the worker rings into an incident
bundle (:mod:`repro.obs.postmortem`), rate-limited per reason type by
:attr:`SolverService.incident_cooldown_s`; the bundle store is listed
at ``/incidents``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any

import numpy as np

from ..comm import CostModel
from ..core.api import FACTOR_METHODS, factor
from ..exceptions import (
    ConfigError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
    ShapeError,
)
from ..linalg.blocktridiag import (
    BlockTridiagonalMatrix,
    reshape_rhs,
    restore_rhs_shape,
)
from ..obs import (
    FlightRecorder,
    HealthThresholds,
    IncidentStore,
    MetricsRegistry,
    RankTrace,
    TelemetryServer,
    Tracer,
    capture_incident,
    classify_reason,
    current_trace_context,
    flight_recording,
    get_logger,
    new_trace_context,
    note_event,
    probe_factor,
    probe_solve,
    trace_context,
)
from .batcher import RequestBatcher, SolveRequest
from .cache import FactorizationCache
from .fingerprint import factor_key

__all__ = ["SolverService", "FactorHandle", "SolveTicket"]

_log = get_logger("service")

#: Traced batches retained for /traces and write_trace (newest wins).
_TRACE_SEGMENT_LIMIT = 32


class _LifecycleTraces:
    """Adapter presenting worker lifecycle timelines to the Chrome
    exporter (which expects ``.traces`` and ``.virtual_time``)."""

    __slots__ = ("traces", "virtual_time")

    def __init__(self, traces: list[RankTrace]):
        self.traces = traces
        self.virtual_time = 0.0


@dataclasses.dataclass(frozen=True)
class FactorHandle:
    """A registered (matrix, method, nranks) triple with its cache key.

    The handle keeps the matrix by reference so the service can
    re-factor after an eviction; it carries no factorization itself —
    ownership stays with the cache.
    """

    matrix: BlockTridiagonalMatrix
    method: str
    nranks: int
    key: str
    #: The planner decision behind this handle when the service runs
    #: with ``method="auto"``; ``None`` for explicit methods.
    plan: Any = None

    @property
    def fingerprint(self) -> str:
        """The matrix content fingerprint portion of the key."""
        return self.key.rsplit(":", 1)[1]


class SolveTicket:
    """Future-backed receipt for one submitted request.

    ``trace_id`` / ``request_id`` identify the request in the
    structured log, the lifecycle spans, and the merged Chrome trace.
    """

    __slots__ = ("key", "nrhs", "trace_id", "request_id", "_future")

    def __init__(self, key: str, nrhs: int, future: Future,
                 trace_id: str | None = None,
                 request_id: str | None = None):
        self.key = key
        self.nrhs = nrhs
        self.trace_id = trace_id
        self.request_id = request_id
        self._future = future

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for the solution (caller's RHS layout)."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block for completion; the exception if the request failed."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """Whether the request has completed (either way)."""
        return self._future.done()


class SolverService:
    """Thread-safe in-process solve service (factor cache + batching).

    Parameters
    ----------
    method / nranks / cost_model:
        Defaults applied when :meth:`submit` receives a bare matrix
        instead of a :class:`FactorHandle`.  The default method is
        ``"auto"``: the planner (:mod:`repro.perfmodel.planner`)
        resolves each registered matrix to a concrete method and rank
        count (ARD unless this host's tuning table measured something
        faster), cached per matrix fingerprint
        alongside the factorization; pass an explicit method to opt
        out.
    workers:
        Worker threads serving batches (>= 1).  Batches for distinct
        keys run concurrently; per key, batches are serialized so a
        factorization never serves two overlapping replays.
    max_pending:
        Admission bound on queued requests.
    overload:
        ``"reject"`` (raise :class:`~repro.exceptions.ServiceOverloadError`)
        or ``"block"`` (wait for queue space).
    batch_window:
        Seconds a request may wait for coalescing partners (the
        latency/batching trade-off; 0 still coalesces whatever
        accumulated while workers were busy).
    max_batch_rhs:
        RHS-column cap per flushed batch.
    cache:
        A shared :class:`~repro.service.cache.FactorizationCache`;
        by default a private 256 MiB one.
    trace:
        Record per-request lifecycle spans on per-worker tracers, run
        the underlying distributed factorizations with per-rank tracing
        enabled, and retain the most recent traced batches for
        :meth:`write_trace` / the ``/traces`` endpoint.
    expose_http:
        Start a loopback :class:`~repro.obs.http.TelemetryServer`
        serving ``/metrics`` (Prometheus text), ``/healthz``, and
        ``/traces``.  ``True`` binds an ephemeral port (read it from
        :attr:`http`), an ``int`` binds that port, ``False`` (default)
        exposes nothing.
    health:
        Numerical-health probing (:mod:`repro.obs.health`): per-solve
        residual gauge plus per-factorization pivot growth and
        condition estimate.  ``True``/``False`` force it, a
        :class:`~repro.obs.health.HealthThresholds` enables it with
        custom warn/page limits, and ``None`` (default) enables it
        exactly when the HTTP endpoint is exposed.

    Example
    -------
    >>> from repro.service import SolverService
    >>> from repro.workloads import poisson_block_system, random_rhs
    >>> A, _ = poisson_block_system(16, 4)
    >>> b = random_rhs(16, 4, nrhs=1, seed=0)
    >>> with SolverService(method="ard", nranks=4) as svc:
    ...     h = svc.register(A)
    ...     x = svc.solve(h, b)
    >>> bool(A.residual(x, b) < 1e-5)
    True
    """

    #: Minimum seconds between captured incidents of the same reason
    #: type — deadline breaches and reject storms recur in bursts and
    #: one bundle per burst is the useful granularity.  Tests lower it
    #: to capture every forced failure.
    incident_cooldown_s = 30.0
    #: An admission-reject storm is this many rejects inside
    #: :attr:`reject_storm_window_s` seconds.
    reject_storm_threshold = 10
    #: See :attr:`reject_storm_threshold`.
    reject_storm_window_s = 1.0

    def __init__(
        self,
        *,
        method: str = "auto",
        nranks: int = 1,
        cost_model: CostModel | None = None,
        workers: int = 2,
        max_pending: int = 256,
        overload: str = "reject",
        batch_window: float = 0.002,
        max_batch_rhs: int = 128,
        cache: FactorizationCache | None = None,
        trace: bool = False,
        expose_http: bool | int = False,
        health: bool | HealthThresholds | None = None,
    ):
        if method not in FACTOR_METHODS:
            raise ConfigError(
                f"unknown factor method {method!r}; choose from {FACTOR_METHODS}"
            )
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        if overload not in ("reject", "block"):
            raise ConfigError(
                f"overload must be 'reject' or 'block', got {overload!r}"
            )
        self.method = method
        self.nranks = nranks
        self.cost_model = cost_model
        self.max_pending = max_pending
        self.overload = overload
        self.trace = trace
        self.cache = cache if cache is not None else FactorizationCache()
        self.metrics = MetricsRegistry()
        if health is None:
            health = expose_http is not False
        if isinstance(health, HealthThresholds):
            self.health_thresholds: HealthThresholds | None = health
        else:
            self.health_thresholds = HealthThresholds() if health else None
        self._last_health: Any | None = None
        self._segments: deque[tuple[str, list[tuple[str, Any]]]] = deque(
            maxlen=_TRACE_SEGMENT_LIMIT)
        self._batcher = RequestBatcher(window=batch_window,
                                       max_batch_rhs=max_batch_rhs)
        #: (matrix fingerprint, nranks) -> resolved Plan, for
        #: ``method="auto"`` — same granularity as the factor cache.
        self._plan_cache: dict[tuple[str, int], Any] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._closing = False
        self._abandon = False
        from ..config import get_config

        cfg = get_config()
        self._flightrecs: list[FlightRecorder | None] = [
            FlightRecorder(i, cfg.flightrec_capacity) if cfg.flightrec
            else None
            for i in range(workers)
        ]
        self._incident_last: dict[str, float] = {}
        self._reject_times: deque[float] = deque(
            maxlen=self.reject_storm_threshold)
        self._tracers = [Tracer(rank=i) for i in range(workers)]
        self._threads = [
            threading.Thread(target=self._worker, args=(i,),
                             name=f"repro-service-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()
        self.http: TelemetryServer | None = None
        if expose_http is not False:
            port = 0 if expose_http is True else int(expose_http)
            self.http = TelemetryServer(
                self.metrics_snapshot,
                health_provider=self._health_snapshot,
                traces_provider=self._trace_snapshot,
                critpath_provider=self._critpath_snapshot,
                incidents_provider=self._incidents_snapshot,
                port=port,
            ).start()
            _log.info("http.started", url=self.http.url)

    # -- registration ------------------------------------------------------

    def register(self, matrix: BlockTridiagonalMatrix, *,
                 method: str | None = None, nranks: int | None = None,
                 eager: bool = False) -> FactorHandle:
        """Fingerprint ``matrix`` and return its :class:`FactorHandle`.

        ``eager=True`` factors immediately through the cache (warming
        it on the caller's thread); otherwise the first request pays
        the factor cost.
        """
        method = self.method if method is None else method
        nranks = self.nranks if nranks is None else nranks
        plan = None
        if method == "auto":
            plan = self._plan_for(matrix, nranks)
            method = plan.method
            nranks = plan.nranks
        handle = FactorHandle(
            matrix=matrix, method=method, nranks=nranks,
            key=factor_key(matrix, method, nranks), plan=plan,
        )
        if eager:
            self._factorization(handle)
        return handle

    def _plan_for(self, matrix: BlockTridiagonalMatrix, nranks: int) -> Any:
        """Resolve (and cache) the planner decision for one matrix.

        The plan is cached per (matrix fingerprint, rank count) —
        exactly the granularity of the factorization cache — so the
        planner runs once per distinct matrix, not once per request.
        The batcher's coalescing width is the representative RHS panel:
        that is the width the service actually solves at.
        """
        from ..core.api import _AUTO_FACTOR_PORTFOLIO
        from ..perfmodel.planner import plan as resolve_plan

        key = (matrix.fingerprint(), nranks)
        with self._lock:
            cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        chosen = resolve_plan(
            matrix.nblocks, matrix.block_size, p=nranks,
            r=self._batcher.max_batch_rhs, dtype=matrix.dtype,
            methods=_AUTO_FACTOR_PORTFOLIO,
        )
        _log.info("plan.selected", fingerprint=key[0], **chosen.to_dict())
        note_event("plan.selected", fingerprint=key[0], **chosen.to_dict())
        self.metrics.counter("plans.resolved").inc()
        with self._lock:
            self._plan_cache[key] = chosen
        return chosen

    def evict(self, target: FactorHandle | str) -> bool:
        """Drop the cached factorization for a handle (or raw key)."""
        key = target.key if isinstance(target, FactorHandle) else target
        return self.cache.evict(key)

    def _factorization(self, handle: FactorHandle) -> tuple[Any, bool]:
        def build() -> Any:
            return factor(handle.matrix, method=handle.method,
                          nranks=handle.nranks,
                          cost_model=self.cost_model, trace=self.trace)

        fact, hit = self.cache.get_or_create(handle.key, build)
        if not hit and self.health_thresholds is not None:
            # Matrix-level probes amortize per cache key: pivot growth
            # and the condition estimate are paid once on the miss path,
            # never per batch.
            self._last_health = probe_factor(
                handle.matrix, fact, thresholds=self.health_thresholds,
                registry=self.metrics,
            )
            self._check_health_page(op="factor")
        return fact, hit

    # -- submission --------------------------------------------------------

    def _as_handle(self, target: FactorHandle | BlockTridiagonalMatrix
                   ) -> FactorHandle:
        if isinstance(target, FactorHandle):
            return target
        if isinstance(target, BlockTridiagonalMatrix):
            return self.register(target)
        raise ShapeError(
            "submit target must be a FactorHandle or BlockTridiagonalMatrix, "
            f"got {type(target).__name__}"
        )

    def submit(self, target: FactorHandle | BlockTridiagonalMatrix,
               b: np.ndarray, *, deadline: float | None = None) -> SolveTicket:
        """Admit one solve request; returns immediately with a ticket.

        Parameters
        ----------
        target:
            A :class:`FactorHandle` from :meth:`register`, or a bare
            matrix (registered on the fly with the service defaults).
        b:
            Right-hand side(s) in any layout accepted by
            :func:`repro.linalg.blocktridiag.reshape_rhs` — a flat
            1-D vector, ``(N, M)``, ``(N*M, R)``, or ``(N, M, R)``.
            The solution comes back in the same layout.
        deadline:
            Optional bound, in seconds from now, on the request's
            *queue* time.
        """
        handle = self._as_handle(target)
        m = handle.matrix
        bb, original = reshape_rhs(b, m.nblocks, m.block_size)
        if deadline is not None and deadline <= 0:
            raise ConfigError(f"deadline must be > 0 seconds, got {deadline}")
        now = time.monotonic()
        # Correlation: adopt the caller's trace (so a traced outer
        # operation owns this request) or mint a fresh one, then derive
        # the per-request child id.
        caller_ctx = current_trace_context()
        req_ctx = (caller_ctx or new_trace_context()).for_request()
        request = SolveRequest(
            key=handle.key, handle=handle, bb=bb, original=original,
            future=Future(), enqueued=now,
            deadline=None if deadline is None else now + deadline,
            trace=req_ctx,
        )
        with self._lock:
            if self._closing:
                raise ServiceClosedError("service is closed to new requests")
            if self._batcher.pending_requests >= self.max_pending:
                if self.overload == "reject":
                    self.metrics.counter("requests.rejected").inc()
                    err = ServiceOverloadError(
                        f"admission queue full ({self.max_pending} pending)"
                    )
                    self._note_reject(err)
                    raise err
                self.metrics.counter("requests.blocked").inc()
                while (self._batcher.pending_requests >= self.max_pending
                       and not self._closing):
                    self._space.wait()
                if self._closing:
                    raise ServiceClosedError("service closed while blocked "
                                             "on admission")
            self._batcher.put(request)
            self.metrics.counter("requests.submitted").inc()
            self.metrics.gauge("queue.depth").set(
                self._batcher.pending_requests)
            self._cond.notify()
        _log.info("request.submitted", key=handle.key, nrhs=request.nrhs,
                  trace_id=req_ctx.trace_id, request_id=req_ctx.request_id)
        return SolveTicket(handle.key, request.nrhs, request.future,
                           trace_id=req_ctx.trace_id,
                           request_id=req_ctx.request_id)

    def solve(self, target: FactorHandle | BlockTridiagonalMatrix,
              b: np.ndarray, *, deadline: float | None = None,
              timeout: float | None = None) -> np.ndarray:
        """Synchronous convenience: ``submit(...).result(timeout)``."""
        return self.submit(target, b, deadline=deadline).result(timeout)

    # -- worker loop -------------------------------------------------------

    def _worker(self, index: int) -> None:
        tracer = self._tracers[index]
        recorder = self._flightrecs[index]
        with flight_recording(recorder):
            while True:
                with self._cond:
                    batch = None
                    while batch is None:
                        if self._abandon:
                            return
                        batch = self._batcher.take(time.monotonic(),
                                                   flush_all=self._closing)
                        if batch is not None:
                            break
                        if self._closing and self._batcher.idle:
                            self._cond.notify_all()
                            return
                        self._cond.wait(
                            timeout=self._batcher.next_ready_in(
                                time.monotonic()))
                    self.metrics.gauge("queue.depth").set(
                        self._batcher.pending_requests)
                    self._space.notify_all()
                try:
                    if recorder is not None:
                        with recorder.phase_span(f"batch:{batch[0].key}"):
                            self._serve(batch, tracer)
                    else:
                        self._serve(batch, tracer)
                finally:
                    with self._cond:
                        self._batcher.release(batch[0].key)
                        self._cond.notify_all()

    @staticmethod
    def _ids_of(req: SolveRequest) -> dict[str, Any]:
        """Correlation attrs of a request for spans and log records."""
        if req.trace is None:
            return {}
        return {"trace_id": req.trace.trace_id,
                "request_id": req.trace.request_id}

    def _serve(self, batch: list[SolveRequest], tracer: Tracer) -> None:
        taken = time.monotonic()
        taken_w = time.perf_counter()
        live: list[SolveRequest] = []
        for req in batch:
            queued_s = taken - req.enqueued
            self.metrics.summary("queued.wall_s").observe(queued_s)
            if self.trace:
                tracer.closed_span(
                    "queued", "request",
                    0.0, 0.0, taken_w - queued_s, taken_w,
                    key=req.key, nrhs=req.nrhs, **self._ids_of(req),
                )
            if req.deadline is not None and taken > req.deadline:
                self.metrics.counter("requests.expired").inc()
                _log.warning("request.expired", key=req.key,
                             queued_s=queued_s, **self._ids_of(req))
                expired = DeadlineExceededError(
                    f"request spent {queued_s * 1e3:.1f} ms queued, past "
                    "its deadline"
                )
                # Capture before resolving the future so a waiter that
                # wakes immediately already sees ``incident_path``.
                self._capture_service_incident(
                    expired, rank=tracer.rank, op="queued",
                    extra={"key": req.key, "queued_s": queued_s,
                           **self._ids_of(req)})
                req.future.set_exception(expired)
            else:
                live.append(req)
        if not live:
            return
        lead = live[0]
        try:
            # The batch executes under the lead request's TraceContext:
            # the nested SPMD runs (factor/solve), health probes, and
            # log records all inherit its trace_id.
            with trace_context(lead.trace):
                t0 = time.perf_counter()
                fact, hit = self._factorization(lead.handle)
                t1 = time.perf_counter()
                if not hit:
                    self.metrics.summary("factor.wall_s").observe(t1 - t0)
                    if self.trace:
                        tracer.closed_span("factor", "request", 0.0, 0.0,
                                           t0, t1, key=lead.key,
                                           **self._ids_of(lead))
                if len(live) == 1:
                    big = lead.bb
                else:
                    big = np.concatenate([r.bb for r in live], axis=2)
                x = fact.solve(big)
                t2 = time.perf_counter()
                if self.health_thresholds is not None:
                    xx = np.asarray(x).reshape(big.shape)
                    self._last_health = probe_solve(
                        lead.handle.matrix, xx, big,
                        thresholds=self.health_thresholds,
                        registry=self.metrics,
                    )
                    self._check_health_page(op="solve")
        except BaseException as exc:
            self.metrics.counter("requests.failed").inc(len(live))
            _log.error("request.failed", message=str(exc), key=lead.key,
                       batch=len(live), **self._ids_of(lead))
            self._capture_service_incident(
                exc, rank=tracer.rank, op="serve",
                extra={"key": lead.key, "batch": len(live),
                       **self._ids_of(lead)})
            for req in live:
                req.future.set_exception(exc)
            return
        nrhs = big.shape[2]
        if hit:
            # Request-level amortization: everything in this batch rode
            # a factorization someone else already paid for.
            self.metrics.counter("requests.served_from_cache").inc(len(live))
        self.metrics.counter("batches").inc()
        self.metrics.counter("rhs.solved").inc(nrhs)
        self.metrics.summary("batch.size").observe(nrhs)
        self.metrics.summary("solve.wall_s").observe(t2 - t1)
        if self.trace:
            tracer.closed_span("solved", "request", 0.0, 0.0, t1, t2,
                               key=lead.key, batch=len(live), nrhs=nrhs,
                               cache_hit=hit, **self._ids_of(lead))
            self._collect_segments(lead, fact)
        col = 0
        for req in live:
            piece = x[:, :, col:col + req.nrhs]
            col += req.nrhs
            req.future.set_result(restore_rhs_shape(piece, req.original))
            self.metrics.counter("requests.completed").inc()
            _log.info("request.served", key=req.key, nrhs=req.nrhs,
                      batch=len(live), cache_hit=hit, **self._ids_of(req))

    def _collect_segments(self, lead: SolveRequest, fact: Any) -> None:
        """Retain the batch's traced SPMD segments for :meth:`write_trace`.

        Sequential factorizations (thomas/cyclic) never run on the
        simulated runtime and contribute nothing.
        """
        solve_result = getattr(fact, "last_solve_result", None)
        if solve_result is None or getattr(solve_result, "traces", None) is None:
            return
        segments: list[tuple[str, Any]] = []
        factor_result = getattr(fact, "factor_result", None)
        if factor_result is not None and getattr(factor_result, "traces",
                                                 None) is not None:
            segments.append(("factor", factor_result))
        segments.append(("solve", solve_result))
        rid = lead.trace.request_id if lead.trace is not None else "?"
        self._segments.append((f"request {rid}", segments))

    def flush(self) -> None:
        """Make every queued request immediately flushable.

        Collapses the remaining batch windows (queued requests stop
        waiting for coalescing partners); batches still respect
        ``max_batch_rhs`` and per-key serialization.
        """
        with self._lock:
            self._batcher.expedite()
            self._cond.notify_all()

    # -- lifecycle ---------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests and shut the workers down.

        ``drain=True`` (default) serves everything already queued
        (flushing partial batches immediately); ``drain=False`` fails
        pending requests with
        :class:`~repro.exceptions.ServiceClosedError`.  Idempotent.
        """
        with self._lock:
            self._closing = True
            if not drain:
                self._abandon = True
                abandoned = self._batcher.drain_pending()
            else:
                abandoned = []
            self._cond.notify_all()
            self._space.notify_all()
        for req in abandoned:
            self.metrics.counter("requests.failed").inc()
            req.future.set_exception(
                ServiceClosedError("service closed before this request ran"))
        for t in self._threads:
            t.join(timeout)
        if self.http is not None:
            self.http.stop()
            self.http = None

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=exc == (None, None, None))

    # -- observability -----------------------------------------------------

    def traces(self) -> list[RankTrace]:
        """Per-worker request-lifecycle timelines (``trace=True`` runs)."""
        return [t.finish() for t in self._tracers]

    def write_trace(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write one merged Chrome trace of the service's activity.

        Combines the worker lifecycle timelines (``cat="request"``
        spans, one tid per worker) with the retained per-batch SPMD
        rank timelines (``trace=True`` services only) into one file —
        every event's ``args`` carry the ``trace_id`` of the request
        that produced it, so one solve is followable from admission
        through its rank spans in Perfetto.
        """
        from ..obs import write_chrome_trace

        source: dict[str, Any] = {
            "service lifecycle": [("requests",
                                   _LifecycleTraces(self.traces()))],
        }
        for label, segments in list(self._segments):
            source[label] = segments
        return write_chrome_trace(path, source)

    # -- incident capture --------------------------------------------------

    def _capture_service_incident(self, exc: BaseException | None, *,
                                  rank: int | None = None,
                                  op: str | None = None,
                                  extra: dict[str, Any] | None = None) -> None:
        """Best-effort service-side incident capture (docs/INCIDENTS.md).

        Snapshots every worker's flight-recorder ring into one bundle,
        rate-limited per reason type by :attr:`incident_cooldown_s`.
        ``exc=None`` records a health ``page`` (the one service failure
        with no exception object).  Never raises — capture must not
        mask or delay the failure being reported.
        """
        try:
            from ..config import get_config

            if not get_config().flightrec:
                return
            if exc is not None and getattr(exc, "incident_path",
                                           None) is not None:
                return
            if exc is None:
                report = self._last_health
                reason: dict[str, Any] = {
                    "type": "health_page", "exception": None,
                    "message": "; ".join(report.messages)
                    if report is not None else "health page",
                    "rank": rank, "op": op,
                }
            else:
                reason = classify_reason(exc, rank=rank, op=op)
            now = time.monotonic()
            last = self._incident_last.get(reason["type"])
            if last is not None and now - last < self.incident_cooldown_s:
                return
            self._incident_last[reason["type"]] = now
            rings = {
                i: (rec.snapshot() if rec is not None else None)
                for i, rec in enumerate(self._flightrecs)
            }
            path = capture_incident(
                reason, backend="service", nranks=len(self._flightrecs),
                rings=rings, trace_ctx=current_trace_context(), extra=extra,
            )
            if exc is not None and path is not None:
                exc.incident_path = path
        except Exception:  # pragma: no cover - capture is best-effort
            _log.warning("incident.capture_failed", op=op or "?")

    def _note_reject(self, err: ServiceOverloadError) -> None:
        """Track one admission reject; capture on a reject storm.

        A storm is :attr:`reject_storm_threshold` rejects inside
        :attr:`reject_storm_window_s` seconds — one slow consumer
        bouncing off a full queue is backpressure working as designed,
        a whole window of rejects is an incident.
        """
        now = time.monotonic()
        self._reject_times.append(now)
        if (len(self._reject_times) == self._reject_times.maxlen
                and now - self._reject_times[0] <= self.reject_storm_window_s):
            self._capture_service_incident(
                err, op="admit",
                extra={"rejects": len(self._reject_times),
                       "window_s": now - self._reject_times[0],
                       "max_pending": self.max_pending})

    def _check_health_page(self, *, op: str) -> None:
        """Capture an incident when the latest health probe paged."""
        report = self._last_health
        if report is not None and getattr(report, "status", "ok") == "page":
            self._capture_service_incident(None, op=op)

    def _incidents_snapshot(self) -> dict[str, Any]:
        """The ``/incidents`` document: on-disk bundle summaries,
        newest first (see :class:`repro.obs.postmortem.IncidentStore`)."""
        store = IncidentStore()
        return {
            "enabled": store.enabled,
            "directory": str(store.directory) if store.enabled else None,
            "retention": store.retention,
            "incidents": store.list(),
        }

    def _health_snapshot(self) -> dict[str, Any]:
        """The ``/healthz`` document (see :mod:`repro.obs.health`)."""
        if self.health_thresholds is None:
            return {"status": "ok", "probes": "disabled"}
        if self._last_health is None:
            return {"status": "ok", "probes": "no solves yet",
                    "thresholds": self.health_thresholds.to_dict()}
        return self._last_health.to_dict()

    def _trace_snapshot(self) -> dict[str, Any]:
        """The ``/traces`` document: retained traced batches, newest
        last, plus lifecycle span counts per worker."""
        batches = []
        for label, segments in list(self._segments):
            entry: dict[str, Any] = {"label": label}
            for seg_label, result in segments:
                trace_id = next(
                    (t.trace_id for t in (result.traces or [])
                     if getattr(t, "trace_id", None) is not None), None)
                if trace_id is not None:
                    entry["trace_id"] = trace_id
                entry[seg_label] = {
                    "virtual_time": result.virtual_time,
                    "nranks": result.nranks,
                }
            batches.append(entry)
        return {
            "traces": batches,
            "workers": [{"worker": t.rank, "spans": len(t.spans)}
                        for t in self._tracers],
        }

    def _critpath_snapshot(self) -> dict[str, Any]:
        """The ``/critpath`` document: critical-path analysis of the
        most recently retained traced batch (``trace=True`` services;
        ``{"critpath": None}`` when nothing is retained yet)."""
        from ..obs import analyze_critical_path

        for label, segments in reversed(list(self._segments)):
            report = analyze_critical_path(segments)
            return {"label": label, "critpath": report.to_dict()}
        return {"critpath": None}

    def metrics_snapshot(self) -> dict[str, Any]:
        """Service metrics merged with the cache counters.

        One JSON-serializable dict::

            {"counters": ..., "gauges": ..., "summaries": ...,
             "cache": {"hits": ..., "misses": ..., "hit_rate": ...}}
        """
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats().to_dict()
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SolverService(method={self.method!r}, nranks={self.nranks}, "
                f"workers={len(self._threads)}, "
                f"pending={self._batcher.pending_requests}, "
                f"closed={self._closing})")
