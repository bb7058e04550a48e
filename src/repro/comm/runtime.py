"""Thread-based SPMD runtime with virtual-time accounting.

:func:`run_spmd` executes one Python function on ``nranks`` simulated
ranks (one thread each).  Ranks communicate through an in-process
mailbox fabric with MPI-like matching (communicator, source, tag) and
carry :class:`~repro.comm.clock.VirtualClock` instances so that the
simulation yields a modelled parallel makespan in addition to real
results (see DESIGN.md, "Hardware substitution").

This thread backend is the *reference semantics*; ``run_spmd`` can
alternatively dispatch the same program to the process backend
(:mod:`repro.comm.mp`) for true multi-core execution — select it with
``backend="processes"`` or the ``comm_backend`` config field (see
docs/BACKENDS.md).  Matching and deadlock reporting are shared between
backends through :mod:`repro.comm.matching`.

Key properties
--------------
- **Deterministic virtual time.**  Clocks advance from counted flops and
  modelled message latencies only; host thread scheduling cannot change
  the virtual makespan because receives advance to the *modelled*
  arrival time of the matched message.
- **Exact deadlock detection.**  The runtime maintains a wait-for graph
  (rank → the ``(source, tag)`` it is blocked on).  The moment every
  unfinished rank is blocked in a receive that no in-flight message can
  satisfy, the simulation provably cannot progress — sends are eager,
  so only a running rank could ever deliver a new message — and all
  ranks abort with a :class:`~repro.exceptions.DeadlockError` that
  names the wait-for cycle (or the blocked set) and any unmatched
  messages.  A rank in a long local compute phase is *not* blocked, so
  wall-clock stalls never produce false positives.
- **Optional SPMD verification.**  With ``verify=True`` (or
  ``REPRO_VERIFY=1``) a :class:`repro.check.verifier.SpmdVerifier`
  cross-checks every rank's collective call sequence, reporting the
  first divergent collective, and messages left unreceived at finalize
  raise :class:`~repro.exceptions.UnconsumedMessageError` (they warn in
  default mode).  The communicator adds the aliasing checks: received
  arrays arrive read-only, and an ``isend`` buffer written before its
  ``wait()`` raises.  See docs/CHECKING.md.
- **Value semantics.**  Message payloads are copied at send time by
  default, so in-process sharing cannot mask bugs that real distributed
  memory would expose.  Verification copies even for
  ``copy_messages=False`` callers, so its read-only receive buffers
  never freeze the sender's arrays.
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
from typing import Any, Callable, Sequence

from ..exceptions import (
    CommError,
    DeadlockError,
    UnconsumedMessageError,
    UnconsumedMessageWarning,
)
from ..obs.context import (
    TraceContext,
    current_trace_context,
    new_trace_context,
    trace_context,
)
from ..obs.flightrec import FlightRecorder, flight_recording
from ..obs.tracer import Tracer, kernel_time, tracing
from ..util.flops import FlopCounter, counting_flops
from .clock import VirtualClock
from .costmodel import CostModel, DEFAULT_COST_MODEL, payload_nbytes
from .fastcopy import fastcopy_counted
from .matching import Unmatched, WaitInfo, deadlock_report, match_in, peek_in
from .stats import RankStats, SimulationResult

__all__ = ["Runtime", "RankContext", "run_spmd", "CommAborted"]


class CommAborted(CommError):
    """Raised in ranks blocked on communication when the simulation is
    aborted because another rank failed (or a deadlock was detected)."""


class _Message:
    """Internal envelope for one point-to-point message.

    ``source`` is the sender's rank *within* ``comm_key``;
    ``source_world`` its world rank (kept for diagnostics).
    """

    __slots__ = ("comm_key", "source", "tag", "payload", "nbytes",
                 "arrival_time", "seq", "source_world", "trace_id")

    def __init__(self, comm_key, source, tag, payload, nbytes, arrival_time,
                 seq, source_world, trace_id=None):
        self.comm_key = comm_key
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.arrival_time = arrival_time
        self.seq = seq
        self.source_world = source_world
        # Correlation id of the operation the sender was executing
        # (see repro.obs.context); None when the run is uncorrelated.
        self.trace_id = trace_id


class RankContext:
    """Per-rank simulation state: clock, flop counter, statistics."""

    __slots__ = ("rank", "clock", "counter", "stats", "runtime", "tracer",
                 "trace_ctx", "coll_depth", "current_coll", "flightrec")

    def __init__(self, rank: int, runtime: "Runtime"):
        self.rank = rank
        self.runtime = runtime
        self.counter = FlopCounter()
        self.clock = VirtualClock(runtime.cost_model, self.counter)
        self.stats = RankStats(rank=rank)
        # Per-rank child of the run's TraceContext (rank filled in),
        # installed thread-locally for the duration of the rank fn.
        self.trace_ctx = (
            runtime.trace_ctx.for_rank(rank)
            if runtime.trace_ctx is not None else None
        )
        self.tracer = (
            Tracer(rank=rank, clock=self.clock, counter=self.counter,
                   stats=self.stats,
                   trace_id=(runtime.trace_ctx.trace_id
                             if runtime.trace_ctx is not None else None))
            if runtime.trace else None
        )
        # Always-on flight recorder (black-box ring; see
        # repro.obs.flightrec) — None when disabled by config.
        cap = runtime.flightrec_capacity
        self.flightrec = (FlightRecorder(rank, cap, clock=self.clock)
                          if cap else None)
        # Collective nesting depth: user-facing collectives compose
        # (allgather = gather + bcast), so only depth-0 entries count.
        self.coll_depth = 0
        # Name of the outermost collective this rank is inside, if any;
        # read by deadlock reports to say what op a blocked rank was in.
        self.current_coll: str | None = None

    def finalize_stats(self) -> RankStats:
        self.clock.sync_compute()
        self.stats.virtual_time = self.clock.now
        self.stats.flops = self.counter.total
        self.stats.flops_by_kernel = self.counter.snapshot()
        return self.stats


class Runtime:
    """Mailbox fabric shared by all ranks of one simulation.

    Not constructed directly by users; :func:`run_spmd` owns the
    lifecycle.  All shared state is guarded by a single condition
    variable — message granularity in this library is coarse (block
    matrices), so one lock is not a bottleneck.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: CostModel,
        *,
        copy_messages: bool = True,
        poll_interval: float = 0.05,
        trace: bool = False,
        verify: bool = False,
        trace_ctx: TraceContext | None = None,
    ):
        if nranks <= 0:
            raise CommError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.cost_model = cost_model
        self.copy_messages = copy_messages
        self.trace = trace
        self.trace_ctx = trace_ctx
        self.poll_interval = poll_interval
        if verify:
            from ..check.verifier import SpmdVerifier  # deferred: cycle

            self.verifier: Any | None = SpmdVerifier(nranks)
        else:
            self.verifier = None
        self._cond = threading.Condition()
        self._inboxes: list[list[_Message]] = [[] for _ in range(nranks)]
        self._n_live = nranks
        self._waiting: dict[int, WaitInfo] = {}
        self._abort: BaseException | None = None
        self._seq = itertools.count()
        from ..config import get_config  # deferred: avoids import cycle

        cfg = get_config()
        self.flightrec_capacity = (cfg.flightrec_capacity
                                   if cfg.flightrec else 0)
        self.contexts = [RankContext(r, self) for r in range(nranks)]

    # -- sending ---------------------------------------------------------

    def post(self, ctx: RankContext, comm_key, dest_world: int, source_commrank: int,
             tag: int, payload: Any) -> None:
        """Deposit a message into ``dest_world``'s inbox (eager send)."""
        if not 0 <= dest_world < self.nranks:
            raise CommError(f"destination {dest_world} out of range")
        ctx.clock.sync_compute()
        ctx.clock.charge_overhead()
        if self.copy_messages or self.verifier is not None:
            with kernel_time("comm.copy"):
                payload, ndeep = fastcopy_counted(payload)
            ctx.stats.payload_copies += 1
            ctx.stats.payload_deepcopies += ndeep
        nbytes = payload_nbytes(payload)
        arrival = ctx.clock.now + self.cost_model.message_time(nbytes)
        ctx.stats.bytes_sent += nbytes
        ctx.stats.msgs_sent += 1
        seq = next(self._seq)
        if ctx.tracer is not None:
            # The ``seq`` identifier is the cross-rank happens-before
            # edge: the matched receive records the same value, so
            # repro.obs.critpath can reconstruct the send->recv DAG.
            ctx.tracer.instant("send", dest=dest_world, tag=tag,
                               nbytes=nbytes, seq=seq, arrival=arrival)
        fr = ctx.flightrec
        if fr is not None:
            fr.record_send(dest_world, tag, seq, nbytes)
        msg = _Message(comm_key, source_commrank, tag, payload, nbytes, arrival,
                       seq, ctx.rank,
                       trace_id=(ctx.trace_ctx.trace_id
                                 if ctx.trace_ctx is not None else None))
        with self._cond:
            if self._abort is not None:
                raise CommAborted("simulation aborted") from self._abort
            self._inboxes[dest_world].append(msg)
            self._cond.notify_all()

    # -- receiving -------------------------------------------------------

    def match(self, ctx: RankContext, comm_key, source: int, tag: int, *,
              source_world: int | None = None) -> _Message:
        """Block until a matching message arrives; return it.

        ``source``/``tag`` of ``-1`` act as wildcards (ANY_SOURCE /
        ANY_TAG).  Matching is in arrival order among candidates.
        ``source_world`` is the awaited sender's world rank when the
        caller knows it; it feeds the wait-for graph used for exact
        deadlock detection and its diagnostics.
        """
        v_wait = ctx.clock.sync_compute()
        w_wait = time.perf_counter() if ctx.tracer is not None else 0.0
        inbox = self._inboxes[ctx.rank]
        with self._cond:
            if self._abort is not None:
                raise CommAborted("simulation aborted") from self._abort
            msg = match_in(inbox, comm_key, source, tag)
            if msg is None:
                fr = ctx.flightrec
                if fr is not None:
                    # Recorded *before* blocking so a deadlocked rank's
                    # ring ends with the wait it is stuck in.
                    fr.record_wait(
                        ctx.current_coll or "recv",
                        source_world if source_world is not None else source,
                        tag,
                    )
                self._waiting[ctx.rank] = WaitInfo(
                    comm_key, source, tag, source_world, ctx.current_coll
                )
                try:
                    while True:
                        self._check_deadlock_locked()
                        self._cond.wait(timeout=self.poll_interval)
                        if self._abort is not None:
                            raise CommAborted("simulation aborted") from self._abort
                        msg = match_in(inbox, comm_key, source, tag)
                        if msg is not None:
                            break
                finally:
                    del self._waiting[ctx.rank]
        ctx.clock.charge_overhead()
        ctx.clock.advance_to(msg.arrival_time)
        if ctx.tracer is not None:
            ctx.tracer.closed_span(
                "recv", "comm", v_wait, ctx.clock.now,
                w_wait, time.perf_counter(),
                source=msg.source, tag=msg.tag, nbytes=msg.nbytes,
                seq=msg.seq, source_world=msg.source_world,
                arrival=msg.arrival_time,
            )
        fr = ctx.flightrec
        if fr is not None:
            fr.record_recv(msg.source_world, msg.tag, msg.seq, msg.nbytes)
            sender_fr = self.contexts[msg.source_world].flightrec
            if sender_fr is not None:
                sender_fr.mark_consumed(msg.seq)
        return msg

    def _check_deadlock_locked(self) -> None:
        """Abort with a precise report when no progress is possible.

        Deadlock is declared *exactly*: every unfinished rank is blocked
        in :meth:`match` and none of their pending receives can be
        satisfied by a message already in flight.  Sends are eager, so
        under that condition no new message can ever appear — ranks in
        long local compute phases keep the check from firing because
        they are live but not waiting.
        """
        if self._n_live <= 0 or len(self._waiting) < self._n_live:
            return
        for rank, wait in self._waiting.items():
            if peek_in(self._inboxes[rank], wait.comm_key, wait.source,
                       wait.tag):
                return  # that rank will wake and match within poll_interval
        err = DeadlockError(deadlock_report(
            self._waiting, self._n_live, unmatched=self._unconsumed(),
        ))
        self._abort = err
        self._cond.notify_all()
        raise err

    def _unconsumed(self) -> list[Unmatched]:
        """Every message still sitting in an inbox."""
        return [
            Unmatched.of(msg, dest)
            for dest, box in enumerate(self._inboxes)
            for msg in box
        ]

    # -- lifecycle -------------------------------------------------------

    def rank_finished(self) -> None:
        with self._cond:
            self._n_live -= 1
            self._cond.notify_all()

    def abort(self, exc: BaseException) -> None:
        """Abort the simulation; blocked ranks raise :class:`CommAborted`."""
        with self._cond:
            if self._abort is None:
                self._abort = exc
            self._cond.notify_all()


def run_spmd(
    fn: Callable[..., Any],
    nranks: int,
    *args: Any,
    cost_model: CostModel | None = None,
    copy_messages: bool = True,
    rank_args: Sequence[tuple] | None = None,
    count_flops: bool = True,
    trace: bool = False,
    verify: bool | None = None,
    backend: str | None = None,
    **kwargs: Any,
) -> SimulationResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    fn:
        The SPMD program.  Its first argument is the rank's
        :class:`repro.comm.communicator.Communicator`.
    nranks:
        Number of simulated ranks.  ``nranks == 1`` executes on the
        calling thread with no thread or process spawn.
    cost_model:
        Machine model for virtual time; defaults to
        :data:`repro.comm.costmodel.DEFAULT_COST_MODEL`.
    copy_messages:
        Copy payloads at send time (distributed-memory semantics).
        Disable only for trusted benchmark inner loops.  The process
        backend always has value semantics (payloads cross a process
        boundary), so it ignores ``copy_messages=False``; so does a
        verified run, whose received arrays are read-only.
    rank_args:
        Optional per-rank extra positional arguments: ``rank_args[r]``
        is appended after ``args`` for rank ``r``.
    count_flops:
        Enable flop accounting inside every rank (default on: the
        virtual-time model derives compute time from counted flops).
        Workers otherwise inherit the caller's configuration.
    trace:
        Give every rank a :class:`repro.obs.tracer.Tracer` (installed
        thread-locally for the duration of ``fn``) and return the
        per-rank timelines on ``SimulationResult.traces``.  Off by
        default; when off, instrumented code pays only the no-op span
        guard.
    verify:
        Enable the SPMD runtime verifier
        (:class:`repro.check.verifier.SpmdVerifier`): every rank's
        collective call sequence is cross-checked so a divergent rank
        raises :class:`~repro.exceptions.SpmdDivergenceError` at the
        first mismatched collective, and messages left unreceived at
        finalize raise
        :class:`~repro.exceptions.UnconsumedMessageError` (without
        verification they only warn).  Received arrays are delivered
        read-only, so an in-place write raises ``ValueError`` at the
        offending line, and ``Request.wait()`` on an ``isend`` raises
        :class:`~repro.exceptions.CommError` if the payload's arrays
        changed in flight.  ``None`` (the default) defers to the
        ``REPRO_VERIFY`` environment variable (``0``/``off``/``false``/
        ``no`` or empty: off).
    backend:
        ``"threads"`` (reference, virtual-time) or ``"processes"``
        (true multi-core via :mod:`repro.comm.mp`).  ``None`` (the
        default) defers to the ``comm_backend`` config field.  The
        process backend requires ``fn`` and its arguments to be
        picklable; when they are not, the run falls back to threads
        with a one-time warning (see docs/BACKENDS.md).

    Returns
    -------
    SimulationResult
        Per-rank return values and statistics (plus traces when
        ``trace=True``).

    Raises
    ------
    Exception
        The first (lowest-rank) exception raised inside ``fn`` is
        re-raised in the caller after all ranks have stopped.
    """
    import dataclasses as _dc

    from ..config import env_flag, get_config, install_config
    from .communicator import Communicator  # deferred: avoids import cycle

    if "deadlock_timeout" in kwargs:
        # Removed after one release as a deprecated no-op.  Without this
        # check it would silently forward to ``fn`` as a program kwarg.
        raise TypeError(
            "run_spmd() no longer accepts 'deadlock_timeout': deadlock "
            "detection is exact (wait-for graph; see docs/CHECKING.md) "
            "-- drop the argument"
        )
    config = get_config()
    if backend is None:
        backend = config.comm_backend
    if backend not in ("threads", "processes"):
        raise CommError(
            f"unknown backend {backend!r}: expected 'threads' or "
            f"'processes'"
        )
    worker_config = _dc.replace(config, flop_counting=count_flops)
    if rank_args is not None and len(rank_args) != nranks:
        raise CommError(
            f"rank_args has {len(rank_args)} entries for {nranks} ranks"
        )
    if verify is None:
        verify = env_flag("REPRO_VERIFY", default=False)
    if backend == "processes" and nranks > 1:
        from . import mp  # deferred: spawn machinery only when selected

        dispatched = mp.run_spmd_processes(
            fn, nranks, *args,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            rank_args=rank_args, worker_config=worker_config,
            trace=trace, verify=verify, **kwargs,
        )
        if dispatched is not None:
            return dispatched
        # fn/args were unpicklable: mp warned and deferred to threads.
    # Correlation: adopt the caller's active TraceContext (e.g. a service
    # request), or mint a fresh one when tracing so the per-rank spans of
    # this run already share one trace_id.
    run_ctx = current_trace_context()
    if run_ctx is None and trace:
        run_ctx = new_trace_context()
    runtime = Runtime(
        nranks,
        cost_model or DEFAULT_COST_MODEL,
        copy_messages=copy_messages,
        trace=trace,
        verify=verify,
        trace_ctx=run_ctx,
    )
    values: list[Any] = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks
    start = time.perf_counter()

    def worker(rank: int) -> None:
        ctx = runtime.contexts[rank]
        comm = Communicator(runtime, ctx, comm_key=("world",), group=list(range(nranks)), rank=rank)
        extra = tuple(rank_args[rank]) if rank_args is not None else ()
        previous_config = get_config()
        install_config(worker_config)
        def call() -> Any:
            with flight_recording(ctx.flightrec):
                if ctx.tracer is not None:
                    with tracing(ctx.tracer):
                        return fn(comm, *args, *extra, **kwargs)
                return fn(comm, *args, *extra, **kwargs)

        try:
            with counting_flops(ctx.counter):
                if ctx.trace_ctx is not None:
                    with trace_context(ctx.trace_ctx):
                        values[rank] = call()
                else:
                    values[rank] = call()
        except CommAborted as exc:
            errors[rank] = exc
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = exc
            runtime.abort(exc)
        finally:
            ctx.finalize_stats()
            runtime.rank_finished()
            install_config(previous_config)

    if nranks == 1:
        worker(0)
    else:
        threads = [
            threading.Thread(target=worker, args=(r,), name=f"repro-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    wall = time.perf_counter() - start

    def capture(exc: BaseException) -> None:
        # Incident bundle on any failure path (see repro.obs.postmortem);
        # must never mask the original exception.
        if not runtime.flightrec_capacity:
            return
        try:
            from ..obs.postmortem import record_failure

            rank = next((i for i, e in enumerate(errors) if e is exc), None)
            record_failure(
                exc, backend="threads", nranks=nranks,
                rings={r: (c.flightrec.snapshot()
                           if c.flightrec is not None else None)
                       for r, c in enumerate(runtime.contexts)},
                trace_ctx=run_ctx, rank=rank,
            )
        except Exception:  # pragma: no cover - capture is best-effort
            pass

    primary = next(
        (e for e in errors if e is not None and not isinstance(e, CommAborted)),
        None,
    )
    if primary is not None:
        capture(primary)
        raise primary
    aborted = next((e for e in errors if e is not None), None)
    if aborted is not None:
        capture(aborted)
        raise aborted
    leftover = runtime._unconsumed()
    if leftover:
        report = (
            f"simulation finalized with {len(leftover)} unreceived "
            f"message(s):\n  " + "\n  ".join(m.describe() for m in leftover)
        )
        if runtime.verifier is not None:
            err = UnconsumedMessageError(report)
            capture(err)
            raise err
        warnings.warn(report, UnconsumedMessageWarning, stacklevel=2)
    stats = [ctx.stats for ctx in runtime.contexts]
    traces = (
        [ctx.tracer.finish() for ctx in runtime.contexts] if trace else None
    )
    return SimulationResult(
        values=values, stats=stats, wall_time=wall, traces=traces,
        trace_id=run_ctx.trace_id if run_ctx is not None else None,
        backend="threads",
    )
