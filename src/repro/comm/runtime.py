"""Thread-based SPMD runtime with virtual-time accounting.

:func:`run_spmd` executes one Python function on ``nranks`` simulated
ranks (rank 0 on the calling thread, one thread for each other rank;
rank threads are kept between runs, see :class:`_RankThreads`).
Ranks communicate through an in-process mailbox fabric with MPI-like
matching (communicator, source, tag) and carry
:class:`~repro.comm.clock.VirtualClock` instances so that the simulation
yields a modelled parallel makespan in addition to real results (see
DESIGN.md, "Hardware substitution").

This thread backend is the *reference semantics*; ``run_spmd`` can
alternatively dispatch the same program to the process backend
(:mod:`repro.comm.mp`) for true multi-core execution — select it with
``backend="processes"`` or the ``comm_backend`` config field (see
docs/BACKENDS.md).  Both backends subclass :class:`Fabric`, whose one
``post`` and one ``match`` keep the clocks, ``seq`` ids, statistics
and the one record (a flight-recorder row) of each message event; each
backend supplies only its transport.  Matching and deadlock reporting
are shared through :mod:`repro.comm.matching`.

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

import dataclasses
import functools
import itertools
import os
import queue
import threading
import time
import warnings
from contextlib import nullcontext
from typing import Any, Callable, Sequence

from ..config import ReproConfig, env_flag, get_config, install_config
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

__all__ = ["Fabric", "Runtime", "RankContext", "run_spmd", "CommAborted"]


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
                 seq, source_world, trace_id):
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


#: Send sequence space: world rank ``r`` issues seqs in
#: ``[r * _SEQ_STRIDE, (r+1) * _SEQ_STRIDE)``, so every message gets an
#: id unique across ranks without coordination (critpath pairs on it).
_SEQ_STRIDE = 1 << 40


class RankContext:
    """Per-rank simulation state: clock, flop counter, statistics,
    tracer, and where message rows go (the ring; when traced, also the
    trace)."""

    __slots__ = ("rank", "clock", "counter", "stats", "runtime", "tracer",
                 "trace_ctx", "coll_depth", "current_coll", "flightrec",
                 "comm", "keeps_rows", "seqs")

    def __init__(self, rank: int, runtime: "Fabric"):
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
        cfg = get_config()
        self.flightrec = (
            FlightRecorder(rank, cfg.flightrec_capacity, clock=self.clock)
            if cfg.flightrec else None
        )
        self.comm = self.tracer.comm if self.tracer is not None else None
        self.keeps_rows = self.flightrec is not None or self.comm is not None
        self.seqs = itertools.count(rank * _SEQ_STRIDE)
        # Collective nesting depth: user-facing collectives compose
        # (allgather = gather + bcast), so only depth-0 entries count.
        self.coll_depth = 0
        # Name of the outermost collective this rank is inside, if any;
        # read by deadlock reports to say what op a blocked rank was in.
        self.current_coll: str | None = None

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run the rank program ``fn(world, *args, **kwargs)``.

        The flop counter, trace context, flight recorder and tracer are
        installed on the calling thread for the duration of the call.
        """
        world = communicator.Communicator(
            self.runtime, self, ("world",), list(range(self.runtime.nranks)),
            self.rank)
        ctx = (trace_context(self.trace_ctx)
               if self.trace_ctx is not None else nullcontext())
        tr = tracing(self.tracer) if self.tracer is not None else nullcontext()
        with counting_flops(self.counter), ctx, \
                flight_recording(self.flightrec), tr:
            return fn(world, *args, **kwargs)

    # -- the one record of each message event -----------------------------
    # One row each (repro.obs.flightrec.RECORD_FIELDS).  A send and its
    # receive carry the same ``seq``, the edge repro.obs.critpath pairs.

    def record_send(self, dest: int, tag: int, seq: int, nbytes: int) -> None:
        self.stats.bytes_sent += nbytes
        self.stats.msgs_sent += 1
        if self.keeps_rows:
            self._keep(("send", time.perf_counter(), self.clock.now, "send",
                        dest, tag, seq, nbytes, None))

    def record_wait(self, source: int, tag: int) -> None:
        if self.keeps_rows:
            self._keep(("wait", time.perf_counter(), self.clock.now,
                        self.current_coll or "recv", source, tag, -1, 0,
                        None))

    def record_recv(self, msg: "_Message", v_wait: float,
                    w_wait: float) -> None:
        if self.keeps_rows:
            self._keep(("recv", time.perf_counter(), self.clock.now, "recv",
                        msg.source_world, msg.tag, msg.seq, msg.nbytes,
                        (v_wait, w_wait, msg.arrival_time)))

    def _keep(self, row: tuple) -> None:
        if self.flightrec is not None:
            self.flightrec.record(row)
        if self.comm is not None:
            self.comm.append(row)

    def finalize_stats(self) -> RankStats:
        self.clock.sync_compute()
        self.stats.virtual_time = self.clock.now
        self.stats.flops = self.counter.total
        self.stats.flops_by_kernel = self.counter.snapshot()
        return self.stats


class Fabric:
    """The backend-independent half of every message: :meth:`post` and
    :meth:`match`.

    Both backends share the clock, cost-model, ``seq``, statistics and
    message-row steps here.  A subclass supplies only the transport:

    - ``_pack(ctx, payload, nbytes)`` — the send-side copy (or wire form);
    - ``_deliver(dest_world, msg)`` — hand the envelope to the destination;
    - ``_poll(rank, comm_key, source, tag)`` — a matching envelope with
      its payload ready, or ``None`` without blocking;
    - ``_block(rank, wait)`` — block until a message matching ``wait``
      (a :class:`~repro.comm.matching.WaitInfo`) arrives and return it;
    - ``_sender_ring(world)`` — the sender's flight recorder when this
      process holds it (its in-flight send is retired on receipt).
    """

    def __init__(self, nranks: int, cost_model: CostModel, verifier: Any,
                 *, trace: bool, trace_ctx: TraceContext | None):
        self.nranks = nranks
        self.cost_model = cost_model
        self.verifier = verifier
        self.trace = trace
        self.trace_ctx = trace_ctx

    def post(self, ctx: RankContext, comm_key, dest_world: int,
             source_commrank: int, tag: int, payload: Any) -> None:
        """Eager send: deposit a message for ``dest_world`` and return."""
        if not 0 <= dest_world < self.nranks:
            raise CommError(f"destination {dest_world} out of range")
        ctx.clock.sync_compute()
        ctx.clock.charge_overhead()
        # Modelled size and arrival come from the original payload, so
        # the virtual timeline never depends on the transport.
        nbytes = payload_nbytes(payload)
        arrival = ctx.clock.now + self.cost_model.message_time(nbytes)
        wire = self._pack(ctx, payload, nbytes)
        seq = next(ctx.seqs)
        ctx.record_send(dest_world, tag, seq, nbytes)
        self._deliver(dest_world, _Message(
            comm_key, source_commrank, tag, wire, nbytes, arrival, seq,
            ctx.rank,
            ctx.trace_ctx.trace_id if ctx.trace_ctx is not None else None))

    def match(self, ctx: RankContext, comm_key, source: int, tag: int, *,
              source_world: int | None = None) -> _Message:
        """Block until a matching message arrives; return it.

        ``source``/``tag`` of ``-1`` act as wildcards (ANY_SOURCE /
        ANY_TAG).  Matching is in arrival order among candidates.
        ``source_world`` is the awaited sender's world rank when the
        caller knows it; it feeds the wait-for graph used for deadlock
        detection and its diagnostics.
        """
        v_wait = ctx.clock.sync_compute()
        w_wait = time.perf_counter()
        msg = self._poll(ctx.rank, comm_key, source, tag)
        if msg is None:
            # Recorded *before* blocking so a stuck rank's ring ends
            # with the wait it is stuck in.
            ctx.record_wait(
                source_world if source_world is not None else source, tag)
            msg = self._block(ctx.rank, WaitInfo(
                comm_key, source, tag, source_world, ctx.current_coll))
        ctx.clock.charge_overhead()
        ctx.clock.advance_to(msg.arrival_time)
        ctx.record_recv(msg, v_wait, w_wait)
        sender = self._sender_ring(msg.source_world)
        if sender is not None:
            sender.mark_consumed(msg.seq)
        return msg


class Runtime(Fabric):
    """In-process mailbox fabric shared by all ranks of one simulation.

    Not constructed directly by users; :func:`run_spmd` owns the
    lifecycle.  All shared state is guarded by a single condition
    variable — message granularity in this library is coarse (block
    matrices), so one lock is not a bottleneck.  Every change a blocked
    rank could be waiting for (a delivery, a finished rank, an abort)
    notifies it, so waits need no timeout.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: CostModel,
        *,
        copy_messages: bool = True,
        trace: bool = False,
        verify: bool = False,
        trace_ctx: TraceContext | None = None,
    ):
        if nranks <= 0:
            raise CommError(f"nranks must be positive, got {nranks}")
        verifier = None
        if verify:
            from ..check.verifier import SpmdVerifier  # deferred: cycle

            verifier = SpmdVerifier(nranks)
        super().__init__(nranks, cost_model, verifier, trace=trace,
                         trace_ctx=trace_ctx)
        self.copy_messages = copy_messages
        self._cond = threading.Condition()
        self._inboxes: list[list[_Message]] = [[] for _ in range(nranks)]
        self._n_live = nranks
        self._waiting: dict[int, WaitInfo] = {}
        self._abort: BaseException | None = None
        self.contexts = [RankContext(r, self) for r in range(nranks)]

    # -- transport -------------------------------------------------------

    def _pack(self, ctx: RankContext, payload: Any, nbytes: int) -> Any:
        if not self.copy_messages and self.verifier is None:
            return payload
        with kernel_time("comm.copy"):
            payload, ndeep = fastcopy_counted(payload)
        ctx.stats.payload_copies += 1
        ctx.stats.payload_deepcopies += ndeep
        return payload

    def _check_abort_locked(self) -> None:
        if self._abort is not None:
            raise CommAborted("simulation aborted") from self._abort

    def _deliver(self, dest_world: int, msg: _Message) -> None:
        with self._cond:
            self._check_abort_locked()
            self._inboxes[dest_world].append(msg)
            self._cond.notify_all()

    def _poll(self, rank: int, comm_key, source: int,
              tag: int) -> _Message | None:
        with self._cond:
            self._check_abort_locked()
            return match_in(self._inboxes[rank], comm_key, source, tag)

    def _block(self, rank: int, wait: WaitInfo) -> _Message:
        inbox = self._inboxes[rank]
        with self._cond:
            self._waiting[rank] = wait
            try:
                while True:
                    self._check_abort_locked()
                    msg = match_in(inbox, wait.comm_key, wait.source,
                                   wait.tag)
                    if msg is not None:
                        return msg
                    self._check_deadlock_locked()
                    self._cond.wait()
            finally:
                del self._waiting[rank]

    def _sender_ring(self, world: int) -> FlightRecorder | None:
        return self.contexts[world].flightrec

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
                return  # that rank was notified and will match
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


class _RankThread:
    """A rank thread kept between runs: it runs the jobs put on its own
    queue, one at a time, until it receives ``None``."""

    __slots__ = ("jobs", "thread")

    def __init__(self):
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="repro-rank",
                                       daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while (job := self.jobs.get()) is not None:
            job()
            # Unbound before the wait: an idle thread must not keep the
            # finished run's closure (its arguments, runtime and values)
            # alive.
            del job


class _RankThreads:
    """The idle rank threads of the thread backend.

    A run takes one thread per rank ``1..P-1``, starting a new one only
    when none is idle, and gives them back once every rank program has
    returned.  Starting and joining a thread per rank and run cost more
    than a small ARD solve; keeping them removes that cost.  Harness
    sweeps reach hundreds of ranks, so at most ``os.cpu_count()`` idle
    threads are kept and the rest are stopped and joined.  Concurrent
    runs take disjoint threads.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._lock = threading.Lock()
        self._idle: list[_RankThread] = []
        os.register_at_fork(after_in_child=self._forget)

    @property
    def idle(self) -> int:
        """How many threads wait for a run."""
        return len(self._idle)

    def take(self, n: int) -> list[_RankThread]:
        with self._lock:
            split = max(len(self._idle) - n, 0)
            taken, self._idle = self._idle[split:], self._idle[:split]
        return taken + [_RankThread() for _ in range(n - len(taken))]

    def give_back(self, threads: list[_RankThread]) -> None:
        with self._lock:
            room = max(self.limit - len(self._idle), 0)
            self._idle.extend(threads[:room])
        surplus = threads[room:]
        for t in surplus:
            t.jobs.put(None)
        for t in surplus:
            t.thread.join()

    def _forget(self) -> None:
        # A forked child inherits the list but not the threads.
        self._lock = threading.Lock()
        self._idle = []


_RANK_THREADS = _RankThreads(os.cpu_count() or 1)


@functools.lru_cache(maxsize=16)
def _worker_config(config: ReproConfig, count_flops: bool) -> ReproConfig:
    """The configuration rank programs run under: the caller's, with
    flop counting as ``run_spmd`` was asked.  Configurations are frozen,
    so one is built per distinct pair."""
    return dataclasses.replace(config, flop_counting=count_flops)


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
        Number of simulated ranks.  On the thread backend rank 0
        executes on the calling thread (with the worker configuration
        and the rank's trace context installed for the call, then the
        caller's restored) and ranks ``1..nranks-1`` on one thread each,
        taken from the threads kept idle since earlier runs
        (:class:`_RankThreads`); ``nranks == 1`` uses no thread or
        process.
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
    worker_config = _worker_config(config, count_flops)
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
        previous_config = get_config()
        install_config(worker_config)
        try:
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            values[rank] = ctx.run(fn, *args, *extra, **kwargs)
        except CommAborted as exc:
            errors[rank] = exc
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = exc
            runtime.abort(exc)
        finally:
            ctx.finalize_stats()
            runtime.rank_finished()
            install_config(previous_config)

    # Each helper reports on ``done`` once its rank program, stats and
    # configuration are finished with, so the run returns only after
    # every rank has returned.
    done: queue.SimpleQueue = queue.SimpleQueue()

    def job(rank: int) -> None:
        try:
            worker(rank)
        except BaseException as exc:  # noqa: BLE001 - the thread is kept
            if errors[rank] is None:
                errors[rank] = exc
        finally:
            done.put(rank)

    helpers = _RANK_THREADS.take(nranks - 1)
    for rank, helper in enumerate(helpers, start=1):
        helper.jobs.put(functools.partial(job, rank))
    worker(0)
    for _ in helpers:
        done.get()
    _RANK_THREADS.give_back(helpers)

    wall = time.perf_counter() - start

    def capture(exc: BaseException) -> None:
        # Incident bundle on any failure path (see repro.obs.postmortem);
        # must never mask the original exception.
        if not config.flightrec:
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


# ``communicator`` imports this module for ``Fabric`` and
# ``RankContext``, so it is bound here, after both exist; rank programs
# reach ``communicator.Communicator`` through it without an import
# statement per run.
from . import communicator  # noqa: E402
