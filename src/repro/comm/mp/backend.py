"""Parent-side orchestration of the process backend.

:func:`run_spmd_processes` is the entry point :func:`repro.comm.run_spmd`
dispatches to when ``backend="processes"``.  It leases a persistent
:class:`ProcessPool` of spawned workers (spawn, never fork: workers
must not inherit thread-local config, trace contexts, or log sinks),
ships the job per rank — function, arguments, and per-rank extras
packed through :mod:`repro.comm.shm` so NumPy data rides shared memory
— and then monitors the workers' control pipes:

- ``coll`` records feed the parent's real
  :class:`~repro.check.verifier.SpmdVerifier`, so collective-lockstep
  divergence is caught cross-process exactly as in the thread backend;
- ``wait`` heartbeats from blocked ranks populate a wait-for graph;
  when every unfinished rank has repeated an identical (wait, progress)
  report, no message can be in flight and the parent raises a
  :class:`~repro.exceptions.DeadlockError` rendered by the shared
  :func:`repro.comm.matching.deadlock_report`;
- ``done`` messages deliver each rank's value (shared-memory packed),
  :class:`~repro.comm.stats.RankStats`, optional
  :class:`~repro.obs.tracer.RankTrace`, and buffered structured-log
  records, which merge into the parent's sink under the run's single
  ``trace_id``.

Failure handling is deliberately blunt: any rank error, divergence,
deadlock, or worker death terminates the whole pool (a fresh one spawns
on the next job) — blocked peers need no cooperative abort protocol.
The clean path runs the exact-finalize handshake (see
:mod:`repro.comm.mp.worker`) so unreceived messages are detected
deterministically and mailboxes are provably empty between jobs.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from multiprocessing import connection
from typing import Any, Sequence

from ...exceptions import (
    CommError,
    DeadlockError,
    UnconsumedMessageError,
    UnconsumedMessageWarning,
)
from ...obs.context import current_trace_context, new_trace_context
from ...obs.log import active_log
from .. import shm
from ..costmodel import CostModel
from ..matching import Unmatched, WaitInfo, deadlock_report
from ..stats import SimulationResult
from .worker import FINALIZE, FLIGHTREC_DUMP, JobSpec, worker_main

__all__ = ["ProcessPool", "run_spmd_processes", "shutdown_pool"]

#: Seconds between deadlock-analysis sweeps of the monitor loop.
_SWEEP_INTERVAL = 0.25

#: Identical consecutive (wait, progress) heartbeats required from
#: every unfinished rank before the parent declares deadlock.
_DEADLOCK_REPEATS = 2

_LEVEL_NAMES = {10: "debug", 20: "info", 30: "warning", 40: "error"}

_pool_ids = itertools.count(1)


class ProcessPool:
    """A set of persistent spawned workers with per-rank inbox queues.

    Spawn cost (~100 ms/worker: fresh interpreter + imports) is paid
    once and amortized over every subsequent :func:`run_spmd_processes`
    call; the pool only respawns when a job needs more ranks than it
    has workers or after a dirty shutdown.
    """

    def __init__(self, size: int):
        self.size = size
        self.pool_id = (os.getpid() << 8) | (next(_pool_ids) & 0xFF)
        self.prefix = shm.segment_prefix(self.pool_id)
        shm.register_pool(self.pool_id)
        ctx = multiprocessing.get_context("spawn")
        self.inboxes = [ctx.Queue() for _ in range(size)]
        self.conns: list[Any] = []
        self.procs: list[Any] = []
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main, args=(rank, self.inboxes, child_conn),
                name=f"repro-mp-{rank}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def _cleanup(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for q in self.inboxes:
            q.cancel_join_thread()
            q.close()
        shm.sweep_prefix(self.pool_id)

    def stop(self) -> None:
        """Graceful shutdown: workers exit their loop, then cleanup."""
        for conn, proc in zip(self.conns, self.procs):
            try:
                conn.send(("stop",))
            except (OSError, ValueError):  # pragma: no cover - dead pipe
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._cleanup()

    def destroy(self) -> None:
        """Dirty shutdown: terminate everything, sweep segments."""
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=2.0)
        self._cleanup()


_pool: ProcessPool | None = None
# One lock serializes pool management and job execution: jobs own the
# whole fabric (inbox queues are per pool, not per job), so concurrent
# run_spmd calls from service threads queue up here.
_job_lock = threading.Lock()
_atexit_registered = False


def _ensure_pool(nranks: int) -> ProcessPool:
    global _pool, _atexit_registered
    if _pool is not None and (_pool.size < nranks or not _pool.alive()):
        _pool.destroy()
        _pool = None
    if _pool is None:
        _pool = ProcessPool(max(nranks, 2))
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(shutdown_pool)
    return _pool


def _discard_pool(pool: ProcessPool) -> None:
    global _pool
    pool.destroy()
    if _pool is pool:
        _pool = None


def shutdown_pool() -> None:
    """Stop the module's worker pool (no-op when none is running)."""
    global _pool
    with _job_lock:
        if _pool is not None:
            _pool.stop()
            _pool = None


def _unpack_error(error: tuple, rank: int) -> BaseException:
    payload, text = error
    if payload is not None:
        try:
            return pickle.loads(payload)
        except Exception:  # pragma: no cover - exotic exception type
            pass
    return CommError(f"rank {rank} failed in process backend:\n{text}")


class _Monitor:
    """State machine over the workers' control-pipe traffic for one job."""

    def __init__(self, pool: ProcessPool, nranks: int, verifier):
        self.pool = pool
        self.nranks = nranks
        self.verifier = verifier
        self.done: dict[int, tuple] = {}
        self.finalized: dict[int, list[Unmatched]] = {}
        # rank -> [wait_tuple, progress, unmatched, repeats,
        #          sent_to, inbox_received]
        self.waiting: dict[int, list] = {}
        # Liveness bookkeeping for worker-death diagnostics: wall time
        # of the last control-pipe message per rank, and the last
        # (sent_to, inbox_received) totals a heartbeat reported.
        self.last_heartbeat: dict[int, float] = {}
        self.last_counts: dict[int, tuple] = {}

    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        if len(msg) > 1 and isinstance(msg[1], int):
            self.last_heartbeat[msg[1]] = time.monotonic()
        if kind == "done":
            rank = msg[1]
            self.done[rank] = msg[2:]
            self.waiting.pop(rank, None)
            if msg[7] is not None:  # sent_to of the done report
                self.last_counts[rank] = (msg[7], msg[8])
        elif kind == "wait":
            _, rank, wait_tuple, progress, pending, sent_to, received = msg
            self.last_counts[rank] = (sent_to, received)
            entry = self.waiting.get(rank)
            if entry is not None and entry[0] == wait_tuple and entry[1] == progress:
                entry[2] = pending
                entry[3] += 1
            else:
                self.waiting[rank] = [wait_tuple, progress, pending, 1,
                                      sent_to, received]
        elif kind == "wake":
            self.waiting.pop(msg[1], None)
        elif kind == "coll":
            if self.verifier is not None:
                _, rank, comm_key, op, root, size = msg
                # Raises SpmdDivergenceError on lockstep violation.
                self.verifier.record_collective(rank, comm_key, op, root, size)
        elif kind == "finalized":
            self.finalized[msg[1]] = msg[2]
        else:  # pragma: no cover - protocol violation
            raise CommError(f"unexpected control message {msg!r}")

    def _sweep(self) -> None:
        conns = self.pool.conns[:self.nranks]
        ready = connection.wait(conns, timeout=_SWEEP_INTERVAL)
        for conn in ready:
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    rank = self.pool.conns.index(conn)
                    raise self._death_error(rank) from None
                self._handle(msg)
                if not conn.poll():
                    break

    def _death_error(self, rank: int) -> CommError:
        """Worker-death error enriched with last-known liveness state."""
        proc = self.pool.procs[rank]
        proc.join(timeout=0.5)  # let the exit code land before reading it
        code = proc.exitcode
        hb = self.last_heartbeat.get(rank)
        age = (f"last heartbeat {time.monotonic() - hb:.1f}s ago"
               if hb is not None else "no heartbeat received")
        counts = self.last_counts.get(rank)
        if counts is not None:
            detail = (f"{age}; last report: {sum(counts[0])} envelope(s) "
                      f"sent, {counts[1]} received")
        else:
            detail = f"{age}; no send/receive counts reported"
        err = CommError(
            f"rank {rank} worker process died unexpectedly "
            f"(exit code {code}); {detail}"
        )
        err.failed_rank = rank  # type: ignore[attr-defined]
        return err

    def _check_deadlock(self) -> None:
        unfinished = [r for r in range(self.nranks) if r not in self.done]
        if not unfinished:
            return
        stable = all(
            r in self.waiting and self.waiting[r][3] >= _DEADLOCK_REPEATS
            for r in unfinished
        )
        if not stable:
            return
        # Conservation: the send counts of a finished rank (from its
        # 'done') and of a stably-blocked rank (from its heartbeat) are
        # final, so if any blocked rank has been sent more envelopes
        # than it has admitted, a message is still sitting in a queue
        # feeder thread — delivery pending, not deadlock.
        sent_to_by: dict[int, Sequence[int]] = {
            r: self.waiting[r][4] for r in unfinished
        }
        for r, d in self.done.items():
            if d[5] is not None:
                sent_to_by[r] = d[5]
        for r in unfinished:
            expected = sum(s[r] for s in sent_to_by.values())
            if expected > self.waiting[r][5]:
                return
        # Every unfinished rank has repeated an identical (wait,
        # progress) report across at least one full heartbeat interval
        # with every envelope addressed to it delivered: its queue was
        # empty and nothing it did could have fed a peer since — with
        # eager sends, no message can ever arrive.
        waiting = {
            r: WaitInfo.from_tuple(self.waiting[r][0]) for r in unfinished
        }
        unmatched = [
            m for r in sorted(unfinished) for m in self.waiting[r][2]
        ]
        raise DeadlockError(deadlock_report(
            waiting, len(unfinished), unmatched=unmatched,
        ))

    def _raise_first_error(self) -> None:
        # done entries: (packed_value, stats, trace, log_lines, error,
        #                sent_to, inbox_received)
        errors = {r: d[4] for r, d in self.done.items() if d[4] is not None}
        if errors:
            rank = min(errors)
            exc = _unpack_error(errors[rank], rank)
            try:
                exc.failed_rank = rank  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - slotted exception
                pass
            raise exc

    def run_until_done(self) -> None:
        while len(self.done) < self.nranks:
            self._sweep()
            # A failed rank leaves its peers legitimately blocked; the
            # error outranks the deadlock its absence would look like.
            self._raise_first_error()
            self._check_deadlock()
        self._raise_first_error()

    def run_until_finalized(self) -> None:
        while len(self.finalized) < self.nranks:
            self._sweep()


def _collect_rings(pool: ProcessPool, monitor: _Monitor, nranks: int,
                   deadline: float = 1.5) -> dict[int, Any]:
    """Gather every rank's flight-recorder ring for an incident bundle.

    A rank that failed already shipped its ring on its ``done``
    message; live ranks (blocked in ``match`` or in the finalize
    handshake) are asked with a :data:`~repro.comm.mp.worker.FLIGHTREC_DUMP`
    inbox sentinel and answered over the control pipes within
    ``deadline`` seconds.  Dead or unresponsive ranks map to ``None``
    (the bundle marks their ring as lost).
    """
    rings: dict[int, Any] = {}
    for r, d in monitor.done.items():
        if len(d) > 7 and d[7] is not None:
            rings[r] = d[7]
    outstanding: set[int] = set()
    for r in range(nranks):
        if r in rings:
            continue
        if not pool.procs[r].is_alive():
            rings[r] = None
            continue
        try:
            pool.inboxes[r].put((FLIGHTREC_DUMP,))
            outstanding.add(r)
        except Exception:  # pragma: no cover - queue torn down
            rings[r] = None
    end = time.monotonic() + deadline
    while outstanding:
        remaining = end - time.monotonic()
        if remaining <= 0:
            break
        ready = connection.wait([pool.conns[r] for r in outstanding],
                                timeout=remaining)
        if not ready:
            break
        for conn in ready:
            r = pool.conns.index(conn)
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                rings[r] = None
                outstanding.discard(r)
                continue
            if msg[0] == "flightrec":
                rings[msg[1]] = msg[2]
                outstanding.discard(msg[1])
            # Anything else is stale wait/wake/coll traffic from the
            # failing job; the pool is being torn down, so drop it.
    for r in range(nranks):
        rings.setdefault(r, None)
    return rings


def _capture_mp_incident(exc: BaseException, pool: ProcessPool,
                         monitor: _Monitor, nranks: int, run_ctx) -> None:
    """Best-effort incident capture for a failed process-backend job."""
    try:
        from ...config import get_config

        if not get_config().flightrec:
            return
        from ...obs.postmortem import record_failure

        record_failure(
            exc, backend="processes", nranks=nranks,
            rings=_collect_rings(pool, monitor, nranks),
            trace_ctx=run_ctx,
        )
    except Exception:  # pragma: no cover - capture must never mask
        pass


_unpicklable_warned = False


def _pack_jobs(fn, args, kwargs, rank_args, nranks: int,
               prefix: str) -> list | None:
    """Shared-memory pack the per-rank job payloads.

    Returns ``None`` when the function or its arguments cannot be
    pickled (spawned workers import by reference, so e.g. closures
    from harness experiment definitions cannot cross) — the caller
    falls back to the thread backend.
    """
    global _unpicklable_warned
    packed: list = []
    try:
        for rank in range(nranks):
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            packed.append(
                shm.pack((fn, args, kwargs, extra), prefix=prefix)[0]
            )
    except Exception as exc:
        for p in packed:
            if p.shm_name:
                shm.release_segment(p.shm_name)
        if not _unpicklable_warned:
            _unpicklable_warned = True
            warnings.warn(
                f"process backend requires a picklable SPMD function and "
                f"arguments; falling back to the thread backend for "
                f"{getattr(fn, '__name__', fn)!r} ({exc})",
                RuntimeWarning,
                stacklevel=4,
            )
        return None
    return packed


def run_spmd_processes(
    fn,
    nranks: int,
    *args: Any,
    cost_model: CostModel,
    rank_args: Sequence[tuple] | None,
    worker_config,
    trace: bool,
    verify: bool,
    **kwargs: Any,
) -> SimulationResult | None:
    """Execute one SPMD job on the process pool.

    Returns ``None`` (after a one-time warning) when the job cannot be
    shipped to worker processes; :func:`repro.comm.run_spmd` then runs
    it on the thread backend instead.
    """
    import dataclasses as _dc

    # Workers must not re-dispatch to the process backend.
    worker_config = _dc.replace(worker_config, comm_backend="threads")
    run_ctx = current_trace_context()
    if run_ctx is None and trace:
        run_ctx = new_trace_context()
    sink = active_log()
    forward_logs = sink is not None
    log_level = _LEVEL_NAMES.get(sink.threshold, "info") if sink else "info"
    verifier = None
    if verify:
        from ...check.verifier import SpmdVerifier  # deferred: cycle

        verifier = SpmdVerifier(nranks)

    with _job_lock:
        pool = _ensure_pool(nranks)
        payloads = _pack_jobs(fn, args, kwargs, rank_args, nranks,
                              pool.prefix)
        if payloads is None:
            return None
        start = time.perf_counter()
        for rank in range(nranks):
            spec = JobSpec(
                nranks, payloads[rank], worker_config, run_ctx, trace,
                verify, cost_model, forward_logs, log_level, pool.prefix,
            )
            pool.conns[rank].send(("job", spec))
        monitor = _Monitor(pool, nranks, verifier)
        try:
            monitor.run_until_done()
            # Exact finalize: tell each rank the total envelope count
            # ever put into its queue; it absorbs the difference.
            totals = [0] * nranks
            for d in monitor.done.values():
                for dest, n in enumerate(d[5]):
                    totals[dest] += n
            for rank in range(nranks):
                pool.inboxes[rank].put((FINALIZE, totals[rank]))
            monitor.run_until_finalized()
        except BaseException as exc:
            # Snapshot all ranks' rings (over the still-open control
            # pipes) into an incident bundle before the pool dies.
            _capture_mp_incident(exc, pool, monitor, nranks, run_ctx)
            _discard_pool(pool)
            raise
        wall = time.perf_counter() - start

        values = [shm.unpack(monitor.done[r][0]) for r in range(nranks)]
        stats = [monitor.done[r][1] for r in range(nranks)]
        traces = [monitor.done[r][2] for r in range(nranks)] if trace else None
        if sink is not None:
            for rank in range(nranks):
                for line in monitor.done[rank][3]:
                    sink.write_raw(line)
        strays = [m for r in range(nranks) for m in monitor.finalized[r]]

    if strays:
        report = (
            f"simulation finalized with {len(strays)} unreceived "
            f"message(s):\n  " + "\n  ".join(m.describe() for m in strays)
        )
        if verify:
            err = UnconsumedMessageError(report)
            try:
                from ...obs.postmortem import record_failure

                # Workers are already back in their job loop here, so
                # rings are unrecoverable; the stray-message report in
                # the reason text carries the diagnostic load.
                record_failure(err, backend="processes", nranks=nranks,
                               rings={}, trace_ctx=run_ctx)
            except Exception:  # pragma: no cover - capture is best-effort
                pass
            raise err
        warnings.warn(report, UnconsumedMessageWarning, stacklevel=3)
    return SimulationResult(
        values=values, stats=stats, wall_time=wall, traces=traces,
        trace_id=run_ctx.trace_id if run_ctx is not None else None,
        backend="processes",
    )
