"""Worker-process side of the process backend.

Each pool worker runs :func:`worker_main`: a loop that receives job
descriptors over its control pipe, executes the SPMD function for its
rank, and ships results (value, stats, trace, buffered log records)
back to the parent.  Inside a job the worker builds an
:class:`MpRuntime`, the process transport under the same
:class:`repro.comm.runtime.Fabric` ``post``/``match`` path the thread
backend uses, so the unchanged
:class:`repro.comm.communicator.Communicator` and every collective
schedule run on top of it.

Transport: envelopes are the same :class:`repro.comm.runtime._Message`
objects the thread backend uses, except the payload crosses the process
boundary as a :class:`repro.comm.shm.ShmPacked` (shared-memory segment
for NumPy buffers, in-band pickle for small objects) and is unpacked
lazily when matched.  Virtual time is preserved: the sender stamps the
modelled arrival from its own clock and the modelled payload size, so
both backends compute identical virtual makespans.

Two protocol properties matter for correctness:

- **Exact finalize.**  Inbox queues deliver through feeder threads, so
  a message can still be in flight when its sender reports ``done``.
  Every worker therefore reports how many envelopes it put into each
  destination queue; the parent's finalize sentinel tells each rank
  exactly how many envelopes it must still absorb before declaring its
  mailbox drained.  Messages never bleed between jobs, and unreceived
  messages are detected deterministically.
- **Deadlock visibility.**  A worker blocked in a receive
  longer than the heartbeat interval reports its
  :class:`~repro.comm.matching.WaitInfo`, a progress counter, and its
  send/receive totals to the parent, which runs the shared
  wait-for-graph analysis (see :mod:`repro.comm.mp.backend`) and only
  declares deadlock once the totals prove no envelope is still in
  flight; a ``wake`` message retracts the report when the wait
  completes.

There is no graceful abort: when any rank errors (or the parent detects
deadlock or collective divergence), the parent terminates the pool and
re-raises — blocked peers need no cooperation to die.
"""

from __future__ import annotations

import io
import os
import pickle
import queue as queue_mod
import traceback
from typing import Any

from ...exceptions import CommError
from ...obs.log import configure_logging, disable_logging
from ...obs.tracer import kernel_time
from .. import shm
from ..matching import Unmatched, WaitInfo, match_in
from ..runtime import Fabric, RankContext, _Message

__all__ = ["MpRuntime", "VerifierProxy", "JobSpec", "worker_main",
           "FINALIZE", "FLIGHTREC_DUMP", "HEARTBEAT_INTERVAL"]

#: Seconds a blocked receive waits before (re)sending its wait-info
#: heartbeat to the parent's deadlock monitor.
HEARTBEAT_INTERVAL = 0.1

#: First element of the parent's finalize sentinel tuple.
FINALIZE = "__mp_finalize__"

#: Inbox sentinel asking a (possibly blocked) worker to ship its flight
#: recorder ring over the control pipe — sent by the parent while
#: capturing an incident bundle (see repro.obs.postmortem); the reply
#: is ``("flightrec", rank, snapshot)`` and the sentinel never counts
#: toward message or finalize accounting.
FLIGHTREC_DUMP = "__flightrec_dump__"

class JobSpec:
    """One SPMD job as shipped to a worker (all fields picklable).

    ``payload`` is the :class:`~repro.comm.shm.ShmPacked` form of
    ``(fn, args, kwargs, extra)`` where ``extra`` is the rank's
    ``rank_args`` entry — packed per rank so chunk arrays ride shared
    memory instead of the pipe.
    """

    __slots__ = ("nranks", "payload", "config", "trace_ctx", "trace",
                 "verify", "cost_model", "forward_logs", "log_level",
                 "prefix")

    def __init__(self, nranks, payload, config, trace_ctx, trace, verify,
                 cost_model, forward_logs, log_level, prefix):
        self.nranks = nranks
        self.payload = payload
        self.config = config
        self.trace_ctx = trace_ctx
        self.trace = trace
        self.verify = verify
        self.cost_model = cost_model
        self.forward_logs = forward_logs
        self.log_level = log_level
        self.prefix = prefix


class VerifierProxy:
    """Worker-side stand-in for :class:`repro.check.verifier.SpmdVerifier`.

    Streams every collective record to the parent (which feeds its real
    verifier) and returns the rank-local sequence index — the same value
    the in-process verifier would return, since indices are per
    ``(rank, comm_key)`` call order.
    """

    __slots__ = ("_conn", "_rank", "_indices")

    def __init__(self, conn, rank: int):
        self._conn = conn
        self._rank = rank
        self._indices: dict[Any, int] = {}

    def record_collective(self, rank: int, comm_key, op: str,
                          root: int | None, size: int) -> int:
        index = self._indices.get(comm_key, 0)
        self._indices[comm_key] = index + 1
        self._conn.send(("coll", self._rank, comm_key, op, root, size))
        return index


class MpRuntime(Fabric):
    """One rank's transport over the cross-process mailbox fabric.

    :class:`~repro.comm.runtime.Fabric` keeps the send and receive
    bookkeeping; this class only packs payloads through
    :mod:`repro.comm.shm`, puts envelopes into the destination's queue,
    and blocks on its own queue with heartbeats.  There is no
    shared-state object — each rank owns its inbox queue and a pending
    buffer, and matching runs locally through
    :func:`repro.comm.matching.match_in`.
    """

    def __init__(self, rank: int, nranks: int, inboxes, conn, cost_model,
                 *, trace, trace_ctx, verify, prefix: str):
        super().__init__(nranks, cost_model,
                         VerifierProxy(conn, rank) if verify else None,
                         trace=trace, trace_ctx=trace_ctx)
        self._rank = rank
        self._inboxes = inboxes
        self._inbox = inboxes[rank]
        self._conn = conn
        self._pending: list[_Message] = []
        # Message churn counter (posts, arrivals, matches): a repeated
        # heartbeat with unchanged progress tells the parent this rank
        # cannot have satisfied anyone since the last report.
        self.progress = 0
        # Exact-finalize accounting: envelopes put per destination queue
        # and envelopes taken from the own queue (self-sends bypass it).
        self.sent_to = [0] * nranks
        self.inbox_received = 0
        self._prefix = prefix
        self.ctx = RankContext(rank, self)

    # -- transport -------------------------------------------------------

    def _pack(self, ctx: RankContext, payload: Any, nbytes: int):
        # The packed wire size is accounted separately (shm_bytes); the
        # modelled size stays the original payload's.
        with kernel_time("comm.copy"):
            packed, used_shm = shm.pack(payload, prefix=self._prefix)
        ctx.stats.payload_copies += 1
        if used_shm:
            ctx.stats.shm_sends += 1
            ctx.stats.shm_bytes += packed.shm_size
        elif nbytes >= shm.DEFAULT_SHM_THRESHOLD:
            # A large payload that exposed no out-of-band buffer went
            # through a full pickle copy: the slow path analogous to
            # fastcopy's deepcopy fallback.
            ctx.stats.payload_deepcopies += 1
        return packed

    def _deliver(self, dest_world: int, msg: _Message) -> None:
        self.progress += 1
        if dest_world == self._rank:
            self._pending.append(msg)
        else:
            self.sent_to[dest_world] += 1
            self._inboxes[dest_world].put(msg)

    def _dump_ring(self) -> None:
        """Reply to a FLIGHTREC_DUMP sentinel with this rank's ring."""
        fr = self.ctx.flightrec
        self._conn.send(("flightrec", self._rank,
                         fr.snapshot() if fr is not None else None))

    def _admit(self, item: Any) -> None:
        if not isinstance(item, _Message):
            if isinstance(item, tuple) and item and item[0] == FLIGHTREC_DUMP:
                self._dump_ring()
                return
            raise CommError(f"unexpected inbox item {item!r}")
        self._pending.append(item)
        self.inbox_received += 1
        self.progress += 1

    def _take(self, comm_key, source: int, tag: int) -> _Message | None:
        msg = match_in(self._pending, comm_key, source, tag)
        if msg is not None:
            self.progress += 1
            msg.payload = shm.unpack(msg.payload)
        return msg

    def _poll(self, rank: int, comm_key, source: int,
              tag: int) -> _Message | None:
        while True:
            try:
                item = self._inbox.get_nowait()
            except queue_mod.Empty:
                return self._take(comm_key, source, tag)
            self._admit(item)

    def _block(self, rank: int, wait: WaitInfo) -> _Message:
        sent_hb = False
        msg = None
        while msg is None:
            try:
                item = self._inbox.get(timeout=HEARTBEAT_INTERVAL)
            except queue_mod.Empty:
                # Send/receive totals ride along so the parent can rule
                # out in-flight envelopes (queue feeder threads deliver
                # asynchronously) before declaring deadlock.
                self._conn.send(("wait", rank, wait.to_tuple(),
                                 self.progress, self._unmatched(),
                                 tuple(self.sent_to), self.inbox_received))
                sent_hb = True
                continue
            self._admit(item)
            msg = self._take(wait.comm_key, wait.source, wait.tag)
        if sent_hb:
            self._conn.send(("wake", rank, self.progress))
        return msg

    def _sender_ring(self, world: int):
        # Self-sends retire locally; cross-process sends stay registered
        # in-flight in the sender's ring (conservative drop accounting).
        return self.ctx.flightrec if world == self._rank else None

    # -- finalize --------------------------------------------------------

    def _unmatched(self) -> list[Unmatched]:
        return [Unmatched.of(m, self._rank) for m in self._pending]

    def absorb_finalize(self) -> list[Unmatched]:
        """Complete the exact-finalize handshake; return the strays.

        Blocks for the parent's ``(FINALIZE, outstanding)`` sentinel,
        then absorbs exactly ``outstanding`` in-flight envelopes (the
        parent computed the count from every rank's send/receive
        totals), so the mailbox is provably empty afterwards.  Shared
        segments of stray payloads are unlinked here — an unreceived
        message cannot leak ``/dev/shm`` space.
        """
        outstanding: int | None = None
        while outstanding is None or outstanding > 0:
            item = self._inbox.get()
            if isinstance(item, _Message):
                self._admit(item)
                if outstanding is not None:
                    outstanding -= 1
                continue
            if isinstance(item, tuple) and item and item[0] == FLIGHTREC_DUMP:
                # Parent is capturing an incident while this rank waits
                # for a finalize that will never come; reply and keep
                # waiting (teardown follows).
                self._dump_ring()
                continue
            if item[0] != FINALIZE:  # pragma: no cover - protocol
                raise CommError(f"unexpected finalize item {item!r}")
            # Already-admitted envelopes count against the quota.
            outstanding = item[1] - self.inbox_received
            if outstanding < 0:  # pragma: no cover - protocol
                raise CommError("finalize accounting underflow")
        strays = self._unmatched()
        for m in self._pending:
            if isinstance(m.payload, shm.ShmPacked) and m.payload.shm_name:
                shm.release_segment(m.payload.shm_name)
        self._pending.clear()
        return strays


def _capture_logs(spec: JobSpec) -> io.StringIO | None:
    """Route this worker's structured log into a memory buffer.

    The spawned child inherits ``REPRO_LOG`` from the parent; writing
    to that file directly would interleave with (and duplicate) the
    parent-side merge, so the env sink is always overridden: a buffer
    when the parent wants the records forwarded, disabled otherwise.
    """
    if not spec.forward_logs:
        disable_logging()
        return None
    buffer = io.StringIO()
    configure_logging(stream=buffer, level=spec.log_level)
    return buffer


def _pack_error(exc: BaseException) -> tuple:
    """Picklable ``(pickled-exc-or-None, text)`` pair for shipping."""
    text = "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = None
    return (payload, text)


def _run_job(spec: JobSpec, rank: int, inboxes, conn) -> None:
    from ...config import install_config

    install_config(spec.config)
    log_buffer = _capture_logs(spec)
    runtime = MpRuntime(
        rank, spec.nranks, inboxes, conn, spec.cost_model,
        trace=spec.trace, trace_ctx=spec.trace_ctx, verify=spec.verify,
        prefix=spec.prefix,
    )
    ctx = runtime.ctx
    fn, args, kwargs, extra = shm.unpack(spec.payload)
    value: Any = None
    error: tuple | None = None
    try:
        value = ctx.run(fn, *args, *extra, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        error = _pack_error(exc)
    stats = ctx.finalize_stats()
    trace = ctx.tracer.finish() if ctx.tracer is not None else None
    log_lines = (log_buffer.getvalue().splitlines()
                 if log_buffer is not None else [])
    if log_buffer is not None:
        disable_logging()
    packed_value = None
    if error is None:
        try:
            packed_value, _ = shm.pack(value, prefix=spec.prefix)
        except Exception as exc:  # unpicklable return value
            error = _pack_error(CommError(
                f"rank {rank} returned an unpicklable value "
                f"({type(value).__name__}): {exc}"
            ))
    # The ring rides the done message only on error (the parent captures
    # an incident then); healthy completions keep the pipe traffic flat.
    ring = (ctx.flightrec.snapshot()
            if error is not None and ctx.flightrec is not None else None)
    conn.send(("done", rank, packed_value, stats, trace, log_lines, error,
               runtime.sent_to, runtime.inbox_received, ring))
    if error is not None:
        # The parent tears the pool down on any error; do not enter the
        # finalize handshake it will never run.
        return
    strays = runtime.absorb_finalize()
    conn.send(("finalized", rank, strays))


def worker_main(rank: int, inboxes, conn) -> None:
    """Entry point of one pool worker process (runs until 'stop')."""
    # The spawned interpreter must never re-enter the process backend
    # (a rank calling run_spmd nested runs it on threads) and must not
    # lazily adopt the parent's REPRO_LOG sink between jobs.
    os.environ["REPRO_COMM_BACKEND"] = "threads"
    disable_logging()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if item[0] == "stop":
            return
        spec: JobSpec = item[1]
        try:
            _run_job(spec, rank, inboxes, conn)
        except BaseException as exc:  # noqa: BLE001 - last-resort report
            try:
                conn.send(("done", rank, None, None, None, [],
                           _pack_error(exc), None, 0, None))
            except Exception:  # pragma: no cover - pipe gone
                return
