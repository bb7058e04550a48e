"""MPI-flavoured communicator for the simulated runtime.

The API mirrors mpi4py's lowercase (pickle-based) object interface —
``send``/``recv``/``bcast``/``allgather``/… — so the distributed solvers
in :mod:`repro.core` read like ordinary mpi4py programs and could be
ported to a real cluster by swapping the communicator object.

Differences from real MPI, by design:

- sends are *eager* (buffered): ``send`` never blocks, so there are no
  rendezvous deadlocks from send/send cycles;
- payloads are passed by value (copied at send time) unless the runtime
  was created with ``copy_messages=False``; a verified run
  (``run_spmd(verify=True)``) always copies, delivers received arrays
  read-only and checks that ``isend`` buffers are not written before
  ``wait()`` (docs/CHECKING.md);
- collectives are implemented on top of point-to-point with the
  standard tree / recursive-doubling schedules (see
  :mod:`repro.comm.collectives`), so modelled collective costs follow
  the same ``O(log P)`` shapes the paper assumes.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Sequence

from ..exceptions import CommError, RankError, TagError
from .costmodel import payload_nbytes
from .runtime import Fabric, RankContext, _Message

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "Request", "Communicator", "SUM", "MAX", "MIN"]

ANY_SOURCE = -1
ANY_TAG = -1

#: User tags must be below this; the collective engine owns the rest.
MAX_USER_TAG = 1 << 24
_COLL_TAG_BASE = MAX_USER_TAG
_COLL_TAG_MOD = 1 << 20


def SUM(a, b):
    """Elementwise/builtin sum reduction (works on numbers and arrays)."""
    return a + b


def MAX(a, b):
    """Maximum reduction.  Uses ``numpy.maximum`` for arrays."""
    import numpy as np

    if hasattr(a, "shape") or hasattr(b, "shape"):
        return np.maximum(a, b)
    return max(a, b)


def MIN(a, b):
    """Minimum reduction.  Uses ``numpy.minimum`` for arrays."""
    import numpy as np

    if hasattr(a, "shape") or hasattr(b, "shape"):
        return np.minimum(a, b)
    return min(a, b)


@dataclasses.dataclass
class Status:
    """Receive status: who sent the matched message and how big it was."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0

    def _fill(self, msg: _Message) -> None:
        self.source = msg.source
        self.tag = msg.tag
        self.nbytes = msg.nbytes


class Request:
    """Handle for a nonblocking operation.

    Sends are eager, so send requests are born complete; receive
    requests perform the blocking match on :meth:`wait`.
    """

    __slots__ = ("_thunk", "_done", "_value")

    def __init__(self, thunk: Callable[[], Any] | None = None, value: Any = None):
        self._thunk = thunk
        self._done = thunk is None
        self._value = value

    def test(self) -> tuple[bool, Any]:
        """Non-destructively report completion (never blocks for sends;
        for receives, completion is only discovered via :meth:`wait`)."""
        return self._done, self._value if self._done else None

    def wait(self) -> Any:
        """Block until complete; return the received object (or ``None``
        for sends)."""
        if not self._done:
            assert self._thunk is not None
            self._value = self._thunk()
            self._thunk = None
            self._done = True
        return self._value

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> list[Any]:
        """Wait on every request; return their values in order."""
        return [req.wait() for req in requests]


class _VerifiedSend(Request):
    """An ``isend`` request of a verified run.

    Digests the payload's arrays when posted; :meth:`wait` digests them
    again and raises :class:`~repro.exceptions.CommError` if the sender
    wrote them while the send was in flight.
    """

    __slots__ = ("_payload", "_digest", "_where")

    def __init__(self, payload: Any, where: str):
        from ..check.verifier import payload_digest  # deferred: cycle

        super().__init__()
        self._payload = payload
        self._digest = payload_digest(payload)
        self._where = where

    def wait(self) -> Any:
        if self._payload is not None:
            from ..check.verifier import payload_digest  # deferred: cycle

            payload, self._payload = self._payload, None
            if payload_digest(payload) != self._digest:
                raise CommError(
                    f"{self._where}: payload arrays were modified between "
                    f"isend() and wait(); complete the request before "
                    f"writing the buffer, or send a copy"
                )
        return super().wait()


class Communicator:
    """A group of simulated ranks with isolated message matching.

    Instances are created by :func:`repro.comm.runtime.run_spmd` (the
    world communicator) or by :meth:`split`/:meth:`dup`.  A communicator
    is bound to one rank's context: each rank holds its own instance.
    """

    def __init__(self, runtime: Fabric, ctx: RankContext, comm_key: tuple,
                 group: list[int], rank: int):
        self._runtime = runtime
        self._ctx = ctx
        self._key = comm_key
        self._group = group
        self._rank = rank
        self._coll_seq = 0
        self._derive_seq = 0

    # -- introspection ---------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._group)

    @property
    def clock(self):
        """The rank's :class:`~repro.comm.clock.VirtualClock` (synced)."""
        self._ctx.clock.sync_compute()
        return self._ctx.clock

    @property
    def stats(self):
        """The rank's live :class:`~repro.comm.stats.RankStats`."""
        return self._ctx.stats

    def advance_clock(self, seconds: float) -> None:
        """Charge explicit modelled time (non-flop work) to this rank."""
        self._ctx.clock.sync_compute()
        self._ctx.clock.advance(seconds)

    # -- validation ------------------------------------------------------

    def _check_rank(self, r: int, what: str) -> int:
        if not 0 <= r < self.size:
            raise RankError(f"{what} {r} out of range for size {self.size}")
        return r

    @staticmethod
    def _check_tag(tag: int) -> int:
        if not isinstance(tag, int) or not 0 <= tag < MAX_USER_TAG:
            raise TagError(f"tag must be an int in [0, {MAX_USER_TAG}), got {tag!r}")
        return tag

    # -- point-to-point --------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager (buffered) send: deposits the message and returns."""
        self._check_rank(dest, "dest")
        self._check_tag(tag)
        self._post(obj, dest, tag)

    def _post(self, obj: Any, dest: int, tag: int) -> None:
        self._runtime.post(
            self._ctx, self._key, self._group[dest], self._rank, tag, obj
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        """Blocking receive; returns the matched payload."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        if tag != ANY_TAG:
            self._check_tag(tag)
        return self._match(source, tag, status)

    def _match(self, source: int, tag: int, status: Status | None = None) -> Any:
        source_world = self._group[source] if source >= 0 else None
        msg = self._runtime.match(self._ctx, self._key, source, tag,
                                  source_world=source_world)
        if status is not None:
            status._fill(msg)
        if self._runtime.verifier is not None:
            from ..check.verifier import freeze_payload  # deferred: cycle

            freeze_payload(msg.payload)
        return msg.payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (identical to :meth:`send`; born complete).

        In a verified run the returned request's :meth:`Request.wait`
        raises if ``obj``'s arrays changed since this call.
        """
        self.send(obj, dest, tag)
        if self._runtime.verifier is None:
            return Request()
        return _VerifiedSend(
            obj, f"rank {self._rank}: isend to dest {dest} (tag {tag})"
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; the match happens in ``Request.wait``."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        if tag != ANY_TAG:
            self._check_tag(tag)
        return Request(thunk=lambda: self._match(source, tag))

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
                 status: Status | None = None) -> Any:
        """Combined send + receive (safe under eager sends)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag, status)

    # -- collective plumbing ---------------------------------------------

    def _coll_tag(self) -> int:
        """Fresh collective-phase tag.  SPMD programs call collectives in
        lockstep, so per-instance sequencing stays consistent."""
        tag = _COLL_TAG_BASE + (self._coll_seq % _COLL_TAG_MOD)
        self._coll_seq += 1
        return tag

    @contextmanager
    def _collective_entry(self, name: str, root: int | None = None):
        """Account one user-facing collective call.

        Collectives compose (``allgather`` = ``gather`` + ``bcast``,
        ``allreduce`` = ``reduce`` + ``bcast``, …), so a per-context
        depth counter ensures only the *outermost* call is counted in
        :attr:`RankStats.coll_counts` and traced (``cat="coll"`` span
        when tracing is on).  Bytes are attributed as the delta of the
        rank's point-to-point ``bytes_sent`` across the call.

        When the runtime carries an
        :class:`~repro.check.verifier.SpmdVerifier`, the outermost call
        is also cross-checked against the other ranks' collective
        sequences — the check that turns a rank-divergent collective
        into an immediate :class:`~repro.exceptions.SpmdDivergenceError`
        instead of a downstream deadlock.
        """
        ctx = self._ctx
        ctx.coll_depth += 1
        if ctx.coll_depth > 1:
            try:
                yield
            finally:
                ctx.coll_depth -= 1
            return
        try:
            ctx.current_coll = name
            # Ring first, verify second: when the verifier rejects this
            # very call as divergent, the rank's black box must already
            # show the op it diverged on.
            fr = getattr(ctx, "flightrec", None)
            if fr is not None:
                fr.record_coll(name, root, self.size)
            verifier = self._runtime.verifier
            if verifier is not None:
                index = verifier.record_collective(
                    ctx.rank, self._key, name, root, self.size
                )
                if ctx.tracer is not None:
                    ctx.tracer.instant("coll.verified", cat="verify",
                                       op=name, seq=index)
        except BaseException:
            ctx.coll_depth -= 1
            ctx.current_coll = None
            raise
        bytes0 = ctx.stats.bytes_sent
        tracer = ctx.tracer
        span = (
            tracer.span(name, cat="coll", comm_size=self.size)
            if tracer is not None else nullcontext()
        )
        try:
            with span:
                yield
        finally:
            ctx.stats.record_collective(name, ctx.stats.bytes_sent - bytes0)
            ctx.coll_depth -= 1
            ctx.current_coll = None

    def _coll_send(self, obj: Any, dest: int, tag: int) -> None:
        self._check_rank(dest, "dest")
        self._post(obj, dest, tag)

    def _coll_recv(self, source: int, tag: int) -> Any:
        self._check_rank(source, "source")
        return self._match(source, tag)

    # -- collectives (implemented in repro.comm.collectives) --------------

    def barrier(self) -> None:
        """Synchronize all ranks (dissemination algorithm)."""
        from . import collectives

        collectives.barrier(self)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns it."""
        from . import collectives

        return collectives.bcast(self, obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank to ``root`` (list indexed by rank)."""
        from . import collectives

        return collectives.gather(self, obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per rank to every rank."""
        from . import collectives

        return collectives.allgather(self, obj)

    def scatter(self, objs: Sequence[Any] | None = None, root: int = 0) -> Any:
        """Scatter ``objs`` (length ``size``, significant at root only)."""
        from . import collectives

        return collectives.scatter(self, objs, root)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all exchange."""
        from . import collectives

        return collectives.alltoall(self, objs)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = SUM,
               root: int = 0) -> Any | None:
        """Reduce with binary ``op``; result only at ``root``."""
        from . import collectives

        return collectives.reduce(self, obj, op, root)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = SUM) -> Any:
        """Reduce with binary ``op``; result on every rank."""
        from . import collectives

        return collectives.allreduce(self, obj, op)

    def scan(self, obj: Any, op: Callable[[Any, Any], Any] = SUM) -> Any:
        """Inclusive prefix reduction over ranks (rank r gets
        ``op(...op(obj_0, obj_1)..., obj_r)``)."""
        from . import collectives

        return collectives.scan(self, obj, op)

    def exscan(self, obj: Any, op: Callable[[Any, Any], Any] = SUM) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``."""
        from . import collectives

        return collectives.exscan(self, obj, op)

    # -- communicator management -----------------------------------------

    def split(self, color: int, key: int = 0) -> "Communicator | None":
        """Partition ranks by ``color`` into disjoint sub-communicators.

        Ranks passing ``color=None`` receive ``None`` (like
        ``MPI_UNDEFINED``).  Within a color, new ranks are ordered by
        ``(key, old rank)``.
        """
        triples = self.allgather((color, key, self._rank))
        self._derive_seq += 1
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        local_ranks = [r for _, r in members]
        new_group = [self._group[r] for r in local_ranks]
        new_rank = local_ranks.index(self._rank)
        new_key = self._key + ("split", self._derive_seq, color)
        return Communicator(self._runtime, self._ctx, new_key, new_group, new_rank)

    def dup(self) -> "Communicator":
        """Duplicate the communicator with isolated message matching."""
        self.barrier()
        self._derive_seq += 1
        new_key = self._key + ("dup", self._derive_seq)
        return Communicator(self._runtime, self._ctx, new_key, list(self._group), self._rank)

    # -- misc --------------------------------------------------------------

    def payload_nbytes(self, obj: Any) -> int:
        """Expose the cost model's payload sizing (useful in tests)."""
        return payload_nbytes(obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(rank={self._rank}, size={self.size}, key={self._key})"
