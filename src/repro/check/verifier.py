"""Runtime SPMD verification: collective lockstep cross-checking.

:class:`SpmdVerifier` is the dynamic half of :mod:`repro.check`.  One
instance is shared by every rank of a simulation when it runs with
``run_spmd(..., verify=True)`` (or ``REPRO_VERIFY=1``); the
communicator reports each outermost collective call into it.

For every communicator (identified by its ``comm_key``) the verifier
keeps a per-rank call counter.  The first rank to reach position ``i``
of a communicator's schedule records its signature ``(op, root, size)``
there; every other rank is compared against it on arrival.  A mismatch
means the SPMD program diverged — e.g. one rank entered ``bcast`` while
the others entered ``allreduce`` — and raises
:class:`~repro.exceptions.SpmdDivergenceError` *at the first divergent
call*, naming both ranks, both operations, and both ranks' recent
collective history, instead of letting the mismatched point-to-point
schedules deadlock.

Completed schedule positions (seen by all ``size`` ranks of the
communicator) are discarded, so memory stays bounded by how far ranks
drift apart, not by program length.  Each rank additionally maintains a
rolling BLAKE2b digest of its full sequence; matching digests in the
reports make "these ranks agreed up to here" auditable at a glance.

Two aliasing checks ride on the same switch; the communicator calls
them on every message of a verified run:

- :func:`freeze_payload` marks every array of a received payload
  read-only, so an in-place write to it raises ``ValueError`` at the
  offending line.  Under ``copy_messages=False`` such a write would
  corrupt the sender's buffer.
- :func:`payload_digest` fingerprints an ``isend`` payload when it is
  posted and again at ``Request.wait()``; a difference means the sender
  wrote the buffer while the send was in flight.

The exact wait-for-graph deadlock analysis — the other dynamic check —
lives in :mod:`repro.comm.runtime` itself because it needs the
runtime's inbox state; it is always on.  See docs/CHECKING.md.
"""

from __future__ import annotations

import collections
import hashlib
import threading
from typing import Any

import numpy as np

from ..exceptions import SpmdDivergenceError

__all__ = ["CollectiveRecord", "SpmdVerifier", "freeze_payload",
           "payload_digest"]

#: How many recent collectives per rank are kept for divergence reports.
HISTORY_LIMIT = 12


class CollectiveRecord:
    """One collective call as recorded by the verifier."""

    __slots__ = ("comm_key", "index", "op", "root", "size")

    def __init__(self, comm_key: tuple, index: int, op: str,
                 root: int | None, size: int):
        self.comm_key = comm_key
        self.index = index
        self.op = op
        self.root = root
        self.size = size

    def signature(self) -> tuple:
        return (self.op, self.root, self.size)

    def __repr__(self) -> str:
        root = "" if self.root is None else f", root={self.root}"
        return f"#{self.index} {self.op}(size={self.size}{root})"


class SpmdVerifier:
    """Cross-rank collective-sequence checker for one simulation.

    Thread-safe: ranks call :meth:`record_collective` concurrently.
    """

    def __init__(self, nranks: int, history_limit: int = HISTORY_LIMIT):
        self.nranks = nranks
        self._lock = threading.Lock()
        # (comm_key, index) -> [signature, first_rank, ranks_seen]
        self._pending: dict[tuple, list] = {}
        # (rank, comm_key) -> next schedule index for that rank
        self._cursor: collections.defaultdict[tuple, int] = (
            collections.defaultdict(int)
        )
        self._history: dict[int, collections.deque] = {
            r: collections.deque(maxlen=history_limit) for r in range(nranks)
        }
        self._digests: dict[int, Any] = {
            r: hashlib.blake2b(digest_size=6) for r in range(nranks)
        }
        self.collectives_checked = 0

    def record_collective(self, rank: int, comm_key: tuple, op: str,
                          root: int | None, size: int) -> int:
        """Check one outermost collective call against the schedule.

        Returns the call's index in ``comm_key``'s schedule; raises
        :class:`SpmdDivergenceError` when ``rank`` disagrees with the
        first rank that reached the same index.
        """
        record = CollectiveRecord(comm_key, 0, op, root, size)
        with self._lock:
            index = self._cursor[(rank, comm_key)]
            self._cursor[(rank, comm_key)] = index + 1
            record.index = index
            self._history[rank].append(record)
            self._digests[rank].update(repr(record).encode())
            self.collectives_checked += 1
            slot = self._pending.get((comm_key, index))
            if slot is None:
                self._pending[(comm_key, index)] = [record.signature(), rank, 1]
                return index
            signature, first_rank, seen = slot
            if signature != record.signature():
                raise SpmdDivergenceError(
                    self._divergence_report_locked(rank, record,
                                                   first_rank, signature)
                )
            slot[2] = seen + 1
            if slot[2] >= size:
                del self._pending[(comm_key, index)]
            return index

    def _divergence_report_locked(self, rank: int, record: CollectiveRecord,
                                  first_rank: int, first_sig: tuple) -> str:
        op0, root0, size0 = first_sig
        root_txt = "" if record.root is None else f", root={record.root}"
        root0_txt = "" if root0 is None else f", root={root0}"
        lines = [
            f"SPMD divergence at collective #{record.index} on "
            f"communicator {record.comm_key!r}:",
            f"  rank {rank} called {record.op}(size={record.size}{root_txt})",
            f"  rank {first_rank} called {op0}(size={size0}{root0_txt}) "
            f"[first to arrive]",
            self._trace_line_locked(rank),
            self._trace_line_locked(first_rank),
        ]
        return "\n".join(lines)

    def _trace_line_locked(self, rank: int) -> str:
        history = ", ".join(repr(r) for r in self._history[rank]) or "(none)"
        digest = self._digests[rank].hexdigest()
        return f"  rank {rank} recent collectives [digest {digest}]: {history}"

    def digest(self, rank: int) -> str:
        """Hex digest of ``rank``'s collective sequence so far."""
        with self._lock:
            return self._digests[rank].hexdigest()


_LEAVES = (str, bytes, int, float, complex, type(None), np.generic, type)


def _payload_arrays(obj: Any) -> list[np.ndarray]:
    """Every ndarray reachable from message payload ``obj``.

    Walks tuples, lists, dicts and object attributes (``__dict__`` and
    ``__slots__``), which covers what the solvers send: bare arrays,
    :class:`~repro.prefix.affine.AffinePair`,
    :class:`~repro.linalg.blockops.BatchedLU` and dataclass records.
    The order is deterministic for a given payload structure.
    """
    found: list[np.ndarray] = []
    seen: set[int] = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, _LEAVES) or id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            for cls in type(item).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if not name.startswith("__"):
                        stack.append(getattr(item, name, None))
    return found


def freeze_payload(obj: Any) -> None:
    """Mark every array of a received payload read-only."""
    for array in _payload_arrays(obj):
        array.flags.writeable = False


def payload_digest(obj: Any) -> bytes:
    """Fingerprint of the contents of every array in ``obj``."""
    digest = hashlib.blake2b(digest_size=16)
    for array in _payload_arrays(obj):
        digest.update(array.tobytes())
    return digest.digest()
