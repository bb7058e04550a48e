"""Backend-agnostic message matching and wait-for-graph reporting.

Both execution backends implement the same MPI-like matching contract —
a receive names ``(communicator, source, tag)`` with ``-1`` wildcards,
and candidates match in arrival order — and both surface deadlocks with
the same style of report: one line per blocked rank plus the wait-for
cycle when one exists.  This module holds the shared pieces:

- :func:`match_in` / :func:`peek_in` search a pending-message list the
  way ``MPI_Recv`` matching does (first arrival that satisfies the
  triple).  The thread backend (:mod:`repro.comm.runtime`) applies them
  to its per-rank inboxes; the process backend
  (:mod:`repro.comm.mp`) applies them to each worker's local
  pending buffer.
- :class:`WaitInfo` describes what a blocked rank is matching — the
  node payload of the wait-for graph.
- :class:`Unmatched` describes a message nobody received; both
  backends hand these to the reports (the process backend ships them
  from its workers inside heartbeats).
- :func:`find_wait_cycle` extracts one cycle from a wait-for graph
  (rank → awaited world rank), and :func:`deadlock_report` renders the
  full diagnostic, with a ``near miss:`` line wherever a blocked
  receive and an unmatched message differ only in tag or only in peer.

Matched objects only need ``comm_key`` / ``source`` / ``tag``
attributes; both backends' message envelopes provide them.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

__all__ = ["match_in", "peek_in", "WaitInfo", "Unmatched",
           "find_wait_cycle", "deadlock_report"]


def match_in(pending: list, comm_key, source: int, tag: int) -> Any | None:
    """Pop and return the first pending message matching the triple.

    ``source``/``tag`` of ``-1`` act as wildcards (ANY_SOURCE /
    ANY_TAG).  Returns ``None`` when nothing matches.
    """
    for i, msg in enumerate(pending):
        if msg.comm_key != comm_key:
            continue
        if source >= 0 and msg.source != source:
            continue
        if tag >= 0 and msg.tag != tag:
            continue
        return pending.pop(i)
    return None


def peek_in(pending: Sequence, comm_key, source: int, tag: int) -> bool:
    """Non-destructive :func:`match_in`: is a matching message pending?"""
    for msg in pending:
        if msg.comm_key != comm_key:
            continue
        if source >= 0 and msg.source != source:
            continue
        if tag >= 0 and msg.tag != tag:
            continue
        return True
    return False


class WaitInfo:
    """One node of the wait-for graph: what a blocked rank is matching.

    ``source`` is communicator-local (``-1`` = wildcard);
    ``source_world`` is the awaited sender's world rank when known, and
    ``op`` the user-facing collective the rank is inside, if any.
    """

    __slots__ = ("comm_key", "source", "tag", "source_world", "op")

    def __init__(self, comm_key, source: int, tag: int,
                 source_world: int | None, op: str | None):
        self.comm_key = comm_key
        self.source = source
        self.tag = tag
        self.source_world = source_world
        self.op = op

    def describe(self, rank: int) -> str:
        src = ("any rank" if self.source < 0
               else f"rank {self.source_world if self.source_world is not None else self.source}")
        tag = "any tag" if self.tag < 0 else f"tag {self.tag}"
        inside = f" inside collective '{self.op}'" if self.op else ""
        return (f"rank {rank}{inside}: blocked receiving from {src} "
                f"({tag}) on communicator {self.comm_key!r}")

    def to_tuple(self) -> tuple:
        """Picklable form for cross-process heartbeat shipping."""
        return (self.comm_key, self.source, self.tag, self.source_world,
                self.op)

    @classmethod
    def from_tuple(cls, t: tuple) -> "WaitInfo":
        return cls(*t)


class Unmatched(NamedTuple):
    """A message still sitting in ``dest``'s mailbox.

    ``source`` is the sender's rank within ``comm_key`` (what a receive
    names); ``source_world`` and ``dest`` are world ranks.
    """

    comm_key: tuple
    source: int
    source_world: int
    dest: int
    tag: int
    nbytes: int

    @classmethod
    def of(cls, msg: Any, dest: int) -> "Unmatched":
        """Describe envelope ``msg`` pending at world rank ``dest``."""
        return cls(msg.comm_key, msg.source, msg.source_world, dest,
                   msg.tag, msg.nbytes)

    def describe(self) -> str:
        return (f"message: rank {self.source_world} -> rank {self.dest} "
                f"(tag {self.tag}, {self.nbytes} bytes) on communicator "
                f"{self.comm_key!r}")


def _near_misses(waiting: dict[int, WaitInfo],
                 unmatched: Sequence[Unmatched]) -> list[str]:
    """Blocked receives that an unmatched message misses by one field."""
    lines = []
    for rank in sorted(waiting):
        wait = waiting[rank]
        peer = (wait.source_world if wait.source_world is not None
                else wait.source)
        for msg in unmatched:
            if msg.dest != rank or msg.comm_key != wait.comm_key:
                continue
            same_peer = wait.source < 0 or msg.source == wait.source
            same_tag = wait.tag < 0 or msg.tag == wait.tag
            if same_peer and not same_tag:
                lines.append(
                    f"near miss: rank {rank} waits for tag {wait.tag}; "
                    f"rank {msg.source_world} sent it tag {msg.tag} "
                    f"(same rank pair, different tag)"
                )
            elif same_tag and not same_peer:
                lines.append(
                    f"near miss: rank {rank} waits for rank {peer}; "
                    f"rank {msg.source_world} sent it tag {msg.tag} "
                    f"(same tag, different peer)"
                )
    return lines


def find_wait_cycle(waiting: dict[int, WaitInfo]) -> list[int] | None:
    """Find one cycle in the wait-for graph (rank → awaited rank)."""
    graph = {
        rank: wait.source_world
        for rank, wait in waiting.items()
        if wait.source_world is not None
    }
    visited: set[int] = set()
    for start in graph:
        if start in visited:
            continue
        position: dict[int, int] = {}
        chain: list[int] = []
        node = start
        while node in graph and node not in visited and node not in position:
            position[node] = len(chain)
            chain.append(node)
            node = graph[node]
        visited.update(chain)
        if node in position:
            return chain[position[node]:]
    return None


def deadlock_report(waiting: dict[int, WaitInfo], n_blocked: int,
                    unmatched: Sequence[Unmatched] = (),
                    headline: str | None = None) -> str:
    """Render the full deadlock diagnostic shared by both backends."""
    lines = [
        headline
        or (f"SPMD deadlock: all {n_blocked} unfinished rank(s) are "
            f"blocked on receives no in-flight message can satisfy.")
    ]
    cycle = find_wait_cycle(waiting)
    if cycle:
        hops = " -> ".join(f"rank {r}" for r in cycle + cycle[:1])
        lines.append(f"  wait-for cycle: {hops}")
    for rank in sorted(waiting):
        lines.append("  " + waiting[rank].describe(rank))
    for msg in unmatched:
        lines.append("  unmatched " + msg.describe())
    for line in _near_misses(waiting, unmatched):
        lines.append("  " + line)
    return "\n".join(lines)
