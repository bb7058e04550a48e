"""Cross-rank span-DAG reconstruction and critical-path analysis.

A traced SPMD run (``run_spmd(..., trace=True)``) yields one
:class:`~repro.obs.tracer.RankTrace` per rank: phase spans tiling the
rank's virtual timeline and, in ``comm``, one flight-recorder row per
send, wait and receive (:mod:`repro.obs.flightrec`; incident bundles
hold the same rows).  The runtime stamps every message with a ``seq``
identifier, unique per message and rank-strided (each rank allocates
from its own range), recorded on *both* the send row and the matched
receive row — exactly one cross-rank happens-before edge per message.
This module reassembles those per-rank timelines plus the message
edges into the execution DAG and answers the question the per-rank
:class:`~repro.obs.report.PhaseReport` cannot: *which chain of work
actually determined the makespan, and what was every other rank doing
meanwhile?*

Model
-----
Virtual time only advances through counted flops, per-message overhead,
and modelled message arrival (``clock.advance_to``), so each rank's
timeline decomposes exactly into

- **compute** — the rank's own final virtual time minus its receive
  waits (flops + send/recv overhead charges),
- **comm** — time blocked inside receive waits (the clock jumped to a
  message's modelled arrival), and
- **idle** — the gap between the rank's final virtual time and the
  segment makespan (the rank finished early and sat out the rest).

These three sum to the makespan *per rank by construction*, which is
the invariant ``CritPathReport.validate`` (and the CI profile gate)
checks.  **Overlap** is reported separately: modelled message flight
time hidden behind the receiver's compute (flight minus actual wait,
clipped at zero) — it does not consume makespan, it measures how much
communication the schedule already hides.

The critical path is walked *backwards* from the makespan on the
segment's critical rank: local execution extends the path until it
reaches a receive wait that gated progress (the clock jumped to the
message arrival), at which point the path hops the matched edge to the
sender at its send timestamp.  The resulting alternating
compute/message chain covers ``[0, makespan]`` without gaps, so its
length equals the makespan — another checked invariant (and the upper
bound of the property test in ``tests/test_critpath.py``; the lower
bound is the busiest rank's busy time, which any schedule must contain).

Multi-segment sources (ARD's ``factor`` then ``solve``) are laid end to
end on the virtual axis exactly like the Chrome export, so critical
segments line up with :func:`repro.obs.chrome.write_chrome_trace`
timestamps.

See docs/PROFILING.md for interpretation guidance.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

from .flightrec import RECORD_FIELDS, recv_wait

__all__ = [
    "MessageEdge",
    "EdgeSet",
    "CritSegment",
    "RankAttribution",
    "CritPathReport",
    "reconstruct_edges",
    "analyze_critical_path",
]

#: Relative tolerance below which a wait is considered zero-length
#: (the message had already arrived when the receive was posted).
_REL_TOL = 1e-12

_V_TS, _TAG, _SEQ, _NBYTES = (RECORD_FIELDS.index(f)
                               for f in ("v_ts", "tag", "seq", "nbytes"))


@dataclasses.dataclass(frozen=True)
class MessageEdge:
    """One matched send→recv happens-before edge of the span DAG.

    Attributes
    ----------
    segment:
        Label of the traced segment the edge belongs to.
    seq:
        Runtime-assigned message id: unique per message, rank-strided
        (each sending rank allocates from its own range).
    src / dst:
        World ranks of the sender and receiver.
    tag / nbytes:
        Message tag and modelled payload size.
    send_v:
        Sender's virtual timestamp of the send (post time).
    arrival_v:
        Modelled arrival time (``send_v`` + wire time).
    recv_start_v / recv_end_v:
        The receiver's wait interval: when it posted the receive and
        when it resumed (``max(arrival, post time)``).
    """

    segment: str
    seq: int
    src: int
    dst: int
    tag: int
    nbytes: int
    send_v: float
    arrival_v: float
    recv_start_v: float
    recv_end_v: float

    @property
    def waited(self) -> float:
        """Seconds the receiver actually blocked on this message."""
        return self.recv_end_v - self.recv_start_v

    @property
    def flight(self) -> float:
        """Modelled wire time of the message."""
        return self.arrival_v - self.send_v

    @property
    def hidden(self) -> float:
        """Flight time overlapped by receiver compute (not waited for)."""
        return max(0.0, self.flight - self.waited)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-serializable) form."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class EdgeSet:
    """Matched message edges of one traced segment, plus the leftovers.

    ``unmatched_sends`` / ``unmatched_recvs`` count rows that could not
    be paired (a negative ``seq``, or no partner with the same ``seq``)
    — a nonzero count degrades the critical-path walk, which simply
    treats such waits as local time.
    """

    edges: list[MessageEdge]
    unmatched_sends: int = 0
    unmatched_recvs: int = 0


def _comm_rows(result: Any) -> dict[int, list[tuple]]:
    """Each rank's message rows of a traced run, keyed by world rank."""
    if getattr(result, "traces", None) is None:
        from ..exceptions import ReproError

        raise ReproError(
            "result has no traces; run with trace=True "
            "(e.g. solve(..., trace=True) or run_spmd(..., trace=True))"
        )
    return {trace.rank: trace.comm for trace in result.traces}


def reconstruct_edges(rows: Mapping[int, Sequence[Sequence[Any]]],
                      segment: str = "run") -> EdgeSet:
    """Pair send rows with receive rows into cross-rank edges.

    Parameters
    ----------
    rows:
        World rank -> that rank's rows in program order (layout
        :data:`repro.obs.flightrec.RECORD_FIELDS`): a traced run's
        ``RankTrace.comm`` lists, or the records of an incident
        bundle's rings.  Only ``send`` and ``recv`` rows are read.
    segment:
        Label stamped into the produced edges.

    Matching uses the runtime's per-message ``seq`` id, which every
    send row and receive row carries; a row without one (negative), or
    without a partner, is counted in ``EdgeSet.unmatched_*``.  Edges
    come out grouped by receiving rank, in receive order.
    """
    sends: dict[int, tuple[int, Any]] = {}
    unmatched_sends = 0
    for rank, rank_rows in rows.items():
        for row in rank_rows:
            if row[0] == "send":
                if row[_SEQ] < 0:
                    unmatched_sends += 1
                else:
                    sends[row[_SEQ]] = (rank, row)

    edges: list[MessageEdge] = []
    unmatched_recvs = 0
    matched_seqs: set[int] = set()
    for rank, rank_rows in rows.items():
        for row in rank_rows:
            if row[0] != "recv":
                continue
            seq = row[_SEQ]
            if seq < 0 or seq not in sends:
                unmatched_recvs += 1
                continue
            src, send = sends[seq]
            matched_seqs.add(seq)
            v_wait, _, arrival = recv_wait(row)
            edges.append(MessageEdge(
                segment=segment, seq=seq, src=src, dst=rank,
                tag=row[_TAG], nbytes=row[_NBYTES], send_v=send[_V_TS],
                arrival_v=arrival, recv_start_v=v_wait,
                recv_end_v=row[_V_TS],
            ))
    unmatched_sends += len(sends) - len(matched_seqs)
    return EdgeSet(edges=edges, unmatched_sends=unmatched_sends,
                   unmatched_recvs=unmatched_recvs)


@dataclasses.dataclass(frozen=True)
class CritSegment:
    """One piece of the critical path, in run-global virtual time.

    ``kind`` is ``"compute"`` (local execution on ``rank``; ``name`` is
    the phase span it fell under, or ``"(untracked)"``) or
    ``"message"`` (wire flight; ``name`` is ``"msg r<src>->r<dst>"``
    and ``src``/``dst`` are set).
    """

    segment: str
    kind: str
    name: str
    rank: int
    v_start: float
    v_end: float
    src: int | None = None
    dst: int | None = None

    @property
    def duration(self) -> float:
        """Length of this piece in modelled seconds."""
        return self.v_end - self.v_start

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-serializable) form."""
        out = dataclasses.asdict(self)
        out["duration"] = self.duration
        return out


@dataclasses.dataclass
class RankAttribution:
    """Where one rank's share of the makespan went (modelled seconds).

    ``compute + comm + idle`` equals the analyzed makespan exactly (the
    decomposition in the module docstring); ``overlap`` is message
    flight hidden behind this rank's compute and is *not* part of that
    sum.
    """

    rank: int
    compute: float = 0.0
    comm: float = 0.0
    idle: float = 0.0
    overlap: float = 0.0

    @property
    def total(self) -> float:
        """``compute + comm + idle`` — should equal the makespan."""
        return self.compute + self.comm + self.idle

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-serializable) form."""
        out = dataclasses.asdict(self)
        out["total"] = self.total
        return out


@dataclasses.dataclass
class CritPathReport:
    """Critical path + per-rank attribution of one traced run.

    Attributes
    ----------
    nranks / makespan:
        Rank count and total modelled makespan (segment makespans
        summed, matching ``SolveInfo.virtual_time``).
    path:
        Critical-path pieces in chronological order; their durations
        sum to :attr:`length`.
    attribution:
        One :class:`RankAttribution` per rank.
    compute_by_phase:
        Critical-path compute seconds per ``"segment/phase"`` key.
    message_time / message_hops:
        Wire-flight seconds and edge count on the critical path.
    segment_makespan / segment_critical_rank:
        Per-segment makespans and the rank each walk started from.
    edges_total / unmatched_sends / unmatched_recvs:
        Cross-rank edge reconstruction accounting.
    """

    nranks: int
    makespan: float
    path: list[CritSegment]
    attribution: list[RankAttribution]
    compute_by_phase: dict[str, float]
    message_time: float
    message_hops: int
    segment_makespan: dict[str, float]
    segment_critical_rank: dict[str, int]
    edges_total: int
    unmatched_sends: int
    unmatched_recvs: int

    @property
    def length(self) -> float:
        """Sum of critical-path piece durations (equals the makespan
        when the walk covered the whole run)."""
        return sum(s.duration for s in self.path)

    def attribution_fractions(self) -> dict[str, float]:
        """Makespan-normalized compute/comm/idle fractions, averaged
        over ranks — ``compute + comm + idle`` ≈ 1.0."""
        total = max(self.makespan * self.nranks, 1e-300)
        return {
            "compute": sum(a.compute for a in self.attribution) / total,
            "comm": sum(a.comm for a in self.attribution) / total,
            "idle": sum(a.idle for a in self.attribution) / total,
        }

    def validate(self, tol: float = 0.01) -> list[str]:
        """Invariant check; returns human-readable problems (empty=ok).

        Checked: the report has phases, every rank's
        ``compute+comm+idle`` matches the makespan within ``tol``
        (relative), and the critical-path length is within ``tol`` of
        the makespan.  The CI profile gate fails on any problem.
        """
        problems: list[str] = []
        if not self.compute_by_phase:
            problems.append("no phases on the critical path "
                            "(missing phase spans?)")
        scale = max(self.makespan, 1e-300)
        for a in self.attribution:
            err = abs(a.total - self.makespan) / scale
            if err > tol:
                problems.append(
                    f"rank {a.rank}: compute+comm+idle = {a.total:.6e} "
                    f"deviates {err:.2%} from makespan {self.makespan:.6e}"
                )
        err = abs(self.length - self.makespan) / scale
        if err > tol:
            problems.append(
                f"critical-path length {self.length:.6e} deviates "
                f"{err:.2%} from makespan {self.makespan:.6e}"
            )
        return problems

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-serializable) form."""
        return {
            "nranks": self.nranks,
            "makespan": self.makespan,
            "length": self.length,
            "fractions": self.attribution_fractions(),
            "attribution": [a.to_dict() for a in self.attribution],
            "compute_by_phase": dict(self.compute_by_phase),
            "message_time": self.message_time,
            "message_hops": self.message_hops,
            "segment_makespan": dict(self.segment_makespan),
            "segment_critical_rank": dict(self.segment_critical_rank),
            "edges_total": self.edges_total,
            "unmatched_sends": self.unmatched_sends,
            "unmatched_recvs": self.unmatched_recvs,
            "path": [s.to_dict() for s in self.path],
        }

    def render(self) -> str:
        """Human-readable critical-path and attribution tables."""
        from ..util.tables import render_table

        span_total = max(self.makespan, 1e-300)
        rows = []
        for key in sorted(self.compute_by_phase,
                          key=lambda k: -self.compute_by_phase[k]):
            sec = self.compute_by_phase[key]
            rows.append([key, f"{sec:.3e}", f"{sec / span_total:.1%}"])
        rows.append(["(message flight)", f"{self.message_time:.3e}",
                     f"{self.message_time / span_total:.1%}"])
        crit = render_table(
            ["component", "crit_s", "share"],
            rows,
            title=(f"Critical path (P={self.nranks}, "
                   f"makespan={self.makespan:.3e}s, "
                   f"{self.message_hops} message hop(s), "
                   f"{self.edges_total} edges)"),
        )
        rank_rows = [
            [a.rank, f"{a.compute:.3e}", f"{a.comm:.3e}", f"{a.idle:.3e}",
             f"{a.overlap:.3e}", f"{a.compute / span_total:.1%}"]
            for a in self.attribution
        ]
        ranks = render_table(
            ["rank", "compute_s", "comm_s", "idle_s", "overlap_s", "busy"],
            rank_rows,
            title="Per-rank attribution (compute+comm+idle = makespan)",
        )
        return crit + "\n" + ranks


def _segment_walk(
    label: str,
    result: Any,
    edges: list[MessageEdge],
    v_offset: float,
) -> tuple[list[CritSegment], int]:
    """Walk one segment's critical path backwards; return pieces
    (chronological, offset into run-global time) and the start rank."""
    makespan = result.virtual_time
    tol = max(makespan, 1.0) * _REL_TOL
    crit_rank = max(range(result.nranks),
                    key=lambda r: result.stats[r].virtual_time)
    # Each rank's gating candidates: matched receives that waited, in
    # receive order (the order reconstruct_edges emits them in).
    waits: dict[int, list[MessageEdge]] = {}
    for edge in edges:
        if edge.waited > tol:
            waits.setdefault(edge.dst, []).append(edge)
    n_waits = sum(len(w) for w in waits.values())
    phases = {trace.rank: trace.phase_spans() for trace in result.traces}

    def emit_compute(rank: int, t0: float, t1: float,
                     out: list[CritSegment]) -> None:
        """Split [t0, t1] on ``rank`` by its phase spans (backwards)."""
        if t1 - t0 <= tol:
            return
        pieces: list[tuple[float, float, str]] = []
        cursor = t0
        for s in phases.get(rank, []):
            lo, hi = max(s.v_start, t0), min(s.v_end, t1)
            if hi - lo <= tol:
                continue
            if lo - cursor > tol:
                pieces.append((cursor, lo, "(untracked)"))
            pieces.append((lo, hi, s.name))
            cursor = max(cursor, hi)
        if t1 - cursor > tol:
            pieces.append((cursor, t1, "(untracked)"))
        for lo, hi, name in reversed(pieces):
            out.append(CritSegment(
                segment=label, kind="compute", name=name, rank=rank,
                v_start=v_offset + lo, v_end=v_offset + hi,
            ))

    backward: list[CritSegment] = []
    rank, t = crit_rank, makespan
    consumed: set[int] = set()
    steps = 0
    while t > tol and steps <= n_waits + result.nranks + 1:
        steps += 1
        edge = None
        # Each wait gates the walk at most once: with zero-cost hops
        # (degenerate cost models) ``t`` can stall, and consuming the
        # wait is what guarantees termination.
        for candidate in reversed(waits.get(rank, [])):
            if (candidate.recv_end_v <= t + tol
                    and id(candidate) not in consumed):
                edge = candidate
                break
        if edge is None:
            emit_compute(rank, 0.0, t, backward)
            t = 0.0
            break
        consumed.add(id(edge))
        emit_compute(rank, edge.recv_end_v, t, backward)
        if edge.recv_end_v - edge.send_v > tol:
            backward.append(CritSegment(
                segment=label, kind="message",
                name=f"msg r{edge.src}->r{edge.dst}", rank=edge.dst,
                v_start=v_offset + edge.send_v,
                v_end=v_offset + edge.recv_end_v,
                src=edge.src, dst=edge.dst,
            ))
        rank, t = edge.src, edge.send_v
    backward.reverse()
    return backward, crit_rank


def analyze_critical_path(source: Any) -> CritPathReport:
    """Build a :class:`CritPathReport` from a traced run.

    Parameters
    ----------
    source:
        Anything :func:`repro.obs.chrome.write_chrome_trace` accepts as
        one run: a ``SolveInfo``, a traced factorization, a single
        traced ``SimulationResult``, or an explicit list of ``(label,
        SimulationResult)`` segments.  Every segment must carry traces.

    Raises
    ------
    ReproError
        When any segment was run without ``trace=True``.
    """
    from .chrome import _segments_of

    segments: Sequence[tuple[str, Any]] = _segments_of(source)
    path: list[CritSegment] = []
    attribution: dict[int, RankAttribution] = {}
    compute_by_phase: dict[str, float] = {}
    segment_makespan: dict[str, float] = {}
    segment_critical: dict[str, int] = {}
    edges_total = unmatched_sends = unmatched_recvs = 0
    message_time = 0.0
    message_hops = 0
    nranks = 0
    v_offset = 0.0
    for label, result in segments:
        rows = _comm_rows(result)
        edge_set = reconstruct_edges(rows, segment=label)
        edges_total += len(edge_set.edges)
        unmatched_sends += edge_set.unmatched_sends
        unmatched_recvs += edge_set.unmatched_recvs
        makespan = result.virtual_time
        segment_makespan[label] = makespan
        nranks = max(nranks, result.nranks)

        walked, crit_rank = _segment_walk(label, result, edge_set.edges,
                                          v_offset)
        segment_critical[label] = crit_rank
        path.extend(walked)
        for piece in walked:
            if piece.kind == "message":
                message_time += piece.duration
                message_hops += 1
            else:
                key = f"{piece.segment}/{piece.name}"
                compute_by_phase[key] = (
                    compute_by_phase.get(key, 0.0) + piece.duration
                )

        hidden: dict[int, float] = {}
        for edge in edge_set.edges:
            hidden[edge.dst] = hidden.get(edge.dst, 0.0) + edge.hidden
        for trace in result.traces:
            att = attribution.setdefault(
                trace.rank, RankAttribution(rank=trace.rank))
            waited = sum(row[_V_TS] - recv_wait(row)[0]
                         for row in rows[trace.rank] if row[0] == "recv")
            busy = result.stats[trace.rank].virtual_time
            att.compute += busy - waited
            att.comm += waited
            att.idle += makespan - busy
            att.overlap += hidden.get(trace.rank, 0.0)
        v_offset += makespan

    return CritPathReport(
        nranks=nranks,
        makespan=v_offset,
        path=path,
        attribution=[attribution[r] for r in sorted(attribution)],
        compute_by_phase=compute_by_phase,
        message_time=message_time,
        message_hops=message_hops,
        segment_makespan=segment_makespan,
        segment_critical_rank=segment_critical,
        edges_total=edges_total,
        unmatched_sends=unmatched_sends,
        unmatched_recvs=unmatched_recvs,
    )
