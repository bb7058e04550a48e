"""Chrome trace-event JSON export of rank traces.

Writes the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
The export carries **two clock domains** for every traced run:

- a *virtual* process whose timestamps are the simulator's modelled
  seconds (the paper's cost model — deterministic), and
- a *wall* process with real host timestamps (thread scheduling noise
  included),

each with one timeline track (``tid``) per simulated rank.  Spans
become ``"X"`` (complete) events with flop/byte deltas in ``args``.
Message rows (``RankTrace.comm``) go through :func:`row_events`, which
renders incident bundles too: a send is an ``"i"`` (instant) event, a
receive an ``"X"`` event over its wait, each carrying ``seq``, ``tag``,
``nbytes`` and the partner's world rank (``peer``).  Matched send→recv
pairs additionally become flow events (``"s"`` / ``"f"``), so Perfetto
draws the cross-rank message arrows, and a
:class:`~repro.obs.critpath.CritPathReport` can be rendered as an
extra ``critical`` track highlighting exactly the chain of spans and
messages that determined the makespan (``write_chrome_trace(...,
critpath=True)``).

Multi-segment runs (ARD's ``factor`` then ``solve``) are laid end to
end on the virtual axis — segment k starts where segment k-1's makespan
ended, mirroring ``SolveInfo.virtual_time`` — while wall timestamps are
kept as measured (normalized to the earliest event).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Sequence

from .flightrec import recv_wait

__all__ = ["chrome_trace_events", "row_events", "write_chrome_trace"]

_US = 1.0e6  # seconds -> microseconds (trace-event timestamp unit)


def row_events(rows: Iterable[Sequence[Any]], *, pid: int, tid: int,
               wall: bool, shift: float,
               args: dict[str, Any] | None = None) -> list[dict[str, Any]]:
    """Trace events of one rank's flight-recorder rows on one track.

    A row's virtual (or, with ``wall``, wall) time plus ``shift``
    seconds is its timestamp.  A ``recv`` row is an ``"X"`` span over
    its wait, a phase row a ``"B"``/``"E"`` boundary, any other row an
    instant; each is named after the row's ``op``, in category ``comm``
    (sends and receives) or the row's kind.
    """
    out = []
    for row in rows:
        kind, w_ts, v_ts, op, peer, tag, seq, nbytes, _ = row
        at = w_ts if wall else v_ts
        event = {"name": op, "pid": pid, "tid": tid,
                 "cat": "comm" if kind in ("send", "recv") else kind}
        if kind in ("phase", "phase_end"):
            event.update(cat="phase", ph="B" if kind == "phase" else "E",
                         ts=(at + shift) * _US)
            out.append(event)
            continue
        event["args"] = {**(args or {}), "peer": peer, "tag": tag,
                         "seq": seq, "nbytes": nbytes}
        if kind == "recv":
            v_wait, w_wait, _ = recv_wait(row)
            start = w_wait if wall else v_wait
            event.update(ph="X", ts=(start + shift) * _US,
                         dur=(at - start) * _US)
        else:
            event.update(ph="i", s="t", ts=(at + shift) * _US)
        out.append(event)
    return out


def _span_args(span) -> dict[str, Any]:
    args = {k: v for k, v in span.attrs.items()}
    if span.flops:
        args["flops"] = span.flops
    if span.bytes_sent:
        args["bytes_sent"] = span.bytes_sent
    if span.msgs_sent:
        args["msgs_sent"] = span.msgs_sent
    return args


def chrome_trace_events(
    segments: Sequence[tuple[str, Any]],
    *,
    label: str = "run",
    base_pid: int = 0,
    include_wall: bool = True,
    critpath: Any = None,
) -> list[dict[str, Any]]:
    """Convert traced segments into a list of trace-event dicts.

    Parameters
    ----------
    segments:
        ``(segment_label, SimulationResult)`` pairs in execution order;
        every result must carry traces (``run_spmd(..., trace=True)``).
    label:
        Run label used in the process names (e.g. the method name).
    base_pid:
        First process id to use; the virtual process gets ``base_pid``
        and the wall process ``base_pid + 1``.  Pass distinct bases to
        combine several runs in one file.
    include_wall:
        Also emit the wall-clock process (on by default).
    critpath:
        Optional :class:`~repro.obs.critpath.CritPathReport` for these
        same segments; its pieces are rendered on an extra ``critical``
        track (``tid`` above the rank tracks) of the virtual process.

    Returns
    -------
    list of event dicts ready for ``json.dump`` under ``traceEvents``.
    """
    from .critpath import _comm_rows, reconstruct_edges

    v_pid = base_pid
    w_pid = base_pid + 1
    events: list[dict[str, Any]] = []
    ranks: set[int] = set()

    # _comm_rows raises for a segment run without trace=True.
    segment_rows = [_comm_rows(result) for _, result in segments]
    starts: list[float] = []
    for (_, result), rows in zip(segments, segment_rows):
        for trace in result.traces:
            starts += [s.w_start for s in trace.spans]
            starts += [e.w_ts for e in trace.events]
            starts += [recv_wait(r)[1] for r in rows[trace.rank]]
    wall_zero = min(starts, default=0.0)

    v_offset = 0.0
    flow_id = 0
    for (seg_label, result), rows in zip(segments, segment_rows):
        for edge in reconstruct_edges(rows, segment=seg_label).edges:
            # Flow-event pair: Perfetto draws an arrow from the send
            # instant on the sender's track to the matched receive's
            # end on the receiver's track.
            flow_id += 1
            flow = {"name": "msg", "cat": "comm", "id": flow_id,
                    "pid": v_pid}
            events.append({
                **flow, "ph": "s", "tid": edge.src,
                "ts": (v_offset + edge.send_v) * _US,
            })
            events.append({
                **flow, "ph": "f", "bp": "e", "tid": edge.dst,
                "ts": (v_offset + edge.recv_end_v) * _US,
            })
        for trace in result.traces:
            ranks.add(trace.rank)
            trace_id = getattr(trace, "trace_id", None)
            seg_args = ({"segment": seg_label, "trace_id": trace_id}
                        if trace_id is not None else {"segment": seg_label})
            for s in trace.spans:
                common = {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "tid": trace.rank,
                    "args": {**seg_args, **_span_args(s)},
                }
                events.append({
                    **common,
                    "pid": v_pid,
                    "ts": (v_offset + s.v_start) * _US,
                    "dur": s.v_dur * _US,
                })
                if include_wall:
                    events.append({
                        **common,
                        "pid": w_pid,
                        "ts": (s.w_start - wall_zero) * _US,
                        "dur": s.w_dur * _US,
                    })
            for e in trace.events:
                common = {
                    "name": e.name,
                    "cat": e.cat,
                    "ph": "i",
                    "s": "t",
                    "tid": trace.rank,
                    "args": {**seg_args, **e.attrs},
                }
                events.append({
                    **common,
                    "pid": v_pid,
                    "ts": (v_offset + e.v_ts) * _US,
                })
                if include_wall:
                    events.append({
                        **common,
                        "pid": w_pid,
                        "ts": (e.w_ts - wall_zero) * _US,
                    })
            # Each wait of a finished run ends in a receive span drawn
            # here, and whether a receive waited at all depends on host
            # timing, so wait rows are not drawn.
            messages = [r for r in rows[trace.rank] if r[0] != "wait"]
            events.extend(row_events(messages, pid=v_pid, tid=trace.rank,
                                     wall=False, shift=v_offset,
                                     args=seg_args))
            if include_wall:
                events.extend(row_events(messages, pid=w_pid,
                                         tid=trace.rank, wall=True,
                                         shift=-wall_zero, args=seg_args))
        v_offset += result.virtual_time

    crit_tid = None
    if critpath is not None:
        # Critical-path pieces carry run-global virtual timestamps
        # (same end-to-end segment layout as v_offset above), so they
        # drop straight onto one extra track of the virtual process.
        crit_tid = (max(ranks) + 1) if ranks else 0
        for piece in critpath.path:
            events.append({
                "name": piece.name,
                "cat": "critical",
                "ph": "X",
                "pid": v_pid,
                "tid": crit_tid,
                "ts": piece.v_start * _US,
                "dur": piece.duration * _US,
                "args": {"segment": piece.segment, "kind": piece.kind,
                         "rank": piece.rank},
            })

    pids = [(v_pid, f"{label} [virtual time]")]
    if include_wall:
        pids.append((w_pid, f"{label} [wall time]"))
    for pid, name in pids:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        for rank in sorted(ranks):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": rank,
                "args": {"name": f"rank {rank}"},
            })
        if pid == v_pid and crit_tid is not None:
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": crit_tid, "args": {"name": "critical path"},
            })
    return events


def _segments_of(source: Any) -> list[tuple[str, Any]]:
    """Normalize a SolveInfo / SimulationResult / segment list."""
    factor_result = getattr(source, "factor_result", None)
    solve_result = getattr(source, "solve_result", None)
    if solve_result is None:
        solve_result = getattr(source, "last_solve_result", None)
    if factor_result is not None or solve_result is not None:
        segments = []
        if factor_result is not None:
            segments.append(("factor", factor_result))
        if solve_result is not None:
            segments.append(("solve", solve_result))
        return segments
    if hasattr(source, "traces"):
        return [("run", source)]
    return list(source)


def write_chrome_trace(
    path: str | pathlib.Path,
    source: Any,
    *,
    include_wall: bool = True,
    critpath: Any = False,
) -> pathlib.Path:
    """Write a Chrome trace-event JSON file; returns the path.

    Parameters
    ----------
    path:
        Output file (conventionally ``*.trace.json``); open it in
        Perfetto or ``chrome://tracing``.
    source:
        Any of: a ``SolveInfo`` (factor + solve segments), a traced
        factorization (``factor_result`` / ``last_solve_result``), a
        single traced ``SimulationResult``, a list of ``(label,
        SimulationResult)`` segments, or a dict mapping run labels to
        any of the above (each run gets its own process pair).
    include_wall:
        Also emit the wall-clock processes (on by default).
    critpath:
        ``True`` runs :func:`~repro.obs.critpath.analyze_critical_path`
        on each run and renders its pieces on a ``critical`` track;
        alternatively pass a ready
        :class:`~repro.obs.critpath.CritPathReport` (single-run sources
        only).
    """
    from ..exceptions import ReproError

    if isinstance(source, dict):
        groups = [(str(k), _segments_of(v)) for k, v in source.items()]
    else:
        groups = [("run", _segments_of(source))]
    if critpath not in (False, None, True) and len(groups) > 1:
        raise ReproError(
            "a ready CritPathReport applies to a single run; pass "
            "critpath=True to analyze each run of a dict source"
        )
    events: list[dict[str, Any]] = []
    base_pid = 0
    for label, segments in groups:
        cp = critpath if critpath not in (False, None, True) else None
        if critpath is True:
            from .critpath import analyze_critical_path

            cp = analyze_critical_path(segments)
        events.extend(chrome_trace_events(
            segments, label=label, base_pid=base_pid,
            include_wall=include_wall, critpath=cp,
        ))
        base_pid += 2
    path = pathlib.Path(path)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return path
