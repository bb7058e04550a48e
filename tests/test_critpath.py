"""Cross-rank edge reconstruction and critical-path analysis.

Synthetic two-rank fixtures with known send/recv pairing pin down the
edge matcher and the backward walk exactly; a hypothesis property test
then checks the headline invariants — critical-path length at least
the busiest rank's compute time and at most (here: exactly) the
makespan — over randomized message schedules; and real traced solver
runs close the loop against the live runtime's ``seq`` stamps.
"""

import json
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.stats import RankStats, SimulationResult
from repro.exceptions import ReproError
from repro.obs import (
    TelemetryServer,
    analyze_critical_path,
    build_phase_report,
    reconstruct_edges,
    write_chrome_trace,
)
from repro.obs.tracer import RankTrace, SpanRecord


def _span(name, cat, v0, v1, **attrs):
    return SpanRecord(name=name, cat=cat, depth=0, v_start=v0, v_end=v1,
                      w_start=v0, w_end=v1, attrs=attrs)


def _send(v, dest, seq, tag=7, nbytes=64):
    """A send row (repro.obs.flightrec.RECORD_FIELDS) posted at ``v``."""
    return ("send", v, v, "send", dest, tag, seq, nbytes, None)


def _recv(v0, v1, source, arrival, seq, tag=7, nbytes=64):
    """A recv row whose wait ran from ``v0`` to ``v1``."""
    return ("recv", v1, v1, "recv", source, tag, seq, nbytes,
            (v0, v0, arrival))


def _rows(result):
    return {t.rank: t.comm for t in result.traces}


def _result(traces, vtimes):
    stats = [RankStats(rank=r, virtual_time=t) for r, t in enumerate(vtimes)]
    return SimulationResult(values=[None] * len(traces), stats=stats,
                            wall_time=0.0, traces=traces)


def _two_rank_fixture():
    """Rank 0: compute [0,1], send at 1.0 (arrival 1.5).  Rank 1:
    compute [0,0.5], wait [0.5,1.5] for the message, compute [1.5,2]."""
    t0 = RankTrace(rank=0, spans=[_span("a", "phase", 0.0, 1.0)],
                   comm=[_send(1.0, dest=1, seq=0)])
    t1 = RankTrace(rank=1, spans=[
        _span("b", "phase", 0.0, 0.5),
        _span("c", "phase", 1.5, 2.0),
    ], comm=[_recv(0.5, 1.5, source=0, arrival=1.5, seq=0)])
    return _result([t0, t1], [1.0, 2.0])


def test_two_rank_edge_reconstruction():
    result = _two_rank_fixture()
    edge_set = reconstruct_edges(_rows(result))
    assert edge_set.unmatched_sends == 0
    assert edge_set.unmatched_recvs == 0
    (edge,) = edge_set.edges
    assert (edge.src, edge.dst, edge.tag) == (0, 1, 7)
    assert edge.send_v == 1.0
    assert edge.arrival_v == 1.5
    assert edge.waited == pytest.approx(1.0)
    assert edge.flight == pytest.approx(0.5)
    assert edge.hidden == 0.0
    assert edge.seq == 0


def test_records_without_seq_are_unmatched():
    result = _two_rank_fixture()
    result.traces[0].comm[0] = _send(1.0, dest=1, seq=-1)
    result.traces[1].comm[0] = _recv(0.5, 1.5, source=0, arrival=1.5,
                                     seq=-1)
    edge_set = reconstruct_edges(_rows(result))
    assert edge_set.edges == []
    assert edge_set.unmatched_sends == 1
    assert edge_set.unmatched_recvs == 1


def test_two_rank_critical_path():
    report = analyze_critical_path(_two_rank_fixture())
    assert report.validate() == []
    assert report.makespan == pytest.approx(2.0)
    assert report.length == pytest.approx(2.0)
    assert report.message_hops == 1
    assert report.message_time == pytest.approx(0.5)
    # Chronological pieces: rank 0's compute, the message, rank 1's
    # post-wait compute; rank 1's pre-wait compute is off-path.
    kinds = [(p.kind, p.name, p.rank) for p in report.path]
    assert kinds == [("compute", "a", 0), ("message", "msg r0->r1", 1),
                     ("compute", "c", 1)]
    a0, a1 = report.attribution
    assert (a0.compute, a0.comm, a0.idle) == \
        (pytest.approx(1.0), 0.0, pytest.approx(1.0))
    assert (a1.compute, a1.comm, a1.idle) == \
        (pytest.approx(1.0), pytest.approx(1.0), 0.0)
    fracs = report.attribution_fractions()
    assert sum(fracs.values()) == pytest.approx(1.0)


def test_unmatched_recv_counted():
    result = _two_rank_fixture()
    result.traces[1].comm[0] = _recv(0.5, 1.5, source=0, arrival=1.5,
                                     seq=99)  # no such send
    edge_set = reconstruct_edges(_rows(result))
    assert edge_set.edges == []
    assert edge_set.unmatched_recvs == 1
    assert edge_set.unmatched_sends == 1
    # The walk degrades gracefully: the wait becomes local time.
    report = analyze_critical_path(result)
    assert report.unmatched_recvs == 1
    assert report.length == pytest.approx(report.makespan)


def test_untraced_result_raises():
    result = SimulationResult(values=[None], stats=[RankStats(rank=0)],
                              wall_time=0.0, traces=None)
    with pytest.raises(ReproError, match="trace=True"):
        analyze_critical_path(result)


def _ping_pong(compute, latencies):
    """Build consistent 2-rank traces for an alternating ping-pong:
    round i — rank i%2 computes ``compute[i]`` then sends (modelled
    latency ``latencies[i]``); the other rank waits for it."""
    clocks = [0.0, 0.0]
    spans = {0: [], 1: []}
    rows = {0: [], 1: []}
    for i, (c, lat) in enumerate(zip(compute, latencies)):
        src, dst = i % 2, 1 - (i % 2)
        spans[src].append(
            _span(f"work{i}", "phase", clocks[src], clocks[src] + c))
        clocks[src] += c
        arrival = clocks[src] + lat
        rows[src].append(_send(clocks[src], dest=dst, seq=i, tag=0,
                               nbytes=8))
        start = clocks[dst]
        clocks[dst] = max(start, arrival)
        rows[dst].append(_recv(start, clocks[dst], source=src,
                               arrival=arrival, seq=i, tag=0, nbytes=8))
    traces = [RankTrace(rank=r, spans=spans[r], comm=rows[r])
              for r in (0, 1)]
    return _result(traces, clocks), clocks


@settings(max_examples=60, deadline=None)
@given(
    compute=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                     max_size=12),
    latencies=st.lists(st.floats(min_value=0.0, max_value=10.0),
                       min_size=12, max_size=12),
)
def test_critical_path_length_bounds(compute, latencies):
    """Length is >= the busiest rank's compute time and <= (here ==)
    the makespan, for arbitrary ping-pong schedules."""
    result, clocks = _ping_pong(compute, latencies[:len(compute)])
    report = analyze_critical_path(result)
    makespan = max(clocks)
    busy = [sum(s.v_dur for s in t.phase_spans()) for t in result.traces]
    tol = max(makespan, 1.0) * 1e-9
    assert report.length >= max(busy) - tol
    assert report.length <= makespan + tol
    # Stronger invariant of the virtual-clock model: the walk covers
    # the whole makespan, and attribution tiles it exactly per rank.
    # (validate() is not used here: an all-message schedule with zero
    # compute legitimately has no phases on the path.)
    assert report.length == pytest.approx(makespan, abs=tol)
    for a in report.attribution:
        assert a.total == pytest.approx(makespan, abs=tol)


def test_real_run_critical_path(small_traced_ard):
    fact, (n, m, p, r) = small_traced_ard
    report = analyze_critical_path(fact)
    assert report.validate() == []
    assert report.nranks == p
    assert report.edges_total > 0
    assert report.unmatched_recvs == 0
    assert report.unmatched_sends == 0
    assert report.makespan == pytest.approx(
        fact.factor_result.virtual_time
        + fact.last_solve_result.virtual_time)
    fracs = report.attribution_fractions()
    assert sum(fracs.values()) == pytest.approx(1.0, rel=1e-6)
    # Both traced segments contribute critical pieces.
    assert {p_.segment for p_ in report.path} == {"factor", "solve"}


@pytest.fixture(scope="module")
def small_traced_ard():
    from repro.core.ard import ARDFactorization
    from repro.perfmodel import PAPER_ERA_MODEL
    from repro.workloads import helmholtz_block_system, random_rhs

    n, m, p, r = 16, 2, 4, 2
    matrix, _ = helmholtz_block_system(n, m)
    b = random_rhs(n, m, r, seed=0)
    fact = ARDFactorization(matrix, nranks=p, cost_model=PAPER_ERA_MODEL,
                            trace=True)
    fact.solve(b)
    return fact, (n, m, p, r)


def test_phase_report_attaches_critpath(small_traced_ard):
    fact, _ = small_traced_ard
    report = build_phase_report(
        [("factor", fact.factor_result), ("solve", fact.last_solve_result)],
        critpath=True,
    )
    assert report.critpath is not None
    assert report.critpath.validate() == []
    assert "Critical path" in report.render()
    doc = report.to_dict()
    assert doc["critpath"]["makespan"] == pytest.approx(
        report.critpath.makespan)


def test_chrome_export_critical_track(tmp_path, small_traced_ard):
    fact, _ = small_traced_ard
    path = write_chrome_trace(tmp_path / "t.trace.json", fact,
                              critpath=True)
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    flows = [e for e in events if e.get("ph") in ("s", "f")]
    assert flows and any(e["ph"] == "f" and e.get("bp") == "e"
                         for e in flows)
    crit = [e for e in events if e.get("cat") == "critical"]
    assert crit
    names = [e for e in events
             if e.get("ph") == "M" and e["name"] == "thread_name"
             and e["args"]["name"] == "critical path"]
    assert names
    # The critical track sits above the rank tracks.
    rank_tids = {e["tid"] for e in events if e.get("cat") == "phase"}
    assert all(e["tid"] > max(rank_tids) for e in crit)


def test_chrome_export_report_with_multi_run_dict_rejected(
        tmp_path, small_traced_ard):
    fact, _ = small_traced_ard
    report = analyze_critical_path(fact)
    with pytest.raises(ReproError, match="single run"):
        write_chrome_trace(tmp_path / "t.json", {"a": fact, "b": fact},
                           critpath=report)


def test_telemetry_server_critpath_endpoint(small_traced_ard):
    fact, _ = small_traced_ard
    report = analyze_critical_path(fact)
    with TelemetryServer(lambda: {},
                         critpath_provider=lambda: {
                             "critpath": report.to_dict()}) as server:
        with urllib.request.urlopen(server.url + "/critpath") as resp:
            doc = json.loads(resp.read())
    assert doc["critpath"]["nranks"] == report.nranks
    assert doc["critpath"]["makespan"] == pytest.approx(report.makespan)
    fracs = doc["critpath"]["fractions"]
    assert sum(fracs.values()) == pytest.approx(1.0, rel=1e-6)


def test_telemetry_server_critpath_default():
    with TelemetryServer(lambda: {}) as server:
        with urllib.request.urlopen(server.url + "/critpath") as resp:
            doc = json.loads(resp.read())
    assert doc == {"critpath": None}
