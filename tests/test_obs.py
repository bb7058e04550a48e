"""Tests for the observability layer (repro.obs).

Covers the tracer primitives, the solver-phase instrumentation contract
(one span per phase per rank for every distributed solver), the Chrome
trace export format, the PhaseReport virtual-time tiling property, the
per-collective counters, and the zero-cost-when-disabled guarantee
(results and flop counts bit-identical with tracing off).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import solve
from repro.comm import run_spmd
from repro.config import config_context
from repro.core.ard import ARDFactorization
from repro.core.distribute import distribute_matrix, distribute_rhs
from repro.core.rd import rd_solve_spmd
from repro.core.spike import SpikeFactorization
from repro.exceptions import ReproError
from repro.obs import (
    RECORD_FIELDS,
    Tracer,
    build_phase_report,
    chrome_trace_events,
    current_tracer,
    span,
    tracing,
    write_chrome_trace,
)
from repro.workloads import helmholtz_block_system, random_rhs

N, M = 16, 4


@pytest.fixture
def system():
    matrix, _ = helmholtz_block_system(N, M)
    b = random_rhs(N, M, nrhs=3, seed=0)
    return matrix, b


def _rd_result(matrix, b, nranks, trace):
    bb = b.reshape(N, M, -1)
    chunks = distribute_matrix(matrix, nranks)
    d_chunks = distribute_rhs(bb[:, :, :1], nranks)
    return run_spmd(
        rd_solve_spmd, nranks, copy_messages=False,
        rank_args=[(c, d) for c, d in zip(chunks, d_chunks)], trace=trace,
    )


# -- tracer primitives -----------------------------------------------------


def test_span_is_noop_without_tracer():
    assert current_tracer() is None
    with span("anything"):
        pass  # must not raise, must not record anywhere
    # The disabled path returns one shared object (no allocation).
    assert span("a") is span("b")


def test_tracing_installs_and_restores():
    with tracing() as tr:
        assert current_tracer() is tr
        with span("outer"):
            with span("inner", cat="detail"):
                pass
    assert current_tracer() is None
    names = {(s.name, s.cat, s.depth) for s in tr.spans}
    assert names == {("outer", "phase", 0), ("inner", "detail", 1)}


def test_tracer_records_wall_durations():
    tr = Tracer(rank=3)
    with tracing(tr):
        with span("work"):
            pass
    (rec,) = tr.spans
    assert rec.w_dur >= 0.0
    assert rec.v_start == rec.v_end == 0.0  # no clock bound
    trace = tr.finish()
    assert trace.rank == 3
    assert trace.to_dict()["spans"][0]["name"] == "work"


# -- solver phase instrumentation -----------------------------------------


@pytest.mark.parametrize("nranks", [1, 4])
def test_ard_phases_one_span_per_rank(system, nranks):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=nranks, trace=True)
    fact.solve(b)
    for result, phases in [
        (fact.factor_result, ["build", "scan", "closing"]),
        (fact.last_solve_result, ["build", "scan", "closing", "backsub"]),
    ]:
        assert len(result.traces) == nranks
        for trace in result.traces:
            assert [s.name for s in trace.phase_spans()] == phases


@pytest.mark.parametrize("nranks", [1, 4])
def test_rd_phases_one_span_per_rank(system, nranks):
    matrix, b = system
    result = _rd_result(matrix, b, nranks, trace=True)
    for trace in result.traces:
        assert [s.name for s in trace.phase_spans()] == [
            "setup", "build", "scan", "closing", "backsub",
        ]


@pytest.mark.parametrize("nranks", [1, 4])
def test_spike_phases_one_span_per_rank(system, nranks):
    matrix, b = system
    fact = SpikeFactorization(matrix, nranks=nranks, trace=True)
    fact.solve(b)
    for result, phases in [
        (fact.factor_result, ["local_factor", "spikes", "reduced"]),
        (fact.last_solve_result, ["local_solve", "reduced", "combine"]),
    ]:
        assert len(result.traces) == nranks
        for trace in result.traces:
            assert [s.name for s in trace.phase_spans()] == phases


def test_untraced_run_has_no_traces(system):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=4)
    fact.solve(b)
    assert fact.factor_result.traces is None
    assert fact.last_solve_result.traces is None
    assert fact.factor_result.phase_report() is None


# -- zero-cost-when-disabled ----------------------------------------------


def test_disabled_tracing_bit_identical(system):
    matrix, b = system
    x_off, info_off = solve(matrix, b, method="ard", nranks=4,
                            return_info=True)
    x_on, info_on = solve(matrix, b, method="ard", nranks=4, trace=True,
                          return_info=True)
    assert np.array_equal(x_off, x_on)
    assert info_off.virtual_time == info_on.virtual_time
    assert (info_off.factor_result.total_flops
            == info_on.factor_result.total_flops)
    assert ([s.flops_by_kernel for s in info_off.solve_result.stats]
            == [s.flops_by_kernel for s in info_on.solve_result.stats])
    assert info_off.phase_report is None
    assert info_on.phase_report is not None


# -- PhaseReport -----------------------------------------------------------


def test_phase_report_sums_to_virtual_time(system):
    matrix, b = system
    x, info = solve(matrix, b, method="ard", nranks=4, trace=True,
                    return_info=True)
    report = info.phase_report
    total = sum(report.virtual_by_phase().values())
    assert total == pytest.approx(info.virtual_time, rel=0.01)
    assert report.virtual_total == pytest.approx(info.virtual_time, rel=1e-12)
    assert report.nranks == 4
    # Per-phase per-rank stats exist for every rank.
    assert len(report.per_rank("solve", "scan")) == 4
    assert "factor/scan" in report.phases()
    rendered = report.render()
    assert "factor/scan" in rendered and "solve/backsub" in rendered
    as_dict = report.to_dict()
    assert json.dumps(as_dict)  # JSON-serializable


def test_phase_report_rd_and_spike(system):
    matrix, b = system
    result = _rd_result(matrix, b, 4, trace=True)
    report = build_phase_report([("solve", result)])
    assert sum(report.virtual_by_phase().values()) == pytest.approx(
        result.virtual_time, rel=0.01
    )
    x, info = solve(matrix, b, method="spike", nranks=4, trace=True,
                    return_info=True)
    total = sum(info.phase_report.virtual_by_phase().values())
    assert total == pytest.approx(info.virtual_time, rel=0.01)


def test_build_phase_report_requires_traces(system):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=2)  # no tracing
    fact.solve(b)
    assert build_phase_report([("factor", fact.factor_result)]) is None
    assert build_phase_report([("solve", None)]) is None


def test_sequential_methods_have_no_virtual_time(system):
    matrix, b = system
    x, info = solve(matrix, b, method="thomas", trace=True, return_info=True)
    assert info.virtual_time is None
    assert info.phase_report is None


# -- Chrome trace export ---------------------------------------------------


def test_chrome_trace_round_trips(system, tmp_path):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=4, trace=True)
    fact.solve(b)
    path = write_chrome_trace(tmp_path / "run.trace.json", fact)
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    assert events, "export produced no events"
    for event in events:
        # "s"/"f" are the message flow arrows (docs/PROFILING.md).
        assert event["ph"] in ("X", "i", "M", "s", "f")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] != "M":
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
    # One timeline track per rank in both clock domains.
    for pid in (0, 1):
        tids = {e["tid"] for e in events if e["pid"] == pid and e["ph"] != "M"}
        assert tids == {0, 1, 2, 3}
    # Thread-name metadata labels every rank.
    names = {(e["pid"], e["args"]["name"]) for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert (0, "rank 0") in names and (1, "rank 3") in names


def test_chrome_trace_segments_lay_end_to_end(system):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=2, trace=True)
    fact.solve(b)
    events = chrome_trace_events(
        [("factor", fact.factor_result), ("solve", fact.last_solve_result)],
        include_wall=False,
    )
    factor_vt_us = fact.factor_result.virtual_time * 1e6
    solve_spans = [e for e in events if e["ph"] == "X"
                   and e["args"]["segment"] == "solve"]
    assert solve_spans
    assert all(e["ts"] >= factor_vt_us - 1e-9 for e in solve_spans)


def test_chrome_trace_rejects_untraced(system):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=2)
    fact.solve(b)
    with pytest.raises(ReproError, match="trace=True"):
        chrome_trace_events([("factor", fact.factor_result)])


# -- collective counters ---------------------------------------------------


def test_collective_counters_count_outermost_only():
    def program(comm):
        comm.allgather(comm.rank)       # composes gather + bcast internally
        comm.allreduce(1)               # composes reduce + bcast internally
        comm.barrier()
        return None

    result = run_spmd(program, 4)
    counts = result.collective_counts()
    # Each rank counts each user-facing call once: no inner gather/bcast.
    assert counts == {"allgather": 4, "allreduce": 4, "barrier": 4}
    nbytes = result.collective_bytes()
    assert nbytes["allgather"] > 0
    assert nbytes["barrier"] >= 0
    for stats in result.stats:
        assert stats.coll_counts == {
            "allgather": 1, "allreduce": 1, "barrier": 1,
        }
    # Collective byte attribution covers all p2p traffic of this program.
    assert sum(nbytes.values()) == result.total_bytes_sent


def test_collective_spans_when_traced():
    def program(comm):
        comm.allgather(comm.rank)
        return None

    result = run_spmd(program, 4, trace=True)
    for trace in result.traces:
        coll = [s for s in trace.spans if s.cat == "coll"]
        assert [s.name for s in coll] == ["allgather"]


def test_send_recv_events_when_traced():
    def program(comm):
        if comm.rank == 0:
            comm.send(np.zeros(4), 1, tag=7)
        elif comm.rank == 1:
            comm.recv(source=0, tag=7)
        return None

    with config_context(flightrec=False):  # traces keep rows regardless
        result = run_spmd(program, 2, trace=True)
    fields = RECORD_FIELDS.index
    sends = [r for r in result.traces[0].comm if r[0] == "send"]
    assert len(sends) == 1 and sends[0][fields("peer")] == 1
    recvs = [r for r in result.traces[1].comm if r[0] == "recv"]
    assert len(recvs) == 1
    assert recvs[0][fields("peer")] == 0 and recvs[0][fields("nbytes")] == 32
    assert recvs[0][fields("seq")] == sends[0][fields("seq")]
    v_wait, w_wait, arrival = recvs[0][fields("extra")]
    assert v_wait <= arrival <= recvs[0][fields("v_ts")]
    assert w_wait <= recvs[0][fields("w_ts")]
    # Messages are rows only: no tracer event or span records them.
    assert not result.traces[0].events
    assert all(s.cat != "comm" for t in result.traces for s in t.spans)


# -- stats serialization ---------------------------------------------------


def test_simulation_result_to_dict(system):
    matrix, b = system
    fact = ARDFactorization(matrix, nranks=4)
    fact.solve(b)
    d = fact.factor_result.to_dict()
    assert d["nranks"] == 4
    assert d["virtual_time"] == fact.factor_result.virtual_time
    assert len(d["ranks"]) == 4
    assert d["ranks"][2]["rank"] == 2
    assert json.dumps(d)
    compact = fact.factor_result.to_dict(include_ranks=False)
    assert "ranks" not in compact


def test_write_stats_json(tmp_path, system):
    from repro.io import write_stats_json

    matrix, b = system
    fact = ARDFactorization(matrix, nranks=2)
    fact.solve(b)
    path = write_stats_json(tmp_path / "run.stats.json", fact.factor_result,
                            extra={"label": "factor"})
    data = json.loads(path.read_text())
    assert data["label"] == "factor"
    assert data["nranks"] == 2


def test_experiment_stats_collection(tmp_path):
    from repro.harness import run_experiment

    result = run_experiment("recon-F1", "smoke", out_dir=tmp_path,
                            verbose=False)
    assert result.sim_stats, "simulation-backed experiment logged no runs"
    labels = {entry["label"] for entry in result.sim_stats}
    assert {"ard_factor", "ard_solve", "rd_solve"} <= labels
    data = json.loads((tmp_path / "recon-F1.stats.json").read_text())
    assert data["exp_id"] == "recon-F1"
    assert len(data["sim_stats"]) == len(result.sim_stats)


# -- harness trace CLI -----------------------------------------------------


def test_trace_experiment_writes_chrome_trace(tmp_path, capsys):
    from repro.harness import trace_experiment

    path = trace_experiment("recon-T2", "smoke", out_dir=tmp_path)
    assert path == tmp_path / "recon-T2.trace.json"
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    # Two runs (ard, rd) x two clock domains; 4 rank tracks in each.
    pids = {e["pid"] for e in events}
    assert pids == {0, 1, 2, 3}
    for pid in pids:
        tids = {e["tid"] for e in events if e["pid"] == pid and e["ph"] != "M"}
        assert tids >= {0, 1, 2, 3}
        # Anything above the rank tracks is the critical-path overlay
        # (virtual clock domains only; see docs/PROFILING.md).
        extra = [e for e in events
                 if e["pid"] == pid and e["ph"] != "M" and e["tid"] > 3]
        assert all(e["cat"] == "critical" for e in extra)
    assert any(e.get("cat") == "critical" for e in events)
    out = capsys.readouterr().out
    assert "Phase breakdown" in out


def test_trace_experiment_rejects_unknown_id(tmp_path):
    from repro.harness import trace_experiment

    with pytest.raises(Exception):
        trace_experiment("no-such-exp", "smoke", out_dir=tmp_path)


# ---------------------------------------------------------------------------
# metrics registry (repro.obs.metrics)


class TestMetricsRegistry:
    def test_counter_gauge_summary(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("req").inc()
        reg.counter("req").inc(3)
        reg.gauge("depth").set(7)
        reg.gauge("depth").add(-2)
        for v in (1.0, 4.0, 2.5):
            reg.summary("batch").observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["req"] == 4
        assert snap["gauges"]["depth"] == 5
        s = snap["summaries"]["batch"]
        assert (s["count"], s["min"], s["max"], s["last"]) == (3, 1.0, 4.0, 2.5)
        assert s["mean"] == pytest.approx(7.5 / 3)
        json.dumps(snap)

    def test_counter_rejects_negative(self):
        from repro.obs import Counter

        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_kind_conflict_rejected(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.gauge("x")

    def test_instruments_idempotent(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.summary("s") is reg.summary("s")

    def test_concurrent_counting_is_exact(self):
        import threading

        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        counter = reg.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]  # repro: noqa[RC103]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_concurrent_summary_observe_and_snapshot(self):
        import threading

        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        stop = threading.Event()  # repro: noqa[RC103]

        def observe():
            s = reg.summary("lat")
            for i in range(2000):
                s.observe(float(i % 100))

        def snapshot():
            while not stop.is_set():
                snap = reg.snapshot()
                summ = snap["summaries"].get("lat")
                if summ:  # every observed snapshot must be coherent
                    assert 0.0 <= summ["min"] <= summ["max"] <= 99.0
                    assert summ["count"] >= 1

        reader = threading.Thread(target=snapshot)  # repro: noqa[RC103]
        writers = [threading.Thread(target=observe) for _ in range(4)]  # repro: noqa[RC103]
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        reader.join()
        assert reg.summary("lat").count == 8000

    def test_concurrent_instrument_creation_is_single_instance(self):
        import threading

        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)  # repro: noqa[RC103]

        def create():
            barrier.wait()
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=create) for _ in range(8)]  # repro: noqa[RC103]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1

    def test_summary_quantile_empty_is_none(self):
        from repro.obs import Summary

        s = Summary()
        assert s.quantile(0.5) is None
        assert "p50" not in s.to_dict() or s.to_dict().get("p50") is None

    def test_summary_quantile_single_observation(self):
        from repro.obs import Summary

        s = Summary()
        s.observe(42.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert s.quantile(q) == 42.0
        d = s.to_dict()
        assert d["p50"] == d["p99"] == 42.0

    def test_summary_quantile_bounds_and_order(self):
        from repro.obs import Summary

        s = Summary()
        for v in range(1, 101):
            s.observe(float(v))
        assert s.quantile(0.0) == 1.0
        assert s.quantile(1.0) == 100.0
        assert s.quantile(0.5) == pytest.approx(50.0, abs=1.0)
        with pytest.raises(ValueError):
            s.quantile(1.5)
        with pytest.raises(ValueError):
            s.quantile(-0.1)

    def test_summary_quantile_windows_recent_observations(self):
        from repro.obs import SUMMARY_WINDOW, Summary

        s = Summary()
        for _ in range(SUMMARY_WINDOW):
            s.observe(1000.0)
        for _ in range(SUMMARY_WINDOW):
            s.observe(1.0)  # push every old observation out of the ring
        assert s.quantile(0.5) == 1.0
        assert s.max == 1000.0  # whole-stream aggregates keep history

    def test_summary_rejects_bad_window(self):
        from repro.obs import Summary

        with pytest.raises(ValueError):
            Summary(window=0)
