"""Tests for the production telemetry pipeline.

Covers the pipeline end to end: trace-context propagation (one
``trace_id`` across every rank of a solve and every span of a service
request), the structured JSONL event log, the Prometheus-text renderer
and loopback HTTP endpoint, and the numerical-health probes.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core.api import solve
from repro.obs import (
    HealthThresholds,
    MetricsRegistry,
    TelemetryServer,
    TraceContext,
    current_trace_context,
    new_trace_context,
    probe_factor,
    probe_solve,
    render_prometheus,
    trace_context,
)
from repro.obs.log import (
    EventLog,
    configure_logging,
    disable_logging,
    get_logger,
)
from repro.service import SolverService
from repro.workloads import helmholtz_block_system, random_rhs


@pytest.fixture(autouse=True)
def _no_global_log():
    """Keep the process-wide log sink clean across tests."""
    disable_logging()
    yield
    disable_logging()


# ---------------------------------------------------------------------------
# Trace-context propagation
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_derivation_is_immutable(self):
        root = new_trace_context()
        ranked = root.for_rank(3)
        assert ranked.rank == 3 and root.rank is None
        assert ranked.trace_id == root.trace_id
        req = root.for_request()
        assert req.request_id and root.request_id is None

    def test_to_dict_omits_none(self):
        ctx = TraceContext(trace_id="abc")
        assert ctx.to_dict() == {"trace_id": "abc"}
        full = ctx.for_request("r1").for_rank(2)
        assert full.to_dict() == {"trace_id": "abc", "request_id": "r1",
                                  "rank": 2}

    def test_thread_local_install(self):
        assert current_trace_context() is None
        with trace_context() as tc:
            assert current_trace_context() is tc
            seen = []
            t = threading.Thread(  # repro: noqa[RC103]
                target=lambda: seen.append(current_trace_context()))
            t.start()
            t.join()
            assert seen == [None]  # other threads are uncorrelated
        assert current_trace_context() is None

    def test_all_ranks_share_one_trace_id(self):
        def program(comm):
            return comm.rank

        result = run_spmd(program, 4, trace=True)
        assert result.trace_id is not None
        ids = {t.trace_id for t in result.traces}
        assert ids == {result.trace_id}

    def test_run_adopts_callers_context(self):
        def program(comm):
            return current_trace_context().to_dict()

        with trace_context() as tc:
            result = run_spmd(program, 2, trace=True)
        assert result.trace_id == tc.trace_id
        # Each rank saw a per-rank child of the caller's context.
        assert [v["rank"] for v in result.values] == [0, 1]
        assert {v["trace_id"] for v in result.values} == {tc.trace_id}

    def test_untraced_uncorrelated_run_has_no_id(self):
        result = run_spmd(lambda comm: None, 2)
        assert result.trace_id is None
        assert "trace_id" not in result.to_dict()


# ---------------------------------------------------------------------------
# Structured JSONL log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_records_are_schema_versioned_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        configure_logging(path=str(path), level="debug")
        log = get_logger("test")
        log.info("unit.event", message="hello", answer=42)
        disable_logging()
        (rec,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert rec["schema_version"] == 1
        assert rec["component"] == "test"
        assert rec["event"] == "unit.event"
        assert rec["message"] == "hello"
        assert rec["answer"] == 42
        assert rec["level"] == "info"
        assert "ts" in rec

    def test_level_threshold_filters(self, tmp_path):
        path = tmp_path / "log.jsonl"
        configure_logging(path=str(path), level="warning")
        log = get_logger("test")
        log.debug("dropped")
        log.info("dropped")
        log.warning("kept.warn")
        log.error("kept.error")
        disable_logging()
        events = [json.loads(l)["event"] for l in
                  path.read_text().splitlines()]
        assert events == ["kept.warn", "kept.error"]

    def test_active_trace_context_is_merged(self, tmp_path):
        path = tmp_path / "log.jsonl"
        configure_logging(path=str(path))
        with trace_context() as tc:
            get_logger("test").info("corr.event")
        disable_logging()
        (rec,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert rec["trace_id"] == tc.trace_id

    def test_unconfigured_logger_is_noop(self):
        get_logger("test").info("nowhere")  # must not raise

    def test_stream_and_path_are_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            EventLog()
        with pytest.raises(ValueError, match="unknown log level"):
            EventLog(stream=object(), level="loud")  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Prometheus rendering + HTTP endpoint
# ---------------------------------------------------------------------------


class TestPrometheusRender:
    def test_counter_gauge_summary_lines(self):
        reg = MetricsRegistry()
        reg.counter("requests.completed").inc(7)
        reg.gauge("queue.depth").set(3)
        s = reg.summary("batch.size")
        for v in (1.0, 2.0, 3.0):
            s.observe(v)
        text = render_prometheus(reg)
        assert "# TYPE repro_requests_completed_total counter" in text
        assert "repro_requests_completed_total 7.0" in text
        assert "repro_queue_depth 3" in text
        assert 'repro_batch_size{quantile="0.5"} 2.0' in text
        assert "repro_batch_size_count 3" in text
        assert "repro_batch_size_sum 6.0" in text

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.with spaces").inc()
        text = render_prometheus(reg)
        assert "repro_weird_name_with_spaces_total 1" in text

    def test_accepts_plain_snapshot_with_cache(self):
        snap = {"counters": {}, "gauges": {}, "summaries": {},
                "cache": {"hit_rate": 0.5, "entries": 2, "key": "abc"}}
        text = render_prometheus(snap)
        assert "repro_cache_hit_rate 0.5" in text
        assert "repro_cache_entries 2" in text
        assert "abc" not in text  # non-numeric values are skipped


class TestTelemetryServer:
    def test_endpoints(self):
        reg = MetricsRegistry()
        reg.gauge("up").set(1)
        srv = TelemetryServer(
            reg.snapshot,
            health_provider=lambda: {"status": "ok"},
            traces_provider=lambda: {"traces": []},
        )
        with srv:
            base = srv.url
            metrics = urllib.request.urlopen(base + "/metrics")
            assert metrics.headers["Content-Type"].startswith("text/plain")
            assert b"repro_up 1" in metrics.read()
            health = urllib.request.urlopen(base + "/healthz")
            assert json.loads(health.read())["status"] == "ok"
            traces = urllib.request.urlopen(base + "/traces")
            assert json.loads(traces.read()) == {"traces": []}
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(base + "/nope")
            assert exc.value.code == 404

    def test_healthz_pages_with_503(self):
        reg = MetricsRegistry()
        srv = TelemetryServer(
            reg.snapshot, health_provider=lambda: {"status": "page"})
        with srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(srv.url + "/healthz")
            assert exc.value.code == 503
            assert json.loads(exc.value.read())["status"] == "page"


# ---------------------------------------------------------------------------
# Numerical-health probes
# ---------------------------------------------------------------------------


class TestHealthProbes:
    @pytest.fixture()
    def system(self):
        matrix, _ = helmholtz_block_system(16, 4)
        b = random_rhs(16, 4, 2, seed=0)
        return matrix, b

    def test_good_solve_is_ok(self, system):
        matrix, b = system
        x = solve(matrix, b, method="thomas")
        report = probe_solve(matrix, x.reshape(16, 4, 2), b, growth=True)
        assert report.status == "ok"
        assert report.residual < 1e-10
        assert report.pivot_growth is not None
        assert report.messages == []

    def test_bad_solve_pages(self, system):
        matrix, b = system
        x = np.zeros_like(b)  # "solution" with O(1) residual
        report = probe_solve(matrix, x, b)
        assert report.status == "page"
        assert any("residual" in m for m in report.messages)

    def test_warn_band(self, system):
        matrix, b = system
        x = solve(matrix, b, method="thomas")
        tight = HealthThresholds(residual_warn=1e-300, residual_page=1.0)
        report = probe_solve(matrix, x.reshape(16, 4, 2), b, thresholds=tight)
        assert report.status == "warn"

    def test_nonfinite_residual_pages(self, system):
        matrix, b = system
        x = np.full_like(b, np.nan)
        report = probe_solve(matrix, x, b)
        assert report.status == "page"
        assert any("non-finite" in m for m in report.messages)

    def test_probe_factor_measures_growth_and_condition(self, system):
        matrix, _ = system
        from repro.core.thomas import ThomasFactorization

        report = probe_factor(matrix, ThomasFactorization(matrix))
        assert report.pivot_growth is not None and report.pivot_growth >= 1.0
        assert report.condition is not None and report.condition >= 1.0
        assert report.status == "ok"

    def test_probes_publish_to_registry(self, system):
        matrix, b = system
        reg = MetricsRegistry()
        x = solve(matrix, b, method="thomas")
        probe_solve(matrix, x.reshape(16, 4, 2), b, registry=reg)
        snap = reg.snapshot()
        assert "health.residual_norm" in snap["gauges"]
        probe_solve(matrix, np.zeros_like(b), b, registry=reg)
        assert reg.counter("health.page").value == 1

    def test_solve_api_surfaces_health(self, system):
        matrix, b = system
        x, info = solve(matrix, b, method="ard", nranks=4,
                        return_info=True, health=True)
        assert info.health is not None
        assert info.health.status == "ok"
        assert info.health.residual == pytest.approx(info.residual)
        assert info.health.condition is not None


# ---------------------------------------------------------------------------
# Service end-to-end correlation
# ---------------------------------------------------------------------------


class TestServiceTelemetry:
    def test_one_trace_id_across_log_spans_and_http(self, tmp_path):
        logpath = tmp_path / "telemetry.jsonl"
        configure_logging(path=str(logpath), level="debug")
        service = SolverService(method="ard", nranks=4, expose_http=True,
                                trace=True)
        try:
            matrix, _ = helmholtz_block_system(32, 4)
            handle = service.register(matrix)
            ticket = service.submit(handle, random_rhs(32, 4, 1, seed=0))
            ticket.result(timeout=120.0)
            assert ticket.trace_id and ticket.request_id

            # Live endpoint: Prometheus text with cache + residual gauges.
            text = urllib.request.urlopen(
                service.http.url + "/metrics").read().decode()
            assert "repro_cache_hit_rate" in text
            assert "repro_health_residual_norm" in text
            doc = json.loads(urllib.request.urlopen(
                service.http.url + "/healthz").read())
            assert doc["status"] == "ok"

            # Merged Chrome trace: every rank span of the request's
            # factor+solve carries the ticket's trace id.
            trace_path = tmp_path / "service.trace.json"
            service.write_trace(trace_path)
            events = json.loads(trace_path.read_text())["traceEvents"]
            span_ids = {e["args"]["trace_id"] for e in events
                        if e.get("ph") == "X"
                        and "trace_id" in e.get("args", {})}
            assert ticket.trace_id in span_ids
        finally:
            service.close()
            disable_logging()

        records = [json.loads(l) for l in
                   logpath.read_text().splitlines()]
        submitted = [r for r in records if r["event"] == "request.submitted"]
        served = [r for r in records if r["event"] == "request.served"]
        assert submitted and served
        assert submitted[0]["trace_id"] == ticket.trace_id
        assert served[0]["trace_id"] == ticket.trace_id
        assert served[0]["request_id"] == ticket.request_id

    def test_http_disabled_by_default(self):
        service = SolverService(method="thomas")
        try:
            assert service.http is None
        finally:
            service.close()

    def test_caller_trace_context_spans_requests(self):
        service = SolverService(method="thomas")
        try:
            matrix, _ = helmholtz_block_system(16, 4)
            handle = service.register(matrix)
            with trace_context() as tc:
                t1 = service.submit(handle, random_rhs(16, 4, 1, seed=0))
                t2 = service.submit(handle, random_rhs(16, 4, 1, seed=1))
            t1.result(timeout=60.0)
            t2.result(timeout=60.0)
            assert t1.trace_id == t2.trace_id == tc.trace_id
            assert t1.request_id != t2.request_id
        finally:
            service.close()
