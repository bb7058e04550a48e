"""Flight recorder + cross-rank incident bundles (docs/INCIDENTS.md).

The scenario tests force each runtime failure the recorder exists for —
deadlock, collective divergence, a dead rank, a service deadline breach,
an admission-reject storm, a health page — on **both** execution
backends where the failure exists, then assert the incident bundle is
loadable and that ``postmortem`` names the right rank and operation.
Programs are module-level functions so the process backend can pickle
them (same rule as ``test_comm_conformance``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.comm import run_spmd
from repro.comm.mp import shutdown_pool
from repro.config import config_context
from repro.exceptions import (
    CommError,
    DeadlineExceededError,
    DeadlockError,
    ReproError,
    ServiceOverloadError,
    SpmdDivergenceError,
)
from repro.obs import (
    RECORD_FIELDS,
    FlightRecorder,
    IncidentStore,
    analyze_bundle,
    classify_reason,
    current_flightrec,
    flight_recording,
    force_synthetic_incident,
    load_bundle,
    note_event,
    recent_notes,
    render_text,
    run_postmortem,
    to_chrome,
)
from repro.service import SolverService
from repro.workloads import helmholtz_block_system, random_rhs

BACKENDS = ("threads", "processes")


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def _incident_paths() -> list[pathlib.Path]:
    root = pathlib.Path(os.environ["REPRO_INCIDENT_DIR"])
    if not root.is_dir():
        return []
    return sorted(root.glob("INCIDENT_*.json"))


# ---------------------------------------------------------------------------
# programs (module level: must be picklable for the process backend)
# ---------------------------------------------------------------------------

def prog_cycle(comm):
    """Every rank waits on its right neighbour: a full wait-for cycle."""
    return comm.recv(source=(comm.rank + 1) % comm.size, tag=9)


def prog_divergent(comm):
    if comm.rank == 1:
        return comm.reduce(comm.rank, root=0)  # repro: noqa[RC101] - seeded bug
    return comm.allreduce(comm.rank)


def prog_die(comm):
    if comm.rank == 1:
        os._exit(11)
    return comm.allreduce(comm.rank)


def prog_raise(comm):
    comm.barrier()
    if comm.rank == 1:
        raise RuntimeError("rank 1 exploded on purpose")
    return comm.rank


def prog_healthy(comm):
    return comm.allreduce(comm.rank)


def prog_both_raise(comm):
    """Both ranks fail; rank 1 only once rank 0's incident is underway."""
    comm.barrier()
    if comm.rank == 1:
        time.sleep(0.2)
    raise RuntimeError(f"rank {comm.rank} exploded on purpose")


def prog_chatter_then_cycle(comm):
    """Some healthy traffic, then a deadlock — the ring has history."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for i in range(3):
        comm.send(i, right, tag=1)
        comm.recv(source=left, tag=1)
    return comm.recv(source=right, tag=9)


# ---------------------------------------------------------------------------
# FlightRecorder unit behavior
# ---------------------------------------------------------------------------

def _row(kind, seq):
    """A message row (layout RECORD_FIELDS) from/to rank 1."""
    return (kind, time.perf_counter(), 0.0, kind, 1, 0, seq, 64, None)


class TestRecorder:
    def test_capacity_floor(self):
        with pytest.raises(ValueError, match=">= 8"):
            FlightRecorder(0, 4)

    def test_ring_keeps_newest(self):
        rec = FlightRecorder(0, 8)
        for i in range(20):
            rec.record(_row("recv", i))
        snap = rec.snapshot()
        assert snap["count"] == 20
        assert len(snap["records"]) == 8
        seqs = [r[RECORD_FIELDS.index("seq")] for r in snap["records"]]
        assert seqs == list(range(12, 20))
        assert snap["dropped"] == 0  # nothing was in flight

    def test_dropped_counts_overwritten_inflight_history(self, caplog):
        rec = FlightRecorder(0, 8)
        rec.record(_row("send", 100))  # stays in flight
        for i in range(8):
            rec.record(_row("recv", i))  # fills the remaining ring
        assert rec.dropped == 1  # the 8th recv overwrote the live send
        rec.record(_row("recv", 8))
        assert rec.dropped == 2
        assert rec.snapshot()["dropped"] == 2

    def test_consumed_send_stops_drop_accounting(self):
        rec = FlightRecorder(0, 8)
        rec.record(_row("send", 100))
        rec.mark_consumed(100)
        for i in range(40):
            rec.record(_row("recv", i))
        assert rec.dropped == 0

    def test_phase_span_records_boundaries(self):
        rec = FlightRecorder(0, 8)
        with rec.phase_span("scan"):
            rec.record_coll("allreduce", 0, 3)
        kinds = [r[0] for r in rec.snapshot()["records"]]
        assert kinds == ["phase", "coll", "phase_end"]

    def test_installation_is_thread_local_and_nestable(self):
        rec = FlightRecorder(0, 8)
        assert current_flightrec() is None
        with flight_recording(rec):
            assert current_flightrec() is rec
            with flight_recording(None):
                assert current_flightrec() is rec
        assert current_flightrec() is None

    def test_note_events_ride_along(self):
        note_event("plan.selected", method="ard", nranks=4)
        notes = recent_notes()
        assert notes[-1]["kind"] == "plan.selected"
        assert notes[-1]["fields"]["method"] == "ard"


# ---------------------------------------------------------------------------
# forced failures -> loadable bundles naming the culprit (both backends)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
class TestForcedFailures:
    def test_deadlock_bundle_names_blocked_rank_and_op(self, backend):
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(prog_chatter_then_cycle, 2, backend=backend)
        path = getattr(exc_info.value, "incident_path", None)
        assert path is not None and pathlib.Path(path).is_file()
        bundle = load_bundle(path)
        assert bundle["backend"] == backend
        assert bundle["reason"]["type"] == "deadlock"
        assert set(bundle["rings"]) == {"0", "1"}
        for snap in bundle["rings"].values():
            assert snap is not None  # both rings recovered live
            kinds = {r[0] for r in snap["records"]}
            assert {"send", "recv", "wait"} <= kinds
        analysis = analyze_bundle(bundle)
        assert analysis["culprit_rank"] in (0, 1)
        assert analysis["culprit_op"] == "recv"
        assert analysis["edges"]["matched"] > 0  # the healthy chatter
        assert run_postmortem(path, check=True, verbose=False) == 0

    def test_divergence_bundle(self, backend):
        with pytest.raises(SpmdDivergenceError) as exc_info:
            run_spmd(prog_divergent, 2, verify=True, backend=backend)
        path = getattr(exc_info.value, "incident_path", None)
        assert path is not None
        bundle = load_bundle(path)
        assert bundle["reason"]["type"] == "divergence"
        assert "reduce" in bundle["reason"]["message"]
        analysis = analyze_bundle(bundle)
        assert analysis["culprit_rank"] is not None
        assert run_postmortem(path, check=True, verbose=False) == 0

    def test_dead_rank_bundle(self, backend):
        # The process backend loses a worker outright; the thread
        # backend's closest failure is a rank raising mid-program.
        prog = prog_die if backend == "processes" else prog_raise
        with pytest.raises((CommError, RuntimeError)) as exc_info:
            run_spmd(prog, 2, backend=backend)
        path = getattr(exc_info.value, "incident_path", None)
        assert path is not None
        bundle = load_bundle(path)
        expected = ("worker_death" if backend == "processes"
                    else "exception")
        assert bundle["reason"]["type"] == expected
        assert bundle["reason"]["rank"] == 1
        if backend == "processes":
            # The dead worker's ring is unrecoverable; the survivor's
            # ring must still be in the bundle.
            assert bundle["rings"]["1"] is None
            assert bundle["rings"]["0"] is not None
        analysis = analyze_bundle(bundle)
        assert analysis["culprit_rank"] == 1
        assert run_postmortem(path, check=True, verbose=False) == 0

    def test_service_deadline_breach_bundle(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_BACKEND", backend)
        matrix, _ = helmholtz_block_system(12, 3)
        busy, _ = helmholtz_block_system(48, 4)
        b = random_rhs(12, 3, nrhs=1, seed=0)

        class EagerService(SolverService):
            incident_cooldown_s = 0.0

        with EagerService(method="ard", nranks=2, workers=1,
                          batch_window=0.0) as svc:
            handle = svc.register(matrix)
            svc.solve(handle, b)  # warm the cache
            # Unfactored busy job pins the single worker long past the
            # next request's (tiny) queue deadline.
            pending = svc.submit(busy, random_rhs(48, 4, nrhs=4, seed=1))
            ticket = svc.submit(handle, b, deadline=1e-4)
            exc = ticket.exception(timeout=30)
            assert isinstance(exc, DeadlineExceededError)
            path = getattr(exc, "incident_path", None)
            assert path is not None
            bundle = load_bundle(path)
            assert bundle["backend"] == "service"
            assert bundle["reason"]["type"] == "deadline"
            assert bundle["reason"]["op"] == "queued"
            assert bundle["rings"]["0"] is not None  # the worker's ring
            assert run_postmortem(path, check=True, verbose=False) == 0
            assert pending.result(timeout=60) is not None


# ---------------------------------------------------------------------------
# service-only failure paths
# ---------------------------------------------------------------------------

class TestServiceIncidents:
    def test_reject_storm_captures_one_bundle(self, small_system):
        matrix, b = small_system

        class StormService(SolverService):
            incident_cooldown_s = 0.0
            reject_storm_threshold = 3
            reject_storm_window_s = 30.0

        with StormService(method="thomas", nranks=1, workers=1,
                          max_pending=1, batch_window=0.05) as svc:
            handle = svc.register(matrix)
            svc.submit(handle, b)  # fills the admission queue
            captured = None
            for _ in range(6):
                try:
                    svc.submit(handle, b)
                except ServiceOverloadError as exc:
                    captured = getattr(exc, "incident_path", None) or captured
            assert captured is not None
            bundle = load_bundle(captured)
            assert bundle["reason"]["type"] == "reject_storm"
            assert bundle["extra"]["rejects"] == 3

    def test_health_page_captures_bundle(self, small_system):
        from repro.obs import HealthThresholds

        matrix, b = small_system

        class PagingService(SolverService):
            incident_cooldown_s = 0.0

        impossible = HealthThresholds(residual_warn=1e-300,
                                      residual_page=1e-290)
        with PagingService(method="thomas", nranks=1, workers=1,
                           batch_window=0.0, health=impossible) as svc:
            svc.solve(svc.register(matrix), b)
            time.sleep(0.05)  # capture happens on the worker thread
        paths = _incident_paths()
        assert paths, "health page produced no bundle"
        bundle = load_bundle(paths[-1])
        assert bundle["reason"]["type"] == "health_page"
        assert "residual" in bundle["reason"]["message"]

    def test_incidents_route_lists_bundles(self, small_system):
        import urllib.request

        force_synthetic_incident()
        with SolverService(method="thomas", nranks=1, workers=1,
                           expose_http=True) as svc:
            doc = json.load(
                urllib.request.urlopen(svc.http.url + "/incidents"))
        assert doc["enabled"] is True
        assert len(doc["incidents"]) >= 1
        newest = doc["incidents"][0]
        assert newest["type"] == "deadlock"
        assert newest["incident_id"]


# ---------------------------------------------------------------------------
# capture gating, retention, postmortem rendering
# ---------------------------------------------------------------------------

class TestBundleMachinery:
    def test_flightrec_off_disables_capture(self):
        with config_context(flightrec=False):
            with pytest.raises(DeadlockError) as exc_info:
                run_spmd(prog_cycle, 2)
        assert getattr(exc_info.value, "incident_path", None) is None
        assert _incident_paths() == []

    def test_incident_dir_off_disables_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCIDENT_DIR", "off")
        with pytest.raises(DeadlockError):
            run_spmd(prog_cycle, 2)
        assert not IncidentStore().enabled

    def test_retention_prunes_oldest(self):
        store = IncidentStore(retention=2)
        for i in range(4):
            store.write({"incident_id": f"id{i}", "reason": {}})
            time.sleep(0.01)  # distinct mtimes for deterministic order
        assert len(store.paths()) == 2
        assert [p.name for p in store.paths()] == [
            "INCIDENT_id3.json", "INCIDENT_id2.json"]

    def test_schema_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "INCIDENT_bad.json"
        bad.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ReproError, match="schema"):
            load_bundle(bad)

    def test_classify_reason_rank_fallbacks(self):
        exc = CommError("rank 3 worker process died unexpectedly")
        reason = classify_reason(exc)
        assert reason["type"] == "worker_death"
        assert reason["rank"] == 3
        tagged = DeadlockError("stuck")
        tagged.failed_rank = 5
        assert classify_reason(tagged)["rank"] == 5

    def test_render_text_and_chrome_and_json(self, capsys):
        path = force_synthetic_incident()
        bundle = load_bundle(path)
        text = render_text(bundle, analyze_bundle(bundle))
        assert "verdict" in text
        assert "rank 0" in text and "rank 1" in text
        # Each rank's ring ends in the wait it is stuck in: an instant
        # naming the awaited peer and tag.
        events = to_chrome(bundle)["traceEvents"]
        for rank in (0, 1):
            last = [e for e in events if e["tid"] == rank][-1]
            assert (last["ph"], last["cat"], last["name"]) == \
                ("i", "wait", "recv")
            assert (last["args"]["peer"], last["args"]["tag"]) == \
                (1 - rank, 7)
        assert run_postmortem(path, as_json=True, verbose=True) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reason"]["type"] == "deadlock"

    def test_postmortem_defaults_to_newest_bundle(self):
        force_synthetic_incident()
        assert run_postmortem(None, check=True, verbose=False) == 0

    def test_postmortem_without_bundles_exits_2(self):
        assert run_postmortem(None, verbose=False) == 2

    def test_chrome_out_written(self, tmp_path):
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(prog_chatter_then_cycle, 2)
        path = exc_info.value.incident_path
        out = tmp_path / "incident.trace.json"
        assert run_postmortem(path, chrome_out=out, verbose=False) == 0
        events = json.loads(out.read_text())["traceEvents"]
        # Message rows render as a traced run's do: sends as instants,
        # receives as spans over their wait, paired by ``seq``.
        sends = {e["args"]["seq"]: e for e in events if e["name"] == "send"}
        recvs = [e for e in events if e["cat"] == "comm"
                 and e["name"] == "recv"]
        assert len(recvs) == len(sends) == 6
        for recv in recvs:
            send = sends[recv["args"]["seq"]]
            assert recv["ph"] == "X" and recv["dur"] >= 0.0
            assert (send["tid"], recv["tid"]) == \
                (recv["args"]["peer"], send["args"]["peer"])
        assert min(e["ts"] for e in events) == 0.0

    def test_bundle_from_before_wait_fields_still_analyzes(self):
        # The committed sample predates receive rows' wait fields: its
        # rows carry epoch wall times and ``extra = None``.
        path = (pathlib.Path(__file__).parent.parent / "results"
                / "incidents" / "INCIDENT_d2b818ffcc814daf.json")
        bundle = load_bundle(path)
        analysis = analyze_bundle(bundle)
        assert (analysis["culprit_rank"], analysis["culprit_op"]) == \
            (3, "closing")
        assert analysis["edges"] == {"matched": 14, "unmatched_sends": 0,
                                     "unmatched_recvs": 0}
        recvs = [e for e in to_chrome(bundle)["traceEvents"]
                 if e["cat"] == "comm" and e["name"] == "recv"]
        assert len(recvs) == 14 and all(e["dur"] == 0.0 for e in recvs)


class TestHarnessCli:
    def test_postmortem_synthetic_check(self, capsys):
        from repro.harness.__main__ import main

        assert main(["postmortem", "--synthetic", "--check"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "postmortem --check: OK" in out


# ---------------------------------------------------------------------------
# process backend: rings of ranks that fail during incident capture
# ---------------------------------------------------------------------------

class TestFailedJobRings:
    def test_late_failure_ships_ring_without_waiting_out_deadline(self):
        run_spmd(prog_healthy, 2, backend="processes")  # spawn the pool
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 0 exploded") as exc_info:
            run_spmd(prog_both_raise, 2, backend="processes")
        elapsed = time.perf_counter() - start
        bundle = load_bundle(exc_info.value.incident_path)
        assert bundle["rings"]["0"] is not None
        assert bundle["rings"]["1"] is not None  # taken from its 'done'
        # The ring-dump deadline is 1.5 s; a late 'done' must end it.
        assert elapsed < 1.5


# ---------------------------------------------------------------------------
# worker-death diagnostics (satellite: enriched CommError)
# ---------------------------------------------------------------------------

class TestWorkerDeathDiagnostics:
    def test_death_error_reports_heartbeat_and_counts(self):
        with pytest.raises(CommError) as exc_info:
            run_spmd(prog_die, 2, backend="processes")
        message = str(exc_info.value)
        assert "rank 1 worker process died unexpectedly" in message
        assert "exit code" in message
        assert "heartbeat" in message
        assert ("envelope(s) sent" in message
                or "no send/receive counts reported" in message)
        assert exc_info.value.failed_rank == 1
