"""Tests for the solver service layer (repro.service).

Covers the three subsystems separately — fingerprint keys, the
single-flight LRU cache, the batcher bookkeeping — and the assembled
:class:`SolverService`: correctness against direct solves, batching
semantics, backpressure, deadlines, eviction/refactor, drain, and the
metrics snapshot.  Concurrency tests use barriers and explicit flushes
rather than sleeps wherever determinism allows.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.api import FACTOR_METHODS, factor
from repro.exceptions import (
    ConfigError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadError,
    ShapeError,
)
from repro.service import (
    FactorHandle,
    FactorizationCache,
    RequestBatcher,
    SolveRequest,
    SolverService,
    factor_key,
)
from repro.workloads import helmholtz_block_system, random_rhs

N, M = 12, 3


@pytest.fixture
def system():
    matrix, _ = helmholtz_block_system(N, M)
    b = random_rhs(N, M, nrhs=2, seed=0)
    return matrix, b


def _other_matrix():
    matrix, _ = helmholtz_block_system(N, M, theta=0.9)
    return matrix


# ---------------------------------------------------------------------------
# fingerprint / cache keys


class TestFingerprint:
    def test_content_addressed(self, system):
        matrix, _ = system
        assert matrix.fingerprint() == matrix.copy().fingerprint()
        assert factor_key(matrix, "ard", 4) == factor_key(matrix.copy(), "ard", 4)

    def test_distinguishes_content(self, system):
        matrix, _ = system
        other = matrix.copy()
        other.diag[0, 0, 0] += 1.0
        other._fingerprint = None  # mutated outside the immutability contract
        assert matrix.fingerprint() != other.fingerprint()

    def test_distinguishes_method_and_ranks(self, system):
        matrix, _ = system
        keys = {
            factor_key(matrix, "ard", 1),
            factor_key(matrix, "ard", 4),
            factor_key(matrix, "spike", 4),
            factor_key(matrix, "thomas", 1),
        }
        assert len(keys) == 4

    def test_sequential_methods_ignore_nranks(self, system):
        matrix, _ = system
        assert factor_key(matrix, "thomas", 4) == factor_key(matrix, "thomas", 1)
        assert factor_key(matrix, "cyclic", 8) == factor_key(matrix, "cyclic", 1)

    def test_rejects_bad_inputs(self, system):
        matrix, _ = system
        with pytest.raises(ConfigError):
            factor_key(matrix, "gaussian", 1)
        with pytest.raises(ShapeError):
            factor_key(np.eye(4), "ard", 1)
        with pytest.raises(ShapeError):
            factor_key(matrix, "ard", 0)

    def test_api_fingerprint_function(self, system):
        from repro.core.api import fingerprint

        matrix, _ = system
        assert fingerprint(matrix) == matrix.fingerprint()
        assert fingerprint(matrix, method="ard", nranks=4) == factor_key(
            matrix, "ard", 4)
        with pytest.raises(ShapeError):
            fingerprint(np.eye(4))


# ---------------------------------------------------------------------------
# cache


class _FakeFact:
    """Stand-in factorization with a controllable byte size."""

    def __init__(self, nbytes=100):
        self.nbytes = nbytes


class TestFactorizationCache:
    def test_hit_miss_counters(self):
        cache = FactorizationCache()
        fact, hit = cache.get_or_create("k1", _FakeFact)
        assert not hit
        same, hit = cache.get_or_create("k1", _FakeFact)
        assert hit and same is fact
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = FactorizationCache(max_bytes=None, max_entries=2)
        cache.put("a", _FakeFact())
        cache.put("b", _FakeFact())
        assert cache.get("a") is not None  # refresh a → b is now LRU
        cache.put("c", _FakeFact())
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_byte_budget_accounting(self):
        cache = FactorizationCache(max_bytes=250)
        cache.put("a", _FakeFact(100))
        cache.put("b", _FakeFact(100))
        assert cache.nbytes == 200
        cache.put("c", _FakeFact(100))   # 300 > 250: evict LRU ("a")
        assert cache.nbytes == 200 and "a" not in cache
        assert cache.evict("b")
        assert cache.nbytes == 100
        assert not cache.evict("b")      # already gone
        assert cache.clear() == 1
        assert cache.nbytes == 0 and len(cache) == 0

    def test_oversized_entry_still_admitted(self):
        cache = FactorizationCache(max_bytes=50)
        cache.put("small", _FakeFact(10))
        cache.put("huge", _FakeFact(500))
        assert "huge" in cache and "small" not in cache
        assert len(cache) == 1

    def test_replace_updates_bytes(self):
        cache = FactorizationCache(max_bytes=None)
        cache.put("a", _FakeFact(100))
        cache.put("a", _FakeFact(30))
        assert cache.nbytes == 30 and len(cache) == 1

    def test_budget_follows_ard_bands(self):
        """Every factorization ``factor()`` builds keeps the charge it
        was inserted with, which is what lets a hit skip re-charging:
        narrow and wide solves leave both entries of each method at
        their factor-time size, so a budget of exactly two entries
        evicts nothing."""
        n, m = 64, 4
        for method in FACTOR_METHODS:
            facts = {}
            for key, theta in (("a", 0.3), ("b", 0.9)):
                matrix, _ = helmholtz_block_system(n, m, theta=theta)
                facts[key] = factor(matrix, method=method, nranks=2,
                                    backend="threads")
            charge = facts["a"].nbytes
            assert charge > 0 and facts["b"].nbytes == charge, method
            cache = FactorizationCache(max_bytes=2 * charge)
            for key, fact in facts.items():
                assert cache.get_or_create(key, lambda f=fact: f) == (
                    fact, False)
            for key, k in (("a", 17), ("b", 1), ("a", 1), ("b", 17),
                           ("a", 4)):
                cache.get(key).solve(random_rhs(n, m, k, seed=k))
            for key in ("a", "b", "a"):
                assert cache.get(key) is facts[key]
            assert [f.nbytes for f in facts.values()] == [charge] * 2, method
            assert "a" in cache and "b" in cache
            assert cache.nbytes == 2 * charge
            assert cache.stats().evictions == 0

    def test_single_flight_exactly_one_build(self, system):
        matrix, _ = system
        cache = FactorizationCache()
        key = factor_key(matrix, "thomas", 1)
        builds = []
        build_lock = threading.Lock()  # repro: noqa[RC103]
        nthreads = 8
        barrier = threading.Barrier(nthreads)  # repro: noqa[RC103]
        results = [None] * nthreads

        def build():
            with build_lock:
                builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return factor(matrix, method="thomas")

        def worker(i):
            barrier.wait()
            results[i] = cache.get_or_create(key, build)

        threads = [threading.Thread(target=worker, args=(i,))  # repro: noqa[RC103]
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1, "single-flight violated: multiple factorizations"
        facts = {id(fact) for fact, _ in results}
        assert len(facts) == 1, "threads received different factorizations"
        hits = [hit for _, hit in results]
        assert hits.count(False) == 1 and hits.count(True) == nthreads - 1
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == nthreads - 1

    def test_single_flight_leader_failure_propagates(self):
        cache = FactorizationCache()
        release = threading.Event()  # repro: noqa[RC103]
        entered = threading.Event()  # repro: noqa[RC103]

        def failing_build():
            entered.set()
            release.wait(timeout=5)
            raise RuntimeError("factor exploded")

        errors = []

        def leader():
            try:
                cache.get_or_create("k", failing_build)
            except RuntimeError as exc:
                errors.append(exc)

        def waiter():
            entered.wait(timeout=5)
            try:
                cache.get_or_create("k", failing_build)
            except RuntimeError as exc:
                errors.append(exc)
            release.set()  # only reached if it became a second leader

        t1 = threading.Thread(target=leader)  # repro: noqa[RC103]
        t1.start()
        entered.wait(timeout=5)
        t2 = threading.Thread(target=waiter)  # repro: noqa[RC103]
        t2.start()
        time.sleep(0.05)  # let the waiter reach the event wait
        release.set()
        t1.join(5)
        t2.join(5)
        assert len(errors) == 2
        assert errors[0] is errors[1], "waiter did not share the leader's error"
        assert "k" not in cache


# ---------------------------------------------------------------------------
# batcher


def _req(key, nrhs=1, enqueued=0.0, deadline=None):
    return SolveRequest(
        key=key, handle=None, bb=np.zeros((N, M, nrhs)),
        original=(N, M, nrhs), future=Future(), enqueued=enqueued,
        deadline=deadline,
    )


class TestRequestBatcher:
    def test_window_trigger(self):
        b = RequestBatcher(window=1.0, max_batch_rhs=64)
        b.put(_req("k", enqueued=0.0))
        assert b.take(now=0.5) is None          # window still open
        assert b.next_ready_in(0.5) == pytest.approx(0.5)
        batch = b.take(now=1.0)                 # window expired
        assert batch is not None and len(batch) == 1
        assert b.pending_requests == 0

    def test_size_trigger_and_cap(self):
        b = RequestBatcher(window=100.0, max_batch_rhs=4)
        for _ in range(6):
            b.put(_req("k"))
        batch = b.take(now=0.0)                 # size-ready despite window
        assert len(batch) == 4
        b.release("k")
        assert b.take(now=0.0) is None          # leftovers: window restarts
        assert len(b.take(now=0.0, flush_all=True)) == 2

    def test_busy_key_serializes(self):
        b = RequestBatcher(window=0.0, max_batch_rhs=64)
        b.put(_req("k"))
        first = b.take(now=0.0)
        assert first is not None
        b.put(_req("k"))                        # arrives while k is busy
        assert b.take(now=1.0) is None          # no second concurrent batch
        assert b.next_ready_in(1.0) is None     # only busy keys pending
        b.release("k")
        assert len(b.take(now=1.0)) == 1

    def test_multi_key_fifo(self):
        b = RequestBatcher(window=0.0, max_batch_rhs=64)
        b.put(_req("k1", enqueued=0.0))
        b.put(_req("k2", enqueued=1.0))
        assert b.take(now=2.0)[0].key == "k1"   # oldest key first
        assert b.take(now=2.0)[0].key == "k2"

    def test_oversized_request_forms_own_batch(self):
        b = RequestBatcher(window=0.0, max_batch_rhs=4)
        b.put(_req("k", nrhs=10))
        b.put(_req("k", nrhs=1))
        assert [r.nrhs for r in b.take(now=1.0)] == [10]

    def test_drain_pending(self):
        b = RequestBatcher(window=10.0)
        b.put(_req("k1"))
        b.put(_req("k2"))
        assert len(b.drain_pending()) == 2
        assert b.idle and b.pending_rhs == 0

    def test_expedite(self):
        b = RequestBatcher(window=1000.0)
        b.put(_req("k", enqueued=5.0))
        assert b.take(now=6.0) is None
        b.expedite()
        assert b.take(now=6.0) is not None


# ---------------------------------------------------------------------------
# service end-to-end


class TestSolverService:
    @pytest.mark.parametrize("method,nranks",
                             [("ard", 3), ("spike", 3), ("thomas", 1),
                              ("cyclic", 1)])
    def test_matches_direct_solve(self, system, method, nranks):
        matrix, b = system
        direct = factor(matrix, method=method, nranks=nranks).solve(b)
        with SolverService(method=method, nranks=nranks, workers=2) as svc:
            x = svc.solve(matrix, b, timeout=30.0)
        np.testing.assert_array_equal(x, direct)

    def test_rhs_layouts_round_trip(self, system):
        matrix, _ = system
        layouts = [
            random_rhs(N, M, 1, seed=1).reshape(N * M),        # flat 1-D
            random_rhs(N, M, 1, seed=2).reshape(N, M),         # (N, M)
            random_rhs(N, M, 2, seed=3).reshape(N * M, 2),     # flat 2-D
            random_rhs(N, M, 2, seed=4),                       # (N, M, R)
        ]
        with SolverService(method="thomas", workers=1) as svc:
            h = svc.register(matrix, eager=True)
            tickets = [svc.submit(h, b) for b in layouts]
            for b, t in zip(layouts, tickets):
                x = t.result(timeout=30.0)
                assert x.shape == b.shape
                assert matrix.residual(
                    x.reshape(N, M, -1), b.reshape(N, M, -1)) < 1e-10

    def test_batches_coalesce_while_worker_busy(self, system):
        matrix, _ = system
        nreq = 16
        with SolverService(method="thomas", workers=1, batch_window=30.0,
                           max_batch_rhs=64, max_pending=64) as svc:
            h = svc.register(matrix, eager=True)
            tickets = [svc.submit(h, random_rhs(N, M, 1, seed=i))
                       for i in range(nreq)]
            svc.flush()
            for t in tickets:
                t.result(timeout=30.0)
            snap = svc.metrics_snapshot()
        assert snap["counters"]["requests.completed"] == nreq
        # Everything queued behind the huge window flushed as one batch.
        assert snap["summaries"]["batch.size"]["max"] == nreq
        assert snap["counters"]["batches"] == 1
        assert snap["counters"]["requests.served_from_cache"] == nreq

    def test_cache_reuse_across_requests(self, system):
        matrix, b = system
        with SolverService(method="ard", nranks=3, workers=1) as svc:
            h = svc.register(matrix)
            for _ in range(5):
                svc.solve(h, b, timeout=30.0)
            snap = svc.metrics_snapshot()
        assert snap["cache"]["misses"] == 1, "factored more than once"
        assert snap["cache"]["hits"] >= 4

    def test_evict_forces_refactor(self, system):
        matrix, b = system
        with SolverService(method="thomas", workers=1) as svc:
            h = svc.register(matrix, eager=True)
            svc.solve(h, b, timeout=30.0)
            assert svc.evict(h)
            assert not svc.evict(h)
            svc.solve(h, b, timeout=30.0)
            snap = svc.metrics_snapshot()
        assert snap["cache"]["misses"] == 2
        assert snap["cache"]["evictions"] == 1

    def test_distinct_matrices_distinct_entries(self, system):
        matrix, b = system
        other = _other_matrix()
        with SolverService(method="thomas", workers=2) as svc:
            x1 = svc.solve(matrix, b, timeout=30.0)
            x2 = svc.solve(other, b, timeout=30.0)
            snap = svc.metrics_snapshot()
        assert snap["cache"]["entries"] == 2
        assert not np.allclose(x1, x2)

    def test_overload_reject(self, system):
        matrix, b = system
        with SolverService(method="thomas", workers=1, max_pending=2,
                           batch_window=60.0) as svc:
            h = svc.register(matrix, eager=True)
            t1 = svc.submit(h, b)
            t2 = svc.submit(h, b)
            with pytest.raises(ServiceOverloadError):
                svc.submit(h, b)
            svc.flush()
            t1.result(timeout=30.0)
            t2.result(timeout=30.0)
            snap = svc.metrics_snapshot()
        assert snap["counters"]["requests.rejected"] == 1

    def test_overload_block_unblocks_on_space(self, system):
        matrix, b = system
        svc = SolverService(method="thomas", workers=1, max_pending=1,
                            batch_window=60.0, overload="block")
        try:
            h = svc.register(matrix, eager=True)
            t1 = svc.submit(h, b)
            unblocked = []

            def blocked_submit():
                unblocked.append(svc.submit(h, b))

            thread = threading.Thread(target=blocked_submit)  # repro: noqa[RC103]
            thread.start()
            time.sleep(0.05)
            assert not unblocked, "submit should have blocked on a full queue"
            svc.flush()                     # worker takes t1 → space frees
            thread.join(timeout=30.0)
            assert not thread.is_alive() and len(unblocked) == 1
            t1.result(timeout=30.0)
            svc.flush()
            unblocked[0].result(timeout=30.0)
        finally:
            svc.close()

    def test_deadline_expires_in_queue(self, system):
        matrix, b = system
        with SolverService(method="thomas", workers=1,
                           batch_window=60.0) as svc:
            h = svc.register(matrix, eager=True)
            ticket = svc.submit(h, b, deadline=0.01)
            time.sleep(0.05)
            svc.flush()
            with pytest.raises(DeadlineExceededError):
                ticket.result(timeout=30.0)
            snap = svc.metrics_snapshot()
        assert snap["counters"]["requests.expired"] == 1
        with pytest.raises(ConfigError):
            SolverService(method="thomas").submit(matrix, b, deadline=0.0)

    def test_close_drains_pending(self, system):
        matrix, b = system
        svc = SolverService(method="thomas", workers=1, batch_window=60.0,
                            max_pending=16)
        h = svc.register(matrix, eager=True)
        tickets = [svc.submit(h, random_rhs(N, M, 1, seed=i))
                   for i in range(8)]
        svc.close(drain=True)
        for t in tickets:
            assert t.result(timeout=30.0) is not None
        with pytest.raises(ServiceClosedError):
            svc.submit(h, b)

    def test_close_abandon_fails_pending(self, system):
        matrix, b = system
        svc = SolverService(method="thomas", workers=1, batch_window=60.0,
                            max_pending=16)
        h = svc.register(matrix, eager=True)
        tickets = [svc.submit(h, b) for _ in range(4)]
        svc.close(drain=False)
        for t in tickets:
            with pytest.raises(ServiceClosedError):
                t.result(timeout=30.0)

    def test_concurrent_submitters_one_factorization(self, system):
        """N threads hammering one fingerprint: single-flight end to end."""
        matrix, _ = system
        nthreads = 8
        barrier = threading.Barrier(nthreads)  # repro: noqa[RC103]
        with SolverService(method="ard", nranks=3, workers=4,
                           batch_window=0.0, max_pending=64) as svc:
            h = svc.register(matrix)  # lazy: workers race to factor

            def hammer(i):
                barrier.wait()
                return svc.solve(h, random_rhs(N, M, 1, seed=i), timeout=30.0)

            results = [None] * nthreads
            threads = [
                threading.Thread(target=lambda i=i: results.__setitem__(  # repro: noqa[RC103]
                    i, hammer(i)))
                for i in range(nthreads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            snap = svc.metrics_snapshot()
        assert all(r is not None for r in results)
        assert snap["cache"]["misses"] == 1, (
            "concurrent requests triggered more than one factorization")
        assert snap["counters"]["requests.completed"] == nthreads

    def test_service_errors_are_repro_errors(self):
        assert issubclass(ServiceOverloadError, ReproError)
        assert issubclass(ServiceClosedError, ReproError)
        assert issubclass(DeadlineExceededError, ReproError)

    def test_solve_failure_propagates(self, system):
        matrix, _ = system
        with SolverService(method="thomas", workers=1) as svc:
            h = svc.register(matrix, eager=True)
            bad = np.zeros((N + 1, M, 1))
            with pytest.raises(ShapeError):
                svc.submit(h, bad)
            snap = svc.metrics_snapshot()
        assert snap["counters"].get("requests.failed", 0) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverService(method="gaussian")
        with pytest.raises(ConfigError):
            SolverService(workers=0)
        with pytest.raises(ConfigError):
            SolverService(max_pending=0)
        with pytest.raises(ConfigError):
            SolverService(overload="drop")

    def test_submit_rejects_non_matrix_target(self, system):
        _, b = system
        with SolverService(method="thomas") as svc:
            with pytest.raises(ShapeError):
                svc.submit(np.eye(N * M), b)

    def test_trace_records_request_spans(self, system):
        matrix, b = system
        with SolverService(method="thomas", workers=1, trace=True) as svc:
            h = svc.register(matrix, eager=True)
            svc.solve(h, b, timeout=30.0)
            svc.solve(h, b, timeout=30.0)
        spans = [s for t in svc.traces() for s in t.spans]
        names = [s.name for s in spans]
        assert names.count("queued") == 2
        assert names.count("solved") == 2
        assert all(s.cat == "request" for s in spans)
        solved = [s for s in spans if s.name == "solved"]
        assert all(s.attrs["cache_hit"] for s in solved)

    def test_handle_metadata(self, system):
        matrix, _ = system
        with SolverService(method="ard", nranks=3) as svc:
            h = svc.register(matrix)
        assert isinstance(h, FactorHandle)
        assert h.key == factor_key(matrix, "ard", 3)
        assert h.fingerprint == matrix.fingerprint()

    def test_metrics_snapshot_shape(self, system):
        matrix, b = system
        with SolverService(method="thomas") as svc:
            svc.solve(matrix, b, timeout=30.0)
            snap = svc.metrics_snapshot()
        assert set(snap) == {"counters", "gauges", "summaries", "cache"}
        assert snap["cache"]["hit_rate"] is not None
        import json

        json.dumps(snap)  # must be JSON-serializable
