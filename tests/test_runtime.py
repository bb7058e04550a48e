"""Tests for the SPMD runtime: lifecycle, errors, deadlock, timing."""

import sys
import threading

import numpy as np
import pytest

from repro.comm import CostModel, run_spmd
from repro.comm.runtime import CommAborted
from repro.exceptions import CommError, DeadlockError
from repro.util.flops import record_flops


class TestRunSpmd:
    def test_values_by_rank(self):
        res = run_spmd(lambda comm: comm.rank * 10, 4)
        assert res.values == [0, 10, 20, 30]

    def test_single_rank_runs_inline(self):
        res = run_spmd(lambda comm: comm.size, 1)
        assert res.values == [1]

    def test_args_forwarded(self):
        res = run_spmd(lambda comm, a, b=0: a + b + comm.rank, 2, 5, b=1)
        assert res.values == [6, 7]

    def test_rank_args(self):
        res = run_spmd(lambda comm, x: x * 2, 3, rank_args=[(1,), (2,), (3,)])
        assert res.values == [2, 4, 6]

    def test_rank_args_wrong_length(self):
        with pytest.raises(CommError):
            run_spmd(lambda comm, x: x, 2, rank_args=[(1,)])

    def test_invalid_nranks(self):
        with pytest.raises(CommError):
            run_spmd(lambda comm: None, 0)

    def test_exception_propagates(self):
        def boom(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 failed")
            comm.recv(source=1)  # would block forever without abort

        with pytest.raises(ValueError, match="rank 1 failed"):
            run_spmd(boom, 2)

    def test_lowest_rank_exception_wins(self):
        def boom(comm):
            raise RuntimeError(f"rank {comm.rank}")

        with pytest.raises(RuntimeError, match="rank 0"):
            run_spmd(boom, 3)

    def test_wall_time_recorded(self):
        res = run_spmd(lambda comm: None, 2)
        assert res.wall_time >= 0.0


class TestDeadlockDetection:
    def test_mutual_recv_deadlocks(self):
        def program(comm):
            return comm.recv(source=(comm.rank + 1) % comm.size, tag=5)

        with pytest.raises(DeadlockError):
            run_spmd(program, 2)

    def test_recv_from_finished_rank_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=9)  # rank 1 never sends
            return None

        with pytest.raises(DeadlockError):
            run_spmd(program, 2)

    def test_unmatched_tag_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=1)
            else:
                return comm.recv(source=0, tag=2)

        with pytest.raises(DeadlockError):
            run_spmd(program, 2)

    def test_slow_compute_is_not_deadlock(self):
        import time

        def program(comm):
            if comm.rank == 0:
                time.sleep(0.7)  # slow, but not blocked
                comm.send("late", 1)
                return None
            return comm.recv(source=0)

        res = run_spmd(program, 2)
        assert res.values[1] == "late"

    def test_deadlock_timeout_is_removed(self):
        # The deprecated argument (timeout-based detection era) is gone
        # for good; passing it is a hard error, not a silent no-op.
        def program(comm):
            return comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(TypeError, match="deadlock_timeout"):
            run_spmd(program, 2, deadlock_timeout=60.0)


class TestBlockedReceives:
    def test_many_ranks_never_lose_a_wakeup(self):
        # Blocked receives wait on the condition variable without a
        # timeout, so a delivery that failed to notify would hang here.
        nranks, rounds = 8, 100

        def program(comm):
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            total = 0
            for i in range(rounds):
                comm.send(i, right, tag=1)
                total += comm.recv(source=left, tag=1)
                if i % 25 == 0:
                    total += comm.allreduce(1)
            return total

        out = []
        runner = threading.Thread(  # repro: noqa[RC103]
            target=lambda: out.append(run_spmd(program, nranks)), daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        expected = sum(range(rounds)) + (rounds // 25) * nranks
        assert out[0].values == [expected] * nranks


class TestMessageSemantics:
    def test_copy_on_send_protects_receiver(self):
        def program(comm):
            if comm.rank == 0:
                data = np.arange(4.0)
                comm.send(data, 1)
                data[:] = -1.0  # mutate after send
                return None
            return comm.recv(source=0)

        res = run_spmd(program, 2, copy_messages=True)
        np.testing.assert_array_equal(res.values[1], np.arange(4.0))

    def test_no_copy_mode_shares(self):
        def program(comm):
            if comm.rank == 0:
                data = np.arange(4.0)
                comm.send(data, 1)
                data[:] = -1.0
                return None
            return comm.recv(source=0)

        res = run_spmd(program, 2, copy_messages=False)
        # Documented sharing semantics: the receiver observes mutation.
        np.testing.assert_array_equal(res.values[1], -np.ones(4))

    def test_structured_payloads_never_alias_sender(self):
        """Mutating a received payload (or the sender mutating after
        send) must never be visible on the other side, for every payload
        shape the library ships — the fastcopy isolation contract."""
        import dataclasses

        from repro.prefix import AffinePair

        @dataclasses.dataclass(frozen=True)
        class Record:
            tag: str
            arrays: tuple

        def make():
            pair = AffinePair(np.eye(2), np.ones((2, 1)))
            return {
                "pair": pair,
                "rec": Record("r", (np.arange(3.0), [np.zeros(2)])),
                "nested": [(np.full(2, 7.0),)],
            }

        def program(comm):
            if comm.rank == 0:
                payload = make()
                comm.send(payload, 1)
                payload["pair"].a[:] = -1.0  # sender mutates after send
                payload["rec"].arrays[0][:] = -1.0
                payload["nested"][0][0][:] = -1.0
                return None
            got = comm.recv(source=0)
            fresh = make()
            assert np.array_equal(got["pair"].a, fresh["pair"].a)
            assert np.array_equal(got["rec"].arrays[0], fresh["rec"].arrays[0])
            assert np.array_equal(got["nested"][0][0], fresh["nested"][0][0])
            return True

        res = run_spmd(program, 2, copy_messages=True)
        assert res.values[1] is True

    def test_payload_copy_counters(self):
        """Library payload types take the structural path; only foreign
        objects fall through to the counted deepcopy."""

        class Opaque:  # no copy(), not a dataclass
            __slots__ = ("x",)

            def __init__(self):
                self.x = 1

        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(3.0), 1)
                comm.send((np.eye(2), Opaque()), 1)
            else:
                comm.recv(source=0)
                comm.recv(source=0)

        res = run_spmd(program, 2, copy_messages=True)
        assert res.stats[0].payload_copies == 2
        assert res.stats[0].payload_deepcopies == 1
        assert res.stats[1].payload_copies == 0
        d = res.stats[0].to_dict()
        assert d["payload_copies"] == 2 and d["payload_deepcopies"] == 1

    def test_no_copy_mode_skips_counters(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(3.0), 1)
            else:
                comm.recv(source=0)

        res = run_spmd(program, 2, copy_messages=False)
        assert res.stats[0].payload_copies == 0

    def test_comm_copy_kernel_timed(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(1000.0), 1)
            else:
                comm.recv(source=0)

        res = run_spmd(program, 2, copy_messages=True, trace=True)
        assert res.traces[0].kernel_calls.get("comm.copy") == 1
        assert res.traces[0].kernel_wall["comm.copy"] >= 0.0
        assert "comm.copy" not in res.traces[1].kernel_calls


class TestVirtualTiming:
    def test_message_latency_ordering(self):
        cm = CostModel(latency=1e-3, inv_bandwidth=0.0, overhead=0.0)

        def program(comm):
            if comm.rank == 0:
                comm.send(b"x", 1)
            else:
                comm.recv(source=0)
            return comm.clock.now

        res = run_spmd(program, 2, cost_model=cm)
        assert res.values[1] >= 1e-3
        assert res.values[0] < 1e-4

    def test_compute_time_from_flops(self):
        cm = CostModel(flop_rate=1e6, latency=0.0, inv_bandwidth=0.0, overhead=0.0)

        def program(comm):
            record_flops("fake", 2_000_000)
            return comm.clock.now

        res = run_spmd(program, 1, cost_model=cm)
        assert res.values[0] == pytest.approx(2.0)

    def test_receiver_waits_for_senders_compute(self):
        cm = CostModel(flop_rate=1e6, latency=0.0, inv_bandwidth=0.0, overhead=0.0)

        def program(comm):
            if comm.rank == 0:
                record_flops("fake", 5_000_000)  # 5 modelled seconds
                comm.send(b"x", 1)
            else:
                comm.recv(source=0)
            return comm.clock.now

        res = run_spmd(program, 2, cost_model=cm)
        assert res.values[1] >= 5.0

    def test_virtual_time_deterministic(self):
        def program(comm):
            token = comm.rank
            for _ in range(3):
                token = comm.allreduce(token)
            return None

        times = {run_spmd(program, 4).virtual_time for _ in range(3)}
        assert len(times) == 1

    def test_stats_counts(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), 1)
            else:
                comm.recv(source=0)

        res = run_spmd(program, 2)
        assert res.stats[0].msgs_sent == 1
        assert res.stats[0].bytes_sent == 80
        assert res.stats[1].msgs_sent == 0
        assert res.total_msgs_sent == 1

    def test_advance_clock_explicit(self):
        def program(comm):
            comm.advance_clock(0.25)
            return comm.clock.now

        res = run_spmd(program, 1)
        assert res.values[0] == pytest.approx(0.25)


class TestSimulationResult:
    def test_summary_and_aggregates(self):
        def program(comm):
            record_flops("gemm", 100)
            comm.barrier()
            return comm.rank

        res = run_spmd(program, 3)
        assert res.nranks == 3
        assert res.total_flops == 300
        assert res.flops_by_kernel()["gemm"] == 300
        assert "P=3" in res.summary()
        assert res.value(2) == 2

    def test_comm_aborted_is_commerror(self):
        assert issubclass(CommAborted, CommError)
