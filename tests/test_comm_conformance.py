"""Backend-agnostic Communicator conformance suite.

Every test in this module runs the *same* SPMD program under both
execution backends (``threads`` and ``processes``) and asserts the
same semantics — point-to-point ordering, wildcard matching, request
objects, every collective, communicator surgery — so the backends
cannot drift apart.  Programs are module-level functions: the process
backend ships them to spawned workers by pickling, and a closure would
silently fall back to threads (defeating the point of the matrix).

The cross-backend *bitwise parity* checks on the real solvers live in
``test_mp_backend.py``; this file is about the communication API
contract itself, including the aliasing checks a verified run
(``verify=True``) adds on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import ANY_SOURCE, ANY_TAG, MAX, SUM, Status, run_spmd
from repro.comm.mp import shutdown_pool
from repro.exceptions import CommError, DeadlockError

BACKENDS = ("threads", "processes")

pytestmark = pytest.mark.parametrize("backend", BACKENDS)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def _run(program, nranks, backend, **kwargs):
    result = run_spmd(program, nranks, backend=backend, **kwargs)
    assert result.backend == (backend if nranks > 1 else "threads")
    return result


# ---------------------------------------------------------------------------
# programs (module level: must be picklable for the process backend)
# ---------------------------------------------------------------------------

def prog_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(comm.rank * 10, right, tag=1)
    return comm.recv(source=left, tag=1)


def prog_same_tag_ordering(comm):
    if comm.rank == 0:
        for i in range(4):
            comm.send(i, 1, tag=7)
        return None
    return [comm.recv(source=0, tag=7) for _ in range(4)]


def prog_wildcards(comm):
    if comm.rank == 0:
        got = []
        for _ in range(comm.size - 1):
            status = Status()
            value = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            assert status.source >= 1 and status.tag == 100 + status.source
            got.append((status.source, value))
        return sorted(got)
    comm.send(comm.rank * 3, 0, tag=100 + comm.rank)
    return None


def prog_tag_selectivity(comm):
    if comm.rank == 0:
        comm.send("a", 1, tag=1)
        comm.send("b", 1, tag=2)
        return None
    second = comm.recv(source=0, tag=2)  # matches past the tag=1 message
    first = comm.recv(source=0, tag=1)
    return (first, second)


def prog_isend_waitall(comm):
    reqs = [comm.isend(comm.rank * 100 + d, d, tag=3)
            for d in range(comm.size) if d != comm.rank]
    recvs = [comm.irecv(source=s, tag=3)
             for s in range(comm.size) if s != comm.rank]
    for r in reqs:
        r.wait()
    return sorted(r.wait() for r in recvs)


def prog_sendrecv(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    return comm.sendrecv(comm.rank, right, sendtag=4,
                         source=left, recvtag=4)


def prog_numpy_roundtrip(comm):
    if comm.rank == 0:
        payload = {
            "a": np.arange(4096, dtype=np.float64).reshape(64, 64),
            "b": (np.float32(1.5), [np.arange(3, dtype=np.int64)]),
        }
        comm.send(payload, 1, tag=5)
        return None
    got = comm.recv(source=0, tag=5)
    return (got["a"].dtype.str, got["a"].shape, float(got["a"].sum()),
            float(got["b"][0]), got["b"][1][0].tolist())


def prog_collectives(comm):
    out = {}
    out["bcast"] = comm.bcast("root" if comm.rank == 0 else None, root=0)
    out["gather"] = comm.gather(comm.rank, root=0)
    out["allgather"] = comm.allgather(comm.rank ** 2)
    out["scatter"] = comm.scatter(
        [f"s{i}" for i in range(comm.size)] if comm.rank == 0 else None,
        root=0)
    out["alltoall"] = comm.alltoall(
        [comm.rank * 10 + d for d in range(comm.size)])
    out["reduce"] = comm.reduce(comm.rank + 1, op=SUM, root=0)
    out["allreduce"] = comm.allreduce(comm.rank, op=MAX)
    out["scan"] = comm.scan(comm.rank + 1, op=SUM)
    out["exscan"] = comm.exscan(comm.rank + 1, op=SUM)
    comm.barrier()
    return out


def prog_noncommutative_scan(comm):
    return comm.scan(chr(97 + comm.rank), op=lambda a, b: a + b)


def prog_split(comm):
    sub = comm.split(color=comm.rank % 2, key=comm.rank)
    values = sub.allgather(comm.rank)
    total = comm.allreduce(1)
    return (values, total)


def prog_dup(comm):
    dup = comm.dup()
    comm.send(comm.rank, (comm.rank + 1) % comm.size, tag=6)
    other = dup.allreduce(comm.rank)  # dup traffic must not cross
    mine = comm.recv(source=(comm.rank - 1) % comm.size, tag=6)
    return (mine, other)


def prog_rank_extra(comm, base, extra):
    return base + extra


def prog_tag_near_miss(comm):
    if comm.rank == 0:
        comm.send("x", 1, tag=1)
        return None
    return comm.recv(source=0, tag=2)


def _ring(comm):
    return (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size


def prog_write_inflight(comm):
    right, left = _ring(comm)
    buf = np.zeros(4)
    req = comm.isend(buf, right, tag=9)
    buf[0] = 1.0
    req.wait()
    return comm.recv(source=left, tag=9)


def prog_write_inflight_view(comm):
    right, left = _ring(comm)
    buf = np.zeros(4)
    view = buf.reshape(2, 2)
    req = comm.isend(buf, right, tag=9)
    view[0] = 1.0
    req.wait()
    return comm.recv(source=left, tag=9)


def prog_write_after_wait(comm):
    right, left = _ring(comm)
    buf = np.zeros(4)
    req = comm.isend(buf, right, tag=9)
    got = comm.recv(source=left, tag=9)
    req.wait()
    buf[0] = 1.0
    return got


def prog_write_sent_copy_source(comm):
    right, left = _ring(comm)
    buf = np.zeros(4)
    req = comm.isend(buf.copy(), right, tag=9)
    buf[0] = 1.0
    req.wait()
    return comm.recv(source=left, tag=9)


def prog_write_received(comm):
    right, left = _ring(comm)
    comm.send(np.zeros(4), right, tag=11)
    got = comm.recv(source=left, tag=11)
    got[0] = 2.0
    return got


def prog_write_bcast_result(comm):
    x = np.zeros(3) if comm.rank == 0 else None
    x = comm.bcast(x, root=0)
    if comm.rank == 1:
        x += 1.0
    return x


def prog_write_received_copy(comm):
    right, left = _ring(comm)
    comm.send(np.zeros(4), right, tag=11)
    got = comm.recv(source=left, tag=11).copy()
    got[0] = 2.0
    return got


# ---------------------------------------------------------------------------
# conformance tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 4])
def test_ring_p2p(backend, p):
    result = _run(prog_ring, p, backend)
    assert result.values == [((r - 1) % p) * 10 for r in range(p)]


def test_same_source_tag_fifo(backend):
    result = _run(prog_same_tag_ordering, 2, backend)
    assert result.values[1] == [0, 1, 2, 3]


@pytest.mark.parametrize("p", [2, 4])
def test_wildcard_source_and_tag(backend, p):
    result = _run(prog_wildcards, p, backend)
    assert result.values[0] == [(s, s * 3) for s in range(1, p)]


def test_tag_selectivity_out_of_order(backend):
    result = _run(prog_tag_selectivity, 2, backend)
    assert result.values[1] == ("a", "b")


@pytest.mark.parametrize("p", [2, 3])
def test_isend_irecv_waitall(backend, p):
    result = _run(prog_isend_waitall, p, backend)
    for rank, got in enumerate(result.values):
        assert got == sorted(s * 100 + rank
                             for s in range(p) if s != rank)


def test_sendrecv_ring(backend):
    result = _run(prog_sendrecv, 4, backend)
    assert result.values == [(r - 1) % 4 for r in range(4)]


def test_numpy_payload_roundtrip(backend):
    result = _run(prog_numpy_roundtrip, 2, backend)
    dtype, shape, total, scalar, ints = result.values[1]
    assert (dtype, shape) == ("<f8", (64, 64))
    assert total == float(np.arange(4096).sum())
    assert (scalar, ints) == (1.5, [0, 1, 2])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_all_collectives(backend, p):
    result = _run(prog_collectives, p, backend)
    for rank, out in enumerate(result.values):
        assert out["bcast"] == "root"
        assert out["gather"] == (list(range(p)) if rank == 0 else None)
        assert out["allgather"] == [r ** 2 for r in range(p)]
        assert out["scatter"] == f"s{rank}"
        assert out["alltoall"] == [s * 10 + rank for s in range(p)]
        assert out["reduce"] == (p * (p + 1) // 2 if rank == 0 else None)
        assert out["allreduce"] == p - 1
        assert out["scan"] == (rank + 1) * (rank + 2) // 2
        expected_ex = rank * (rank + 1) // 2 if rank else None
        assert out["exscan"] == expected_ex


@pytest.mark.parametrize("p", [3, 4])
def test_noncommutative_scan_order(backend, p):
    # The operator lambda is created inside each worker (only the
    # program function crosses the process boundary), so this runs
    # natively on both backends.
    result = _run(prog_noncommutative_scan, p, backend)
    alphabet = "".join(chr(97 + r) for r in range(p))
    assert result.values == [alphabet[: r + 1] for r in range(p)]


def test_unpicklable_program_falls_back_to_threads(backend, monkeypatch):
    # A closure cannot be shipped to spawned workers; the process
    # backend must warn once and defer to threads rather than fail.
    captured = []

    def program(comm):
        captured.append(comm.rank)  # closes over local state
        return comm.allreduce(comm.rank)

    if backend == "processes":
        from repro.comm.mp import backend as mp_backend

        monkeypatch.setattr(mp_backend, "_unpicklable_warned", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = run_spmd(program, 3, backend=backend)
    else:
        result = run_spmd(program, 3, backend=backend)
    assert result.backend == "threads"
    assert result.values == [3, 3, 3]
    assert sorted(captured) == [0, 1, 2]


def test_split_subcommunicators(backend):
    result = _run(prog_split, 4, backend)
    for rank, (values, total) in enumerate(result.values):
        assert values == ([0, 2] if rank % 2 == 0 else [1, 3])
        assert total == 4


def test_dup_isolated_traffic(backend):
    result = _run(prog_dup, 3, backend)
    assert result.values == [((r - 1) % 3, 3) for r in range(3)]


def test_rank_args_and_shared_args(backend):
    result = run_spmd(prog_rank_extra, 3, 1000, backend=backend,
                      rank_args=[(r,) for r in range(3)])
    assert result.values == [1000, 1001, 1002]


def test_stats_and_virtual_time_match_reference(backend):
    result = _run(prog_ring, 4, backend)
    reference = run_spmd(prog_ring, 4, backend="threads")
    assert result.virtual_time == pytest.approx(
        reference.virtual_time, rel=1e-12)
    assert result.total_msgs_sent == reference.total_msgs_sent
    assert result.total_bytes_sent == reference.total_bytes_sent


def test_deadlock_report_names_near_miss(backend):
    with pytest.raises(DeadlockError) as exc_info:
        run_spmd(prog_tag_near_miss, 2, backend=backend)
    report = str(exc_info.value)
    assert "unmatched message: rank 0 -> rank 1 (tag 1" in report
    assert ("near miss: rank 1 waits for tag 2; rank 0 sent it tag 1 "
            "(same rank pair, different tag)") in report


# ---------------------------------------------------------------------------
# aliasing checks of a verified run (formerly static rules RC205/RC206)
# ---------------------------------------------------------------------------

#: ``copy_messages`` settings worth running per backend: the process
#: backend always copies, so ``False`` would only repeat ``True``.
COPY_MODES = {"threads": (True, False), "processes": (True,)}


@pytest.mark.parametrize("program", [prog_write_inflight,
                                     prog_write_inflight_view],
                         ids=["buffer", "reshape_view"])
def test_verify_flags_isend_buffer_written_before_wait(backend, program):
    for copy_messages in COPY_MODES[backend]:
        with pytest.raises(CommError, match=r"isend to dest \d \(tag 9\)"):
            run_spmd(program, 2, backend=backend, verify=True,
                     copy_messages=copy_messages)


@pytest.mark.parametrize("program,line", [
    (prog_write_received, "got[0] = 2.0"),
    (prog_write_bcast_result, "x += 1.0"),
], ids=["recv", "bcast"])
def test_verify_flags_write_to_received_array(backend, program, line):
    for copy_messages in COPY_MODES[backend]:
        with pytest.raises(ValueError, match="read-only") as exc_info:
            run_spmd(program, 2, backend=backend, verify=True,
                     copy_messages=copy_messages)
        if backend == "threads":  # the process backend ships no traceback
            assert str(exc_info.traceback[-1].statement).strip() == line


@pytest.mark.parametrize("program,expected", [
    (prog_write_after_wait, 0.0),
    (prog_write_sent_copy_source, 0.0),
    (prog_write_received_copy, 2.0),
], ids=["write_after_wait", "send_copy", "copy_received"])
def test_verify_near_misses_run_clean(backend, program, expected):
    for copy_messages in COPY_MODES[backend]:
        result = _run(program, 2, backend, verify=True,
                      copy_messages=copy_messages)
        for got in result.values:
            assert got[0] == expected and not got[1:].any()
