"""Stress and randomized property tests across the whole stack."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.comm import run_spmd
from repro.core import ARDFactorization
from repro.linalg.reference import dense_solve
from repro.workloads import helmholtz_block_system, random_rhs


class TestCommStress:
    def test_random_traffic_delivered_exactly_once(self):
        """Every rank fires a burst of tagged messages at random
        destinations; every message must arrive exactly once with
        payload intact."""
        p, per_rank = 6, 20

        def program(comm):
            rng = np.random.default_rng(1000 + comm.rank)
            dests = rng.integers(0, comm.size, size=per_rank)
            # Announce how many messages each destination should expect.
            counts = np.zeros(comm.size, dtype=int)
            for d in dests:
                counts[d] += 1
            incoming = comm.alltoall([int(c) for c in counts])
            for seq, d in enumerate(dests):
                comm.send((comm.rank, seq), int(d), tag=7)
            received = [comm.recv(tag=7) for _ in range(sum(incoming))]
            comm.barrier()
            return sorted(received)

        res = run_spmd(program, p)
        all_received = [msg for rank_msgs in res.values for msg in rank_msgs]
        assert len(all_received) == p * per_rank
        assert sorted(all_received) == sorted(
            (src, seq) for src in range(p) for seq in range(per_rank)
        )

    def test_many_sequential_collectives(self):
        """Hundreds of back-to-back collectives must not cross-talk
        (tag-sequencing stress)."""

        def program(comm):
            ok = True
            for i in range(150):
                total = comm.allreduce(i + comm.rank)
                expected = comm.size * i + comm.size * (comm.size - 1) // 2
                ok = ok and (total == expected)
            return ok

        assert all(run_spmd(program, 5).values)

    def test_interleaved_subcommunicators(self):
        """Messages on parent, split and dup communicators interleave
        without leaking across contexts."""

        def program(comm):
            sub = comm.split(color=comm.rank % 2)
            dup = comm.dup()
            results = []
            for round_idx in range(10):
                a = comm.allreduce(1)
                b = sub.allreduce(1)
                c = dup.allreduce(2)
                results.append((a, b, c))
            return results

        res = run_spmd(program, 6)
        for rank, rows in enumerate(res.values):
            for a, b, c in rows:
                assert a == 6
                assert b == 3
                assert c == 12

    def test_large_payloads(self):
        def program(comm):
            data = np.full((512, 64), float(comm.rank))
            if comm.rank == 0:
                comm.send(data, 1)
                return None
            got = comm.recv(source=0)
            return float(got.sum())

        res = run_spmd(program, 2)
        assert res.values[1] == 0.0
        assert res.stats[0].bytes_sent == 512 * 64 * 8


class TestSolverPipelineProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(2, 40),
        m=st.integers(1, 6),
        p=st.integers(1, 6),
        r=st.integers(1, 5),
        theta=st.floats(-1.2, 1.2),
        eps=st.floats(0.05, 0.3),
        seed=st.integers(0, 10_000),
    )
    def test_ard_matches_dense_on_random_bounded_systems(
        self, n, m, p, r, theta, eps, seed
    ):
        """For any oscillatory-window parameters, ARD on any rank count
        must match the dense reference to near machine precision."""
        if abs(theta) + 2 * eps >= 1.9:
            eps = (1.9 - abs(theta)) / 2 * 0.9
        mat, _ = helmholtz_block_system(n, m, theta=theta, eps=eps)
        b = random_rhs(n, m, nrhs=r, seed=seed)
        x = ARDFactorization(mat, nranks=p).solve(b)
        xref = dense_solve(mat, b)
        scale = max(1.0, float(np.max(np.abs(xref))))
        assert float(np.max(np.abs(x - xref))) / scale < 1e-7

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(4, 30),
        m=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_solver_family_agrees(self, n, m, seed):
        """RD, ARD and the references agree pairwise on random
        well-behaved systems — a differential test across the whole
        solver family."""
        from repro import solve

        mat, _ = helmholtz_block_system(n, m)
        b = random_rhs(n, m, nrhs=2, seed=seed)
        xs = {
            method: solve(mat, b, method=method, nranks=3)
            for method in ("ard", "rd", "dense", "banded")
        }
        ref = xs["dense"]
        for method, x in xs.items():
            np.testing.assert_allclose(x, ref, rtol=1e-6, atol=1e-9,
                                       err_msg=method)
