"""Kernel microbenchmark suite: vectorized vs reference block kernels.

Not a paper figure: these time the building blocks every experiment
rests on, at the kernel level where the vectorization PR claims its
wins, and persist one machine-readable baseline
(``results/BENCH_kernels.json``) per run:

- the transfer-block kernel (batched inverse, then ``gemm`` per
  solve) vs per-block SciPy LU factor + solve, across an ``(n, m, r)``
  grid;
- ARD's per-RHS recurrence phase (``g``, one trajectory solve, then
  ``f + E s_lo``) vs the two-pass row loop it replaced, across an
  ``(h, m, r)`` grid that crosses ``BAND_MAX_WORK``;
- :func:`repro.comm.fastcopy.fastcopy` vs ``copy.deepcopy`` on the
  message payloads the runtime actually ships.

The asserted floors sit below the numbers measured on the reference
x86 host (quoted inline) so that noisy CI runs pass while real
regressions still fail.  ``pytest benchmarks/bench_kernels.py`` runs
the whole suite; the comparison tests time manually (best-of-k), so
they are unaffected by ``--benchmark-disable``.
"""

import copy
import json
import time

import numpy as np
import pytest
import scipy.linalg

from repro.comm import run_spmd
from repro.comm.fastcopy import fastcopy
from repro.core.distribute import distribute_matrix
from repro.core.recurrence import (
    BAND_MAX_WORK,
    TransferOperators,
    forward_solution,
    local_vector_aggregate,
)
from repro.core.scan_affine import affine_scan
from repro.linalg.blockops import BatchedLU, gemm, invert_blocks
from repro.prefix import AffinePair
from repro.workloads import helmholtz_block_system

RNG = np.random.default_rng(0)

#: Floors asserted below (measured on the reference host: inverse +
#: gemm ~8x the per-block SciPy LU at (256, 8, 16), fastcopy ~9x on an
#: AffinePair; the per-RHS phase is quoted in docs/KERNELS.md).
LU_SPEEDUP_FLOOR = 3.0
PER_RHS_SPEEDUP_FLOOR = 1.3
WIDE_SPEEDUP_FLOOR = 1.0
FASTCOPY_SPEEDUP_FLOOR = 5.0

#: (n, m, r) grid for the transfer-kernel comparison; (256, 8, 16) is
#: the acceptance point, the other rows are recorded, not asserted.
LU_GRID = [(256, 8, 16), (1024, 4, 8), (64, 8, 16), (256, 16, 32), (128, 32, 32)]
LU_ACCEPTANCE = (256, 8, 16)

#: (h, m, r) grid for the per-RHS phase: both sides of
#: ``BAND_MAX_WORK`` (r * m = 128 here).  Thin panels (r <= 16) are
#: asserted at PER_RHS_SPEEDUP_FLOOR, the wide row at
#: WIDE_SPEEDUP_FLOOR (one row-loop pass against two); r = 32 and 64
#: are recorded only.
REC_GRID = [(64, 8, 1), (128, 8, 8), (256, 8, 16), (256, 16, 8),
            (256, 16, 16), (128, 8, 32), (512, 8, 64), (512, 8, 256)]
WIDE_ROW = (512, 8, 256)


def _best(fn, reps=7, inner=1):
    """Best-of-``reps`` wall seconds of ``inner`` calls to ``fn``."""
    out = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        out = min(out, (time.perf_counter() - t0) / inner)
    return out


def _blocks(n, m):
    return RNG.standard_normal((n, m, m)) + m * np.eye(m)


@pytest.fixture(scope="module")
def kernel_results(results_dir):
    """Accumulates each test's measurements; written once at teardown."""
    data = {}
    yield data
    path = results_dir / "BENCH_kernels.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestTransferKernel:
    def test_inverse_gemm_vs_lu_loop_grid(self, kernel_results):
        """The transfer blocks' kernel (``invert_blocks`` once, ``gemm``
        per solve) against per-block SciPy LU factor + solve
        (``scipy.linalg.lu_factor`` / ``lu_solve``, the asserted
        reference), factor and solve timed separately.  ``BatchedLU``,
        which calls the same LAPACK routines without the wrappers, is
        recorded alongside."""
        rows = []
        for n, m, r in LU_GRID:
            blocks = _blocks(n, m)
            rhs = RNG.standard_normal((n, m, r))
            inv = invert_blocks(blocks)
            factors = [scipy.linalg.lu_factor(x) for x in blocks]
            lu = BatchedLU(blocks)
            times = {
                "inverse": (_best(lambda: invert_blocks(blocks)),
                            _best(lambda: gemm(inv, rhs))),
                "scipy_lu": (
                    _best(lambda: [scipy.linalg.lu_factor(x, check_finite=False)
                                   for x in blocks]),
                    _best(lambda: [scipy.linalg.lu_solve(f, y, check_finite=False)
                                   for f, y in zip(factors, rhs)])),
                "batched_lu": (_best(lambda: BatchedLU(blocks)),
                               _best(lambda: lu.solve(rhs))),
            }
            speedup = sum(times["scipy_lu"]) / sum(times["inverse"])
            row = {"n": n, "m": m, "r": r}
            for kernel, (t_factor, t_solve) in times.items():
                row[f"{kernel}_factor_s"] = t_factor
                row[f"{kernel}_solve_s"] = t_solve
            row["speedup_vs_scipy_lu"] = speedup
            row["speedup_vs_batched_lu"] = (
                sum(times["batched_lu"]) / sum(times["inverse"]))
            rows.append(row)
            if (n, m, r) == LU_ACCEPTANCE:
                assert speedup >= LU_SPEEDUP_FLOOR, (
                    f"inverse + gemm at (n,m,r)={LU_ACCEPTANCE} is "
                    f"{speedup:.2f}x the per-block SciPy LU factor+solve, "
                    f"below the {LU_SPEEDUP_FLOOR}x floor"
                )
        kernel_results["transfer_kernel"] = rows


def _two_pass_phase(ops, d, entry, nrows):
    """The per-RHS phase before the stored entry response: ``g``, then
    the vector aggregate from a zero state and the solution from the
    entry state, each a row loop of two ``gemm`` calls per row."""
    m, r = ops.block_size, d.shape[2]
    g = ops.g(d)
    v_cur = np.zeros((m, r))
    v_prev = np.zeros((m, r))
    for j in range(ops.ntransfer):
        v_new = gemm(ops.t1[j], v_cur) + gemm(ops.t2[j], v_prev) + g[j]
        v_prev, v_cur = v_cur, v_new
    agg = np.concatenate([v_cur, v_prev])
    out = np.empty((nrows, m, r))
    x_cur, x_prev = entry[:m], entry[m:]
    out[0] = x_cur
    for j in range(nrows - 1):
        x_new = gemm(ops.t1[j], x_cur) + gemm(ops.t2[j], x_prev) + g[j]
        x_prev, x_cur = x_cur, x_new
        out[j + 1] = x_cur
    return agg, out


def _one_pass_phase(ops, d, entry, nrows):
    """The per-RHS phase: ``g``, one trajectory solve, ``f + E s_lo``."""
    agg, f_rows = local_vector_aggregate(ops, ops.g(d))
    return agg, forward_solution(ops, f_rows, entry, nrows)


class TestPerRhsPhase:
    def test_one_pass_vs_two_pass_grid(self, kernel_results):
        """ARD's per-RHS recurrence work on one rank, against the
        two-pass row loop it replaced (kept above as the reference):
        ``?tbtrs`` up to ``BAND_MAX_WORK``, the one-gemm row loop
        above it, and ``f + E s_lo`` in place of the second pass."""
        rows = []
        for h, m, r in REC_GRID:
            mat, _ = helmholtz_block_system(h, m)
            ops = TransferOperators(distribute_matrix(mat, 1)[0])
            d = RNG.standard_normal((h, m, r))
            entry = RNG.standard_normal((2 * m, r))
            new = _one_pass_phase(ops, d, entry, h)
            old = _two_pass_phase(ops, d, entry, h)
            for a, b in zip(new, old):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
            t_old = _best(lambda: _two_pass_phase(ops, d, entry, h))
            t_new = _best(lambda: _one_pass_phase(ops, d, entry, h))
            speedup = t_old / t_new
            rows.append({
                "h": h, "m": m, "r": r,
                "kernel": "band" if r * m <= BAND_MAX_WORK else "loop",
                "two_pass_s": t_old, "one_pass_s": t_new,
                "speedup": speedup,
            })
            floor = (PER_RHS_SPEEDUP_FLOOR if r <= 16
                     else WIDE_SPEEDUP_FLOOR if (h, m, r) == WIDE_ROW
                     else None)
            if floor is not None:
                assert speedup >= floor, (
                    f"per-RHS phase at (h,m,r)=({h},{m},{r}) is "
                    f"{speedup:.2f}x the two-pass row loop, below the "
                    f"{floor}x floor"
                )
        kernel_results["per_rhs_phase"] = rows


class TestFastcopy:
    def test_fastcopy_vs_deepcopy(self, kernel_results):
        pair = AffinePair(
            RNG.standard_normal((16, 16)), RNG.standard_normal((16, 4))
        )
        structured = {
            "pair": pair,
            "rows": (RNG.standard_normal((8, 4, 4)), [np.arange(6.0)]),
        }
        rows = []
        for label, payload in [("affine_pair", pair),
                               ("structured_dict", structured)]:
            t_fast = _best(lambda: fastcopy(payload), reps=20, inner=200)
            t_deep = _best(lambda: copy.deepcopy(payload), reps=20, inner=200)
            rows.append({
                "payload": label,
                "fastcopy_s": t_fast,
                "deepcopy_s": t_deep,
                "speedup": t_deep / t_fast,
            })
        kernel_results["fastcopy"] = rows
        pair_speedup = rows[0]["speedup"]
        assert pair_speedup >= FASTCOPY_SPEEDUP_FLOOR, (
            f"fastcopy on an AffinePair is {pair_speedup:.1f}x deepcopy, "
            f"below the {FASTCOPY_SPEEDUP_FLOOR}x floor"
        )


# -- single-kernel timings (pytest-benchmark; no cross-backend claims) --


def test_batched_lu_factor(benchmark):
    blocks = _blocks(256, 16)
    result = benchmark(lambda: BatchedLU(blocks))
    assert result.n == 256


def test_batched_lu_solve(benchmark):
    lu = BatchedLU(_blocks(256, 16))
    rhs = RNG.standard_normal((256, 16, 32))
    out = benchmark(lambda: lu.solve(rhs))
    assert out.shape == (256, 16, 32)


def test_batched_gemm(benchmark):
    a = RNG.standard_normal((256, 16, 16))
    b = RNG.standard_normal((256, 16, 32))
    out = benchmark(lambda: gemm(a, b))
    assert out.shape == (256, 16, 32)


def test_affine_scan_p8(benchmark):
    dim = 32
    mats = RNG.standard_normal((8, dim, dim)) / dim

    def program(comm):
        pair = AffinePair(mats[comm.rank], np.zeros((dim, 0)))
        result, _ = affine_scan(comm, pair)
        return result.inclusive.a[0, 0]

    def run():
        return run_spmd(program, 8, copy_messages=False)

    result = benchmark(run)
    assert result.nranks == 8


def test_spmd_allreduce_roundtrip(benchmark):
    def program(comm):
        return comm.allreduce(comm.rank)

    out = benchmark(lambda: run_spmd(program, 8))
    assert out.values[0] == 28
