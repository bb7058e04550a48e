"""Kernel microbenchmark suite: vectorized vs reference block kernels.

Not a paper figure: these time the building blocks every experiment
rests on, at the kernel level where the vectorization PR claims its
wins, and persist one machine-readable baseline
(``results/BENCH_kernels.json``) per run:

- the transfer-block kernel (batched inverse, then ``gemm`` per
  solve) vs per-block SciPy LU factor + solve, across an ``(n, m, r)``
  grid;
- ARD's per-RHS recurrence phase (the zero-entry states, then
  ``f + E s_lo``) on its one kernel, the lockstep sub-chunk kernel
  with ``U^{-1}`` folded into its steps, against four references kept
  in this file (``g`` plus one LAPACK ``?tbtrs`` band solve, the
  narrow-panel kernel it replaced; the lockstep kernel after a
  separate ``g`` pass; the one-gemm-per-row loop; the two-pass row
  loop), across an ``(h, m, r)`` grid from one column to 256 that
  includes both benchmark workloads' shapes;
- :func:`repro.comm.fastcopy.fastcopy` vs ``copy.deepcopy`` on the
  message payloads the runtime actually ships.

The asserted floors sit below the numbers measured on the reference
x86 host (quoted inline) so that noisy CI runs pass while real
regressions still fail.  ``pytest benchmarks/bench_kernels.py`` runs
the whole suite; the comparison tests time manually (best-of-k, or for
fastcopy the median of per-round ratios), so they are unaffected by
``--benchmark-disable``.
"""

import copy
import json
import statistics
import time
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import get_lapack_funcs

import repro.core.recurrence as rec
from repro.comm import run_spmd
from repro.comm.fastcopy import fastcopy
from repro.core.distribute import distribute_matrix
from repro.core.recurrence import (
    TransferOperators,
    ZeroEntryStates,
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
#: AffinePair; the per-RHS kernels are quoted in docs/KERNELS.md).
LU_SPEEDUP_FLOOR = 3.0
PER_RHS_SPEEDUP_FLOOR = 1.3
WIDE_SPEEDUP_FLOOR = 1.0
LOCKSTEP_OVER_TBTRS_FLOOR = 1.3
LOCKSTEP_OVER_LOOP_FLOOR = 1.0
FOLDED_OVER_G_LOCKSTEP_FLOOR = 1.2
FASTCOPY_SPEEDUP_FLOOR = 5.0

#: Copies per timed call in the fastcopy comparison: one copy takes
#: microseconds, too short to time alone.
FASTCOPY_INNER = 200

#: Interleaved rounds of the fastcopy comparison; its speedup is the
#: median of the per-round ratios, which a few slow rounds cannot move.
FASTCOPY_ROUNDS = 60

#: (n, m, r) grid for the transfer-kernel comparison; (256, 8, 16) is
#: the acceptance point, the other rows are recorded, not asserted.
LU_GRID = [(256, 8, 16), (1024, 4, 8), (64, 8, 16), (256, 16, 32), (128, 32, 32)]
LU_ACCEPTANCE = (256, 8, 16)

#: (h, m, r) grid for the per-RHS phase.  (256, 8, 8) is a
#: ``service_burst`` batch on one rank and (512, 8, 16) an
#: ``ard_stream`` panel.  Asserted: the lockstep phase against the
#: two-pass loop for r <= 16 (PER_RHS_SPEEDUP_FLOOR) and at WIDE_ROW
#: (WIDE_SPEEDUP_FLOOR), the lockstep kernel against ``?tbtrs`` and
#: against ``g`` + lockstep (FOLDED_OVER_G_LOCKSTEP_FLOOR) at
#: LOCKSTEP_ROW and against the row loop at WIDE_ROW.  r = 32 and 64
#: and the NARROW_ROWS, one column at the lengths of both benchmark
#: workloads' chunks, are recorded only: they keep the cost of the
#: narrowest panels, where ``?tbtrs`` is the faster kernel, on record.
REC_GRID = [(64, 8, 1), (256, 8, 1), (512, 8, 1), (128, 8, 8),
            (256, 8, 4), (256, 8, 8), (256, 8, 16), (256, 16, 4),
            (256, 16, 8), (256, 16, 16), (128, 8, 32), (512, 8, 8),
            (512, 8, 16), (512, 8, 64), (512, 8, 256)]
NARROW_ROWS = [(256, 8, 1), (512, 8, 1)]
LOCKSTEP_ROW = (512, 8, 16)
WIDE_ROW = (512, 8, 256)


def _best(fn, reps=7):
    """Best-of-``reps`` wall seconds of one call to ``fn``."""
    out = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out = min(out, time.perf_counter() - t0)
    return out


def _best_interleaved(runs, reps=7):
    """Best-of-``reps`` wall seconds of each of ``runs`` (name ->
    callable), one call of every run per round, so a drift in host
    speed reaches all of them alike.  Rounds alternate direction, so
    each run follows a different one (and finds other data in cache)
    from round to round."""
    best = dict.fromkeys(runs, float("inf"))
    order = list(runs.items())
    for _ in range(reps):
        for name, fn in order:
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
        order.reverse()
    return best


def _median_ratio(num, den, rounds):
    """Median over ``rounds`` of ``num``'s wall seconds over ``den``'s.

    Each round times one call of each, back to back, and the order
    alternates from round to round, so a host that changes speed (or
    a benchmark run just before) moves both sides of a ratio alike.
    Returns ``(ratio, num_s, den_s)`` medians.
    """
    ratios, num_s, den_s = [], [], []
    for i in range(rounds):
        t = {}
        for fn in ((num, den) if i % 2 == 0 else (den, num)):
            t0 = time.perf_counter()
            fn()
            t[fn] = time.perf_counter() - t0
        ratios.append(t[num] / t[den])
        num_s.append(t[num])
        den_s.append(t[den])
    return (statistics.median(ratios), statistics.median(num_s),
            statistics.median(den_s))


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


def _entry_response(ops):
    """The chunk-wide ``E`` (``(t, M, 2M)``) the row loop needs:
    ``E_loc_j Ê_i``, with ``s_lo``'s halves in the stored order."""
    b, t = ops.sub_rows, ops.ntransfer
    return np.stack([ops.e[j] @ ops.e_hat[j // b] for j in range(t)])


def _row_loop_phase(ops, e_full, d, entry, nrows):
    """The per-RHS phase with one ``[T2_j, T1_j]`` gemm per row into a
    buffer with two zero lead rows, then ``f + E s_lo`` against the
    chunk-wide ``E``: the wide-panel kernel before the lockstep one."""
    m, r, t = ops.block_size, d.shape[2], ops.ntransfer
    g = ops.g(d)
    buf = np.zeros((t + 2, m, r))
    flat = buf.reshape((t + 2) * m, r)
    for j in range(t):
        row = buf[j + 2]
        np.matmul(ops.t21[j], flat[j * m:(j + 2) * m], out=row)
        row += g[j]
    f = buf[2:]
    agg = np.concatenate([f[-1], f[-2]])
    out = np.empty((nrows, m, r))
    out[0] = entry[:m]
    k = nrows - 1
    response = e_full[:k].reshape(k * m, 2 * m) @ entry
    np.add(f[:k], response.reshape(k, m, r), out=out[1:])
    return agg, out


def _g_then_lockstep(w, d, t, s, b):
    """The lockstep kernel before ``U^{-1}`` was folded into its steps:
    a separate ``g = U^{-1} d`` pass into a fresh array, then per step
    one ``[T2_l, T1_l] @ [y_{l-2}; y_{l-1}]`` gemm and an add of the
    ``g`` rows (one over the full sub-chunks, one for the last while it
    has rows).  Same signature and result as ``rec._lockstep``."""
    m, k = w.shape[1], d.shape[2]
    g = gemm(w[:t, :, 2 * m:], d[:t])
    rows = np.empty((s * b, m, k), dtype=np.result_type(w.dtype, d.dtype))
    rows[t:] = 0
    if t == 0:
        return rows
    full, tail = divmod(t, b)
    y = rows.reshape(s, b, m, k)
    head = g[:full * b].reshape(full, b, m, k)
    last = g[full * b:]
    y[:full, 0] = head[:, 0]
    if tail:
        y[full, 0] = last[0]
    t21 = w.reshape(s, b, m, 3 * m)[..., :2 * m]
    step = np.empty((s, m, k), dtype=rows.dtype)
    for row in range(1, b):
        if row == 1:
            np.matmul(t21[:, 1, :, m:], y[:, 0], out=step)
        else:
            np.matmul(t21[:, row], y[:, row - 2:row].reshape(s, 2 * m, k),
                      out=step)
        np.add(step[:full], head[:, row], out=y[:full, row])
        if row < tail:
            np.add(step[full], last[row], out=y[full, row])
    return rows


def _lower_band(t21):
    """The unit lower band of the trajectory system, LAPACK layout:
    column ``J M + b`` of the ``(3M, tM)`` Fortran-order result holds
    ``-T1_{J+1}[a, b]`` at offset ``M + a - b`` and ``-T2_{J+2}[a, b]``
    at offset ``2M + a - b``.  Built once per chunk, as the retired
    narrow-panel kernel kept it."""
    t, m, _ = t21.shape
    band = np.zeros((3 * m, t * m), dtype=t21.dtype, order="F")
    band[0] = 1.0
    cols = band.T.reshape(t, m, 3 * m)  # a C-order view: [J, b, offset]
    a, b = np.indices((m, m))
    cols[:max(t - 1, 0), b, m + a - b] = -t21[1:, a, m + b]
    cols[:max(t - 2, 0), b, 2 * m + a - b] = -t21[2:, a, b]
    return band


def _band_trajectory(band, rhs):
    """Solve the trajectory system for ``(t, M, k)`` ``rhs``: one
    ``?tbtrs`` call."""
    t, m, k = rhs.shape
    flat = rhs.reshape(t * m, k)
    tbtrs, = get_lapack_funcs(("tbtrs",), (band, flat))
    x, info = tbtrs(band, flat, uplo="L", diag="U")
    assert info == 0, f"{tbtrs.typecode}tbtrs failed with info={info}"
    return x.reshape(t, m, k)


def _tbtrs_states(ops, band, d):
    """The retired narrow-panel kernel: ``g = U^{-1} d`` and one
    ``?tbtrs`` call on ``band`` (:func:`_lower_band`).  Its rows are
    relative to the chunk's entry, so its sub-chunk entries are
    zero."""
    rows = _band_trajectory(band, ops.g(d))
    m, k = ops.block_size, d.shape[2]
    zero = np.zeros((2 * m, k), dtype=rows.dtype)
    return rec._exit_state(rows, zero), ZeroEntryStates(
        rows, np.zeros((ops.nsub, 2 * m, k), dtype=rows.dtype))


def _states(ops, d, kernel="lockstep", band=None):
    """The zero-entry states and the vector aggregate: ``lockstep`` as
    ARD computes them, ``g_lockstep`` the lockstep kernel after a
    separate ``g`` pass, ``tbtrs`` :func:`_tbtrs_states` on ``band``.
    Each runs inside the same patch of ``rec._lockstep``, so all pay
    its cost."""
    lockstep = _g_then_lockstep if kernel == "g_lockstep" else rec._lockstep
    with mock.patch.object(rec, "_lockstep", lockstep):
        if kernel == "tbtrs":
            return _tbtrs_states(ops, band, d)
        return local_vector_aggregate(ops, d)


def _phase(ops, d, entry, nrows, kernel="lockstep", band=None):
    """The per-RHS phase as ARD runs it: the zero-entry states
    (:func:`_states`), then ``f + E s_lo``."""
    agg, f = _states(ops, d, kernel, band)
    return agg, forward_solution(ops, f, entry, nrows)


class TestPerRhsPhase:
    def test_per_rhs_kernels_grid(self, kernel_results):
        """ARD's per-RHS recurrence work on one rank: the lockstep
        kernel and the four references kept above (``?tbtrs``, ``g`` +
        lockstep, the one-gemm row loop and the two-pass loop), each
        timed on the same panel, all rounds interleaved.  The band
        ``?tbtrs`` reads is built before the timing.  The folded
        lockstep kernel and ``g`` + lockstep are also timed without the
        solution rows they share (``*_states_s``), the step this floor
        is about; the floor row takes three times the rounds."""
        rows = []
        for h, m, r in REC_GRID:
            mat, _ = helmholtz_block_system(h, m)
            ops = TransferOperators(distribute_matrix(mat, 1)[0])
            e_full = _entry_response(ops)
            band = _lower_band(ops.t21[:ops.ntransfer])
            d = RNG.standard_normal((h, m, r))
            entry = RNG.standard_normal((2 * m, r))
            runs = {
                "tbtrs": partial(_phase, ops, d, entry, h, "tbtrs", band),
                "lockstep": partial(_phase, ops, d, entry, h, "lockstep"),
                "g_lockstep": partial(_phase, ops, d, entry, h, "g_lockstep"),
                "row_loop": partial(_row_loop_phase, ops, e_full, d, entry, h),
                "two_pass": partial(_two_pass_phase, ops, d, entry, h),
            }
            ref = runs["two_pass"]()
            for run in runs.values():
                for a, b in zip(run(), ref):
                    np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
            states = {f"{name}_states": partial(_states, ops, d, name)
                      for name in ("lockstep", "g_lockstep")}
            for run in states.values():
                np.testing.assert_allclose(run()[0], ref[0], rtol=1e-10,
                                           atol=1e-12)
            times = _best_interleaved(
                {**runs, **states},
                reps=21 if (h, m, r) == LOCKSTEP_ROW else 7)
            row = {"h": h, "m": m, "r": r}
            row.update({f"{name}_s": t for name, t in times.items()})
            row["lockstep_over_tbtrs"] = times["tbtrs"] / times["lockstep"]
            row["lockstep_over_g_lockstep"] = (times["g_lockstep_states"]
                                               / times["lockstep_states"])
            row["lockstep_over_row_loop"] = (times["row_loop"]
                                             / times["lockstep"])
            row["speedup_vs_two_pass"] = times["two_pass"] / times["lockstep"]
            rows.append(row)
            checks = []
            if r <= 16 and (h, m, r) not in NARROW_ROWS:
                checks.append(("speedup_vs_two_pass", PER_RHS_SPEEDUP_FLOOR,
                               "the lockstep phase over the two-pass "
                               "row loop"))
            if (h, m, r) == LOCKSTEP_ROW:
                checks.append(("lockstep_over_tbtrs",
                               LOCKSTEP_OVER_TBTRS_FLOOR,
                               "the lockstep kernel over ?tbtrs"))
                checks.append(("lockstep_over_g_lockstep",
                               FOLDED_OVER_G_LOCKSTEP_FLOOR,
                               "the folded lockstep kernel's zero-entry "
                               "states over g + lockstep's"))
            if (h, m, r) == WIDE_ROW:
                checks.append(("speedup_vs_two_pass", WIDE_SPEEDUP_FLOOR,
                               "the lockstep phase over the two-pass "
                               "row loop"))
                checks.append(("lockstep_over_row_loop",
                               LOCKSTEP_OVER_LOOP_FLOOR,
                               "the lockstep kernel over the row loop"))
            for key, floor, what in checks:
                assert row[key] >= floor, (
                    f"per-RHS phase at (h,m,r)=({h},{m},{r}): {what} is "
                    f"{row[key]:.2f}x, below the {floor}x floor"
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

        def copies(copier, payload):
            def run():
                for _ in range(FASTCOPY_INNER):
                    copier(payload)
            return run

        rows = []
        for label, payload in [("affine_pair", pair),
                               ("structured_dict", structured)]:
            speedup, t_deep, t_fast = _median_ratio(
                copies(copy.deepcopy, payload), copies(fastcopy, payload),
                FASTCOPY_ROUNDS)
            rows.append({
                "payload": label,
                "fastcopy_s": t_fast / FASTCOPY_INNER,
                "deepcopy_s": t_deep / FASTCOPY_INNER,
                "speedup": speedup,
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
