"""Classical recursive doubling (RD) — the paper's baseline.

RD solves one block tridiagonal system by a parallel prefix over the
transfer-map recurrence.  Per invocation it performs the full
``O(M^3 (N/P + log P))`` matrix work: building transfer operators,
composing chunk aggregates, and scanning ``(2M, 2M)`` matrices across
ranks.  When ``R`` right-hand sides share the matrix, the baseline
simply repeats this per RHS — ``O(R M^3 (N/P + log P))`` total — which
is exactly the sub-optimality the accelerated algorithm removes.

SPMD entry point: :func:`rd_solve_spmd` (driver wrappers live in
:mod:`repro.core.api`).
"""

from __future__ import annotations

import numpy as np

from ..obs import span as _span
from ..prefix.affine import AffinePair
from .distribute import LocalChunk
from .engine import (
    broadcast_x0,
    closing_rhs,
    entry_state,
    factor_closing,
    find_closing_rank,
    validate_rhs_rows,
)
from .recurrence import (
    TransferOperators,
    forward_solution,
    local_matrix_aggregate,
    local_vector_aggregate,
)
from .scan_affine import affine_scan

__all__ = ["rd_solve_spmd", "rd_single_pass"]


def rd_single_pass(
    comm, chunk: LocalChunk, d_rows: np.ndarray, closing_rank: int
) -> np.ndarray:
    """One full RD pass: matrix + vector prefix fused, as in classic RD.

    ``d_rows`` is this rank's ``(h, M, r)`` slice of the right-hand
    side; classic RD uses ``r = 1``.  All matrix work (transfer
    operators, aggregates, matrix scan, closing factorization) is
    redone inside this call — that is the baseline's defining cost.
    The vector work is ARD's per-RHS kernel, the lockstep sub-chunk
    recurrence of :func:`~repro.core.recurrence.local_vector_aggregate`,
    so the two methods differ only in what they repeat.
    """
    with _span("build"):
        ops = TransferOperators(chunk)
        a_agg = local_matrix_aggregate(ops)
        b_agg, f = local_vector_aggregate(ops, d_rows)
        pair = AffinePair(a_agg, b_agg, validate=False)
    with _span("scan"):
        result, _ = affine_scan(comm, pair, record=False)

    with _span("closing"):
        x0 = None
        if comm.rank == closing_rank:
            lu = factor_closing(chunk, result.inclusive.a)
            rhs = closing_rhs(chunk.diag[-1], chunk.sub[-1],
                              result.inclusive.b, d_rows[-1])
            x0 = lu.solve(rhs[None, :, :])[0]
        x0 = broadcast_x0(comm, closing_rank, x0)

    with _span("backsub"):
        s_lo = entry_state(result.exclusive, None, None, x0)
        return forward_solution(ops, f, s_lo, chunk.nrows)


def rd_solve_spmd(comm, chunk: LocalChunk, d_rows: np.ndarray) -> np.ndarray:
    """Solve with classical RD, one independent pass per right-hand side.

    Parameters
    ----------
    comm:
        The rank's communicator.
    chunk:
        This rank's :class:`~repro.core.distribute.LocalChunk`.
    d_rows:
        ``(h, M, R)`` local right-hand-side rows.

    Returns
    -------
    ``(h, M, R)`` local solution rows.

    Notes
    -----
    Each of the ``R`` columns triggers a complete RD pass including all
    ``O(M^3)`` work — faithfully reproducing the baseline whose
    sub-optimality the paper quantifies.  Use
    :func:`repro.core.ard.ard_factor_spmd` /
    :func:`~repro.core.ard.ard_solve_spmd` for the accelerated path.
    """
    d_rows = validate_rhs_rows(chunk, d_rows)
    with _span("setup"):
        closing_rank = find_closing_rank(comm, chunk)
    nrhs = d_rows.shape[2]
    out = np.empty(
        (chunk.nrows, chunk.block_size, nrhs),
        dtype=np.result_type(chunk.dtype, d_rows.dtype),
    )
    for col in range(nrhs):
        out[:, :, col:col + 1] = rd_single_pass(
            comm, chunk, d_rows[:, :, col:col + 1], closing_rank
        )
    return out
