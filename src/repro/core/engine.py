"""Shared phases of the recursive doubling solvers.

Both RD and ARD execute the same four phases (DESIGN.md, "The
algorithms"); this module implements each phase once so the two solvers
differ only in *when* the matrix work happens:

1. **Local build** — transfer operators + chunk aggregates
   (:mod:`repro.core.recurrence`).
2. **Scan** — recursive-doubling prefix over chunk aggregates
   (:mod:`repro.core.scan_affine`).
3. **Closing solve** — the ``M x M`` system that pins down ``x_0`` from
   the last block row, then a broadcast (:func:`closing_matrix`,
   :func:`closing_rhs`, :func:`broadcast_x0`).
4. **Back-substitution** — entry states + the local rows ``f + E s_lo``
   (:func:`entry_state`, :func:`repro.core.recurrence.forward_solution`).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from ..linalg.blockops import BatchedLU, gemm
from ..obs import span as _span
from ..prefix.affine import AffinePair
from .distribute import LocalChunk

__all__ = [
    "find_closing_rank",
    "closing_matrix",
    "closing_rhs",
    "factor_closing",
    "broadcast_x0",
    "entry_state",
    "validate_rhs_rows",
]


def validate_rhs_rows(owner, d_rows: np.ndarray) -> np.ndarray:
    """Check that ``d_rows`` matches the rows of ``owner`` (a
    :class:`LocalChunk`, or a rank state with its ``nrows`` and
    ``block_size``); return as array."""
    d_rows = np.asarray(d_rows)
    if d_rows.ndim != 3 or d_rows.shape[:2] != (owner.nrows, owner.block_size):
        raise ShapeError(
            f"rhs rows must be ({owner.nrows}, {owner.block_size}, R), "
            f"got {d_rows.shape}"
        )
    if d_rows.shape[2] < 1:
        raise ShapeError("at least one right-hand side is required")
    return d_rows


def find_closing_rank(comm, chunk: LocalChunk) -> int:
    """Rank owning the closing (last) block row.  One tiny allgather."""
    with _span("find_closing_rank", cat="detail"):
        flags = comm.allgather(bool(chunk.owns_closing_row))
    try:
        return flags.index(True)
    except ValueError:  # pragma: no cover - impossible for valid chunks
        raise ShapeError("no rank owns the closing row") from None


def closing_matrix(chunk: LocalChunk, a_inclusive: np.ndarray) -> np.ndarray:
    """Assemble the closing system ``K = D_{N-1} E1 + L_{N-1} E2``.

    ``a_inclusive`` is the closing rank's inclusive matrix prefix: its
    top-left ``M x M`` block ``E1`` maps ``x_0`` to ``x_{N-1}`` and its
    bottom-left block ``E2`` maps ``x_0`` to ``x_{N-2}`` (the bottom
    half of the state ``s_{N-1}``).
    """
    m = chunk.block_size
    if a_inclusive.shape != (2 * m, 2 * m):
        raise ShapeError(
            f"inclusive prefix must be ({2 * m}, {2 * m}), got {a_inclusive.shape}"
        )
    e1 = a_inclusive[:m, :m]
    e2 = a_inclusive[m:, :m]
    d_last = chunk.diag[-1]
    l_last = chunk.sub[-1]  # zero block when N == 1; harmless
    return gemm(d_last, e1) + gemm(l_last, e2)


def closing_rhs(d_block: np.ndarray, l_block: np.ndarray,
                b_inclusive: np.ndarray, d_last: np.ndarray) -> np.ndarray:
    """Right-hand side of the closing system.

    ``d_block`` and ``l_block`` are the closing row's ``D_{N-1}`` and
    ``L_{N-1}``; ``b_inclusive`` is the closing rank's ``(2M, R)``
    inclusive vector prefix (``f1`` on top, ``f2`` below); ``d_last`` is
    the last block row of the global right-hand side, shape ``(M, R)``.
    """
    m = d_block.shape[0]
    f1 = b_inclusive[:m]
    f2 = b_inclusive[m:]
    return d_last - gemm(d_block, f1) - gemm(l_block, f2)


def broadcast_x0(comm, closing_rank: int, x0: np.ndarray | None) -> np.ndarray:
    """Broadcast ``x_0`` (shape ``(M, R)``) from the closing rank."""
    return comm.bcast(x0, root=closing_rank)


def entry_state(exclusive: AffinePair | None, a_exclusive: np.ndarray,
                b_exclusive: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Chunk entry state ``s_lo = A_exc[:, :M] @ x_0 + b_exc``.

    Only the first ``M`` columns of the exclusive matrix prefix matter
    because the global initial state is ``s_0 = [x_0; 0]``.

    ``exclusive`` may be passed instead of the raw arrays (convenience
    for the fused RD pass).
    """
    if exclusive is not None:
        a_exclusive = exclusive.a
        b_exclusive = exclusive.b
    m = x0.shape[0]
    return gemm(a_exclusive[:, :m], x0) + b_exclusive


def factor_closing(chunk: LocalChunk, a_inclusive: np.ndarray) -> BatchedLU:
    """Factor the closing matrix once (stored by ARD, rebuilt by RD).

    A singular/ill-conditioned closing matrix almost always means the
    composed transfer products overflowed double precision — the system
    is outside recursive doubling's stability domain — so the error is
    re-raised with that hint.
    """
    from ..exceptions import SingularBlockError

    try:
        with _span("factor_closing", cat="detail"):
            k = closing_matrix(chunk, a_inclusive)
            return BatchedLU(k[None, :, :], block_offset=chunk.nblocks - 1)
    except SingularBlockError as exc:
        raise SingularBlockError(
            "closing system is singular to working precision; the "
            "transfer-product growth of this matrix likely exceeds what "
            "double precision can represent (run "
            "repro.core.diagnostics.diagnose(matrix) and see the "
            "stability caveat in DESIGN.md; method='thomas' or 'cyclic' "
            "handle diagonally dominant systems of any length)",
            block_index=chunk.nblocks - 1,
        ) from exc
