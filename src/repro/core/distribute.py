"""Distribution of a block tridiagonal system across simulated ranks.

A :class:`LocalChunk` is the per-rank view of the matrix: a contiguous
range of block rows ``[lo, hi)`` with uniform ``(h, M, M)`` storage for
the sub/diagonal/super blocks of those rows (rows that have no sub- or
super-diagonal neighbour — the global first and last rows — carry zero
blocks, which the recurrence treats correctly since ``x_{-1} := 0``).

The driver API in :mod:`repro.core.api` builds chunks with
:func:`distribute_matrix`, hands each rank a read-only view of its
right-hand-side rows with :func:`distribute_rhs`, and reassembles
solutions with :func:`gather_solution`; SPMD-level users can construct
chunks directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..exceptions import ShapeError
from ..linalg.blocktridiag import BlockTridiagonalMatrix
from ..util.partition import BlockPartition

__all__ = ["LocalChunk", "distribute_matrix", "distribute_rhs", "gather_solution"]


@dataclasses.dataclass
class LocalChunk:
    """One rank's block rows of a distributed block tridiagonal matrix.

    Attributes
    ----------
    nblocks:
        Global number of block rows ``N``.
    lo, hi:
        Global half-open row range owned by this rank (may be empty).
    diag, sub, sup:
        ``(hi - lo, M, M)`` batches: ``diag[j]`` is ``D_{lo+j}``,
        ``sub[j]`` is ``L_{lo+j}`` (zero when ``lo + j == 0``), and
        ``sup[j]`` is ``U_{lo+j}`` (zero when ``lo + j == N - 1``).
    """

    nblocks: int
    lo: int
    hi: int
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= self.nblocks:
            raise ShapeError(
                f"invalid row range [{self.lo}, {self.hi}) for N={self.nblocks}"
            )
        h = self.hi - self.lo
        for name in ("diag", "sub", "sup"):
            arr = getattr(self, name)
            if arr.ndim != 3 or arr.shape[0] != h or arr.shape[1] != arr.shape[2]:
                raise ShapeError(
                    f"{name} must be ({h}, M, M), got {arr.shape}"
                )
        if not (self.diag.shape == self.sub.shape == self.sup.shape):
            raise ShapeError("diag/sub/sup shapes disagree")

    @property
    def nrows(self) -> int:
        """Number of owned block rows ``h``."""
        return self.hi - self.lo

    @property
    def block_size(self) -> int:
        return self.diag.shape[1]

    @property
    def ntransfer(self) -> int:
        """Number of owned transfer maps: rows ``i`` with ``i < N - 1``.

        Row ``N - 1`` is the closing equation, not a transfer.
        """
        return max(0, min(self.hi, self.nblocks - 1) - self.lo)

    @property
    def owns_closing_row(self) -> bool:
        """Whether this rank owns global row ``N - 1``."""
        return self.lo <= self.nblocks - 1 < self.hi

    @property
    def dtype(self) -> np.dtype:
        return self.diag.dtype


def distribute_matrix(
    matrix: BlockTridiagonalMatrix, nranks: int
) -> list[LocalChunk]:
    """Split ``matrix`` into per-rank :class:`LocalChunk` views.

    Uses the balanced contiguous partition of
    :class:`repro.util.partition.BlockPartition`.  Ranks beyond the row
    count receive empty chunks and still participate in collectives.
    """
    n, m = matrix.nblocks, matrix.block_size
    part = BlockPartition(nblocks=n, nranks=nranks)
    chunks = []
    for rank in range(nranks):
        lo, hi = part.bounds(rank)
        h = hi - lo
        diag = matrix.diag[lo:hi].copy()
        sub = np.zeros((h, m, m), dtype=matrix.dtype)
        sup = np.zeros((h, m, m), dtype=matrix.dtype)
        if h:
            # L_i couples row i to i - 1 (none for row 0); U_i couples
            # row i to i + 1 (none for row N - 1).
            first = max(lo, 1)
            sub[first - lo:] = matrix.lower[first - 1:hi - 1]
            last = min(hi, n - 1)
            sup[:last - lo] = matrix.upper[lo:last]
        chunks.append(LocalChunk(nblocks=n, lo=lo, hi=hi, diag=diag, sub=sub, sup=sup))
    return chunks


def distribute_rhs(b: np.ndarray, nranks: int) -> list[np.ndarray]:
    """Split a normalized ``(N, M, R)`` right-hand side into row chunks.

    The chunks are read-only views of ``b``: nothing is copied, and a
    rank that writes into its rows raises ``ValueError``.
    """
    b = np.asarray(b)
    if b.ndim != 3:
        raise ShapeError(f"rhs must be (N, M, R), got {b.shape}")
    part = BlockPartition(nblocks=b.shape[0], nranks=nranks)
    chunks = [b[lo:hi] for lo, hi in part]
    for chunk in chunks:
        chunk.flags.writeable = False
    return chunks


def gather_solution(chunks: list[np.ndarray],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Assemble per-rank solution chunks into ``(N, M, R)``.

    Without ``out`` the chunks are concatenated.  With ``out``, chunk
    ``r`` belongs at the rows after chunks ``0..r-1``; a chunk that is
    already a view of ``out`` (written in place by its rank) stays
    where it is, and the others are copied in.
    """
    nonempty = [c for c in chunks if c.shape[0] > 0]
    if not nonempty:
        raise ShapeError("no solution rows to gather")
    if out is None:
        return np.concatenate(nonempty, axis=0)
    lo = 0
    for chunk in nonempty:
        hi = lo + chunk.shape[0]
        dst = out[lo:hi]
        if not np.may_share_memory(chunk, dst):
            dst[...] = chunk
        lo = hi
    if lo != out.shape[0]:
        raise ShapeError(f"gathered {lo} rows into an output of {out.shape[0]}")
    return out
