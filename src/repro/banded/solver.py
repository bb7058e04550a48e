"""Accelerated recursive doubling for block *banded* systems.

The generalization the tridiagonal paper points toward: with symmetric
block bandwidth ``b``, solving row ``i`` for its newest unknown
``x_{i+b}`` yields an order-``2b`` affine recurrence on the state

``t_i = [x_{i+b-1}; x_{i+b-2}; ...; x_{i-b}]``   (``2b`` blocks, newest first)

``t_{i+1} = A_i t_i + [g_i; 0; ...],    g_i = U_i^{-1} d_i``

with ``A_i`` the block companion of ``T_{i,j} = -U_i^{-1} A_{i, b-1-j}``
and ``U_i`` the outermost superdiagonal block (which must be
invertible).  Everything else is *unchanged* from the tridiagonal case:
affine maps of dimension ``2bM`` compose associatively, the traced
Kogge–Stone scan (:mod:`repro.core.scan_affine`, dimension-agnostic) is
reused verbatim for the factor/replay split, and the last ``b`` block
rows close the system with one ``bM x bM`` solve for
``X0 = [x_{b-1}; ...; x_0]``.

Costs: factor ``O((bM)^3 (N/P + log P) / b)``-ish (``2b`` products of
``M x 2bM`` per row locally, ``(2bM)^3`` per scan round), solve
``O((bM)^2 R (N/P + log P) / b)`` — the same R-fold acceleration.

Requirements: ``N >= 2b + 1``, invertible outermost superdiagonal
blocks, bounded transfer growth for accuracy (same law as the
tridiagonal case; iterative refinement applies through the shared
mixin).  Bandwidth 1 reproduces the tridiagonal ARD exactly (tested).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.refine import RefinableFactorization
from ..core.scan_affine import ScanTrace, affine_scan, replay_scan
from ..exceptions import ShapeError
from ..linalg.blockops import BatchedLU, gemm, invert_blocks
from ..prefix.affine import AffinePair
from ..util.partition import BlockPartition
from .matrix import BlockBandedMatrix

__all__ = [
    "BandedChunk",
    "BandedTransferOperators",
    "BandedARDRankState",
    "distribute_banded",
    "banded_ard_factor_spmd",
    "banded_ard_solve_spmd",
    "BandedARDFactorization",
]

_TAG_CLOSE_COEFF = 501
_TAG_CLOSE_RHS = 502


@dataclasses.dataclass
class BandedChunk:
    """One rank's contiguous block rows of a distributed banded matrix.

    ``rows[c, j]`` is band offset ``c - b`` of global row ``lo + j``.
    """

    nblocks: int
    bandwidth: int
    lo: int
    hi: int
    rows: np.ndarray  # (2b+1, h, M, M)

    def __post_init__(self) -> None:
        b = self.bandwidth
        h = self.hi - self.lo
        if not 0 <= self.lo <= self.hi <= self.nblocks:
            raise ShapeError(
                f"invalid row range [{self.lo}, {self.hi}) for N={self.nblocks}"
            )
        if self.rows.ndim != 4 or self.rows.shape[0] != 2 * b + 1 \
                or self.rows.shape[1] != h:
            raise ShapeError(
                f"rows must be ({2 * b + 1}, {h}, M, M), got {self.rows.shape}"
            )

    @property
    def nrows(self) -> int:
        """Owned block rows ``h``."""
        return self.hi - self.lo

    @property
    def block_size(self) -> int:
        """Block order ``M``."""
        return self.rows.shape[2]

    @property
    def ntransfer(self) -> int:
        """Owned transfer rows: global rows ``i < N - b``."""
        return max(0, min(self.hi, self.nblocks - self.bandwidth) - self.lo)

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the band storage."""
        return self.rows.dtype


def distribute_banded(matrix: BlockBandedMatrix, nranks: int) -> list[BandedChunk]:
    """Split a banded matrix into per-rank row chunks."""
    part = BlockPartition(nblocks=matrix.nblocks, nranks=nranks)
    return [
        BandedChunk(
            nblocks=matrix.nblocks,
            bandwidth=matrix.bandwidth,
            lo=lo,
            hi=hi,
            rows=matrix.bands[:, lo:hi].copy(),
        )
        for lo, hi in part
    ]


class BandedTransferOperators:
    """Per-chunk transfer coefficients ``T_{i,j}`` plus the ``U_i^{-1}``."""

    __slots__ = ("lo", "ntransfer", "block_size", "bandwidth", "t", "uinv", "dtype")

    def __init__(self, chunk: BandedChunk):
        b = chunk.bandwidth
        m = chunk.block_size
        nt = chunk.ntransfer
        self.lo = chunk.lo
        self.ntransfer = nt
        self.block_size = m
        self.bandwidth = b
        self.dtype = chunk.dtype
        if nt > 0:
            outer = chunk.rows[2 * b, :nt]  # offset +b coefficients
            self.uinv = invert_blocks(outer, block_offset=chunk.lo)
            # T[i, j] = -U_i^{-1} A_{i, b-1-j}: coefficient of state slot j.
            self.t = np.empty((nt, 2 * b, m, m), dtype=chunk.dtype)
            for j in range(2 * b):
                offset_index = b + (b - 1 - j)  # band array index of A_{i, b-1-j}
                self.t[:, j] = -gemm(self.uinv, chunk.rows[offset_index, :nt])
        else:
            self.uinv = None
            self.t = np.empty((0, 2 * b, m, m), dtype=chunk.dtype)

    def g(self, d_rows: np.ndarray) -> np.ndarray:
        """``g_i = U_i^{-1} d_i`` for the chunk's transfer rows."""
        if self.ntransfer == 0:
            return np.empty(
                (0, self.block_size, d_rows.shape[2] if d_rows.ndim == 3 else 1),
                dtype=self.dtype,
            )
        return gemm(self.uinv, np.asarray(d_rows)[: self.ntransfer])


def _matrix_aggregate(ops: BandedTransferOperators) -> np.ndarray:
    """Composed matrix part of the chunk's transfers, ``(2bM, 2bM)``.

    Exploits the companion structure: only the top block row is new each
    step, the rest shift down — ``2b`` products of ``(M, 2bM)`` per row.
    """
    b, m = ops.bandwidth, ops.block_size
    dim = 2 * b * m
    window = [np.zeros((m, dim), dtype=ops.dtype) for _ in range(2 * b)]
    for j in range(2 * b):
        window[j][:, j * m:(j + 1) * m] = np.eye(m, dtype=ops.dtype)
    for i in range(ops.ntransfer):
        new = np.zeros((m, dim), dtype=ops.dtype)
        for j in range(2 * b):
            new += gemm(ops.t[i, j], window[j])
        window = [new] + window[:-1]
    return np.concatenate(window, axis=0)


def _vector_aggregate(ops: BandedTransferOperators, g_rows: np.ndarray
                      ) -> np.ndarray:
    """Composed vector part of the chunk's transfers, ``(2bM, R)``."""
    b, m = ops.bandwidth, ops.block_size
    r = g_rows.shape[2]
    window = [np.zeros((m, r), dtype=ops.dtype) for _ in range(2 * b)]
    for i in range(ops.ntransfer):
        new = g_rows[i].astype(ops.dtype, copy=True)
        for j in range(2 * b):
            new += gemm(ops.t[i, j], window[j])
        window = [new] + window[:-1]
    return np.concatenate(window, axis=0)


def _forward_rows(ops: BandedTransferOperators, g_rows: np.ndarray,
                  entry_state: np.ndarray, nrows: int, skip: int = 0
                  ) -> np.ndarray:
    """Recover the chunk's ``nrows`` solution rows from the entry state.

    ``entry_state`` is ``t_s`` (``2bM x R``) with ``s`` the number of
    transfers preceding this rank; block ``p`` of the state is
    ``x_{s + b - 1 - p}``.  ``skip = lo - s`` is nonzero only for ranks
    whose rows all lie in the transfer-free tail (``lo > N - b``), where
    every output row is read from the state directly; otherwise the
    first ``b`` rows come from the state and the rest from the
    recurrence.
    """
    b, m = ops.bandwidth, ops.block_size
    r = entry_state.shape[1]
    out = np.empty((nrows, m, r), dtype=np.result_type(ops.dtype, entry_state.dtype))
    window = [entry_state[j * m:(j + 1) * m] for j in range(2 * b)]
    first = min(nrows, b - skip)
    for j in range(first):
        out[j] = window[b - 1 - skip - j]
    for step in range(max(0, nrows - first)):
        new = g_rows[step].astype(out.dtype, copy=True)
        for j in range(2 * b):
            new += gemm(ops.t[step, j], window[j])
        window = [new] + window[:-1]
        out[first + step] = new
    return out


@dataclasses.dataclass
class BandedARDRankState:
    """Per-rank stored banded-ARD factorization."""

    chunk: BandedChunk
    ops: BandedTransferOperators
    trace: ScanTrace
    closing_rank: int
    ranges: list[tuple[int, int]]
    closing_lu: BatchedLU | None
    closing_rows: np.ndarray | None  # (b_close, 2b+1, M, M) at closing rank
    closing_positions: list[int] | None  # global indices of closing rows

    @property
    def nbytes(self) -> int:
        """Stored factorization footprint."""
        total = self.ops.t.nbytes + self.trace.nbytes
        if self.ops.uinv is not None:
            total += self.ops.uinv.nbytes
        if self.closing_lu is not None:
            total += self.closing_lu.nbytes
        return total


def _closing_owner_sends(comm, chunk: BandedChunk, ranges, closing_rank,
                         payload_rows: np.ndarray, tag: int):
    """Ship this rank's rows in ``[N-b, N)`` to the closing rank; on the
    closing rank, assemble them in global row order and return them."""
    n, b = chunk.nblocks, chunk.bandwidth
    window_lo = n - b
    my_lo = max(chunk.lo, window_lo)
    if my_lo < chunk.hi and comm.rank != closing_rank:
        comm.send(
            (my_lo, payload_rows[..., my_lo - chunk.lo: chunk.hi - chunk.lo, :, :]),
            closing_rank, tag,
        )
    if comm.rank != closing_rank:
        return None
    pieces: dict[int, np.ndarray] = {}
    if my_lo < chunk.hi:
        pieces[my_lo] = payload_rows[..., my_lo - chunk.lo: chunk.hi - chunk.lo, :, :]
    # Which other ranks own rows in the closing window?
    for rank, (lo, hi) in enumerate(ranges):
        if rank == comm.rank:
            continue
        if max(lo, window_lo) < hi:
            start, piece = comm.recv(source=rank, tag=tag)
            pieces[start] = piece
    ordered = [pieces[k] for k in sorted(pieces)]
    return np.concatenate(ordered, axis=-3)


def banded_ard_factor_spmd(comm, chunk: BandedChunk) -> BandedARDRankState:
    """Factor phase of banded ARD (matrix-only work, once per matrix)."""
    n, b, m = chunk.nblocks, chunk.bandwidth, chunk.block_size
    if n < 2 * b + 1:
        raise ShapeError(
            f"banded ARD needs N >= 2b+1 (N={n}, b={b}); use a dense or "
            "tridiagonal solver for tiny systems"
        )
    ops = BandedTransferOperators(chunk)
    agg = _matrix_aggregate(ops)
    pair = AffinePair(agg, np.zeros((agg.shape[0], 0), dtype=agg.dtype),
                      validate=False)
    result, trace = affine_scan(comm, pair, record=True)
    assert trace is not None

    ranges = comm.allgather((chunk.lo, chunk.hi))
    closing_rank = max(r for r, (lo, hi) in enumerate(ranges) if hi == n and lo < hi)

    closing_lu = None
    closing_rows = None
    closing_positions = None
    coeff = _closing_owner_sends(comm, chunk, ranges, closing_rank,
                                 chunk.rows, _TAG_CLOSE_COEFF)
    if comm.rank == closing_rank:
        closing_rows = coeff  # (2b+1, b, M, M): rows N-b .. N-1
        closing_positions = list(range(n - b, n))
        f_cols = result.inclusive.a[:, : b * m]   # maps X0 -> t_{N-b}
        k_mat = np.zeros((b * m, b * m), dtype=chunk.dtype)
        for r_idx, i in enumerate(closing_positions):
            for k in range(-b, b + 1):
                j = i + k
                if not 0 <= j < n:
                    continue
                coeff_block = closing_rows[b + k, r_idx]
                pos = (n - 1) - j  # block position of x_j inside t_{N-b}
                k_mat[r_idx * m:(r_idx + 1) * m, :] += gemm(
                    coeff_block, f_cols[pos * m:(pos + 1) * m, :]
                )
        closing_lu = BatchedLU(k_mat[None], block_offset=n - 1)
    return BandedARDRankState(
        chunk=chunk, ops=ops, trace=trace, closing_rank=closing_rank,
        ranges=ranges, closing_lu=closing_lu, closing_rows=closing_rows,
        closing_positions=closing_positions,
    )


def banded_ard_solve_spmd(comm, state: BandedARDRankState,
                          d_rows: np.ndarray) -> np.ndarray:
    """Solve phase of banded ARD (matrix–vector work per RHS batch)."""
    chunk = state.chunk
    n, b, m = chunk.nblocks, chunk.bandwidth, chunk.block_size
    d_rows = np.asarray(d_rows)
    if d_rows.ndim != 3 or d_rows.shape[:2] != (chunk.nrows, m):
        raise ShapeError(
            f"rhs rows must be ({chunk.nrows}, {m}, R), got {d_rows.shape}"
        )
    r = d_rows.shape[2]
    g_rows = state.ops.g(d_rows)
    q_agg = _vector_aggregate(state.ops, g_rows)
    q_inc, q_exc = replay_scan(comm, q_agg, state.trace)

    d_close = _closing_owner_sends(
        comm, chunk, state.ranges, state.closing_rank,
        d_rows[None, ...], _TAG_CLOSE_RHS,
    )
    x0 = None
    if comm.rank == state.closing_rank:
        d_close = d_close[0]  # (b, M, R)
        rhs = np.empty((b * m, r), dtype=q_inc.dtype)
        for r_idx, i in enumerate(state.closing_positions):
            acc = d_close[r_idx].astype(q_inc.dtype, copy=True)
            for k in range(-b, b + 1):
                j = i + k
                if not 0 <= j < n:
                    continue
                pos = (n - 1) - j
                acc -= gemm(state.closing_rows[b + k, r_idx],
                            q_inc[pos * m:(pos + 1) * m])
            rhs[r_idx * m:(r_idx + 1) * m] = acc
        x0 = state.closing_lu.solve(
            rhs.reshape(1, b * m, r)
        )[0]
    x0 = comm.bcast(x0, root=state.closing_rank)

    entry = gemm(state.trace.a_exclusive[:, : b * m], x0) + q_exc
    # Entry state is t_s with s = transfers preceding this rank; for
    # ranks entirely inside the transfer-free tail (lo > N - b) the
    # state index saturates at N - b.
    s = min(chunk.lo, n - b)
    return _forward_rows(state.ops, g_rows, entry, chunk.nrows,
                         skip=chunk.lo - s)


class BandedARDFactorization(RefinableFactorization):
    """Driver-level banded ARD: factor once, solve many.

    Example
    -------
    >>> import numpy as np
    >>> from repro.banded import BandedARDFactorization
    >>> from repro.workloads import banded_oscillatory_system, random_rhs
    >>> A, _ = banded_oscillatory_system(24, 3, bandwidth=2)
    >>> F = BandedARDFactorization(A, nranks=4)
    >>> bvec = random_rhs(24, 3, nrhs=5, seed=0)
    >>> bool(A.residual(F.solve(bvec), bvec) < 1e-9)
    True
    """

    def __init__(self, matrix: BlockBandedMatrix, nranks: int = 1,
                 cost_model=None):
        from ..comm import run_spmd

        if not isinstance(matrix, BlockBandedMatrix):
            raise ShapeError(
                f"matrix must be a BlockBandedMatrix, got {type(matrix).__name__}"
            )
        if nranks < 1:
            raise ShapeError(f"nranks must be >= 1, got {nranks}")
        self.matrix = matrix
        self.nblocks = matrix.nblocks
        self.block_size = matrix.block_size
        self.bandwidth = matrix.bandwidth
        self.nranks = nranks
        self.cost_model = cost_model
        self._run_spmd = run_spmd
        chunks = distribute_banded(matrix, nranks)
        self.factor_result = run_spmd(
            banded_ard_factor_spmd, nranks,
            cost_model=cost_model, copy_messages=False,
            rank_args=[(c,) for c in chunks],
        )
        self._states = list(self.factor_result.values)
        self.last_solve_result = None

    @property
    def factor_virtual_time(self) -> float:
        """Modelled parallel time of the factor phase."""
        return self.factor_result.virtual_time

    @property
    def nbytes(self) -> int:
        """Total stored factorization footprint across ranks."""
        return sum(s.nbytes for s in self._states)

    def _solve_normalized(self, bb: np.ndarray) -> np.ndarray:
        part = BlockPartition(nblocks=self.nblocks, nranks=self.nranks)
        d_chunks = [bb[lo:hi].copy() for lo, hi in part]
        result = self._run_spmd(
            banded_ard_solve_spmd, self.nranks,
            cost_model=self.cost_model, copy_messages=False,
            rank_args=[(s, d) for s, d in zip(self._states, d_chunks)],
        )
        self.last_solve_result = result
        pieces = [v for v in result.values if v.shape[0] > 0]
        return np.concatenate(pieces, axis=0)
