"""Accelerated recursive doubling (ARD) — the paper's contribution.

ARD splits recursive doubling into a matrix-only **factor** phase and a
vector-only **solve** phase:

``ard_factor_spmd``
    Performs every RHS-independent computation once and stores it in an
    :class:`ARDRankState`: the transfer operators ``(T1, T2)`` and the
    inverses of the superdiagonal blocks ``U_i``, side by side in one
    array, the response ``E_loc`` of every row to its sub-chunk's entry
    state and the maps ``Ê`` from the chunk's entry state to each
    sub-chunk's (the last one, carried through the last sub-chunk, is
    the matrix aggregate), the scan trace of the matrix prefix
    (per-round matrix accumulators — see :mod:`repro.core.scan_affine`),
    the exclusive matrix prefix, and on the closing rank the factored
    closing system and the two closing-row blocks its right-hand side
    reads.  The matrix rows themselves are not kept.  Cost:
    ``O(M^3 (N/P + log P))``.

``ard_solve_spmd``
    For each batch of ``R`` right-hand sides performs only matrix–vector
    work against the stored state, which it never changes: the
    zero-entry states ``f`` (the lockstep sub-chunk kernel with
    ``U^{-1}`` folded into each step, at every panel width; their last
    two rows are the vector aggregate), the replayed vector scan
    (messages of ``O(M R)`` bytes), the closing back-solve, and the
    owned rows ``f + E s_lo``, written into the caller's solution
    array.  Cost: ``O(M^2 R (N/P + log P))``.

Solving ``R`` right-hand sides therefore costs
``O((M^3 + R M^2)(N/P + log P))`` instead of the baseline's
``O(R M^3 (N/P + log P))`` — the abstract's ``O(R)`` improvement
(saturating at ``Θ(M)`` once ``R >> M``; see DESIGN.md).

The driver-level :class:`ARDFactorization` wraps both phases behind a
LAPACK-style ``factor(...)``/``solve(b)`` interface.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..exceptions import ShapeError
from ..linalg.blockops import BatchedLU
from ..obs import span as _span
from ..prefix.affine import AffinePair
from ..util.partition import BlockPartition
from .distribute import LocalChunk, distribute_rhs, gather_solution
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
from .refine import RefinableFactorization
from .scan_affine import ScanTrace, affine_scan, replay_scan

__all__ = ["ARDRankState", "ard_factor_spmd", "ard_solve_spmd", "ARDFactorization"]


@dataclasses.dataclass
class ARDRankState:
    """Everything one rank stores between ARD factor and solve phases,
    and nothing the solve does not read.

    A rank holds ``(5 S b + 4 S) M^2`` numbers of transfer operators
    (``S``, ``b`` of :func:`~repro.core.recurrence.sub_chunks` for its
    ``t`` transfer rows), the scan trace, and on the closing rank the
    closing factors and blocks, all fixed at factor time: solves only
    read them.  :attr:`nbytes` counts every array it holds.

    Attributes
    ----------
    nrows, block_size:
        The rank's row count ``h`` and block order ``M`` (the shape
        each solve's right-hand-side rows must have).
    ops:
        Transfer operators — ``W = [T2, T1, U^{-1}]``, ``E_loc`` and
        ``Ê`` (:class:`~repro.core.recurrence.TransferOperators`).
    trace:
        Matrix-side record of the factor scan, replayed per solve.
    closing_rank:
        Rank owning the closing row (broadcast root).
    closing_lu:
        Factored closing system (only on the closing rank).
    closing_blocks:
        ``(D_{N-1}, L_{N-1})``, the closing row's blocks that
        :func:`~repro.core.engine.closing_rhs` reads (only on the
        closing rank).
    """

    nrows: int
    block_size: int
    ops: TransferOperators
    trace: ScanTrace
    closing_rank: int
    closing_lu: BatchedLU | None
    closing_blocks: tuple[np.ndarray, np.ndarray] | None

    @property
    def nbytes(self) -> int:
        """Bytes of every array the state holds."""
        total = self.ops.nbytes + self.trace.nbytes
        if self.closing_lu is not None:
            total += self.closing_lu.nbytes
        if self.closing_blocks is not None:
            total += sum(block.nbytes for block in self.closing_blocks)
        return total


def ard_factor_spmd(comm, chunk: LocalChunk) -> ARDRankState:
    """Factor phase: all matrix-only work, executed once per matrix.

    Returns the rank's :class:`ARDRankState`; every subsequent
    :func:`ard_solve_spmd` against this state must use a communicator
    with the same size and rank.
    """
    with _span("build"):
        ops = TransferOperators(chunk)
        a_agg = local_matrix_aggregate(ops)
        pair = AffinePair(
            a_agg, np.zeros((a_agg.shape[0], 0), dtype=a_agg.dtype),
            validate=False,
        )
    with _span("scan"):
        result, trace = affine_scan(comm, pair, record=True)
    assert trace is not None
    with _span("closing"):
        closing_rank = find_closing_rank(comm, chunk)
        closing_lu = closing_blocks = None
        if comm.rank == closing_rank:
            closing_lu = factor_closing(chunk, result.inclusive.a)
            closing_blocks = (chunk.diag[-1].copy(), chunk.sub[-1].copy())
    return ARDRankState(
        nrows=chunk.nrows,
        block_size=chunk.block_size,
        ops=ops,
        trace=trace,
        closing_rank=closing_rank,
        closing_lu=closing_lu,
        closing_blocks=closing_blocks,
    )


def ard_solve_spmd(comm, state: ARDRankState, d_rows: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Solve phase: matrix–vector work only, against the stored state.

    Parameters
    ----------
    comm:
        Communicator with the same geometry as the factor phase.
    state:
        This rank's :class:`ARDRankState`.
    d_rows:
        ``(h, M, R)`` local right-hand-side rows; any ``R >= 1``.  Only
        read.
    out:
        Optional C-contiguous ``(h, M, R)`` array the solution rows are
        written into.

    Returns
    -------
    ``(h, M, R)`` local solution rows (``out`` when given).
    """
    d_rows = validate_rhs_rows(state, d_rows)
    with _span("build"):
        b_agg, f = local_vector_aggregate(state.ops, d_rows)
    with _span("scan"):
        b_inc, b_exc = replay_scan(comm, b_agg, state.trace)

    with _span("closing"):
        x0 = None
        if comm.rank == state.closing_rank:
            if state.closing_lu is None:  # pragma: no cover - factor invariant
                raise ShapeError("closing rank is missing its factored system")
            rhs = closing_rhs(*state.closing_blocks, b_inc, d_rows[-1])
            x0 = state.closing_lu.solve(rhs[None, :, :])[0]
        x0 = broadcast_x0(comm, state.closing_rank, x0)

    with _span("backsub"):
        s_lo = entry_state(None, state.trace.a_exclusive, b_exc, x0)
        return forward_solution(state.ops, f, s_lo, state.nrows, out=out)


class ARDFactorization(RefinableFactorization):
    """Driver-level ARD factorization: factor once, solve many.

    Create with :func:`repro.core.api.factor` (or directly from a
    matrix).  Each :meth:`solve` spins up the same simulated rank
    geometry, replays the stored per-rank states, and returns the
    assembled solution; ``solve(b, refine=k)`` adds iterative
    refinement (see :mod:`repro.core.refine`).  Per-phase statistics are
    retained for the benchmark harness (``factor_result``,
    ``last_solve_result``).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.ard import ARDFactorization
    >>> from repro.workloads import poisson_block_system, random_rhs
    >>> A, _ = poisson_block_system(16, 4)
    >>> F = ARDFactorization(A, nranks=4)
    >>> b = random_rhs(16, 4, nrhs=8, seed=1)
    >>> x = F.solve(b)
    >>> bool(A.residual(x, b) < 1e-10)
    True
    """

    def __init__(self, matrix, nranks: int = 1, cost_model=None,
                 trace: bool = False, backend: str | None = None):
        from ..comm import run_spmd
        from ..linalg.blocktridiag import BlockTridiagonalMatrix
        from .distribute import distribute_matrix

        if not isinstance(matrix, BlockTridiagonalMatrix):
            raise ShapeError(
                "matrix must be a BlockTridiagonalMatrix, got "
                f"{type(matrix).__name__}"
            )
        if nranks < 1:
            raise ShapeError(f"nranks must be >= 1, got {nranks}")
        self.matrix = matrix
        self.nblocks = matrix.nblocks
        self.block_size = matrix.block_size
        self.dtype = matrix.dtype
        self.nranks = nranks
        self.cost_model = cost_model
        self.trace = trace
        self.backend = backend
        self._run_spmd = run_spmd
        chunks = distribute_matrix(matrix, nranks)
        self.factor_result = run_spmd(
            ard_factor_spmd,
            nranks,
            cost_model=cost_model,
            copy_messages=False,
            rank_args=[(c,) for c in chunks],
            trace=trace,
            backend=backend,
        )
        self._states: list[ARDRankState] = list(self.factor_result.values)
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
        # One solution array: each rank writes its own rows in place;
        # the ranks only read their views of ``bb``.
        x = np.empty((self.nblocks, self.block_size, bb.shape[2]),
                     dtype=np.result_type(self.dtype, bb.dtype))
        part = BlockPartition(nblocks=self.nblocks, nranks=self.nranks)
        x_chunks = [x[lo:hi] for lo, hi in part]
        d_chunks = distribute_rhs(bb, self.nranks)
        result = self._run_spmd(
            ard_solve_spmd,
            self.nranks,
            cost_model=self.cost_model,
            copy_messages=False,
            rank_args=list(zip(self._states, d_chunks, x_chunks)),
            trace=self.trace,
            backend=self.backend,
        )
        self.last_solve_result = result
        return gather_solution(list(result.values), out=x)
