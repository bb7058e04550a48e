"""Accelerated recursive doubling for block *banded* systems.

A matrix of symmetric block bandwidth ``b`` is block tridiagonal in
super-blocks of order ``bM``: super-row ``I`` groups block rows
``bI .. bI + b - 1`` (:meth:`~repro.banded.matrix.BlockBandedMatrix.
to_block_tridiagonal`, which pads the last super-row with zero-valued
unknowns when ``b`` does not divide ``N``).  So the paper's ARD solves
it unchanged: :class:`BandedARDFactorization` factors the regrouped
matrix with one :class:`~repro.core.ard.ARDFactorization` and solves
through it, with the tridiagonal solver's kernel, stored state and
backend parity.

The recurrence needs each super-diagonal super-block ``U'_I`` to be
invertible.  ``U'_I`` is lower block triangular with the outermost
blocks ``A_{i,i+b}`` of rows ``bI .. bI + b - 1`` on its diagonal (pad
rows contribute identity blocks), so it is invertible exactly when
those blocks are; a singular one raises
:class:`~repro.exceptions.SingularBlockError` naming row ``i``.  The
singularity threshold applies to ``U'_I`` as a whole, whose condition
number is at least that of each diagonal block.  Any ``N >= 1`` is
accepted.  Accuracy follows the tridiagonal law (bounded
transfer growth; iterative refinement applies through the shared mixin,
against the banded matrix).  Bandwidth 1 is the tridiagonal ARD itself:
its solutions are bitwise those of ``ARDFactorization`` (tested).

Costs are those of ARD at block order ``bM`` over ``N/b`` rows: factor
``O(b^2 M^3 (N/P + b log P))``, solve ``O(b M^2 R (N/P + b log P))`` —
the same R-fold acceleration.
"""

from __future__ import annotations

import numpy as np

from ..core.ard import ARDFactorization
from ..core.refine import RefinableFactorization
from ..exceptions import ShapeError, SingularBlockError
from ..linalg.blockops import invert_blocks
from .matrix import BlockBandedMatrix

__all__ = ["BandedARDFactorization"]


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
        if not isinstance(matrix, BlockBandedMatrix):
            raise ShapeError(
                f"matrix must be a BlockBandedMatrix, got {type(matrix).__name__}"
            )
        self.matrix = matrix
        self.nblocks = matrix.nblocks
        self.block_size = matrix.block_size
        self.bandwidth = matrix.bandwidth
        self.nranks = nranks
        self.cost_model = cost_model
        try:
            self._ard = ARDFactorization(matrix.to_block_tridiagonal(),
                                         nranks=nranks, cost_model=cost_model)
        except SingularBlockError as exc:
            raise self._row_error(exc) from exc
        # Refinement runs against the banded matrix and the inner solve
        # reads only its rank states, so the regrouped copy is not kept.
        self._ard.matrix = None

    def _row_error(self, exc: SingularBlockError) -> SingularBlockError:
        """Re-point an error about super-row ``I`` at the first row
        ``bI .. bI + b - 1`` whose outermost block is singular.  An error
        no such block explains (the closing system, or a ``U'_I`` whose
        off-diagonal blocks dwarf its diagonal) names the last row of
        the super-row."""
        n, b = self.nblocks, self.bandwidth
        lo = b * exc.block_index
        for i in range(lo, min(lo + b, n - b)):
            try:
                invert_blocks(self.matrix.bands[2 * b, i:i + 1], block_offset=i)
            except SingularBlockError as row_exc:
                return row_exc
        hi = min(lo + b, n)
        return SingularBlockError(
            f"block rows {lo}..{hi - 1} (super-row {exc.block_index}): {exc}",
            block_index=hi - 1,
        )

    @property
    def factor_result(self):
        """SPMD result of the factor phase."""
        return self._ard.factor_result

    @property
    def last_solve_result(self):
        """SPMD result of the latest solve (``None`` before one)."""
        return self._ard.last_solve_result

    @property
    def factor_virtual_time(self) -> float:
        """Modelled parallel time of the factor phase."""
        return self._ard.factor_virtual_time

    @property
    def nbytes(self) -> int:
        """Total stored factorization footprint across ranks."""
        return self._ard.nbytes

    def _solve_normalized(self, bb: np.ndarray) -> np.ndarray:
        n, m, b = self.nblocks, self.block_size, self.bandwidth
        nsup = self._ard.nblocks
        if b * nsup > n:
            bb = np.concatenate(
                [bb, np.zeros((b * nsup - n, m, bb.shape[2]), dtype=bb.dtype)])
        x = self._ard.solve(bb.reshape(nsup, b * m, bb.shape[2]))
        return x.reshape(b * nsup, m, -1)[:n]
