"""Sequential block Thomas algorithm (block LU without pivoting across
blocks).

The classic ``O(N M^3)`` factor / ``O(N M^2 R)`` solve baseline: on one
processor this is the algorithm RD competes against, and its factor/
solve split mirrors ARD's (which is why the harness reports both).

Factorization (forward elimination of the block bidiagonal structure):

``S_0 = D_0``;  ``S_i = D_i - L_i S_{i-1}^{-1} U_{i-1}``

storing LU factors of every Schur block ``S_i`` plus the premultiplied
``V_i = S_i^{-1} U_i``.  Solving then needs one forward sweep
(``c_i = S_i^{-1} (d_i - L_i c_{i-1})``) and one backward sweep
(``x_i = c_i - V_i x_{i+1}``) — matrix–vector work only.

Stable for block diagonally dominant systems (the same class targeted
by recursive doubling).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from ..linalg.blockops import BatchedLU, gemm
from ..linalg.blocktridiag import BlockTridiagonalMatrix
from .refine import RefinableFactorization

__all__ = ["ThomasFactorization", "thomas_solve"]


class ThomasFactorization(RefinableFactorization):
    """Factored block Thomas solver: factor once, solve many
    (``solve(b, refine=k)`` adds iterative refinement).

    Example
    -------
    >>> from repro.workloads import poisson_block_system, random_rhs
    >>> A, _ = poisson_block_system(8, 3)
    >>> F = ThomasFactorization(A)
    >>> b = random_rhs(8, 3, nrhs=2, seed=0)
    >>> x = F.solve(b)
    >>> bool(A.residual(x, b) < 1e-10)
    True
    """

    __slots__ = ("matrix", "nblocks", "block_size", "dtype", "_lower", "_slu", "_v")

    def __init__(self, matrix: BlockTridiagonalMatrix):
        if not isinstance(matrix, BlockTridiagonalMatrix):
            raise ShapeError(
                f"matrix must be a BlockTridiagonalMatrix, got {type(matrix).__name__}"
            )
        n, m = matrix.nblocks, matrix.block_size
        self.matrix = matrix
        self.nblocks = n
        self.block_size = m
        self.dtype = matrix.dtype
        self._lower = matrix.lower.copy()
        schur = np.empty((n, m, m), dtype=matrix.dtype)
        self._v = np.empty((max(n - 1, 0), m, m), dtype=matrix.dtype)
        schur[0] = matrix.diag[0]
        lus: list[BatchedLU] = []
        for i in range(n):
            if i > 0:
                # S_i = D_i - L_i * V_{i-1} with V_{i-1} = S_{i-1}^{-1} U_{i-1}.
                schur[i] = matrix.diag[i] - gemm(matrix.lower[i - 1], self._v[i - 1])
            lu = BatchedLU(schur[i][None, :, :], block_offset=i)
            lus.append(lu)
            if i < n - 1:
                self._v[i] = lu.solve(matrix.upper[i][None, :, :])[0]
        # Consolidate the per-block factors into one batch for fast solves.
        self._slu = BatchedLU.stack(lus)

    @property
    def nbytes(self) -> int:
        """Stored factorization footprint (Schur LU factors, ``V_i``,
        and the retained subdiagonal); used by the service-layer cache
        for byte-budget accounting."""
        return self._slu.nbytes + self._v.nbytes + self._lower.nbytes

    def _solve_normalized(self, bb: np.ndarray) -> np.ndarray:
        n, m = self.nblocks, self.block_size
        r = bb.shape[2]
        c = np.empty((n, m, r), dtype=np.result_type(self.dtype, bb.dtype))
        c[0] = self._slu.solve_one(0, bb[0])
        for i in range(1, n):
            c[i] = self._slu.solve_one(i, bb[i] - gemm(self._lower[i - 1], c[i - 1]))
        x = np.empty_like(c)
        x[n - 1] = c[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] = c[i] - gemm(self._v[i], x[i + 1])
        return x


def thomas_solve(matrix: BlockTridiagonalMatrix, b: np.ndarray) -> np.ndarray:
    """Convenience one-shot factor + solve."""
    return ThomasFactorization(matrix).solve(b)
