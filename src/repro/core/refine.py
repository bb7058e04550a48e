"""Iterative refinement mixin for factorization objects.

Each refinement step multiplies the solution error by the solver's
contraction factor ``rho ~ eps * growth`` (recursive doubling's error
law, experiment recon-S1): ``k`` rounds leave ``~ rho^{k+1}``.  Whenever
``rho < 1`` — growth below ``~1/eps`` ≈ 1e15 — refinement therefore
converges to machine precision, dramatically extending the usable
domain of the recurrence-based solvers (one round suffices up to growth
``~1e8``, a few rounds up to ``~1e14``).  Beyond that the first solve
carries no correct digits and refinement diverges (tested).  All
factorization classes mix this in; pass ``refine=k`` to ``solve``.

Subclasses provide:

- ``self.matrix`` — the original :class:`BlockTridiagonalMatrix`
  (kept by reference for residual evaluation),
- ``self.nblocks`` / ``self.block_size``,
- ``_solve_normalized(bb)`` — solve for a normalized ``(N, M, R)``
  right-hand side, returning the same shape.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from ..linalg.blocktridiag import reshape_rhs, restore_rhs_shape

__all__ = ["RefinableFactorization"]


class RefinableFactorization:
    """Adds layout handling + iterative refinement to ``solve``."""

    def _solve_normalized(self, bb: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def solve(self, b: np.ndarray, refine: int = 0,
              max_batch: int | None = None) -> np.ndarray:
        """Solve ``A x = b``; optionally apply ``refine`` rounds of
        iterative refinement (``x += solve(b - A x)``).

        ``b`` accepts the layouts of
        :func:`repro.linalg.blocktridiag.reshape_rhs`; the solution is
        returned in the same layout.  ``max_batch`` caps the number of
        right-hand sides processed per internal pass (for memory-bounded
        solves with very large R; wider batches amortize per-pass
        latency better — see experiment abl-A2).  With no right-hand
        side (``R = 0``) the solution is empty and no rank runs.
        """
        if refine < 0:
            raise ShapeError(f"refine must be >= 0, got {refine}")
        if max_batch is not None and max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {max_batch}")
        bb, original = reshape_rhs(b, self.nblocks, self.block_size)
        if bb.shape[2] == 0:
            # No right-hand side: an empty solution, nothing launched.
            return restore_rhs_shape(np.empty(bb.shape, dtype=np.result_type(
                self.matrix.dtype, bb.dtype)), original)
        x = self._solve_batched(bb, max_batch)
        for _ in range(refine):
            residual = bb - self.matrix.matvec(x)
            x = x + self._solve_batched(residual, max_batch)
        return restore_rhs_shape(x, original)

    def _solve_batched(self, bb: np.ndarray, max_batch: int | None) -> np.ndarray:
        r = bb.shape[2]
        if max_batch is None or max_batch >= r:
            return self._solve_normalized(bb)
        pieces = [
            self._solve_normalized(bb[:, :, start:start + max_batch])
            for start in range(0, r, max_batch)
        ]
        return np.concatenate(pieces, axis=2)
