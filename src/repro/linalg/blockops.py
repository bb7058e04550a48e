"""Batched dense block operations with flop accounting.

All distributed solvers express their work in terms of a small set of
block kernels — batched matrix products, block inverses, block LU
factor/solve — so that (a) the NumPy implementations stay vectorized
over the batch of blocks a rank owns, and (b) the reconstructed
complexity experiments can compare *instrumented* flop counts against
the paper's formulas (every kernel calls
:func:`repro.util.flops.record_flops` with its count).

Each block role has exactly one kernel (docs/KERNELS.md):

:func:`invert_blocks`
    The transfer blocks ``U_i`` — the one large batch, applied to every
    right-hand side by ARD, RD, the banded ARD and the growth probe —
    are inverted once, so each ``g_i = U_i^{-1} d_i`` is a :func:`gemm`.
:class:`BatchedLU`
    Every other block (closing systems, Schur complements, cyclic
    reduction diagonals) keeps a pivoting LAPACK LU: one ``getrf`` per
    block, one ``getrs`` per block and solve.

Both raise :class:`~repro.exceptions.SingularBlockError` with the
global index (``block_offset`` + batch index) of the first non-finite
or singular block, and report kernel wall time through
:func:`repro.obs.kernel_time`.

Array conventions
-----------------
A *block batch* is an array of shape ``(n, m, m)``: ``n`` square blocks
of order ``m``.  A *vector batch* is ``(n, m, r)``: per-block dense
right-hand-side panels with ``r`` columns (``r`` = number of RHS, the
paper's ``R``).
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..config import get_config
from ..exceptions import ShapeError, SingularBlockError
from ..obs.tracer import kernel_time
from ..util.flops import gemm_flops, lu_flops, lu_solve_flops, record_flops

__all__ = [
    "as_block_batch",
    "gemm",
    "invert_blocks",
    "BatchedLU",
]

#: Serializes every ``getrs`` call.  SciPy's bundled OpenBLAS (0.3.30
#: with SciPy 1.17.1) corrupts the heap when several threads solve
#: against one LU at once with more than one BLAS thread; separate LUs
#: do not.  One module-level lock rather than one per ``BatchedLU``
#: keeps the factors picklable for the process backend.  Nothing else
#: is acquired while it is held.
_GETRS_LOCK = threading.Lock()  # repro: noqa[RC103]


def as_block_batch(a: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate and return ``a`` as a ``(n, m, m)`` block batch."""
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeError(
            f"{name} must have shape (n, m, m), got {a.shape}"
        )
    return a


def gemm(a: np.ndarray, b: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """Batched matrix product ``a @ b`` with flop accounting.

    Shapes broadcast like :func:`numpy.matmul`; the common cases here
    are ``(n,m,m) @ (n,m,m)`` and ``(n,m,m) @ (n,m,r)``.  The product
    is written into ``out`` when given.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    with kernel_time("kernel.gemm"):
        out = np.matmul(a, b, out=out)
    if get_config().flop_counting:
        m, k = a.shape[-2], a.shape[-1]
        r = b.shape[-1]
        record_flops("gemm", math.prod(out.shape[:-2]) * gemm_flops(m, k, r))
    return out


def _nonfinite_error(k: int) -> SingularBlockError:
    # NaN/inf inputs must fail loudly: NaN comparisons are always False,
    # so they would slip through a threshold check.
    return SingularBlockError(
        f"block {k} contains non-finite entries (upstream overflow)",
        block_index=k,
    )


def invert_blocks(blocks: np.ndarray, *, block_offset: int = 0) -> np.ndarray:
    """Inverses of a ``(n, m, m)`` block batch, checked for singularity.

    One batched ``numpy.linalg.inv`` (LAPACK ``gesv`` against the
    identity, looped over the batch in C).  Raises
    :class:`~repro.exceptions.SingularBlockError` for the first block
    (global index ``block_offset + i``) that has a non-finite entry, is
    exactly singular, or has a 1-norm reciprocal condition number
    ``1 / (||U||_1 ||U^{-1}||_1)`` below the configured
    ``singularity_rcond`` — exact, and free once the inverse exists.
    """
    blocks = as_block_batch(blocks, "blocks")
    n, m, _ = blocks.shape
    cfg = get_config()
    with kernel_time("kernel.lu"):
        finite = np.isfinite(blocks).all(axis=(1, 2))
        try:
            inv = np.linalg.inv(blocks) if finite.all() else None
        except np.linalg.LinAlgError:
            inv = None
        if inv is None:
            # The batched call names no block: invert one at a time and
            # leave a failing block NaN, so the check below reports the
            # first bad block of either kind.
            inv = np.full_like(blocks, np.nan)
            for i in np.flatnonzero(finite):
                try:
                    inv[i] = np.linalg.inv(blocks[i])
                except np.linalg.LinAlgError:
                    pass
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rcond = 1.0 / (np.abs(blocks).sum(axis=1).max(axis=1, initial=0.0)
                           * np.abs(inv).sum(axis=1).max(axis=1, initial=0.0))
        bad = ~(rcond >= cfg.singularity_rcond)  # NaN counts as bad
        if bad.any():
            i = int(np.argmax(bad))
            k = block_offset + i
            if not finite[i]:
                raise _nonfinite_error(k)
            raise SingularBlockError(
                f"block {k} is singular to working precision "
                f"(rcond = 1/(|U|_1 |U^-1|_1) = {np.nan_to_num(rcond[i]):.2e})",
                block_index=k,
            )
    if cfg.flop_counting:
        record_flops("lu", n * lu_flops(m))
        record_flops("trsm", n * lu_solve_flops(m, m))
    return inv


class BatchedLU:
    """Pivoting LU factors of a batch of square blocks, reusable across
    solves.

    One LAPACK ``getrf`` per block at construction, one ``getrs`` per
    block and solve, called directly (the ``scipy.linalg.lu_factor`` /
    ``lu_solve`` wrappers cost ~4x the LAPACK call at ``m = 8``).
    Holds every block that is not a transfer block (those are
    inverted, :func:`invert_blocks`): the closing systems of ARD/RD,
    the Thomas and SPIKE Schur complements, and the bcyclic and
    cyclic-reduction diagonals.

    Parameters
    ----------
    blocks:
        ``(n, m, m)`` batch to factor.  Raises
        :class:`~repro.exceptions.SingularBlockError` if a block's
        factors are non-finite or have a relative diagonal entry
        ``min |U_kk| / max |U_kk|`` below the configured
        ``singularity_rcond``.
    block_offset:
        Global index of ``blocks[0]``; only used to report *which*
        global block was singular.
    """

    __slots__ = ("n", "m", "dtype", "_lu", "_piv")

    def __init__(self, blocks: np.ndarray, *, block_offset: int = 0):
        blocks = as_block_batch(blocks, "blocks")
        self.n, self.m, _ = blocks.shape
        self.dtype = blocks.dtype
        self._lu = np.empty_like(blocks)
        self._piv = np.empty((self.n, self.m), dtype=np.int32)
        getrf, = get_lapack_funcs(("getrf",), (blocks,))
        with kernel_time("kernel.lu"):
            for i in range(self.n):
                # info > 0 (an exact zero pivot) is caught by the check
                # below, which also applies the configured threshold.
                self._lu[i], self._piv[i], _ = getrf(blocks[i])
        cfg = get_config()
        self._raise_if_singular(cfg.singularity_rcond, block_offset)
        if cfg.flop_counting:
            record_flops("lu", self.n * lu_flops(self.m))

    def _raise_if_singular(self, rcond: float, block_offset: int) -> None:
        if self._lu.size == 0:
            return
        nonfinite = ~np.isfinite(self._lu).all(axis=(1, 2))
        diag = np.abs(np.diagonal(self._lu, axis1=1, axis2=2))
        scale = diag.max(axis=1)
        dmin = diag.min(axis=1)
        with np.errstate(invalid="ignore"):
            bad = nonfinite | (scale == 0.0) | (dmin < rcond * scale)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        if nonfinite[i]:
            raise _nonfinite_error(block_offset + i)
        ratio = 0.0 if scale[i] == 0.0 else float(dmin[i] / scale[i])
        raise SingularBlockError(
            f"block {block_offset + i} is singular to working "
            f"precision (min |U_kk| / max |U_kk| = {ratio:.2e})",
            block_index=block_offset + i,
        )

    def solve(self, b: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Solve ``blocks[i] x[i] = b[i]`` for all ``i``.

        ``b`` may be ``(n, m)`` or ``(n, m, r)``.  ``transposed`` solves
        with ``blocks[i].T`` instead.
        """
        b = np.asarray(b)
        if b.shape[0] != self.n or b.shape[1] != self.m:
            raise ShapeError(
                f"rhs has shape {b.shape}, expected leading ({self.n}, {self.m}, ...)"
            )
        trans = 1 if transposed else 0
        out = np.empty_like(b, dtype=np.result_type(self.dtype, b.dtype))
        getrs, = get_lapack_funcs(("getrs",), (self._lu, b))
        with kernel_time("kernel.trsm"), _GETRS_LOCK:
            for i in range(self.n):
                out[i] = getrs(self._lu[i], self._piv[i], b[i], trans=trans)[0]
        if get_config().flop_counting:
            r = b.shape[2] if b.ndim == 3 else 1
            record_flops("trsm", self.n * lu_solve_flops(self.m, r))
        return out

    def solve_one(self, i: int, b: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Solve against a single factored block ``i``."""
        if not 0 <= i < self.n:
            raise ShapeError(f"block index {i} out of range [0, {self.n})")
        b = np.asarray(b)
        getrs, = get_lapack_funcs(("getrs",), (self._lu, b))
        with kernel_time("kernel.trsm"), _GETRS_LOCK:
            out = getrs(self._lu[i], self._piv[i], b,
                        trans=1 if transposed else 0)[0]
        if get_config().flop_counting:
            r = b.shape[1] if b.ndim == 2 else 1
            record_flops("trsm", lu_solve_flops(self.m, r))
        return out

    @property
    def nbytes(self) -> int:
        """On-wire size if shipped as a message payload."""
        return self._lu.nbytes + self._piv.nbytes

    def copy(self) -> "BatchedLU":
        return BatchedLU.stack([self])

    @classmethod
    def stack(cls, lus: "list[BatchedLU]") -> "BatchedLU":
        """One batch holding the factors of ``lus`` in order (copied);
        no refactorization."""
        merged = object.__new__(cls)
        merged.n = sum(lu.n for lu in lus)
        merged.m = lus[0].m
        merged.dtype = lus[0].dtype
        merged._lu = np.concatenate([lu._lu for lu in lus], axis=0)
        merged._piv = np.concatenate([lu._piv for lu in lus], axis=0)
        return merged
