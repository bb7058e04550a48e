"""Batched dense block operations with flop accounting.

All distributed solvers express their work in terms of a small set of
block kernels — batched matrix products, batched LU factor/solve — so
that (a) the NumPy implementations stay vectorized over the batch of
blocks a rank owns, and (b) the reconstructed complexity experiments can
compare *instrumented* flop counts against the paper's formulas (every
kernel calls :func:`repro.util.flops.record_flops` with its textbook
count).

Two interchangeable backends sit behind :class:`BatchedLU` (selected by
``repro.config``'s ``blockops_backend``, see docs/KERNELS.md):

``"batched"`` (default)
    The pure-NumPy vectorized LU of :mod:`repro.linalg.batchlu` —
    Python-loop length ``m`` (block order), every step a full-batch
    operation.
``"scipy_loop"``
    The seed's one-``scipy``-call-per-block reference path, retained
    for cross-validation; factors are bit-interchangeable (both store
    LAPACK-convention ``(lu, piv)``).

Either way the facade owns the shared contract: singularity checks
(``singularity_rcond``, non-finite detection, ``block_offset`` in
errors), flop accounting, kernel wall-time counters
(:func:`repro.obs.kernel_time`), and ``nbytes``/``copy()``.

Array conventions
-----------------
A *block batch* is an array of shape ``(n, m, m)``: ``n`` square blocks
of order ``m``.  A *vector batch* is ``(n, m, r)``: per-block dense
right-hand-side panels with ``r`` columns (``r`` = number of RHS, the
paper's ``R``).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from ..config import (
    BLOCKOPS_BACKENDS,
    DEFAULT_VECTOR_SOLVE_MAX_WORK,
    get_config,
)
from ..exceptions import ConfigError, ShapeError, SingularBlockError
from ..obs.tracer import kernel_time
from ..util.flops import gemm_flops, lu_flops, lu_solve_flops, record_flops
from .batchlu import first_singular_block, lu_factor_batched, lu_solve_batched

__all__ = [
    "as_block_batch",
    "gemm",
    "gemm_add",
    "solve_blocks",
    "BatchedLU",
    "identity_blocks",
    "transpose_blocks",
]


#: Documented *default* of the width-aware substitution crossover: the
#: ``batched`` backend's :meth:`BatchedLU.solve` uses the vectorized
#: substitution of :mod:`repro.linalg.batchlu` while the per-block panel
#: work ``m * r`` stays at or below this bound.  Wider panels hand each
#: block to LAPACK ``getrs`` instead: the substitution's ``2m``
#: full-batch broadcast steps stream ``O(n m r)`` memory each, while a
#: per-block BLAS-3 solve on a large ``(m, r)`` panel amortizes its call
#: overhead.  The crossover measured on the reference x86 host is
#: ``m * r ~ 1000``; the shipped default sits at half that so hosts
#: with smaller caches never regret the vectorized path (see
#: docs/KERNELS.md).  The hot path reads the live
#: ``repro.config`` field ``vector_solve_max_work`` (this value is its
#: default), so per-host tuning (``python -m repro.harness tune``) and
#: ``config_context(vector_solve_max_work=...)`` both take effect
#: without touching this module.  Both backends store LAPACK-convention
#: factors, so the two substitutions are interchangeable per solve.
VECTOR_SOLVE_MAX_WORK = DEFAULT_VECTOR_SOLVE_MAX_WORK


def as_block_batch(a: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate and return ``a`` as a ``(n, m, m)`` block batch."""
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeError(
            f"{name} must have shape (n, m, m), got {a.shape}"
        )
    return a


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product ``a @ b`` with flop accounting.

    Shapes broadcast like :func:`numpy.matmul`; the common cases here
    are ``(n,m,m) @ (n,m,m)`` and ``(n,m,m) @ (n,m,r)``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    with kernel_time("kernel.gemm"):
        out = np.matmul(a, b)
    if get_config().flop_counting:
        m, k = a.shape[-2], a.shape[-1]
        r = b.shape[-1]
        batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
        record_flops("gemm", batch * gemm_flops(m, k, r))
    return out


def gemm_add(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Fused ``a @ b + c`` (allocates the product, adds in place)."""
    out = gemm(a, b)
    out += c
    if get_config().flop_counting:
        record_flops("axpy", int(np.prod(out.shape, dtype=np.int64)))
    return out


def identity_blocks(n: int, m: int, dtype=None) -> np.ndarray:
    """``(n, m, m)`` batch of identity blocks."""
    dtype = dtype or get_config().dtype
    out = np.zeros((n, m, m), dtype=dtype)
    idx = np.arange(m)
    out[:, idx, idx] = 1
    return out


def transpose_blocks(a: np.ndarray) -> np.ndarray:
    """Blockwise transpose of a ``(n, m, m)`` batch."""
    return np.swapaxes(np.asarray(a), -1, -2)


def solve_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One-shot batched solve ``a[i] x[i] = b[i]`` via LAPACK ``gesv``.

    Prefer :class:`BatchedLU` when the same blocks will be solved
    against repeatedly (the whole point of the ARD factorization).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    try:
        out = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"singular block in batched solve: {exc}") from exc
    if get_config().flop_counting:
        m = a.shape[-1]
        r = b.shape[-1] if b.ndim == a.ndim else 1
        batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
        record_flops("lu", batch * lu_flops(m))
        record_flops("trsm", batch * lu_solve_flops(m, r))
    return out


class BatchedLU:
    """LU factorizations of a batch of square blocks, reusable across
    solves.

    This is the storage that lets ARD charge the ``O(M^3)`` factor cost
    once and the ``O(M^2 R)`` solve cost per right-hand-side batch.

    Parameters
    ----------
    blocks:
        ``(n, m, m)`` batch to factor.
    check_singular:
        When ``True`` (default), raise
        :class:`~repro.exceptions.SingularBlockError` if any block's LU
        has a relative diagonal entry below the configured
        ``singularity_rcond``.
    block_offset:
        Global index of ``blocks[0]``; only used to report *which*
        global block was singular.
    backend:
        Override the configured ``blockops_backend`` for this instance
        (``"batched"`` or ``"scipy_loop"``).
    """

    __slots__ = ("n", "m", "dtype", "backend", "_lu", "_piv")

    def __init__(self, blocks: np.ndarray, *, check_singular: bool = True,
                 block_offset: int = 0, backend: str | None = None):
        blocks = as_block_batch(blocks, "blocks")
        self.n, self.m, _ = blocks.shape
        self.dtype = blocks.dtype
        cfg = get_config()
        self.backend = backend if backend is not None else cfg.blockops_backend
        if self.backend not in BLOCKOPS_BACKENDS:
            raise ConfigError(
                f"unknown blockops backend {self.backend!r}; expected one "
                f"of {sorted(BLOCKOPS_BACKENDS)}"
            )
        with kernel_time("kernel.lu"):
            if self.backend == "batched":
                self._lu, self._piv = lu_factor_batched(blocks)
            else:
                self._lu = np.empty_like(blocks)
                self._piv = np.empty((self.n, self.m), dtype=np.int32)
                for i in range(self.n):
                    with warnings.catch_warnings():
                        # The facade runs its own singularity check with
                        # a configurable threshold; scipy's warning is
                        # redundant.
                        warnings.simplefilter(
                            "ignore", scipy.linalg.LinAlgWarning
                        )
                        lu, piv = scipy.linalg.lu_factor(
                            blocks[i], check_finite=False
                        )
                    self._lu[i] = lu
                    self._piv[i] = piv
        if check_singular:
            self._raise_if_singular(cfg.singularity_rcond, block_offset)
        if cfg.flop_counting:
            record_flops("lu", self.n * lu_flops(self.m))

    def _raise_if_singular(self, rcond: float, block_offset: int) -> None:
        bad = first_singular_block(self._lu, rcond)
        if bad is None:
            return
        i, kind, ratio = bad
        if kind == "nonfinite":
            # Overflowed inputs produce NaN factors whose diagonal
            # comparisons would silently pass (NaN < x is False); fail
            # loudly instead.
            raise SingularBlockError(
                f"block {block_offset + i} contains non-finite "
                "entries (upstream overflow)",
                block_index=block_offset + i,
            )
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
        r = b.shape[2] if b.ndim == 3 else 1
        vectorized = (
            self.backend == "batched"
            and self.m * r <= get_config().vector_solve_max_work
        )
        with kernel_time("kernel.trsm"):
            if vectorized:
                out = lu_solve_batched(self._lu, self._piv, b, trans=trans)
            else:
                out = np.empty_like(
                    b, dtype=np.result_type(self.dtype, b.dtype)
                )
                for i in range(self.n):
                    out[i] = scipy.linalg.lu_solve(
                        (self._lu[i], self._piv[i]), b[i], trans=trans,
                        check_finite=False,
                    )
        if get_config().flop_counting:
            record_flops("trsm", self.n * lu_solve_flops(self.m, r))
        return out

    def solve_one(self, i: int, b: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Solve against a single factored block ``i``.

        Both backends store LAPACK-convention ``(lu, piv)``, so the
        single-block path always goes through ``scipy.lu_solve``.
        """
        if not 0 <= i < self.n:
            raise ShapeError(f"block index {i} out of range [0, {self.n})")
        trans = 1 if transposed else 0
        with kernel_time("kernel.trsm"):
            out = scipy.linalg.lu_solve(
                (self._lu[i], self._piv[i]), np.asarray(b), trans=trans,
                check_finite=False,
            )
        if get_config().flop_counting:
            r = b.shape[1] if np.asarray(b).ndim == 2 else 1
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
        """One batch holding the factors of ``lus`` in order (copied),
        with the first one's backend; no refactorization."""
        merged = object.__new__(cls)
        merged.n = sum(lu.n for lu in lus)
        merged.m = lus[0].m
        merged.dtype = lus[0].dtype
        merged.backend = lus[0].backend
        merged._lu = np.concatenate([lu._lu for lu in lus], axis=0)
        merged._piv = np.concatenate([lu._piv for lu in lus], axis=0)
        return merged
