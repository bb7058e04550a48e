"""The block tridiagonal matrix type.

A block tridiagonal matrix with ``N`` block rows of block size ``M``
stores three batches:

- ``diag``:  ``(N, M, M)``   — diagonal blocks ``D_0 .. D_{N-1}``
- ``lower``: ``(N-1, M, M)`` — subdiagonal blocks ``L_1 .. L_{N-1}``
  (``lower[i]`` multiplies ``x_i`` in block row ``i+1``)
- ``upper``: ``(N-1, M, M)`` — superdiagonal blocks ``U_0 .. U_{N-2}``
  (``upper[i]`` multiplies ``x_{i+1}`` in block row ``i``)

so block row ``i`` of ``A x = d`` reads
``lower[i-1] x_{i-1} + diag[i] x_i + upper[i] x_{i+1} = d_i``.

Right-hand sides and solutions use shape ``(N, M)`` for a single vector
or ``(N, M, R)`` for ``R`` right-hand sides (the paper's multi-RHS
setting); flat ``(N*M,)`` / ``(N*M, R)`` layouts are accepted and
round-tripped by :meth:`BlockTridiagonalMatrix.matvec`.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

from ..config import get_config
from ..exceptions import ShapeError
from ..util.flops import gemm_flops, record_flops

__all__ = ["BlockTridiagonalMatrix", "reshape_rhs", "restore_rhs_shape"]


def reshape_rhs(b: np.ndarray, nblocks: int, block_size: int) -> tuple[np.ndarray, tuple]:
    """Normalize a right-hand side to ``(N, M, R)``.

    Returns the normalized array and the original shape (so callers can
    return solutions in the caller's layout via
    :func:`restore_rhs_shape`).  Accepted inputs: ``(N, M)``,
    ``(N, M, R)``, ``(N*M,)``, ``(N*M, R)``.
    """
    b = np.asarray(b)
    original = b.shape
    n, m = nblocks, block_size
    if b.shape == (n, m):
        return b[:, :, None], original
    if b.ndim == 3 and b.shape[:2] == (n, m):
        return b, original
    if b.shape == (n * m,):
        return b.reshape(n, m, 1), original
    if b.ndim == 2 and b.shape[0] == n * m:
        return b.reshape(n, m, b.shape[1]), original
    raise ShapeError(
        f"rhs shape {b.shape} incompatible with N={n} blocks of size M={m}"
    )


def restore_rhs_shape(x: np.ndarray, original: tuple) -> np.ndarray:
    """Inverse of :func:`reshape_rhs`: reshape ``(N, M, R)`` back."""
    return x.reshape(original)


class BlockTridiagonalMatrix:
    """Immutable-by-convention block tridiagonal matrix.

    Parameters
    ----------
    lower, diag, upper:
        Block batches as described in the module docstring.  ``lower``
        and ``upper`` may be ``None`` for ``N == 1``.
    copy:
        Copy the inputs (default) so later caller mutation cannot
        corrupt the matrix.
    """

    __slots__ = ("diag", "lower", "upper", "_fingerprint")

    def __init__(self, lower: np.ndarray | None, diag: np.ndarray,
                 upper: np.ndarray | None, *, copy: bool = True):
        diag = np.asarray(diag)
        if diag.ndim != 3 or diag.shape[1] != diag.shape[2]:
            raise ShapeError(f"diag must be (N, M, M), got {diag.shape}")
        n, m, _ = diag.shape
        if n == 0:
            raise ShapeError("matrix must have at least one block row")
        if lower is None or upper is None:
            if n != 1 or not (lower is None and upper is None):
                raise ShapeError(
                    "lower/upper may be omitted only for a single block row"
                )
            lower = np.empty((0, m, m), dtype=diag.dtype)
            upper = np.empty((0, m, m), dtype=diag.dtype)
        lower = np.asarray(lower)
        upper = np.asarray(upper)
        if lower.shape != (n - 1, m, m):
            raise ShapeError(
                f"lower must be ({n - 1}, {m}, {m}), got {lower.shape}"
            )
        if upper.shape != (n - 1, m, m):
            raise ShapeError(
                f"upper must be ({n - 1}, {m}, {m}), got {upper.shape}"
            )
        dtype = np.result_type(diag.dtype, lower.dtype, upper.dtype)
        if dtype.kind not in "fc":
            dtype = get_config().dtype
        self.diag = np.array(diag, dtype=dtype, copy=copy)
        self.lower = np.array(lower, dtype=dtype, copy=copy)
        self.upper = np.array(upper, dtype=dtype, copy=copy)
        self._fingerprint: str | None = None

    # -- shape / metadata --------------------------------------------------

    @property
    def nblocks(self) -> int:
        """Number of block rows ``N``."""
        return self.diag.shape[0]

    @property
    def block_size(self) -> int:
        """Block order ``M``."""
        return self.diag.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """Dense shape ``(N*M, N*M)``."""
        nm = self.nblocks * self.block_size
        return (nm, nm)

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the block storage."""
        return self.diag.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes of the three block batches."""
        return self.diag.nbytes + self.lower.nbytes + self.upper.nbytes

    def fingerprint(self) -> str:
        """Stable content fingerprint of the matrix (hex digest).

        Hashes the structure (``N``, ``M``, dtype) and the raw bytes of
        all three block batches, so two matrices with equal contents
        fingerprint identically regardless of how they were built.  The
        digest is cached on first use — valid because the matrix is
        immutable by convention; callers who mutate the block arrays
        in place (outside the documented contract) get stale keys.
        Used by :mod:`repro.service` to key its factorization cache.
        """
        fp = self._fingerprint
        if fp is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(
                f"btm:{self.nblocks}:{self.block_size}:{self.dtype.str}"
                .encode()
            )
            for batch in (self.diag, self.lower, self.upper):
                h.update(np.ascontiguousarray(batch).data)
            fp = self._fingerprint = h.hexdigest()
        return fp

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, a: np.ndarray, block_size: int) -> "BlockTridiagonalMatrix":
        """Extract the block tridiagonal part of a dense matrix.

        Raises :class:`~repro.exceptions.ShapeError` if ``a`` has
        nonzeros outside the block tridiagonal band (the matrix would
        not be represented faithfully).
        """
        a = np.asarray(a)
        m = block_size
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % m:
            raise ShapeError(
                f"dense input must be square with order divisible by {m}, "
                f"got {a.shape}"
            )
        n = a.shape[0] // m
        diag = np.empty((n, m, m), dtype=a.dtype)
        lower = np.empty((max(n - 1, 0), m, m), dtype=a.dtype)
        upper = np.empty((max(n - 1, 0), m, m), dtype=a.dtype)
        for i in range(n):
            diag[i] = a[i * m:(i + 1) * m, i * m:(i + 1) * m]
        for i in range(n - 1):
            lower[i] = a[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m]
            upper[i] = a[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m]
        mat = cls(lower if n > 1 else None, diag, upper if n > 1 else None, copy=False)
        off_band = a - mat.to_dense()
        if np.any(off_band != 0):
            raise ShapeError(
                "dense matrix has nonzeros outside the block tridiagonal band"
            )
        return mat

    @classmethod
    def block_identity(cls, nblocks: int, block_size: int, dtype=None
                       ) -> "BlockTridiagonalMatrix":
        """Identity matrix in block tridiagonal storage."""
        dtype = dtype or get_config().dtype
        diag = np.zeros((nblocks, block_size, block_size), dtype=dtype)
        idx = np.arange(block_size)
        diag[:, idx, idx] = 1
        zero = np.zeros((max(nblocks - 1, 0), block_size, block_size), dtype=dtype)
        return cls(zero if nblocks > 1 else None, diag,
                   zero.copy() if nblocks > 1 else None, copy=False)

    # -- element access ----------------------------------------------------

    def block(self, i: int, j: int) -> np.ndarray:
        """The ``(i, j)`` block (a zero block outside the band)."""
        n = self.nblocks
        if not (0 <= i < n and 0 <= j < n):
            raise ShapeError(f"block index ({i}, {j}) out of range for N={n}")
        if j == i:
            return self.diag[i]
        if j == i - 1:
            return self.lower[j]
        if j == i + 1:
            return self.upper[i]
        return np.zeros((self.block_size, self.block_size), dtype=self.dtype)

    def block_rows(self) -> Iterator[tuple[np.ndarray | None, np.ndarray, np.ndarray | None]]:
        """Yield ``(L_i, D_i, U_i)`` per block row (``None`` at the ends)."""
        n = self.nblocks
        for i in range(n):
            low = self.lower[i - 1] if i > 0 else None
            up = self.upper[i] if i < n - 1 else None
            yield low, self.diag[i], up

    # -- operations --------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for one or many vectors.

        Accepts the layouts described in the module docstring and
        returns the result in the same layout.
        """
        n, m = self.nblocks, self.block_size
        xb, original = reshape_rhs(x, n, m)
        y = np.matmul(self.diag, xb)
        if n > 1:
            y[1:] += np.matmul(self.lower, xb[:-1])
            y[:-1] += np.matmul(self.upper, xb[1:])
        if get_config().flop_counting:
            r = xb.shape[2]
            record_flops("gemm", (3 * n - 2) * gemm_flops(m, m, r))
        return restore_rhs_shape(y, original)

    def residual(self, x: np.ndarray, b: np.ndarray, relative: bool = True) -> float:
        """Max-norm residual ``||A x - b||`` (relative to ``||b||`` by
        default; absolute if ``b`` is all zeros; 0 for an empty panel)."""
        r = np.abs(np.asarray(self.matvec(x)) - np.asarray(b)).max(initial=0.0)
        if relative:
            scale = np.abs(b).max(initial=0.0)
            if scale > 0:
                return float(r / scale)
        return float(r)

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense matrix (for small reference tests)."""
        n, m = self.nblocks, self.block_size
        a = np.zeros((n * m, n * m), dtype=self.dtype)
        for i in range(n):
            a[i * m:(i + 1) * m, i * m:(i + 1) * m] = self.diag[i]
        for i in range(n - 1):
            a[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = self.lower[i]
            a[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = self.upper[i]
        return a

    def to_banded(self) -> tuple[np.ndarray, int]:
        """Export to LAPACK banded storage for ``scipy.linalg.solve_banded``.

        Returns ``(ab, bw)`` where ``bw = 2*M - 1`` is both the lower and
        upper bandwidth and ``ab`` has shape ``(2*bw + 1, N*M)`` in
        diagonal-ordered form.
        """
        n, m = self.nblocks, self.block_size
        bw = 2 * m - 1
        order = n * m
        dense = self.to_dense()
        ab = np.zeros((2 * bw + 1, order), dtype=self.dtype)
        for row in range(order):
            lo = max(0, row - bw)
            hi = min(order, row + bw + 1)
            for col in range(lo, hi):
                ab[bw + row - col, col] = dense[row, col]
        return ab, bw

    def to_sparse(self):
        """Export as ``scipy.sparse.csr_matrix`` (reference solves)."""
        import scipy.sparse

        return scipy.sparse.csr_matrix(self.to_dense())

    def transpose(self) -> "BlockTridiagonalMatrix":
        """Structural + blockwise transpose ``A.T``."""
        new_lower = np.swapaxes(self.upper, -1, -2)
        new_upper = np.swapaxes(self.lower, -1, -2)
        new_diag = np.swapaxes(self.diag, -1, -2)
        n = self.nblocks
        return BlockTridiagonalMatrix(
            new_lower if n > 1 else None, new_diag,
            new_upper if n > 1 else None, copy=True,
        )

    def copy(self) -> "BlockTridiagonalMatrix":
        """Deep copy of the matrix."""
        return BlockTridiagonalMatrix(
            self.lower if self.nblocks > 1 else None,
            self.diag,
            self.upper if self.nblocks > 1 else None,
            copy=True,
        )

    def allclose(self, other: "BlockTridiagonalMatrix", rtol: float = 1e-12,
                 atol: float = 0.0) -> bool:
        """Elementwise comparison of two matrices of equal structure."""
        if (self.nblocks, self.block_size) != (other.nblocks, other.block_size):
            return False
        return (
            np.allclose(self.diag, other.diag, rtol=rtol, atol=atol)
            and np.allclose(self.lower, other.lower, rtol=rtol, atol=atol)
            and np.allclose(self.upper, other.upper, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockTridiagonalMatrix(N={self.nblocks}, M={self.block_size}, "
            f"dtype={self.dtype})"
        )
