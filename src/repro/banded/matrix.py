"""Block banded matrices with symmetric bandwidth ``b``.

Generalizes :class:`repro.linalg.blocktridiag.BlockTridiagonalMatrix`
(the ``b = 1`` case) to ``2b + 1`` block bands: block row ``i`` of
``A x = d`` reads

``sum_{k=-b}^{b}  A_{i,k} x_{i+k} = d_i``   (terms outside ``[0, N)`` absent).

Storage: one array ``bands`` of shape ``(2b + 1, N, M, M)`` where
``bands[b + k, i]`` is the coefficient of ``x_{i+k}`` in row ``i``
(rows whose offset falls outside the matrix hold zero blocks), chosen so
one band offset across every row is one contiguous slice.

Grouping ``b`` consecutive block rows makes the matrix block
*tridiagonal* in blocks of order ``bM`` (:meth:`BlockBandedMatrix.
to_block_tridiagonal`), which is how the solver handles it.
"""

from __future__ import annotations

import numpy as np

from ..config import get_config
from ..exceptions import ShapeError
from ..linalg.blocktridiag import (
    BlockTridiagonalMatrix,
    reshape_rhs,
    restore_rhs_shape,
)

__all__ = ["BlockBandedMatrix"]


class BlockBandedMatrix:
    """Block banded matrix with ``N`` block rows, block size ``M`` and
    symmetric block bandwidth ``b``.

    Parameters
    ----------
    bands:
        ``(2b + 1, N, M, M)`` array as described in the module
        docstring.  Out-of-range band entries must be zero (validated).
    copy:
        Copy the input (default).
    """

    __slots__ = ("bands",)

    def __init__(self, bands: np.ndarray, *, copy: bool = True):
        bands = np.asarray(bands)
        if bands.ndim != 4 or bands.shape[0] % 2 == 0 \
                or bands.shape[2] != bands.shape[3]:
            raise ShapeError(
                f"bands must be (2b+1, N, M, M), got {bands.shape}"
            )
        if bands.shape[1] < 1:
            raise ShapeError("matrix must have at least one block row")
        dtype = bands.dtype
        if dtype.kind not in "fc":
            dtype = get_config().dtype
        self.bands = np.array(bands, dtype=dtype, copy=copy)
        b = self.bandwidth
        n = self.nblocks
        for k in range(-b, b + 1):
            band = self.bands[b + k]
            # Row i references x_{i+k}: invalid when i + k outside [0, N).
            bad_rows = [i for i in range(n)
                        if not 0 <= i + k < n and np.any(band[i] != 0)]
            if bad_rows:
                raise ShapeError(
                    f"band offset {k} has nonzero out-of-range rows {bad_rows}"
                )

    # -- metadata ----------------------------------------------------------

    @property
    def bandwidth(self) -> int:
        """Symmetric block bandwidth ``b``."""
        return (self.bands.shape[0] - 1) // 2

    @property
    def nblocks(self) -> int:
        """Number of block rows ``N``."""
        return self.bands.shape[1]

    @property
    def block_size(self) -> int:
        """Block order ``M``."""
        return self.bands.shape[2]

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the band storage."""
        return self.bands.dtype

    @property
    def shape(self) -> tuple[int, int]:
        """Dense shape ``(N*M, N*M)``."""
        nm = self.nblocks * self.block_size
        return (nm, nm)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_tridiagonal(cls, matrix) -> "BlockBandedMatrix":
        """Adopt a :class:`BlockTridiagonalMatrix` as bandwidth-1 banded."""
        n, m = matrix.nblocks, matrix.block_size
        bands = np.zeros((3, n, m, m), dtype=matrix.dtype)
        bands[1] = matrix.diag
        if n > 1:
            bands[0, 1:] = matrix.lower
            bands[2, :-1] = matrix.upper
        return cls(bands, copy=False)

    @classmethod
    def from_dense(cls, a: np.ndarray, block_size: int, bandwidth: int
                   ) -> "BlockBandedMatrix":
        """Extract a block banded matrix from a dense array.

        Raises :class:`~repro.exceptions.ShapeError` if nonzeros lie
        outside the band.
        """
        a = np.asarray(a)
        m, b = block_size, bandwidth
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % m:
            raise ShapeError(
                f"dense input must be square with order divisible by {m}"
            )
        n = a.shape[0] // m
        bands = np.zeros((2 * b + 1, n, m, m), dtype=a.dtype)
        for i in range(n):
            for j in range(n):
                block = a[i * m:(i + 1) * m, j * m:(j + 1) * m]
                if abs(j - i) <= b:
                    bands[b + (j - i), i] = block
                elif np.any(block != 0):
                    raise ShapeError(
                        f"nonzero block ({i}, {j}) outside bandwidth {b}"
                    )
        return cls(bands, copy=False)

    # -- regrouping ----------------------------------------------------------

    def to_block_tridiagonal(self) -> BlockTridiagonalMatrix:
        """The same system as ``N' = ceil(N / b)`` block tridiagonal
        super-rows of order ``bM``.

        Super-row ``I`` holds rows ``bI .. bI + b - 1``; its blocks are,
        for ``r, c < b``,

        - ``D'_I[r, c] = A_{bI+r, bI+c}``,
        - ``U'_I[r, c] = A_{bI+r, b(I+1)+c}`` (zero unless ``c <= r``),
        - ``L'_I[r, c] = A_{bI+r, b(I-1)+c}`` (zero unless ``c >= r``).

        Each ``U'_I`` is lower block triangular with the outermost blocks
        ``A_{i,i+b}`` on its diagonal.  When ``b`` does not divide ``N``
        the last super-row gets ``p = bN' - N`` pad unknowns with
        identity diagonal blocks, and rows ``N - b .. N - b + p - 1``
        reach them through identity outermost blocks.  A pad's
        right-hand side is zero, so it solves to zero, and every ``U'_I``
        is invertible exactly when the outermost blocks of its rows are.
        """
        n, m, b = self.nblocks, self.block_size, self.bandwidth
        nsup = -(-n // b)
        bands = np.zeros((2 * b + 1, b * nsup, m, m), dtype=self.dtype)
        bands[:, :n] = self.bands
        eye = np.eye(m, dtype=self.dtype)
        bands[b, n:] = eye
        bands[2 * b, max(0, n - b):b * (nsup - 1)] = eye
        # rows[k, I, r] is band offset k - b of row bI + r.
        rows = bands.reshape(2 * b + 1, nsup, b, m, m)
        diag, lower, upper = (np.zeros((nsup, b, m, b, m), dtype=self.dtype)
                              for _ in range(3))
        for r in range(b):
            for c in range(b):
                diag[:, r, :, c] = rows[b + c - r, :, r]
                if c <= r:
                    upper[:, r, :, c] = rows[2 * b + c - r, :, r]
                if c >= r:
                    lower[:, r, :, c] = rows[c - r, :, r]
        shape = (nsup, b * m, b * m)
        return BlockTridiagonalMatrix(
            lower.reshape(shape)[1:], diag.reshape(shape),
            upper.reshape(shape)[:-1], copy=False,
        )

    # -- operations ----------------------------------------------------------

    def block(self, i: int, j: int) -> np.ndarray:
        """The ``(i, j)`` block (zero outside the band)."""
        n, b = self.nblocks, self.bandwidth
        if not (0 <= i < n and 0 <= j < n):
            raise ShapeError(f"block index ({i}, {j}) out of range")
        if abs(j - i) > b:
            return np.zeros((self.block_size,) * 2, dtype=self.dtype)
        return self.bands[b + (j - i), i]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` (layouts as for the tridiagonal type)."""
        n, m, b = self.nblocks, self.block_size, self.bandwidth
        xb, original = reshape_rhs(x, n, m)
        y = np.zeros_like(xb)
        for k in range(-b, b + 1):
            lo = max(0, -k)
            hi = min(n, n - k)
            if lo < hi:
                y[lo:hi] += np.matmul(self.bands[b + k, lo:hi], xb[lo + k:hi + k])
        return restore_rhs_shape(y, original)

    def residual(self, x: np.ndarray, rhs: np.ndarray, relative: bool = True
                 ) -> float:
        """Max-norm residual ``||A x - rhs||`` (relative by default)."""
        r = np.abs(np.asarray(self.matvec(x)) - np.asarray(rhs)).max()
        if relative:
            scale = np.abs(rhs).max()
            if scale > 0:
                return float(r / scale)
        return float(r)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense matrix (small reference checks only)."""
        n, m, b = self.nblocks, self.block_size, self.bandwidth
        out = np.zeros((n * m, n * m), dtype=self.dtype)
        for k in range(-b, b + 1):
            for i in range(max(0, -k), min(n, n - k)):
                j = i + k
                out[i * m:(i + 1) * m, j * m:(j + 1) * m] = self.bands[b + k, i]
        return out

    def copy(self) -> "BlockBandedMatrix":
        """Deep copy."""
        return BlockBandedMatrix(self.bands, copy=True)

    def allclose(self, other: "BlockBandedMatrix", rtol: float = 1e-12,
                 atol: float = 0.0) -> bool:
        """Elementwise comparison of equal-structure matrices."""
        return (
            self.bands.shape == other.bands.shape
            and bool(np.allclose(self.bands, other.bands, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockBandedMatrix(N={self.nblocks}, M={self.block_size}, "
            f"b={self.bandwidth}, dtype={self.dtype})"
        )
