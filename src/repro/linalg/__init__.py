"""Block linear algebra substrate.

Provides the block tridiagonal matrix type, batched block kernels with
flop accounting, and independent reference solvers used as ground truth.
"""

from .analysis import estimate_condition, from_scipy_sparse, onenorm
from .blockops import BatchedLU, as_block_batch, gemm, invert_blocks
from .blocktridiag import BlockTridiagonalMatrix, reshape_rhs, restore_rhs_shape
from .reference import banded_solve, dense_solve, sparse_solve

__all__ = [
    "estimate_condition",
    "from_scipy_sparse",
    "onenorm",
    "BatchedLU",
    "as_block_batch",
    "gemm",
    "invert_blocks",
    "BlockTridiagonalMatrix",
    "reshape_rhs",
    "restore_rhs_shape",
    "banded_solve",
    "dense_solve",
    "sparse_solve",
]
