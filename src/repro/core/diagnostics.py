"""Feasibility and stability diagnostics for recurrence-based solvers.

Recursive doubling's transfer recurrence requires invertible
superdiagonal blocks and is only numerically safe when the composed
transfer products stay bounded (classically guaranteed by block
diagonal dominance).  These checks let callers *see* whether a system is
in the safe regime instead of silently returning garbage; the front-end
:func:`repro.core.api.solve` runs them when ``check=True``.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from ..config import get_config
from ..exceptions import ShapeError, StabilityWarning
from ..linalg.blocktridiag import BlockTridiagonalMatrix

__all__ = [
    "SystemDiagnostics",
    "superdiagonal_rconds",
    "block_diagonal_dominance",
    "transfer_growth_factor",
    "diagnose",
]


@dataclasses.dataclass(frozen=True)
class SystemDiagnostics:
    """Summary of a system's suitability for recursive doubling.

    Attributes
    ----------
    min_superdiag_rcond:
        Smallest reciprocal condition estimate over the ``U_i`` blocks
        (1.0 for a 1-block system with no superdiagonal).
    dominance:
        Minimum block-diagonal-dominance ratio
        ``min_i  (min singular value of D_i) / (||L_i|| + ||U_i||)``;
        values above 1 indicate strict dominance.
    growth:
        Estimated worst-case growth of the composed transfer products
        (power-iteration estimate of ``max_i ||A_i ... A_0||``).
    rd_feasible:
        Whether every superdiagonal block is invertible to working
        precision (hard requirement).
    rd_stable:
        Whether ``growth`` is below the configured warning threshold.
    """

    min_superdiag_rcond: float
    dominance: float
    growth: float

    @property
    def rd_feasible(self) -> bool:
        return self.min_superdiag_rcond > get_config().singularity_rcond

    @property
    def rd_stable(self) -> bool:
        return self.growth < get_config().growth_warn_threshold


def superdiagonal_rconds(matrix: BlockTridiagonalMatrix) -> np.ndarray:
    """Reciprocal 2-norm condition numbers of each ``U_i``."""
    if matrix.nblocks == 1:
        return np.ones(0)
    out = np.empty(matrix.nblocks - 1)
    for i in range(matrix.nblocks - 1):
        s = np.linalg.svd(matrix.upper[i], compute_uv=False)
        out[i] = 0.0 if s[0] == 0.0 else s[-1] / s[0]
    return out


def block_diagonal_dominance(matrix: BlockTridiagonalMatrix) -> float:
    """Minimum dominance ratio ``sigma_min(D_i) / (||L_i|| + ||U_i||)``.

    Returns ``inf`` for a 1-block system with invertible diagonal.
    Strictly greater than 1 implies the transfer products contract, the
    sufficient condition for recursive doubling stability.
    """
    n = matrix.nblocks
    worst = np.inf
    for i in range(n):
        smin = np.linalg.svd(matrix.diag[i], compute_uv=False)[-1]
        off = 0.0
        if i > 0:
            off += np.linalg.norm(matrix.lower[i - 1], 2)
        if i < n - 1:
            off += np.linalg.norm(matrix.upper[i], 2)
        if off == 0.0:
            continue
        worst = min(worst, smin / off)
    return float(worst)


def transfer_growth_factor(matrix: BlockTridiagonalMatrix, nprobe: int = 2,
                           seed: int = 0) -> float:
    """Estimate the worst intermediate growth of the transfer products.

    Runs the homogeneous recurrence
    ``s_{i+1} = [[T1_i, T2_i], [I, 0]] s_i`` on ``nprobe`` random unit
    probes and reports the maximum intermediate state norm — a cheap
    ``O(N M^2)`` proxy for ``max_i ||A_i ... A_0||`` that flags the
    exponential blowup afflicting non-dominant systems.

    Raises :class:`~repro.exceptions.SingularBlockError` (from the block
    inversion) if some ``U_i`` is singular.
    """
    from ..linalg.blockops import gemm, invert_blocks

    n, m = matrix.nblocks, matrix.block_size
    if n == 1:
        return 1.0
    if nprobe < 1:
        raise ShapeError(f"nprobe must be >= 1, got {nprobe}")
    uinv = invert_blocks(matrix.upper)
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((2 * m, nprobe))
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)
    cur = probes[:m].astype(matrix.dtype)
    prev = probes[m:].astype(matrix.dtype)
    worst = 1.0
    # Overflow to inf is the *signal* here (growth beyond double range),
    # not an error worth warning about.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            rhs = matrix.diag[i] @ cur + (matrix.lower[i - 1] @ prev if i > 0 else 0.0)
            nxt = -gemm(uinv[i], rhs)
            prev, cur = cur, nxt
            norm = float(
                np.sqrt((np.abs(cur) ** 2 + np.abs(prev) ** 2).sum(axis=0)).max()
            )
            if np.isnan(norm):
                return float("inf")
            worst = max(worst, norm)
    return worst


def diagnose(matrix: BlockTridiagonalMatrix, *, warn: bool = True) -> SystemDiagnostics:
    """Run all diagnostics; optionally emit a
    :class:`~repro.exceptions.StabilityWarning` when growth is large."""
    rconds = superdiagonal_rconds(matrix)
    min_rcond = float(rconds.min()) if rconds.size else 1.0
    dominance = block_diagonal_dominance(matrix)
    cfg = get_config()
    if min_rcond > cfg.singularity_rcond:
        growth = transfer_growth_factor(matrix)
    else:
        growth = float("inf")
    diag = SystemDiagnostics(
        min_superdiag_rcond=min_rcond, dominance=dominance, growth=growth
    )
    if warn and diag.rd_feasible and not diag.rd_stable:
        warnings.warn(
            f"transfer-product growth {growth:.2e} exceeds "
            f"{cfg.growth_warn_threshold:.1e}; recursive doubling may lose "
            "accuracy on this system (consider method='thomas' or "
            "'cyclic')",
            StabilityWarning,
            stacklevel=2,
        )
    return diag
