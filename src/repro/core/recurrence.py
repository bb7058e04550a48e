"""Transfer operators: block rows as first-order affine recurrences.

With ``x_{-1} := 0``, block row ``i < N-1`` of ``A x = d`` solved for
``x_{i+1}`` gives

``x_{i+1} = T1_i x_i + T2_i x_{i-1} + g_i``

where ``T1_i = -U_i^{-1} D_i``, ``T2_i = -U_i^{-1} L_i`` and
``g_i = U_i^{-1} d_i``.  On the stacked state ``s_i = [x_i; x_{i-1}]``
this is the affine map ``s_{i+1} = A_i s_i + [g_i; 0]`` with

``A_i = [[T1_i, T2_i], [I, 0]]``.

:class:`TransferOperators` builds ``T1``/``T2`` (and keeps the
inverses of the ``U_i``, so ``g`` costs one batched multiply per
right-hand side — the matrix/vector split that ARD's factorization
stores).  The module also provides the three structured local kernels
every solver uses:

- :func:`local_matrix_aggregate` — the chunk's composed matrix part,
  exploiting the ``[[T1, T2], [I, 0]]`` structure (4 instead of 8
  ``M x M`` products per row);
- :func:`local_vector_aggregate` — the chunk's composed vector part
  (pure matrix–vector work, the per-RHS cost);
- :func:`forward_solution` — back-substitution: given the state at the
  chunk entry, produce the owned solution rows.

Evaluation modes
----------------
Each kernel evaluates either *sequentially* (one block row per
iteration, ``h`` interpreter round-trips) or *level-wise*: the ``h``
transfer maps are stacked into a ``(h, 2M, 2M)`` batch and run through
the cached Blelloch tree of :class:`repro.prefix.batched.AffineLevels`
in ``O(log h)`` full-batch gemms.  Level-wise spends ~2x the matrix
flops and ~4x the vector flops to eliminate the per-row Python
dispatch — a win once ``h`` is large, ``M`` small, and the RHS panel
thin.  The choice is ``repro.config``'s ``recurrence_mode`` (``auto``
picks by ``(h, M, R)``, see docs/KERNELS.md); each decision is recorded
on the active trace as a ``recurrence.mode`` instant event.
"""

from __future__ import annotations

import numpy as np

from ..config import (
    DEFAULT_LEVELWISE_MAX_BLOCK,
    DEFAULT_LEVELWISE_MAX_RHS,
    DEFAULT_LEVELWISE_MIN_ROWS,
    get_config,
)
from ..exceptions import ShapeError
from ..linalg.blockops import gemm, invert_blocks
from ..obs.tracer import instant
from ..prefix.batched import AffineLevels
from .distribute import LocalChunk

__all__ = [
    "TransferOperators",
    "local_matrix_aggregate",
    "local_vector_aggregate",
    "forward_solution",
]

#: Documented default: ``auto`` switches to level-wise evaluation at
#: this many transfer rows.  The hot path reads the live
#: ``repro.config`` field ``levelwise_min_rows`` (this is its default),
#: so per-host tuning (``python -m repro.harness tune``) takes effect
#: without touching this module.
LEVELWISE_MIN_ROWS = DEFAULT_LEVELWISE_MIN_ROWS

#: Documented default: ``auto`` stays sequential above this block order
#: (the batched ``(2M, 2M)`` composites grow as ``M^3`` while the
#: structured sequential path only pays 4 ``M x M`` products per row).
#: Live config field: ``levelwise_max_block``.
LEVELWISE_MAX_BLOCK = DEFAULT_LEVELWISE_MAX_BLOCK

#: Documented default: ``auto`` keeps the *vector* kernels sequential
#: above this RHS panel width.  Level-wise vector evaluation spends ~4x
#: the flops of the sequential recurrence; that only pays while the
#: per-row dispatch overhead dominates, i.e. for thin panels.  Wide
#: panels are compute-bound and the sequential per-row gemms are
#: already efficient.  Live config field: ``levelwise_max_rhs``.
LEVELWISE_MAX_RHS = DEFAULT_LEVELWISE_MAX_RHS


def _use_levelwise(
    nrows: int, block_size: int, kernel: str, panel: int | None = None
) -> bool:
    """Resolve the configured ``recurrence_mode`` for one kernel call.

    ``panel`` is the RHS panel width for the vector kernels (``None``
    for the matrix aggregate, whose cost has no RHS dimension).  Records
    the decision as a ``recurrence.mode`` instant event on the active
    trace (no-op when tracing is off).
    """
    cfg = get_config()
    mode = cfg.recurrence_mode
    if mode == "sequential":
        levelwise = False
    elif mode == "levelwise":
        levelwise = nrows > 0
    else:
        levelwise = (
            nrows >= cfg.levelwise_min_rows
            and block_size <= cfg.levelwise_max_block
            and (panel is None or panel <= cfg.levelwise_max_rhs)
        )
    instant(
        "recurrence.mode",
        cat="detail",
        kernel=kernel,
        mode=mode,
        levelwise=levelwise,
        nrows=nrows,
        block_size=block_size,
        panel=panel,
    )
    return levelwise


class TransferOperators:
    """Per-chunk transfer maps ``(T1_i, T2_i)`` plus the ``U_i^{-1}``.

    Built from a :class:`~repro.core.distribute.LocalChunk`; covers the
    chunk's ``ntransfer`` rows (all owned rows except a final closing
    row).  The construction is the ``O((N/P) M^3)`` matrix work that RD
    repeats per right-hand side and ARD performs once.

    The level-wise evaluation path lazily builds (and caches) the
    Blelloch matrix tree over the stacked transfer maps — matrix-only
    work that, like the rest of this object, amortizes across solves.
    """

    __slots__ = ("lo", "ntransfer", "block_size", "t1", "t2", "uinv", "dtype",
                 "_levels")

    def __init__(self, chunk: LocalChunk):
        t = chunk.ntransfer
        m = chunk.block_size
        self.lo = chunk.lo
        self.ntransfer = t
        self.block_size = m
        self.dtype = chunk.dtype
        self._levels = None
        if t > 0:
            # Invert the superdiagonal blocks; raises SingularBlockError
            # (with the global row index) if any is singular.
            self.uinv = invert_blocks(chunk.sup[:t], block_offset=chunk.lo)
            self.t1 = -gemm(self.uinv, chunk.diag[:t])
            self.t2 = -gemm(self.uinv, chunk.sub[:t])
        else:
            self.uinv = None
            self.t1 = np.empty((0, m, m), dtype=chunk.dtype)
            self.t2 = np.empty((0, m, m), dtype=chunk.dtype)

    def g(self, d_rows: np.ndarray) -> np.ndarray:
        """Compute ``g_i = U_i^{-1} d_i`` for the chunk's transfer rows.

        ``d_rows`` must be the ``(h, M, R)`` right-hand-side rows of the
        chunk; only the first ``ntransfer`` rows are consumed.
        """
        d_rows = np.asarray(d_rows)
        if d_rows.ndim != 3 or d_rows.shape[1] != self.block_size:
            raise ShapeError(
                f"rhs rows must be (h, {self.block_size}, R), got {d_rows.shape}"
            )
        if d_rows.shape[0] < self.ntransfer:
            raise ShapeError(
                f"need at least {self.ntransfer} rhs rows, got {d_rows.shape[0]}"
            )
        if self.ntransfer == 0:
            return np.empty((0, self.block_size, d_rows.shape[2]), dtype=self.dtype)
        return gemm(self.uinv, d_rows[: self.ntransfer])

    def stacked_maps(self) -> np.ndarray:
        """The transfer maps as one ``(ntransfer, 2M, 2M)`` batch."""
        m = self.block_size
        mats = np.zeros((self.ntransfer, 2 * m, 2 * m), dtype=self.dtype)
        mats[:, :m, :m] = self.t1
        mats[:, :m, m:] = self.t2
        idx = np.arange(m)
        mats[:, m + idx, idx] = 1.0
        return mats

    def levels(self) -> AffineLevels:
        """The cached Blelloch matrix tree over the transfer maps."""
        if self._levels is None:
            self._levels = AffineLevels(self.stacked_maps())
        return self._levels

    @property
    def nbytes(self) -> int:
        total = self.t1.nbytes + self.t2.nbytes
        if self.uinv is not None:
            total += self.uinv.nbytes
        if self._levels is not None:
            total += self._levels.nbytes
        return total


def _stacked_vectors(ops: TransferOperators, g_rows: np.ndarray) -> np.ndarray:
    """The vector parts ``b_j = [g_j; 0]`` as ``(ntransfer, 2M, R)``."""
    m = ops.block_size
    r = g_rows.shape[2]
    vecs = np.zeros((ops.ntransfer, 2 * m, r), dtype=ops.dtype)
    vecs[:, :m] = g_rows[: ops.ntransfer]
    return vecs


def local_matrix_aggregate(ops: TransferOperators) -> np.ndarray:
    """Composed matrix part of the chunk's transfer maps as ``(2M, 2M)``.

    Sequential mode maintains the invariant that the running product
    ``A_{i} ... A_{lo}`` has the form ``[[G, H], [Gp, Hp]]`` (its bottom
    half equals the previous step's top half), so each row costs four
    ``M x M`` products instead of a full ``(2M)^3`` multiply.
    Level-wise mode reads the cached Blelloch tree's root.
    """
    m = ops.block_size
    if _use_levelwise(ops.ntransfer, m, "matrix_aggregate"):
        # Copy: the root stays cached on the operators and the caller
        # may ship (or mutate) the aggregate.
        return ops.levels().total_matrix.copy()
    g_cur = np.eye(m, dtype=ops.dtype)
    h_cur = np.zeros((m, m), dtype=ops.dtype)
    g_prev = np.zeros((m, m), dtype=ops.dtype)
    h_prev = np.eye(m, dtype=ops.dtype)
    for j in range(ops.ntransfer):
        g_new = gemm(ops.t1[j], g_cur) + gemm(ops.t2[j], g_prev)
        h_new = gemm(ops.t1[j], h_cur) + gemm(ops.t2[j], h_prev)
        g_prev, h_prev = g_cur, h_cur
        g_cur, h_cur = g_new, h_new
    out = np.empty((2 * m, 2 * m), dtype=ops.dtype)
    out[:m, :m] = g_cur
    out[:m, m:] = h_cur
    out[m:, :m] = g_prev
    out[m:, m:] = h_prev
    return out


def local_vector_aggregate(ops: TransferOperators, g_rows: np.ndarray) -> np.ndarray:
    """Composed vector part of the chunk's transfer maps as ``(2M, R)``.

    Equals the state reached from ``s = 0`` by running the recurrence
    across the chunk — pure matrix–vector work, ``O((N/P) M^2 R)``
    sequentially, ``O(log h)`` batched gemms level-wise.
    """
    m = ops.block_size
    if g_rows.shape[0] != ops.ntransfer:
        raise ShapeError(
            f"expected {ops.ntransfer} g rows, got {g_rows.shape[0]}"
        )
    if g_rows.ndim == 3 and _use_levelwise(
        ops.ntransfer, m, "vector_aggregate", panel=g_rows.shape[2]
    ):
        return ops.levels().reduce_vectors(_stacked_vectors(ops, g_rows))
    r = g_rows.shape[2] if g_rows.ndim == 3 else 0
    v_cur = np.zeros((m, r), dtype=ops.dtype)
    v_prev = np.zeros((m, r), dtype=ops.dtype)
    for j in range(ops.ntransfer):
        v_new = gemm(ops.t1[j], v_cur) + gemm(ops.t2[j], v_prev) + g_rows[j]
        v_prev = v_cur
        v_cur = v_new
    return np.concatenate([v_cur, v_prev], axis=0)


def forward_solution(
    ops: TransferOperators,
    g_rows: np.ndarray,
    entry_state: np.ndarray,
    nrows: int,
) -> np.ndarray:
    """Back-substitution: produce the chunk's ``nrows`` solution rows.

    ``entry_state`` is ``s_lo = [x_lo; x_{lo-1}]`` of shape ``(2M, R)``.
    The first output row is ``x_lo``; subsequent rows apply the transfer
    recurrence.  Only the first ``nrows - 1`` transfer maps are needed
    (the chunk's last transfer produces the *next* rank's first row).

    Level-wise mode folds the entry state into the scan's first element
    so the Blelloch exclusive outputs are exactly the states ``s_j``.
    """
    m = ops.block_size
    r = entry_state.shape[1]
    out = np.empty((nrows, m, r), dtype=ops.dtype)
    if nrows == 0:
        return out
    steps = min(ops.ntransfer, nrows - 1)
    if steps < nrows - 1:
        raise ShapeError(
            f"chunk has {ops.ntransfer} transfers but {nrows} rows requested"
        )
    if (
        g_rows.shape[0] >= ops.ntransfer
        and _use_levelwise(ops.ntransfer, m, "forward_solution", panel=r)
    ):
        states = ops.levels().exclusive_states(
            _stacked_vectors(ops, g_rows), entry_state
        )
        take = min(nrows, ops.ntransfer)
        out[:take] = states[:take, :m]
        if nrows == ops.ntransfer + 1:
            # The exclusive scan yields s_0 .. s_{h-1}; the final row
            # needs s_h — one more application of the last map.
            last = states[-1] if ops.ntransfer else entry_state
            out[nrows - 1] = (
                gemm(ops.t1[steps - 1], last[:m])
                + gemm(ops.t2[steps - 1], last[m:])
                + g_rows[steps - 1]
            )
        return out
    x_cur = entry_state[:m]
    x_prev = entry_state[m:]
    out[0] = x_cur
    for j in range(steps):
        x_new = gemm(ops.t1[j], x_cur) + gemm(ops.t2[j], x_prev) + g_rows[j]
        x_prev = x_cur
        x_cur = x_new
        out[j + 1] = x_cur
    return out
