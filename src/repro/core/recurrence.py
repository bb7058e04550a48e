"""Transfer operators: block rows as first-order affine recurrences.

With ``x_{-1} := 0``, block row ``i < N-1`` of ``A x = d`` solved for
``x_{i+1}`` gives

``x_{i+1} = T1_i x_i + T2_i x_{i-1} + g_i``

where ``T1_i = -U_i^{-1} D_i``, ``T2_i = -U_i^{-1} L_i`` and
``g_i = U_i^{-1} d_i``.  On the stacked state ``s_i = [x_i; x_{i-1}]``
this is the affine map ``s_{i+1} = A_i s_i + [g_i; 0]`` with

``A_i = [[T1_i, T2_i], [I, 0]]``.

Across a chunk the recurrence is linear in the entry state
``s_lo = [x_lo; x_{lo-1}]`` (the paper's ``x_i = E_i x_0 + f_i``): the
row reached by the chunk's ``j``-th transfer is
``y_j = x_{lo+j+1} = E_j s_lo + f_j``, where ``y`` solves the unit block
lower-triangular system

``y_j - T1_j y_{j-1} - T2_j y_{j-2} = c_j``

of scalar lower bandwidth ``3M - 1``; ``f`` is its solution for
``c = g`` from a zero entry.

The same split is applied again inside the chunk.  Its ``t`` transfer
rows are cut into ``S ~ sqrt(t)`` sub-chunks of ``b ~ sqrt(t)`` rows
(:func:`sub_chunks`; the last one is padded with zero rows).  Row ``j``
of sub-chunk ``i`` responds to that sub-chunk's entry state ``u_i``
through ``E_loc_j``, and ``Ê_i`` maps ``s_lo`` to ``u_i``, so
``E_j = E_loc_j Ê_i``.  Sub-chunk states are stacked oldest first,
``u_i = [y_{ib-2}; y_{ib-1}]``, so two consecutive rows of a trajectory
are one contiguous slice and ``[T2_j, T1_j]`` advances it.

:class:`TransferOperators` holds the matrix side, built once: each
transfer row as ``W_j = [T2_j, T1_j, U_j^{-1}]``, ``E_loc`` and ``Ê``.
What remains per right-hand side is matrix–vector work:

- :func:`local_matrix_aggregate` — the chunk's composed matrix part;
- :func:`local_vector_aggregate` — the zero-entry states ``f``, whose
  last two rows are the composed vector part;
- :func:`forward_solution` — the owned solution rows
  ``x = f + E s_lo``, one batched ``gemm``.

A panel of any width runs the sub-chunks in lockstep, straight from
the right-hand-side rows: ``b`` steps of one batched
``W_l @ [y_{l-2}; y_{l-1}; d_l]`` gemm give every row relative to its
own sub-chunk's entry, then ``S - 1`` small gemms carry the entry
states across the chunk (docs/KERNELS.md).  The kernel only reads
what the operators stored at construction, so their footprint never
changes after it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..config import get_config
from ..exceptions import ShapeError
from ..linalg.blockops import gemm, invert_blocks
from ..obs.tracer import kernel_time
from ..util.flops import gemm_flops, record_flops
from .distribute import LocalChunk

__all__ = [
    "TransferOperators",
    "ZeroEntryStates",
    "sub_chunks",
    "local_matrix_aggregate",
    "local_vector_aggregate",
    "forward_solution",
]


def sub_chunks(t: int) -> tuple[int, int]:
    """``(S, b)``: the sub-chunks ``t`` transfer rows are cut into and
    the rows in each, ``b = ceil(sqrt(t))`` and ``S = ceil(t / b)``.

    The last sub-chunk holds the ``t - (S - 1) b`` remaining rows and is
    padded to ``b`` with zero rows.
    """
    if t == 0:
        return 0, 0
    b = math.isqrt(t - 1) + 1
    return -(-t // b), b


class ZeroEntryStates(NamedTuple):
    """The states a right-hand-side panel reaches from a zero entry.

    ``rows`` holds row ``y_j`` relative to the entry state of its
    sub-chunk, and ``sub_entries`` the ``(S, 2M, k)`` sub-chunk entry
    states themselves, so the trajectory from entry ``s_lo`` is
    ``rows + E_loc (Ê s_lo + sub_entries)``.
    """

    rows: np.ndarray
    sub_entries: np.ndarray


class TransferOperators:
    """The matrix side of one chunk's recurrence, built once.

    Built from a :class:`~repro.core.distribute.LocalChunk`; covers the
    chunk's ``ntransfer`` rows (all owned rows except a final closing
    row).  The construction is the ``O((N/P) M^3)`` matrix work that RD
    repeats per right-hand side and ARD performs once.  It keeps no
    reference to the chunk and stores ``(5 S b + 4 S) M^2`` numbers
    (``w``, ``e`` and ``e_hat``), set at construction; :attr:`nbytes`
    counts them.

    Attributes
    ----------
    nsub, sub_rows:
        ``S`` and ``b`` of :func:`sub_chunks`.
    w:
        ``(S b, M, 3M)`` rows ``W_j = [T2_j, T1_j, U_j^{-1}]``, zero
        past row ``t``: the lockstep kernel's operand, each transfer
        block stored once (``t1``, ``t2``, ``t21`` and ``uinv`` are
        views of it).
    e:
        ``(S b, M, 2M)`` response ``E_loc_j`` of row ``x_{lo+j+1}`` to
        its sub-chunk's entry state.
    e_hat:
        ``(S, 2M, 2M)`` maps ``Ê_i`` from the chunk's entry state
        ``s_lo`` to the entry state of sub-chunk ``i``.
    """

    __slots__ = ("lo", "ntransfer", "block_size", "dtype", "nsub",
                 "sub_rows", "w", "e", "e_hat")

    def __init__(self, chunk: LocalChunk):
        t = chunk.ntransfer
        m = chunk.block_size
        self.lo = chunk.lo
        self.ntransfer = t
        self.block_size = m
        self.dtype = chunk.dtype
        s, b = sub_chunks(t)
        self.nsub, self.sub_rows = s, b
        self.w = np.zeros((s * b, m, 3 * m), dtype=chunk.dtype)
        if t > 0:
            # Invert the superdiagonal blocks; raises SingularBlockError
            # (with the global row index) if any is singular.
            uinv = self.uinv
            uinv[...] = invert_blocks(chunk.sup[:t], block_offset=chunk.lo)
            np.negative(gemm(uinv, np.concatenate(
                [chunk.sub[:t], chunk.diag[:t]], axis=2)),
                out=self.w[:t, :, :2 * m])
        self.e = _sub_entry_response(self.w, s, b)
        self.e_hat = _entry_maps(self.e, s, b)

    @property
    def t1(self) -> np.ndarray:
        """``(t, M, M)`` blocks ``T1_j = -U_j^{-1} D_j`` (a view)."""
        m = self.block_size
        return self.w[:self.ntransfer, :, m:2 * m]

    @property
    def t2(self) -> np.ndarray:
        """``(t, M, M)`` blocks ``T2_j = -U_j^{-1} L_j`` (a view)."""
        return self.w[:self.ntransfer, :, :self.block_size]

    @property
    def t21(self) -> np.ndarray:
        """``(S b, M, 2M)`` rows ``[T2_j, T1_j]``, zero past row ``t``
        (a view)."""
        return self.w[:, :, :2 * self.block_size]

    @property
    def uinv(self) -> np.ndarray:
        """``(t, M, M)`` inverses of the superdiagonal blocks ``U_j``
        (a view), so ``g`` is one batched ``gemm``."""
        return self.w[:self.ntransfer, :, 2 * self.block_size:]

    def g(self, d_rows: np.ndarray) -> np.ndarray:
        """Compute ``g_i = U_i^{-1} d_i`` for the chunk's transfer rows.

        ``d_rows`` must be the ``(h, M, R)`` right-hand-side rows of the
        chunk; only the first ``ntransfer`` rows are consumed.
        """
        d_rows = _rhs_rows(self, d_rows)
        if self.ntransfer == 0:
            return np.empty((0, self.block_size, d_rows.shape[2]),
                            dtype=np.result_type(self.dtype, d_rows.dtype))
        return gemm(self.uinv, d_rows[: self.ntransfer])

    @property
    def nbytes(self) -> int:
        """Bytes of every stored array."""
        return self.w.nbytes + self.e.nbytes + self.e_hat.nbytes


def _rhs_rows(ops: TransferOperators, d_rows: np.ndarray) -> np.ndarray:
    """``d_rows`` as an array of at least ``ntransfer`` ``(M, R)`` rows."""
    d_rows = np.asarray(d_rows)
    if d_rows.ndim != 3 or d_rows.shape[1] != ops.block_size:
        raise ShapeError(
            f"rhs rows must be (h, {ops.block_size}, R), got {d_rows.shape}"
        )
    if d_rows.shape[0] < ops.ntransfer:
        raise ShapeError(
            f"need at least {ops.ntransfer} rhs rows, got {d_rows.shape[0]}"
        )
    return d_rows


def _swap(m: int, dtype) -> np.ndarray:
    """``[[0, I], [I, 0]]``: a stacked state's halves exchanged."""
    out = np.zeros((2 * m, 2 * m), dtype=dtype)
    out[:m, m:] = out[m:, :m] = np.eye(m, dtype=dtype)
    return out


def _lockstep(w: np.ndarray, d: np.ndarray, t: int, s: int,
              b: int) -> np.ndarray:
    """Every sub-chunk's recurrence from a zero entry, in lockstep,
    straight from the right-hand-side rows.

    ``w`` is the padded ``(S b, M, 3M)`` operand and ``d`` holds at
    least ``t`` ``(M, k)`` right-hand-side rows; returns the
    ``(S b, M, k)`` rows, zero past row ``t``.  The rows start as a
    copy of ``d``, and step ``l`` overwrites ``d_l`` of all ``S``
    sub-chunks with ``y_l = [T2_l, T1_l, U_l^{-1}] [y_{l-2}; y_{l-1};
    d_l]``, one batched gemm over three consecutive rows.  Rows 0 and 1
    start from the zero entry, so they read only their nonzero blocks:
    ``U_0^{-1} d_0``, then ``[T1_1, U_1^{-1}] [y_0; d_1]``.
    """
    m, k = w.shape[1], d.shape[2]
    rows = np.empty((s * b, m, k), dtype=np.result_type(w.dtype, d.dtype))
    rows[:t] = d[:t]
    rows[t:] = 0
    if t == 0:
        return rows
    y = rows.reshape(s, b, m, k)
    w = w.reshape(s, b, m, 3 * m)
    # Each step's product goes through ``step``: the rows it reads
    # include the one it replaces.
    step = np.empty((s, m, k), dtype=rows.dtype)
    with kernel_time("kernel.gemm"):
        np.matmul(w[:, 0, :, 2 * m:], y[:, 0], out=step)
        y[:, 0] = step
        if b > 1:
            np.matmul(w[:, 1, :, m:], y[:, :2].reshape(s, 2 * m, k),
                      out=step)
            y[:, 1] = step
        for row in range(2, b):
            np.matmul(w[:, row], y[:, row - 2:row + 1].reshape(s, 3 * m, k),
                      out=step)
            y[:, row] = step
    if get_config().flop_counting:
        record_flops("gemm", s * (gemm_flops(m, m, k)
                                  + min(b - 1, 1) * gemm_flops(m, 2 * m, k)
                                  + max(b - 2, 0) * gemm_flops(m, 3 * m, k)))
    return rows


def _sub_exits(rows: np.ndarray, s: int, b: int) -> np.ndarray:
    """``(S, 2M, k)`` views ``[y_{b-2}; y_{b-1}]``: the state each full
    sub-chunk of ``(S b, M, k)`` rows leaves (needs ``b >= 2``)."""
    m, k = rows.shape[1:]
    return rows.reshape(s, b, m, k)[:, b - 2:].reshape(s, 2 * m, k)


def _sub_entry_response(w: np.ndarray, s: int, b: int) -> np.ndarray:
    """``E_loc``: every sub-chunk's rows driven by its entry state alone.

    Entry ``u = [y_{-2}; y_{-1}]`` gives row 0 ``[T2_0, T1_0] u`` and
    row 1 ``T1_1 y_0 + T2_1 y_{-1}``; each later row is
    ``[T2_l, T1_l] [y_{l-2}; y_{l-1}]``, the sub-chunks in lockstep.
    """
    m = w.shape[1]
    e = np.empty((s * b, m, 2 * m), dtype=w.dtype)
    if s == 0:
        return e
    y = e.reshape(s, b, m, 2 * m)
    w = w.reshape(s, b, m, 3 * m)
    y[:, 0] = w[:, 0, :, :2 * m]
    if b < 2:
        return e
    with kernel_time("kernel.gemm"):
        np.matmul(w[:, 1, :, m:2 * m], y[:, 0], out=y[:, 1])
        y[:, 1, :, m:] += w[:, 1, :, :m]
        for row in range(2, b):
            np.matmul(w[:, row, :, :2 * m],
                      y[:, row - 2:row].reshape(s, 2 * m, 2 * m),
                      out=y[:, row])
    if get_config().flop_counting:
        record_flops("gemm", s * (gemm_flops(m, m, 2 * m)
                                  + (b - 2) * gemm_flops(m, 2 * m, 2 * m)))
    return e


def _entry_maps(e: np.ndarray, s: int, b: int) -> np.ndarray:
    """``Ê``: ``Ê_0`` reorders ``s_lo`` oldest first and
    ``Ê_{i+1} = A_i Ê_i``, where ``A_i``, sub-chunk ``i``'s exit map,
    is its last two rows of ``E_loc``."""
    m = e.shape[1]
    maps = np.empty((s, 2 * m, 2 * m), dtype=e.dtype)
    if s == 0:
        return maps
    maps[0] = _swap(m, e.dtype)
    if s > 1:
        exits = _sub_exits(e, s, b)
        with kernel_time("kernel.gemm"):
            for i in range(s - 1):
                np.matmul(exits[i], maps[i], out=maps[i + 1])
        if get_config().flop_counting:
            record_flops("gemm", (s - 1) * gemm_flops(2 * m, 2 * m, 2 * m))
    return maps


def _exit_state(rows: np.ndarray, entry: np.ndarray) -> np.ndarray:
    """The last two of ``rows``, newest first, reading ``y_{-1}`` and
    ``y_{-2}`` from the halves of ``entry`` (newest first) when there
    are fewer than two rows."""
    m = entry.shape[0] // 2
    seq = [entry[m:], entry[:m], *rows[-2:]]
    return np.concatenate([seq[-1], seq[-2]])


def _chunk_exit(ops: TransferOperators, rows: np.ndarray,
                entry: np.ndarray) -> np.ndarray:
    """The chunk's exit state ``[y_{t-1}; y_{t-2}]`` from the last
    sub-chunk's ``rows``, entering that sub-chunk with ``entry``."""
    first = (ops.nsub - 1) * ops.sub_rows
    return _exit_state(rows[first:ops.ntransfer], entry)


def local_matrix_aggregate(ops: TransferOperators) -> np.ndarray:
    """Composed matrix part of the chunk's transfer maps as ``(2M, 2M)``.

    The exit state's response to the entry state: the last sub-chunk's
    exit map times ``Ê`` of that sub-chunk (the identity for an empty
    chunk).
    """
    m = ops.block_size
    if ops.ntransfer == 0:
        return np.eye(2 * m, dtype=ops.dtype)
    exit_map = _chunk_exit(ops, ops.e, _swap(m, ops.dtype))
    return gemm(exit_map, ops.e_hat[-1])


def local_vector_aggregate(
    ops: TransferOperators, d_rows: np.ndarray
) -> tuple[np.ndarray, ZeroEntryStates]:
    """Composed vector part of the chunk's transfer maps, and the states
    it comes from.

    ``d_rows`` are the chunk's ``(h, M, R)`` right-hand-side rows (only
    the first ``ntransfer`` are read).  The lockstep kernel, which
    folds ``U^{-1}`` into its steps, gives each row ``f`` the
    recurrence reaches from a zero entry relative to its sub-chunk's
    entry; one pass over the sub-chunk entry states then ends in the
    exit state.  Pure matrix–vector work, ``O((N/P) M^2 R)``.  Returns
    ``(b_agg, f)``: ``b_agg = [f_{t-1}; f_{t-2}]``, shape ``(2M, R)``,
    is what the scan composes, and :func:`forward_solution` completes
    ``f`` once the entry state is known.
    """
    d_rows = _rhs_rows(ops, d_rows)
    m, k = ops.block_size, d_rows.shape[2]
    s, b = ops.nsub, ops.sub_rows
    rows = _lockstep(ops.w, d_rows, ops.ntransfer, s, b)
    entries = np.zeros((s, 2 * m, k), dtype=rows.dtype)
    b_agg = _chunk_exit(ops, rows, np.zeros((2 * m, k), dtype=rows.dtype))
    if s > 1:
        exit_maps = _sub_exits(ops.e, s, b)
        exit_rows = _sub_exits(rows, s, b)
        entries[1] = exit_rows[0]
        with kernel_time("kernel.gemm"):
            for i in range(1, s - 1):
                np.matmul(exit_maps[i], entries[i], out=entries[i + 1])
                entries[i + 1] += exit_rows[i]
        if get_config().flop_counting:
            record_flops("gemm", (s - 2) * gemm_flops(2 * m, 2 * m, k))
        exit_map = _chunk_exit(ops, ops.e, _swap(m, ops.dtype))
        b_agg += gemm(exit_map, entries[-1])
    return b_agg, ZeroEntryStates(rows, entries)


def forward_solution(
    ops: TransferOperators,
    f: ZeroEntryStates,
    entry_state: np.ndarray,
    nrows: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The chunk's ``nrows`` solution rows, ``x = f + E s_lo``.

    ``f`` is what :func:`local_vector_aggregate` returned and
    ``entry_state`` is ``s_lo = [x_lo; x_{lo-1}]`` of shape ``(2M, R)``.
    The first output row is ``x_lo``; the others are
    ``rows + E_loc (Ê s_lo + sub_entries)``, one batched ``gemm`` into
    the output.  Only the first ``nrows - 1`` transfers are read (the
    chunk's last transfer produces the *next* rank's first row).  The
    rows are written into ``out`` when given (a C-contiguous
    ``(nrows, M, R)`` array).
    """
    m = ops.block_size
    r = entry_state.shape[1]
    if out is None:
        out = np.empty((nrows, m, r), dtype=np.result_type(
            ops.dtype, f.rows.dtype, entry_state.dtype))
    elif out.shape != (nrows, m, r) or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous ({nrows}, {m}, {r}) "
                         f"array, got {out.shape}")
    if nrows == 0:
        return out
    k = nrows - 1
    if k > ops.ntransfer:
        raise ShapeError(
            f"chunk has {ops.ntransfer} transfers but {nrows} rows requested"
        )
    out[0] = entry_state[:m]
    if k:
        s, b = ops.nsub, ops.sub_rows
        u = gemm(ops.e_hat.reshape(s * 2 * m, 2 * m), entry_state)
        u = u.reshape(s, 2 * m, r) + f.sub_entries
        # E_loc u straight into the output: the sub-chunks it holds
        # whole, then the first rows of the next one.
        rows = out[1:]
        full, rest = divmod(k, b)
        gemm(ops.e[:full * b].reshape(full, b * m, 2 * m), u[:full],
             out=rows[:full * b].reshape(full, b * m, r))
        if rest:
            gemm(ops.e[full * b:k], u[full], out=rows[full * b:])
        rows += f.rows[:k]
    return out
