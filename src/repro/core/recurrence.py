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
``y_j = x_{lo+j+1} = E_j s_lo + f_j``.  ``E`` (the response to the entry
state) and ``f`` (the states reached from a zero entry) solve the same
unit block lower-triangular system

``y_j - T1_j y_{j-1} - T2_j y_{j-2} = c_j``  (``y_{-1} = y_{-2} = 0``)

of scalar lower bandwidth ``3M - 1``: ``E`` with the entry coupling
``c_0 = [T1_0, T2_0]``, ``c_1 = [T2_1, 0]`` (zero below) as right-hand
side, ``f`` with ``c = g``.

:class:`TransferOperators` holds the matrix side, built once: ``T1`` and
``T2``, the ``U_i^{-1}``, the system as a LAPACK lower band, and ``E``.
What remains per right-hand side is matrix–vector work:

- :func:`local_matrix_aggregate` — the chunk's composed matrix part,
  ``E``'s last two rows;
- :func:`local_vector_aggregate` — one trajectory solve gives ``f``,
  whose last two rows are the composed vector part;
- :func:`forward_solution` — the owned solution rows ``f + E s_lo``,
  one ``gemm``.

A trajectory of ``k`` columns is one LAPACK ``?tbtrs`` call while
``k * M <= BAND_MAX_WORK``.  ``?tbtrs`` sweeps the band once per
column, so wider panels take a row loop of one ``(M, 2M) @ (2M, k)``
gemm per row instead (docs/KERNELS.md).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..config import get_config
from ..exceptions import ReproError, ShapeError
from ..linalg.blockops import gemm, invert_blocks
from ..obs.tracer import kernel_time
from ..util.flops import gemm_flops, record_flops, tbtrs_flops
from .distribute import LocalChunk

__all__ = [
    "BAND_MAX_WORK",
    "TransferOperators",
    "local_matrix_aggregate",
    "local_vector_aggregate",
    "forward_solution",
]

#: Widest trajectory, in right-hand-side columns times block order,
#: solved by one ``?tbtrs`` call; wider panels take the row loop.  The
#: band solve's cost grows with every column while the row loop's is
#: mostly per-row dispatch, so the crossover sits at a fixed ``k * M``
#: (measured on the reference host, docs/KERNELS.md).
BAND_MAX_WORK = 128


class TransferOperators:
    """The matrix side of one chunk's recurrence, built once.

    Built from a :class:`~repro.core.distribute.LocalChunk`; covers the
    chunk's ``ntransfer`` rows (all owned rows except a final closing
    row).  The construction is the ``O((N/P) M^3)`` matrix work that RD
    repeats per right-hand side and ARD performs once.

    Attributes
    ----------
    uinv:
        ``(t, M, M)`` inverses of the superdiagonal blocks ``U_i``
        (``None`` when ``t = 0``), so ``g`` is one batched ``gemm``.
    t21:
        ``(t, M, 2M)`` rows ``[T2_j, T1_j]``, the row loop's operand
        (``t1`` and ``t2`` are views of it).
    band:
        The trajectory system in LAPACK lower band storage,
        ``(3M, tM)`` in Fortran order: ``band[d, c]`` is the entry
        ``(c + d, c)``, unit diagonal, ``-T1_j`` and ``-T2_j`` below.
    e:
        ``(t, M, 2M)`` response ``E_j`` of row ``x_{lo+j+1}`` to the
        entry state ``s_lo``.
    """

    __slots__ = ("lo", "ntransfer", "block_size", "dtype", "uinv", "t21",
                 "band", "e")

    def __init__(self, chunk: LocalChunk):
        t = chunk.ntransfer
        m = chunk.block_size
        self.lo = chunk.lo
        self.ntransfer = t
        self.block_size = m
        self.dtype = chunk.dtype
        if t > 0:
            # Invert the superdiagonal blocks; raises SingularBlockError
            # (with the global row index) if any is singular.
            self.uinv = invert_blocks(chunk.sup[:t], block_offset=chunk.lo)
            self.t21 = -gemm(self.uinv, np.concatenate(
                [chunk.sub[:t], chunk.diag[:t]], axis=2))
        else:
            self.uinv = None
            self.t21 = np.empty((0, m, 2 * m), dtype=chunk.dtype)
        self.band = _lower_band(self.t21)
        # Own the storage: the row loop returns a view of a padded buffer.
        self.e = _trajectory(self, _entry_coupling(self.t21)).copy()

    @property
    def t1(self) -> np.ndarray:
        """``(t, M, M)`` blocks ``T1_j = -U_j^{-1} D_j`` (a view)."""
        return self.t21[:, :, self.block_size:]

    @property
    def t2(self) -> np.ndarray:
        """``(t, M, M)`` blocks ``T2_j = -U_j^{-1} L_j`` (a view)."""
        return self.t21[:, :, :self.block_size]

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

    @property
    def nbytes(self) -> int:
        total = self.t21.nbytes + self.band.nbytes + self.e.nbytes
        if self.uinv is not None:
            total += self.uinv.nbytes
        return total


def _lower_band(t21: np.ndarray) -> np.ndarray:
    """The unit lower band of the trajectory system, LAPACK layout.

    Column ``J M + b`` of the ``(3M, tM)`` Fortran-order result holds
    ``-T1_{J+1}[a, b]`` at offset ``M + a - b`` and ``-T2_{J+2}[a, b]``
    at offset ``2M + a - b``.
    """
    t, m, _ = t21.shape
    band = np.zeros((3 * m, t * m), dtype=t21.dtype, order="F")
    band[0] = 1.0
    cols = band.T.reshape(t, m, 3 * m)  # a C-order view: [J, b, offset]
    a, b = np.indices((m, m))
    cols[:max(t - 1, 0), b, m + a - b] = -t21[1:, a, m + b]
    cols[:max(t - 2, 0), b, 2 * m + a - b] = -t21[2:, a, b]
    return band


def _entry_coupling(t21: np.ndarray) -> np.ndarray:
    """Right-hand side of ``E``: how ``s_lo`` enters rows 0 and 1."""
    t, m, _ = t21.shape
    c = np.zeros((t, m, 2 * m), dtype=t21.dtype)
    if t > 0:
        c[0, :, :m] = t21[0, :, m:]  # T1_0 x_lo
        c[0, :, m:] = t21[0, :, :m]  # T2_0 x_{lo-1}
    if t > 1:
        c[1, :, :m] = t21[1, :, :m]  # T2_1 x_lo
    return c


def _band_trajectory(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the trajectory system for ``(t, M, k)`` ``rhs``: one ``?tbtrs``."""
    t, m, k = rhs.shape
    n = t * m
    if n == 0:
        return np.zeros(rhs.shape, dtype=np.result_type(band.dtype, rhs.dtype))
    b = rhs.reshape(n, k)
    tbtrs, = get_lapack_funcs(("tbtrs",), (band, b))
    with kernel_time("kernel.trsm"):
        x, info = tbtrs(band, b, uplo="L", diag="U")
    if info != 0:
        raise ReproError(f"LAPACK {tbtrs.typecode}tbtrs failed with info={info}")
    if get_config().flop_counting:
        record_flops("trsm", tbtrs_flops(n, band.shape[0] - 1, k))
    return x.reshape(t, m, k)


def _loop_trajectory(t21: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the trajectory system for ``(t, M, k)`` ``rhs`` row by row.

    Row ``j`` is one ``[T2_j, T1_j] @ [y_{j-2}; y_{j-1}]`` gemm into a
    buffer with two leading zero rows, so the stacked state is a
    contiguous slice.
    """
    t, m, k = rhs.shape
    buf = np.zeros((t + 2, m, k), dtype=np.result_type(t21.dtype, rhs.dtype))
    flat = buf.reshape((t + 2) * m, k)
    with kernel_time("kernel.gemm"):
        for j in range(t):
            row = buf[j + 2]
            np.matmul(t21[j], flat[j * m:(j + 2) * m], out=row)
            row += rhs[j]
    if get_config().flop_counting:
        record_flops("gemm", t * gemm_flops(m, 2 * m, k))
    return buf[2:]


def _trajectory(ops: TransferOperators, rhs: np.ndarray) -> np.ndarray:
    """The rows ``y_j`` the chunk's recurrence reaches from a zero entry
    state, driven by ``(t, M, k)`` ``rhs``."""
    if rhs.shape[2] * ops.block_size <= BAND_MAX_WORK:
        return _band_trajectory(ops.band, rhs)
    return _loop_trajectory(ops.t21, rhs)


def _exit_state(rows: np.ndarray, entry: np.ndarray) -> np.ndarray:
    """``[y_{t-1}; y_{t-2}]`` of a trajectory, reading ``y_{-1}`` and
    ``y_{-2}`` from the halves of ``entry`` when the chunk is short."""
    m = entry.shape[0] // 2
    seq = [entry[m:], entry[:m], *rows[-2:]]
    return np.concatenate([seq[-1], seq[-2]])


def local_matrix_aggregate(ops: TransferOperators) -> np.ndarray:
    """Composed matrix part of the chunk's transfer maps as ``(2M, 2M)``.

    The exit state's response to the entry state: ``E``'s last two
    rows (the identity for an empty chunk).
    """
    return _exit_state(ops.e, np.eye(2 * ops.block_size, dtype=ops.dtype))


def local_vector_aggregate(
    ops: TransferOperators, g_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Composed vector part of the chunk's transfer maps, and the states
    it comes from.

    One trajectory solve from a zero entry state gives ``f``, the
    ``(ntransfer, M, R)`` rows the recurrence reaches; pure
    matrix–vector work, ``O((N/P) M^2 R)``.  Returns ``(b_agg, f)``:
    ``b_agg = [f_{t-1}; f_{t-2}]``, shape ``(2M, R)``, is what the scan
    composes, and :func:`forward_solution` completes ``f`` once the
    entry state is known.
    """
    g_rows = np.asarray(g_rows)
    if g_rows.ndim != 3 or g_rows.shape[:2] != (ops.ntransfer, ops.block_size):
        raise ShapeError(
            f"expected ({ops.ntransfer}, {ops.block_size}, R) g rows, "
            f"got {g_rows.shape}"
        )
    f_rows = _trajectory(ops, g_rows)
    zero = np.zeros((2 * ops.block_size, g_rows.shape[2]), dtype=f_rows.dtype)
    return _exit_state(f_rows, zero), f_rows


def forward_solution(
    ops: TransferOperators,
    f_rows: np.ndarray,
    entry_state: np.ndarray,
    nrows: int,
) -> np.ndarray:
    """The chunk's ``nrows`` solution rows, ``x = f + E s_lo``.

    ``f_rows`` are the zero-entry states from
    :func:`local_vector_aggregate` and ``entry_state`` is
    ``s_lo = [x_lo; x_{lo-1}]`` of shape ``(2M, R)``.  The first output
    row is ``x_lo``; the others are one ``gemm`` against ``E``.  Only
    the first ``nrows - 1`` transfers are read (the chunk's last
    transfer produces the *next* rank's first row).
    """
    m = ops.block_size
    r = entry_state.shape[1]
    out = np.empty((nrows, m, r), dtype=np.result_type(
        ops.dtype, f_rows.dtype, entry_state.dtype))
    if nrows == 0:
        return out
    k = nrows - 1
    if k > ops.ntransfer:
        raise ShapeError(
            f"chunk has {ops.ntransfer} transfers but {nrows} rows requested"
        )
    out[0] = entry_state[:m]
    if k:
        response = gemm(ops.e[:k].reshape(k * m, 2 * m), entry_state)
        np.add(f_rows[:k], response.reshape(k, m, r), out=out[1:])
    return out
