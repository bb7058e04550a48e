"""SPIKE-style partitioned solver — the stable distributed companion.

Recursive doubling's recurrence formulation is only accurate for
bounded-transfer-growth systems (DESIGN.md).  This module provides the
classical *partitioned* (SPIKE / Schur-complement) method, which is
backward stable for the block-diagonally-dominant systems that defeat
RD/ARD, with the same factor-once / solve-many split:

factor (RHS-independent, ``O((N/P) M^3 + P M^3)``):
    1. each rank factors its interior block tridiagonal system with the
       block Thomas algorithm (:class:`~repro.core.thomas`-style),
    2. computes its two *spikes* — the responses of the local system to
       the neighbour couplings:
       ``W = A_r^{-1} (e_top  ⊗ L_lo)`` and
       ``V = A_r^{-1} (e_bot ⊗ U_{hi-1})`` — of which only the top and
       bottom block rows enter the reduced system,
    3. the per-interface unknowns ``u_r = [x_r^bot; x_{r+1}^top]``
       satisfy a **block tridiagonal system of block size 2M with
       (K-1) block rows** (K = populated ranks), assembled by gathering
       four small blocks per rank and block-Thomas factored at the
       root.

solve (per RHS batch, ``O((N/P) M^2 R + P M^2 R)``):
    local Thomas solve for ``y = A_r^{-1} d_r``, gather its top/bottom
    rows, reduced solve at the root, scatter the interface values, and
    the local combination ``x_r = y - W x_{r-1}^bot - V x_{r+1}^top``
    (only the stored full-length spikes' action is needed — two block
    GEMMs per row).

Requirements: every populated rank owns **at least two block rows**
(the classical SPIKE assumption; the driver clamps the rank count), and
the local systems must be Thomas-factorable (guaranteed for block
diagonally dominant matrices).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..exceptions import ShapeError
from ..linalg.blockops import BatchedLU, gemm
from ..linalg.blocktridiag import BlockTridiagonalMatrix
from ..obs import span as _span
from .distribute import LocalChunk
from .engine import validate_rhs_rows
from .refine import RefinableFactorization

__all__ = ["SpikeRankState", "spike_factor_spmd", "spike_solve_spmd",
           "spike_solve", "SpikeFactorization", "max_spike_ranks"]

_TAG_REDUCED = 301


def max_spike_ranks(nblocks: int, nranks: int) -> int:
    """Largest usable rank count: every populated rank needs >= 2 rows."""
    return max(1, min(nranks, nblocks // 2))


class _LocalThomas:
    """Block Thomas factorization of a system given as raw ``(h, M, M)``
    batches: one rank's interior system, or the interface system at the
    root.

    A trimmed-down version of
    :class:`repro.core.thomas.ThomasFactorization` (same arithmetic) that
    keeps only what its solve reads: ``sub[i]`` couples row ``i`` to
    ``i - 1`` (``sub[0]`` is unused), and ``diag``/``sup`` are not kept.
    """

    __slots__ = ("h", "m", "_sub", "_slu", "_v")

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        h, m, _ = diag.shape
        self.h = h
        self.m = m
        self._sub = sub
        schur = np.empty_like(diag)
        self._v = np.empty((max(h - 1, 0), m, m), dtype=diag.dtype)
        schur[0] = diag[0]
        lus = []
        for i in range(h):
            if i > 0:
                schur[i] = diag[i] - gemm(sub[i], self._v[i - 1])
            lu = BatchedLU(schur[i][None, :, :], block_offset=i)
            lus.append(lu)
            if i < h - 1:
                self._v[i] = lu.solve(sup[i][None, :, :])[0]
        self._slu = BatchedLU.stack(lus)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve the interior system for ``(h, M, R)`` right-hand sides."""
        h = self.h
        c = np.empty(b.shape, dtype=np.result_type(self._slu.dtype, b.dtype))
        c[0] = self._slu.solve_one(0, b[0])
        for i in range(1, h):
            c[i] = self._slu.solve_one(i, b[i] - gemm(self._sub[i], c[i - 1]))
        x = np.empty_like(c)
        x[h - 1] = c[h - 1]
        for i in range(h - 2, -1, -1):
            x[i] = c[i] - gemm(self._v[i], x[i + 1])
        return x

    @property
    def nbytes(self) -> int:
        return self._sub.nbytes + self._slu.nbytes + self._v.nbytes


@dataclasses.dataclass
class SpikeRankState:
    """Per-rank stored SPIKE factorization, and nothing the solve does
    not read: :attr:`nbytes` counts every array it holds.

    Attributes
    ----------
    nrows, block_size:
        The rank's row count ``h`` and block order ``M`` (the shape
        each solve's right-hand-side rows must have).
    local:
        Factored interior system (``None`` on empty ranks).
    w, v:
        Full-length spikes, ``(h, M, M)`` each (zero-width on boundary
        ranks with no corresponding neighbour).
    kranks:
        Number of populated ranks (all ranks agree on it).
    reduced:
        ``reduced_mode == "root"``: root-only block Thomas
        factorization of the interface system (``None`` elsewhere).
        ``reduced_mode == "bcyclic"``: this rank's interface-row blocks
        ``(lower, diag, upper)`` of size ``2M`` (``None`` on ranks
        owning no interface).
    reduced_mode:
        ``"root"`` (gather + sequential Thomas at rank 0) or
        ``"bcyclic"`` (distributed cyclic reduction over the
        interfaces, one per rank — no root bottleneck).
    """

    nrows: int
    block_size: int
    local: _LocalThomas | None
    w: np.ndarray
    v: np.ndarray
    kranks: int
    reduced: "_LocalThomas | tuple[np.ndarray, ...] | None"
    reduced_mode: str = "root"

    @property
    def nbytes(self) -> int:
        """Bytes of every array the state holds."""
        total = self.w.nbytes + self.v.nbytes
        if self.local is not None:
            total += self.local.nbytes
        if isinstance(self.reduced, _LocalThomas):
            total += self.reduced.nbytes
        elif self.reduced is not None:
            total += sum(block.nbytes for block in self.reduced)
        return total


def _check_chunk(chunk: LocalChunk, size: int) -> None:
    if 0 < chunk.nrows < 2:
        raise ShapeError(
            "SPIKE requires every populated rank to own >= 2 block rows; "
            f"rank range [{chunk.lo}, {chunk.hi}) owns {chunk.nrows} "
            "(use max_spike_ranks() to clamp the rank count)"
        )


def spike_factor_spmd(comm, chunk: LocalChunk, reduced_mode: str = "root"
                      ) -> SpikeRankState:
    """Factor phase: local Thomas + spikes + reduced-system factorization.

    ``reduced_mode`` selects how the interface system is solved:

    - ``"root"`` — gather the ``(K-1)``-row, ``2M``-block system to rank
      0 and Thomas-factor it once (cheapest per solve for large R, but
      an ``O(P)`` root bottleneck);
    - ``"bcyclic"`` — keep one interface row per rank and solve with
      distributed cyclic reduction at solve time (``O(M^3 log P)``
      critical path, fully distributed).

    Returns the rank's :class:`SpikeRankState`; subsequent calls of
    :func:`spike_solve_spmd` must reuse the same communicator geometry.
    """
    if reduced_mode not in ("root", "bcyclic"):
        raise ShapeError(
            f"reduced_mode must be 'root' or 'bcyclic', got {reduced_mode!r}"
        )
    _check_chunk(chunk, comm.size)
    h, m = chunk.nrows, chunk.block_size
    dtype = chunk.dtype
    with _span("local_factor"):
        populated = comm.allgather(h > 0)
        kranks = sum(populated)
        local = _LocalThomas(chunk.sub, chunk.diag, chunk.sup) if h > 0 else None

    with _span("spikes"):
        w = np.zeros((h, m, m), dtype=dtype)
        v = np.zeros((h, m, m), dtype=dtype)
        if h > 0:
            has_left = chunk.lo > 0
            has_right = chunk.hi < chunk.nblocks
            if has_left:
                rhs = np.zeros((h, m, m), dtype=dtype)
                rhs[0] = chunk.sub[0]       # L_lo couples to the left bottom
                w = local.solve(rhs)
            if has_right:
                rhs = np.zeros((h, m, m), dtype=dtype)
                rhs[-1] = chunk.sup[-1]     # U_{hi-1} couples to the right top
                v = local.solve(rhs)

    # Interface r sits between populated ranks r and r+1 and couples
    # u_r = [x_r^bot; x_{r+1}^top].  Rank r contributes its (bottom-row)
    # spike samples; rank r+1 its (top-row) samples.
    with _span("reduced"):
        reduced = None
        if reduced_mode == "root":
            contribution = None
            if h > 0:
                contribution = {
                    "w_top": w[0].copy(), "w_bot": w[-1].copy(),
                    "v_top": v[0].copy(), "v_bot": v[-1].copy(),
                }
            gathered = comm.gather(contribution, root=0)
            if comm.rank == 0 and kranks > 1:
                reduced = _assemble_reduced(gathered, kranks, m, dtype)
        elif kranks > 1:
            # Distributed assembly: rank r owns interface row r (r < K-1)
            # and needs only rank r+1's top spike samples — one message.
            rank = comm.rank
            if 0 < rank < kranks:
                comm.send((w[0].copy(), v[0].copy()), rank - 1, _TAG_REDUCED)
            if rank < kranks - 1:
                w_top_next, v_top_next = comm.recv(source=rank + 1, tag=_TAG_REDUCED)
                n_iface = kranks - 1
                dim = 2 * m
                eye = np.eye(m, dtype=dtype)
                diag = np.zeros((dim, dim), dtype=dtype)
                diag[:m, :m] = eye
                diag[:m, m:] = v[-1]
                diag[m:, :m] = w_top_next
                diag[m:, m:] = eye
                low = np.zeros((dim, dim), dtype=dtype)
                if rank > 0:
                    low[:m, :m] = w[-1]
                up = np.zeros((dim, dim), dtype=dtype)
                if rank + 1 < n_iface:
                    up[m:, m:] = v_top_next
                reduced = (low, diag, up)
    return SpikeRankState(
        nrows=h, block_size=m, local=local, w=w, v=v, kranks=kranks,
        reduced=reduced, reduced_mode=reduced_mode,
    )


def _assemble_reduced(gathered, kranks: int, m: int, dtype) -> _LocalThomas:
    """Build and factor the (K-1)-row, 2M-block interface system.

    Interface ``r`` unknown: ``u_r = [b_r; t_{r+1}]``; equations
    ``b_r + W_r^bot b_{r-1} + V_r^bot t_{r+1} = y_r^bot`` and
    ``t_{r+1} + W_{r+1}^top b_r + V_{r+1}^top t_{r+2} = y_{r+1}^top``.
    """
    n_iface = kranks - 1
    dim = 2 * m
    diag = np.zeros((n_iface, dim, dim), dtype=dtype)
    # _LocalThomas layout: lower[r] couples row r to r - 1, upper[r] row
    # r to r + 1.
    lower = np.zeros((n_iface, dim, dim), dtype=dtype)
    upper = np.zeros((n_iface, dim, dim), dtype=dtype)
    eye = np.eye(m, dtype=dtype)
    for r in range(n_iface):
        gr = gathered[r]
        gr1 = gathered[r + 1]
        diag[r, :m, :m] = eye
        diag[r, :m, m:] = gr["v_bot"]
        diag[r, m:, :m] = gr1["w_top"]
        diag[r, m:, m:] = eye
        if r > 0:
            # b_r's equation couples b_{r-1} = first component of u_{r-1}.
            lower[r, :m, :m] = gr["w_bot"]
        if r + 1 < n_iface:
            # t_{r+1}'s equation couples t_{r+2} = second comp of u_{r+1}.
            upper[r, m:, m:] = gr1["v_top"]
    return _LocalThomas(lower, diag, upper)


def spike_solve_spmd(comm, state: SpikeRankState, d_rows: np.ndarray) -> np.ndarray:
    """Solve phase against a stored :class:`SpikeRankState`.

    ``d_rows`` is the rank's ``(h, M, R)`` right-hand-side rows; returns
    the ``(h, M, R)`` solution rows.
    """
    h, m = state.nrows, state.block_size
    d_rows = validate_rhs_rows(state, d_rows) if h > 0 else np.asarray(d_rows)
    r = d_rows.shape[2] if d_rows.ndim == 3 else 1

    with _span("local_solve"):
        y = state.local.solve(d_rows) if h > 0 else d_rows
    with _span("reduced"):
        if state.reduced_mode == "root":
            left, right = _reduced_solve_root(comm, state, y, m, r)
        else:
            left, right = _reduced_solve_bcyclic(comm, state, y, m, r)

    with _span("combine"):
        if h == 0:
            return np.empty((0, m, r), dtype=y.dtype)
        x = y
        if left is not None:
            x = x - gemm(state.w, np.broadcast_to(left, (h, m, r)))
        if right is not None:
            x = x - gemm(state.v, np.broadcast_to(right, (h, m, r)))
        return x


def _reduced_solve_root(comm, state: SpikeRankState, y, m: int, r: int):
    """Gather interface samples to rank 0, solve, scatter corrections."""
    h = state.nrows
    sample = None
    if h > 0:
        sample = {"y_top": y[0].copy(), "y_bot": y[-1].copy()}
    gathered = comm.gather(sample, root=0)

    # Root solves the interface system and scatters (b_left, t_right)
    # pairs back: rank q receives x_{q-1}^bot and x_{q+1}^top.
    if comm.rank == 0 and state.kranks > 1:
        n_iface = state.kranks - 1
        rhs = np.empty((n_iface, 2 * m, r), dtype=y.dtype)
        for i in range(n_iface):
            rhs[i, :m] = gathered[i]["y_bot"]
            rhs[i, m:] = gathered[i + 1]["y_top"]
        u = state.reduced.solve(rhs)
        shipments: list = []
        for q in range(comm.size):
            if q >= state.kranks:
                shipments.append(None)
                continue
            # u_{q-1} = [b_{q-1}; t_q], u_q = [b_q; t_{q+1}]: rank q needs
            # its left neighbour's bottom and right neighbour's top.
            left = u[q - 1, :m] if q > 0 else None              # x_{q-1}^bot
            right = u[q, m:] if q < state.kranks - 1 else None  # x_{q+1}^top
            shipments.append((left, right))
    else:
        shipments = None
    left_right = comm.scatter(shipments, root=0) if state.kranks > 1 else (None, None)
    if left_right is None:
        left_right = (None, None)
    return left_right


def _reduced_solve_bcyclic(comm, state: SpikeRankState, y, m: int, r: int):
    """Distributed reduced solve: one interface row per rank, cyclic
    reduction across them — no root bottleneck."""
    from .bcyclic import bcyclic_solve_spmd

    rank = comm.rank
    kranks = state.kranks
    n_iface = kranks - 1
    h = state.nrows

    if n_iface < 1:
        # Every rank must still participate in the (collective) split.
        comm.split(color=None)
        return None, None

    # Neighbour exchange of local-solution samples for the interface RHS.
    if 0 < rank < kranks and h > 0:
        comm.send(y[0].copy(), rank - 1, _TAG_REDUCED + 1)
    rhs = None
    if rank < n_iface and h > 0:
        y_top_next = comm.recv(source=rank + 1, tag=_TAG_REDUCED + 1)
        rhs = np.concatenate([y[-1], y_top_next], axis=0)  # (2M, R)

    sub = comm.split(color=0 if rank < n_iface else None)
    u_own = None
    if sub is not None:
        u_own = bcyclic_solve_spmd(sub, state.reduced, rhs, n_iface)

    # Redistribute: rank q needs u_{q-1}[:m] (left neighbour's bottom)
    # and holds u_q[m:] itself.
    if rank < n_iface:
        comm.send(u_own[:m], rank + 1, _TAG_REDUCED + 2)
    left = None
    if 0 < rank < kranks:
        left = comm.recv(source=rank - 1, tag=_TAG_REDUCED + 2)
    right = u_own[m:] if u_own is not None else None
    return left, right


class SpikeFactorization(RefinableFactorization):
    """Driver-level SPIKE factorization: factor once, solve many.

    The stable distributed alternative for matrices outside recursive
    doubling's stability domain (strong block diagonal dominance).
    ``solve(b, refine=k)`` adds iterative refinement.

    Example
    -------
    >>> from repro.core.spike import SpikeFactorization
    >>> from repro.workloads import poisson_block_system, random_rhs
    >>> A, _ = poisson_block_system(64, 4)
    >>> F = SpikeFactorization(A, nranks=4)
    >>> b = random_rhs(64, 4, nrhs=8, seed=0)
    >>> bool(A.residual(F.solve(b), b) < 1e-10)
    True
    """

    def __init__(self, matrix, nranks: int = 1, cost_model=None,
                 reduced_mode: str = "root", trace: bool = False,
                 backend: str | None = None):
        from ..comm import run_spmd
        from .distribute import distribute_matrix

        if not isinstance(matrix, BlockTridiagonalMatrix):
            raise ShapeError(
                f"matrix must be a BlockTridiagonalMatrix, got {type(matrix).__name__}"
            )
        if nranks < 1:
            raise ShapeError(f"nranks must be >= 1, got {nranks}")
        self.matrix = matrix
        self.nblocks = matrix.nblocks
        self.block_size = matrix.block_size
        # Clamp so every populated rank owns >= 2 rows (SPIKE requirement).
        self.nranks = max_spike_ranks(matrix.nblocks, nranks)
        self.cost_model = cost_model
        self.reduced_mode = reduced_mode
        self.trace = trace
        self.backend = backend
        self._run_spmd = run_spmd
        chunks = distribute_matrix(matrix, self.nranks)
        self.factor_result = run_spmd(
            spike_factor_spmd,
            self.nranks,
            cost_model=cost_model,
            copy_messages=False,
            rank_args=[(c, reduced_mode) for c in chunks],
            trace=trace,
            backend=backend,
        )
        self._states = list(self.factor_result.values)
        self.last_solve_result = None

    @property
    def factor_virtual_time(self) -> float:
        """Modelled parallel time of the factor phase."""
        return self.factor_result.virtual_time

    @property
    def nbytes(self) -> int:
        """Total stored factorization footprint across ranks."""
        return sum(s.nbytes for s in self._states)

    def _solve_normalized(self, bb: np.ndarray) -> np.ndarray:
        from .distribute import distribute_rhs, gather_solution

        d_chunks = distribute_rhs(bb, self.nranks)
        result = self._run_spmd(
            spike_solve_spmd,
            self.nranks,
            cost_model=self.cost_model,
            copy_messages=False,
            rank_args=[(s, d) for s, d in zip(self._states, d_chunks)],
            trace=self.trace,
            backend=self.backend,
        )
        self.last_solve_result = result
        return gather_solution(list(result.values))


def spike_solve(matrix: BlockTridiagonalMatrix, b: np.ndarray,
                nranks: int = 1, cost_model=None) -> np.ndarray:
    """Convenience one-shot SPIKE factor + solve."""
    return SpikeFactorization(matrix, nranks=nranks, cost_model=cost_model).solve(b)
