"""Analytic cost models — the paper's complexity analysis, executable.

For each solver these functions compute critical-path flop counts and
message counts/volumes from the same textbook kernel costs the
instrumented implementation records (``2mkn`` per GEMM, ``2/3 m^3`` per
LU, ``2 m^2 r`` per triangular solve pair, and the recurrence's
lockstep kernel's gemms with ``U^{-1}`` folded in, padding rows
included).  Experiment recon-T1 compares them against instrumented
totals; recon-F6 converts them to predicted times via
:func:`AlgorithmCost.time` and compares against the simulator's virtual
makespan.

All counts model the *critical-path rank*: the one owning the largest
chunk (``ceil(N/P)`` rows) and participating in every scan round.
"""

from __future__ import annotations

import dataclasses
import math

from ..comm.costmodel import CostModel
from ..core.recurrence import sub_chunks
from ..util.flops import gemm_flops

__all__ = [
    "PhaseCost",
    "AlgorithmCost",
    "ard_factor_cost",
    "ard_solve_cost",
    "rd_cost",
    "thomas_factor_cost",
    "thomas_solve_cost",
    "cyclic_factor_cost",
    "cyclic_solve_cost",
    "bcr_parallel_cost",
    "spike_factor_cost",
    "spike_solve_cost",
    "speedup_model",
]

_F8 = 8  # bytes per float64


@dataclasses.dataclass(frozen=True)
class PhaseCost:
    """Critical-path cost of one algorithm phase."""

    name: str
    flops: float = 0.0
    messages: int = 0
    bytes: float = 0.0


@dataclasses.dataclass(frozen=True)
class AlgorithmCost:
    """Summed phase costs plus the time model."""

    name: str
    phases: tuple[PhaseCost, ...]

    @property
    def flops(self) -> float:
        return sum(p.flops for p in self.phases)

    @property
    def messages(self) -> int:
        return sum(p.messages for p in self.phases)

    @property
    def bytes(self) -> float:
        return sum(p.bytes for p in self.phases)

    def time(self, cm: CostModel) -> float:
        """Predicted seconds under the alpha–beta machine model.

        Serial composition of critical-path compute and communication:
        ``flops/rate + sum_msgs (latency + 2*overhead) + bytes/bw``.
        """
        return (
            self.flops / cm.flop_rate
            + self.messages * (cm.latency + 2.0 * cm.overhead)
            + self.bytes * cm.inv_bandwidth
        )

    def phase(self, name: str) -> PhaseCost:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)


def _rounds(p: int) -> int:
    """Kogge–Stone rounds for ``p`` ranks."""
    return max(0, math.ceil(math.log2(p))) if p > 1 else 0


def _chunk(n: int, p: int) -> int:
    """Critical-path chunk size."""
    return math.ceil(n / p)


def _entry_response_flops(t: int, m: int) -> float:
    """``E_loc``: each of ``S`` sub-chunks of ``b`` rows driven by its
    ``2M``-column entry state, one ``(M, M) @ (M, 2M)`` gemm for row 1
    and one ``(M, 2M) @ (2M, 2M)`` for each later row."""
    s, b = sub_chunks(t)
    if b < 2:
        return 0.0
    return s * (gemm_flops(m, m, 2 * m) + (b - 2) * gemm_flops(m, 2 * m, 2 * m))


def _trajectory_flops(t: int, m: int, k: int) -> float:
    """One ``k``-column zero-entry trajectory over ``t`` right-hand-side
    rows, as :mod:`repro.core.recurrence` runs it at every width: the
    lockstep kernel over ``S`` sub-chunks of ``b`` rows, per sub-chunk
    one ``(M, M) @ (M, k)`` gemm for row 0 (``U^{-1}``), one
    ``(M, 2M) @ (2M, k)`` for row 1 (``[T1, U^{-1}]``) and one
    ``(M, 3M) @ (3M, k)`` for each later row (``W``), padding rows
    included; then ``S - 1`` ``(2M, 2M) @ (2M, k)`` gemms across the
    sub-chunk entry states (the last one forms the exit state)."""
    s, b = sub_chunks(t)
    return (s * (gemm_flops(m, m, k) + min(b - 1, 1) * gemm_flops(m, 2 * m, k)
                 + max(b - 2, 0) * gemm_flops(m, 3 * m, k))
            + max(s - 1, 0) * gemm_flops(2 * m, 2 * m, k))


def ard_factor_cost(n: int, m: int, p: int) -> AlgorithmCost:
    """ARD factor phase: ``O(M^3 (N/P + log P))``."""
    t = _chunk(n, p)
    rho = _rounds(p)
    build = PhaseCost(
        "build",
        # inv(U_i) (LU + solve against I) + the T1, T2 products
        flops=t * ((2 / 3) * m**3 + 2 * m**3 + 2 * 2 * m**3),
    )
    # E_loc, then the S - 1 maps Ê and the matrix aggregate, one (2M)^3
    # gemm each.
    s, _ = sub_chunks(t)
    aggregate = PhaseCost(
        "aggregate",
        flops=_entry_response_flops(t, m) + s * gemm_flops(2 * m, 2 * m, 2 * m),
    )
    scan = PhaseCost(
        "scan",
        flops=rho * 2 * (2 * m) ** 3,            # one (2M)^3 product per round
        messages=rho + 1,                         # sends per round + shift
        bytes=(rho + 1) * (2 * m) ** 2 * _F8,
    )
    closing = PhaseCost(
        "closing",
        flops=2 * 2 * m**3 + (2 / 3) * m**3,     # assemble K + factor it
        messages=2 * _rounds(p) + 1,              # closing-rank allgather (~)
        bytes=(2 * _rounds(p) + 1) * 16.0,
    )
    return AlgorithmCost("ard_factor", (build, aggregate, scan, closing))


def ard_solve_cost(n: int, m: int, p: int, r: int) -> AlgorithmCost:
    """ARD solve phase: ``O(M^2 R (N/P + log P))`` with ``O(M R)`` messages."""
    t = _chunk(n, p)
    rho = _rounds(p)
    # f: the zero-entry trajectory from the right-hand-side rows; its
    # last two rows are the aggregate.
    aggregate = PhaseCost("aggregate", flops=_trajectory_flops(t, m, r))
    replay = PhaseCost(
        "scan",
        flops=rho * 2 * (2 * m) ** 2 * r,
        messages=rho + 1,
        bytes=(rho + 1) * 2 * m * r * _F8,
    )
    closing = PhaseCost(
        "closing",
        flops=(2 * 2 + 2) * m**2 * r,            # rhs assembly + back-solve
        messages=_rounds(p),                      # bcast of x0
        bytes=_rounds(p) * m * r * _F8,
    )
    s, b = sub_chunks(t)
    backsub = PhaseCost(
        "backsub",
        # entry state s_lo, the sub-chunk entries Ê s_lo, then
        # f + E_loc u over all S b rows
        flops=(gemm_flops(2 * m, m, r) + s * gemm_flops(2 * m, 2 * m, r)
               + s * b * gemm_flops(m, 2 * m, r)),
    )
    return AlgorithmCost("ard_solve", (aggregate, replay, closing, backsub))


def rd_cost(n: int, m: int, p: int, r: int) -> AlgorithmCost:
    """Naive RD for ``R`` right-hand sides: ``R`` independent full passes,
    each ``O(M^3 (N/P + log P))`` — the baseline the paper improves on."""
    factor = ard_factor_cost(n, m, p)
    solve = ard_solve_cost(n, m, p, 1)
    merged: dict[str, list[float]] = {}
    for part in (factor.phases, solve.phases):
        for ph in part:
            agg = merged.setdefault(ph.name, [0.0, 0, 0.0])
            agg[0] += ph.flops
            agg[1] += ph.messages
            agg[2] += ph.bytes
    phases = tuple(
        PhaseCost(name, flops=r * v[0], messages=r * int(v[1]), bytes=r * v[2])
        for name, v in merged.items()
    )
    return AlgorithmCost("rd", phases)


def thomas_factor_cost(n: int, m: int) -> AlgorithmCost:
    """Sequential block Thomas factorization: ``O(N M^3)``."""
    flops = n * (2 / 3) * m**3 + max(n - 1, 0) * (2 * m**3 + 2 * m**3)
    return AlgorithmCost("thomas_factor", (PhaseCost("factor", flops=flops),))


def thomas_solve_cost(n: int, m: int, r: int) -> AlgorithmCost:
    """Sequential block Thomas solve: ``O(N M^2 R)``."""
    flops = n * 2 * m**2 * r + max(n - 1, 0) * (2 + 2) * m**2 * r
    return AlgorithmCost("thomas_solve", (PhaseCost("solve", flops=flops),))


def _bcr_levels(n: int):
    """Yield ``(rows, kept, eliminated)`` per reduction level."""
    while n > 1:
        k = (n + 1) // 2
        e = n // 2
        yield n, k, e
        n = k


def cyclic_factor_cost(n: int, m: int) -> AlgorithmCost:
    """Sequential block cyclic reduction factorization: ``O(N M^3)``."""
    flops = 0.0
    for _, k, e in _bcr_levels(n):
        flops += e * (2 / 3) * m**3                  # LU of eliminated diagonals
        flops += 2 * k * 2 * m**3                    # P, Q transposed solves (<= 2/row)
        flops += 2 * k * 2 * m**3                    # diagonal updates
        flops += 2 * max(k - 1, 0) * 2 * m**3        # new off-diagonal products
    flops += (2 / 3) * m**3                          # root factorization
    return AlgorithmCost("cyclic_factor", (PhaseCost("factor", flops=flops),))


def cyclic_solve_cost(n: int, m: int, r: int) -> AlgorithmCost:
    """Sequential block cyclic reduction solve: ``O(N M^2 R)``."""
    flops = 0.0
    for _, k, e in _bcr_levels(n):
        flops += 2 * k * 2 * m**2 * r                # downward RHS reduction
        flops += e * (2 * 2 * m**2 * r + 2 * m**2 * r)  # upward back-substitution
    flops += 2 * m**2 * r
    return AlgorithmCost("cyclic_solve", (PhaseCost("solve", flops=flops),))


def spike_factor_cost(n: int, m: int, p: int) -> AlgorithmCost:
    """SPIKE factor phase: local Thomas + two M-column spikes + the
    root-side (K-1)-row, 2M-block reduced Thomas factorization."""
    t = _chunk(n, p)
    local = PhaseCost(
        "local",
        flops=t * (2 / 3) * m**3 + max(t - 1, 0) * 4 * m**3,  # Thomas factor
    )
    spikes = PhaseCost("spikes", flops=2 * t * (2 + 2) * m**2 * m)
    n_iface = max(p - 1, 0)
    reduced = PhaseCost(
        "reduced",
        flops=n_iface * ((2 / 3) * (2 * m) ** 3 + 4 * (2 * m) ** 3),
        messages=2 * _rounds(p) + 1,                 # gather of 4 blocks
        bytes=(2 * _rounds(p) + 1) * 4 * m * m * _F8,
    )
    return AlgorithmCost("spike_factor", (local, spikes, reduced))


def spike_solve_cost(n: int, m: int, p: int, r: int) -> AlgorithmCost:
    """SPIKE solve phase: local sweeps + reduced solve + combination."""
    t = _chunk(n, p)
    local = PhaseCost("local", flops=t * 6 * m**2 * r)
    n_iface = max(p - 1, 0)
    reduced = PhaseCost(
        "reduced",
        flops=n_iface * 6 * (2 * m) ** 2 * r,
        messages=2 * _rounds(p) + 2,                 # gather tops/bots + scatter
        bytes=(2 * _rounds(p) + 2) * 2 * m * r * _F8,
    )
    combine = PhaseCost("combine", flops=t * 2 * 2 * m**2 * r)
    return AlgorithmCost("spike_solve", (local, reduced, combine))


def bcr_parallel_cost(n: int, m: int, p: int, r: int) -> AlgorithmCost:
    """Model of *distributed* block cyclic reduction (abl-A3 baseline).

    With ``P`` ranks, the first ``log2(N/P)`` levels are rank-local
    (geometric work ``~2 N/P`` rows); the final ``log2 P`` levels each
    exchange one boundary row with the two neighbours.  Per-row work is
    taken from the sequential counts.  This is the standard BCYCLIC-style
    cost model; the sequential implementation validates per-row work and
    the communication shape follows the level structure (see DESIGN.md).
    """
    t = _chunk(n, p)
    per_row_factor = 10.0 * m**3 + (2 / 3) * m**3
    per_row_solve = 7.0 * m**2 * r
    local = PhaseCost("local", flops=2 * t * (per_row_factor + per_row_solve))
    levels = _rounds(p)
    comm = PhaseCost(
        "levels",
        flops=levels * (per_row_factor + per_row_solve),
        messages=2 * levels,
        bytes=2 * levels * (3 * m * m + m * r) * _F8,
    )
    return AlgorithmCost("bcr_parallel", (local, comm))


def speedup_model(m: int, r: int) -> float:
    """The paper's headline improvement factor for ``R`` right-hand sides.

    Naive RD costs ``R * M^3 * K`` against ARD's ``(M^3 + R M^2) * K``
    (``K = N/P + log P`` cancels), giving ``R / (1 + R/M)``: linear in
    ``R`` while ``R <~ M``, saturating at ``M``.
    """
    return r / (1.0 + r / m)
