"""Floating-point operation accounting.

The reconstructed complexity experiments (recon-T1, recon-T2) compare the
paper's analytic operation counts against *instrumented* counts.  Kernels
in :mod:`repro.linalg.blockops` call :func:`record_flops` with their
textbook flop counts; a :class:`FlopCounter` installed via
:func:`counting_flops` accumulates them, keyed by kernel name.

Counters are per-thread so that each simulated rank (a thread in
:mod:`repro.comm.runtime`) accumulates its own tally.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

__all__ = ["FlopCounter", "current_counter", "counting_flops", "record_flops",
           "gemm_flops", "lu_flops", "lu_solve_flops"]


class FlopCounter:
    """Accumulates flop counts keyed by kernel name.

    Attributes
    ----------
    by_kernel:
        ``Counter`` mapping kernel name (e.g. ``"gemm"``) to flops.
    """

    __slots__ = ("by_kernel",)

    def __init__(self) -> None:
        self.by_kernel: Counter[str] = Counter()

    @property
    def total(self) -> int:
        """Total flops recorded across all kernels."""
        return sum(self.by_kernel.values())

    def add(self, kernel: str, flops: int) -> None:
        self.by_kernel[kernel] += int(flops)

    def merge(self, other: "FlopCounter") -> None:
        """Fold another counter's tallies into this one."""
        self.by_kernel.update(other.by_kernel)

    def snapshot(self) -> dict[str, int]:
        return dict(self.by_kernel)

    def reset(self) -> None:
        self.by_kernel.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlopCounter(total={self.total}, kernels={dict(self.by_kernel)})"


_state = threading.local()


def current_counter() -> FlopCounter | None:
    """The counter active on this thread, or ``None``."""
    return getattr(_state, "counter", None)


def _set_counter(counter: FlopCounter | None) -> None:
    _state.counter = counter


@contextmanager
def counting_flops(counter: FlopCounter | None = None) -> Iterator[FlopCounter]:
    """Install ``counter`` (a fresh one by default) on this thread.

    >>> with counting_flops() as fc:
    ...     record_flops("gemm", 100)
    >>> fc.total
    100
    """
    if counter is None:
        counter = FlopCounter()
    previous = current_counter()
    _set_counter(counter)
    try:
        yield counter
    finally:
        _set_counter(previous)


def record_flops(kernel: str, flops: int) -> None:
    """Record ``flops`` for ``kernel`` on the active counter, if any.

    A no-op when no counter is installed, so instrumented kernels pay
    only an attribute lookup in the common case.
    """
    counter = current_counter()
    if counter is not None:
        counter.add(kernel, flops)


def gemm_flops(m: int, k: int, n: int) -> int:
    """Flops for a dense ``(m,k) @ (k,n)`` multiply-accumulate."""
    return 2 * m * k * n


def lu_flops(m: int) -> int:
    """Flops for LU factorization of an ``m x m`` block (2/3 m^3)."""
    return (2 * m * m * m) // 3


def lu_solve_flops(m: int, nrhs: int) -> int:
    """Flops for forward+back substitution with ``nrhs`` columns."""
    return 2 * m * m * nrhs

