"""Solver planner: ``method="auto"`` is the ARD reference.

The paper's accelerated recursive doubling factors the matrix side once
and replays it for each right-hand side; ``auto`` runs that path, ARD
on the requested ``p`` ranks, at every shape and dtype.  Nothing here
ranks methods: :func:`~repro.perfmodel.predictor.predict_time` prices
flops and messages and has no term for interpreter or runtime overhead,
so it predicts block Thomas at well under a millisecond for solves that
take a hundred.  Measured per-host timings could rank methods, but the
shapes where one beat ARD (docs/PLANNER.md) are shapes no benchmark
workload runs, so ``auto`` consults no table.  A caller who wants
another method names it.

The chosen plan is stamped into traces (``plan.*`` instants) and
``SolveInfo.plan``.  See docs/PLANNER.md.
"""

from __future__ import annotations

import dataclasses
import os
import platform
from typing import Any

import numpy as np
import scipy

from ..exceptions import ConfigError

__all__ = ["Plan", "plan", "DEFAULT_TUNE_PATH", "host_fingerprint",
           "default_table"]

#: Where a per-host tuning table used to live.  Nothing in the package
#: reads it; ``perfbench/stamp.py`` still reports whether the file
#: exists, so the name stays until the benchmark drops that stamp.
DEFAULT_TUNE_PATH = "results/TUNE_host.json"


@dataclasses.dataclass(frozen=True)
class Plan:
    """One planner decision: ARD on ``nranks`` ranks.

    Attributes
    ----------
    method:
        The solver method (always ``"ard"``).
    nranks:
        Ranks the plan uses: the requested ``p``.
    """

    method: str
    nranks: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (trace attrs, SolveInfo, logs)."""
        return dataclasses.asdict(self)


def plan(n: int, m: int, p: int = 1, r: int = 1, dtype: Any = None) -> Plan:
    """The configuration to run for an ``(n, m, p, r, dtype)`` problem:
    ARD on ``p`` ranks, after checking the shape.

    ``r`` and ``dtype`` do not change the plan; they stay in the
    signature because ``perfbench`` calls ``plan`` with them and wraps
    this module's ``plan`` by attribute, so callers in the package look
    it up when they call it rather than binding it at import.
    """
    if n < 1 or m < 1 or p < 1 or r < 0:
        raise ConfigError(f"invalid plan shape n={n}, m={m}, p={p}, r={r}")
    return Plan("ard", p)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> str:
    """Identity of this host as ``perfbench/stamp.py`` stamps it.

    CPU model, logical core count, and the NumPy and SciPy versions;
    the OS kernel release is left out.  Nothing in the package uses it;
    it stays until the benchmark drops its tuning-table stamp.
    """
    return (f"{_cpu_model()}/cpu{os.cpu_count() or 1}"
            f"/numpy-{np.__version__}/scipy-{scipy.__version__}")


def default_table() -> None:
    """Always ``None``: ``method="auto"`` consults no tuning table.

    Kept for ``perfbench/stamp.py``, which reports a table file found
    at :data:`DEFAULT_TUNE_PATH` as ``"ignored"`` when this returns
    ``None``.
    """
    return None
