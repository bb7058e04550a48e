"""Global configuration for the :mod:`repro` library.

The configuration is deliberately tiny: a default floating dtype, a
singularity threshold used when factoring blocks, and a toggle for flop
accounting.  Everything performance-critical takes explicit arguments;
the global config only supplies defaults.

Example
-------
>>> from repro.config import get_config, set_config
>>> set_config(flop_counting=True)
>>> get_config().flop_counting
True
"""

from __future__ import annotations

import dataclasses
import os
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .exceptions import ConfigError

__all__ = ["ReproConfig", "get_config", "set_config", "install_config",
           "config_context", "BLOCKOPS_BACKENDS", "RECURRENCE_MODES",
           "COMM_BACKENDS", "DEFAULT_VECTOR_SOLVE_MAX_WORK",
           "DEFAULT_LEVELWISE_MIN_ROWS", "DEFAULT_LEVELWISE_MAX_BLOCK",
           "DEFAULT_LEVELWISE_MAX_RHS", "TUNABLE_THRESHOLDS", "env_flag"]

#: Valid values of :attr:`ReproConfig.blockops_backend`.
BLOCKOPS_BACKENDS = frozenset({"batched", "scipy_loop"})

#: Valid values of :attr:`ReproConfig.recurrence_mode`.
RECURRENCE_MODES = frozenset({"auto", "sequential", "levelwise"})

#: Valid values of :attr:`ReproConfig.comm_backend`.
COMM_BACKENDS = frozenset({"threads", "processes"})

# Documented default crossovers, measured on the reference x86 host
# (docs/KERNELS.md).  They are *defaults*, not gates: the solve hot path
# reads the live config fields below, which `repro.perfmodel.planner`
# overwrites with this host's tuned values (``apply_tuning``) and users
# may override directly via ``set_config`` / ``config_context``.

#: Default ``vector_solve_max_work``: the ``batched`` LU backend's
#: substitution stays vectorized while the per-block panel work
#: ``m * r`` is at or below this bound (conservative half of the
#: measured ``m * r ~ 1000`` crossover; see docs/KERNELS.md).
DEFAULT_VECTOR_SOLVE_MAX_WORK = 512

#: Default ``levelwise_min_rows``: ``recurrence_mode="auto"`` switches
#: to level-wise evaluation at this many transfer rows.
DEFAULT_LEVELWISE_MIN_ROWS = 64

#: Default ``levelwise_max_block``: ``auto`` stays sequential above
#: this block order.
DEFAULT_LEVELWISE_MAX_BLOCK = 16

#: Default ``levelwise_max_rhs``: ``auto`` keeps the vector kernels
#: sequential above this RHS panel width.
DEFAULT_LEVELWISE_MAX_RHS = 32

#: The config fields a tuning table may override, with their documented
#: defaults — the schema contract between :class:`ReproConfig` and
#: ``repro.perfmodel.planner``'s ``TuningTable.thresholds``.
TUNABLE_THRESHOLDS = {
    "vector_solve_max_work": DEFAULT_VECTOR_SOLVE_MAX_WORK,
    "levelwise_min_rows": DEFAULT_LEVELWISE_MIN_ROWS,
    "levelwise_max_block": DEFAULT_LEVELWISE_MAX_BLOCK,
    "levelwise_max_rhs": DEFAULT_LEVELWISE_MAX_RHS,
}


def _default_comm_backend() -> str:
    return os.environ.get("REPRO_COMM_BACKEND", "").strip() or "threads"


def env_flag(name: str, default: bool) -> bool:
    """Read boolean environment switch ``name``.

    Unset or empty gives ``default``; ``0``, ``off``, ``false`` and
    ``no`` (any case) are false; any other value is true.
    """
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    return value not in ("0", "off", "false", "no")


def _default_flightrec() -> bool:
    return env_flag("REPRO_FLIGHTREC", default=True)


@dataclasses.dataclass(frozen=True)
class ReproConfig:
    """Immutable snapshot of library-wide defaults.

    Attributes
    ----------
    dtype:
        Default floating dtype for generated workloads and factorizations.
    singularity_rcond:
        Reciprocal-condition threshold below which a block is treated as
        singular when it must be inverted.
    flop_counting:
        When ``True``, block linear-algebra kernels record their flop and
        byte counts in the active :class:`repro.util.flops.FlopCounter`.
        Costs a few percent of runtime; off by default.
    growth_warn_threshold:
        Transfer-product growth factor above which
        :class:`repro.exceptions.StabilityWarning` is emitted.
    blockops_backend:
        Implementation behind :class:`repro.linalg.blockops.BatchedLU`:
        ``"batched"`` (default) uses the pure-NumPy vectorized LU of
        :mod:`repro.linalg.batchlu`; ``"scipy_loop"`` keeps the
        one-``scipy`` -call-per-block reference path for
        cross-validation.  See docs/KERNELS.md.
    recurrence_mode:
        How the local transfer recurrence is evaluated
        (:mod:`repro.core.recurrence`): ``"sequential"`` loops one block
        row at a time, ``"levelwise"`` runs a batched Blelloch scan in
        ``O(log h)`` full-batch gemms (more flops, far fewer interpreter
        round-trips), ``"auto"`` (default) picks by chunk height and
        block size.  See docs/KERNELS.md.
    comm_backend:
        Execution backend for :func:`repro.comm.run_spmd`:
        ``"threads"`` (default; virtual-time reference semantics) or
        ``"processes"`` (true multi-core via :mod:`repro.comm.mp` with
        shared-memory payload transport).  The environment variable
        ``REPRO_COMM_BACKEND`` sets the default.  See docs/BACKENDS.md.
    vector_solve_max_work:
        Widest per-block panel work ``m * r`` the ``batched`` LU
        backend's vectorized substitution handles before
        :meth:`repro.linalg.blockops.BatchedLU.solve` hands each block
        to LAPACK ``getrs`` instead.  Default
        :data:`DEFAULT_VECTOR_SOLVE_MAX_WORK`; tuned per host by
        ``python -m repro.harness tune`` (docs/PLANNER.md).
    levelwise_min_rows / levelwise_max_block / levelwise_max_rhs:
        The ``recurrence_mode="auto"`` gates: level-wise evaluation is
        chosen iff the chunk has at least ``levelwise_min_rows``
        transfer rows, the block order is at most
        ``levelwise_max_block``, and (vector kernels only) the RHS
        panel is at most ``levelwise_max_rhs`` columns wide.  Defaults
        are the reference-host crossovers (docs/KERNELS.md); tuned per
        host by ``python -m repro.harness tune``.
    flightrec:
        Always-on per-rank flight recorder
        (:mod:`repro.obs.flightrec`): each rank keeps a bounded ring of
        compact comm/phase records, snapshotted into an incident bundle
        on failure (docs/INCIDENTS.md).  On by default (<3% gated
        overhead); ``REPRO_FLIGHTREC=0`` disables.
    flightrec_capacity:
        Ring slots per rank (the newest ``flightrec_capacity`` records
        survive to the bundle).  Minimum 8.
    incident_dir:
        Directory incident bundles are written to.  The
        ``REPRO_INCIDENT_DIR`` environment variable overrides it at
        capture time (``0``/``off``/``none`` disables capture).
    incident_retention:
        Maximum bundles kept on disk; older bundles are pruned by
        modification time after each capture.
    """

    dtype: np.dtype = dataclasses.field(default_factory=lambda: np.dtype(np.float64))
    singularity_rcond: float = 1e-13
    flop_counting: bool = False
    growth_warn_threshold: float = 1e8
    blockops_backend: str = "batched"
    recurrence_mode: str = "auto"
    comm_backend: str = dataclasses.field(default_factory=_default_comm_backend)
    vector_solve_max_work: int = DEFAULT_VECTOR_SOLVE_MAX_WORK
    levelwise_min_rows: int = DEFAULT_LEVELWISE_MIN_ROWS
    levelwise_max_block: int = DEFAULT_LEVELWISE_MAX_BLOCK
    levelwise_max_rhs: int = DEFAULT_LEVELWISE_MAX_RHS
    flightrec: bool = dataclasses.field(default_factory=_default_flightrec)
    flightrec_capacity: int = 2048
    incident_dir: str = "results/incidents"
    incident_retention: int = 32

    def __post_init__(self) -> None:
        dt = np.dtype(self.dtype)
        if dt.kind not in "fc":
            raise ConfigError(f"dtype must be floating or complex, got {dt}")
        object.__setattr__(self, "dtype", dt)
        if not (0.0 < self.singularity_rcond < 1.0):
            raise ConfigError(
                f"singularity_rcond must be in (0, 1), got {self.singularity_rcond}"
            )
        if self.growth_warn_threshold <= 1.0:
            raise ConfigError(
                "growth_warn_threshold must exceed 1.0, got "
                f"{self.growth_warn_threshold}"
            )
        if self.blockops_backend not in BLOCKOPS_BACKENDS:
            raise ConfigError(
                f"blockops_backend must be one of {sorted(BLOCKOPS_BACKENDS)}, "
                f"got {self.blockops_backend!r}"
            )
        if self.recurrence_mode not in RECURRENCE_MODES:
            raise ConfigError(
                f"recurrence_mode must be one of {sorted(RECURRENCE_MODES)}, "
                f"got {self.recurrence_mode!r}"
            )
        if self.comm_backend not in COMM_BACKENDS:
            raise ConfigError(
                f"comm_backend must be one of {sorted(COMM_BACKENDS)}, "
                f"got {self.comm_backend!r}"
            )
        for name in TUNABLE_THRESHOLDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        cap = self.flightrec_capacity
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 8:
            raise ConfigError(
                f"flightrec_capacity must be an integer >= 8, got {cap!r}"
            )
        keep = self.incident_retention
        if not isinstance(keep, int) or isinstance(keep, bool) or keep < 1:
            raise ConfigError(
                f"incident_retention must be a positive integer, got {keep!r}"
            )
        if not isinstance(self.incident_dir, str) or not self.incident_dir:
            raise ConfigError(
                f"incident_dir must be a non-empty string, "
                f"got {self.incident_dir!r}"
            )


_state = threading.local()


def _current() -> ReproConfig:
    cfg = getattr(_state, "config", None)
    if cfg is None:
        cfg = ReproConfig()
        _state.config = cfg
    return cfg


def get_config() -> ReproConfig:
    """Return the configuration active on the calling thread."""
    return _current()


def set_config(**updates: object) -> ReproConfig:
    """Replace fields of the calling thread's configuration.

    Returns the new configuration.  Unknown field names raise
    :class:`~repro.exceptions.ConfigError`.
    """
    valid = {f.name for f in dataclasses.fields(ReproConfig)}
    unknown = set(updates) - valid
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = dataclasses.replace(_current(), **updates)  # type: ignore[arg-type]
    _state.config = cfg
    return cfg


def install_config(cfg: ReproConfig) -> None:
    """Install a configuration snapshot on the calling thread.

    Used by the SPMD runtime so simulated ranks (worker threads) inherit
    the launching thread's configuration.
    """
    if not isinstance(cfg, ReproConfig):
        raise ConfigError(f"expected ReproConfig, got {type(cfg).__name__}")
    _state.config = cfg


@contextmanager
def config_context(**updates: object) -> Iterator[ReproConfig]:
    """Context manager applying configuration updates on this thread only.

    >>> with config_context(flop_counting=True):
    ...     pass
    """
    previous = _current()
    try:
        yield set_config(**updates)
    finally:
        _state.config = previous
