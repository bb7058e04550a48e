"""Solver planner: ``method="auto"`` runs the ARD reference unless a
per-host tuning table measured something faster.

The paper's accelerated recursive doubling factors the matrix side once
and replays it for each right-hand side; the reference plan is that
path (ARD on ``p`` ranks).  Another method can still be faster on a
given host and shape, but the analytic model cannot say where:
:func:`~repro.perfmodel.predictor.predict_time` prices flops and
messages and has no term for interpreter or runtime overhead, so it
predicts block Thomas at well under a millisecond for solves that take
a hundred.  The planner therefore never ranks on the model:

1. **Tune once per host** — :func:`tune_machine` measures every
   candidate method at every shape of a small grid and persists
   the result as a schema-versioned ``results/TUNE_host.json`` keyed by
   :func:`host_fingerprint`.

2. **Plan per problem** — :func:`plan` returns the reference unless the
   table holds evidence at the query dtype for both a candidate and the
   reference — an exact-shape hit (``provenance="measured"``) or a
   measurement at a shape within :data:`MAX_INTERP_DISTANCE`, scaled by
   the model's shape ratio (``"interpolated"``) — and the candidate's
   time is lower.  Without a table the plan is the reference with
   ``provenance="model"``.

The chosen plan is stamped into traces (``plan.*`` instants) and
``SolveInfo.plan``.  See docs/PLANNER.md for the table schema.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import time
import warnings
from typing import Any, Callable, Iterable

import numpy as np
import scipy

from ..config import config_context
from ..exceptions import ConfigError
from .calibrate import DEFAULT_CALIB_PATH, MachineCalibration, load_calibration
from .predictor import predict_time

__all__ = [
    "TUNE_SCHEMA_VERSION",
    "DEFAULT_TUNE_PATH",
    "MAX_INTERP_DISTANCE",
    "SWEEP_SHAPES",
    "QUICK_SHAPES",
    "PLAN_METHODS",
    "Plan",
    "TuneEntry",
    "TuningTable",
    "host_fingerprint",
    "tune_machine",
    "save_table",
    "load_table",
    "default_table",
    "set_default_table",
    "plan",
    "clear_plan_cache",
]

#: Bump when the TUNE_host.json layout changes incompatibly.
TUNE_SCHEMA_VERSION = 4

#: Where ``python -m repro.harness tune`` writes by default.
DEFAULT_TUNE_PATH = "results/TUNE_host.json"

#: Interpolation reach: a measured entry informs a query shape only
#: within this summed log2 distance over (n, m, p, r).  Beyond it the
#: measurement says little about the query regime (e.g. a thin-panel
#: point extrapolated to a wide panel), so it is no evidence.
MAX_INTERP_DISTANCE = 4.0

#: Methods the planner may choose among.  A subset of
#: ``repro.core.api.SOLVE_METHODS`` restricted to what
#: :func:`~repro.perfmodel.predictor.predict_time` can model (the model
#: scales interpolated measurements).
PLAN_METHODS = ("ard", "rd", "spike", "thomas", "cyclic")

#: Portfolio methods that run on the simulated SPMD runtime (``p``
#: ranks); the rest are sequential.
_DISTRIBUTED = frozenset({"ard", "rd", "spike"})


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
    """Identity of the tuning host: what changes the measured timings.

    CPU model, logical core count, and the NumPy and SciPy versions
    (their kernels do the work).  The OS kernel release is left out, so
    a kernel update keeps the table.  :func:`load_table` warns and
    ignores a table whose fingerprint differs.
    """
    return (f"{_cpu_model()}/cpu{os.cpu_count() or 1}"
            f"/numpy-{np.__version__}/scipy-{scipy.__version__}")


@dataclasses.dataclass(frozen=True)
class Plan:
    """One planner decision for an ``(n, m, p, r, dtype)`` problem.

    Attributes
    ----------
    method:
        The solver method.
    nranks:
        Ranks the plan uses (1 for sequential methods regardless of
        the requested ``p``).
    predicted_time:
        Seconds the planner expects this configuration to take.
    provenance:
        Evidence grade of :attr:`predicted_time`: ``"measured"``
        (exact-shape tuning-table hit), ``"interpolated"`` (measured at
        a nearby shape, scaled by the model), or ``"model"`` (no table
        evidence: the reference at the analytic prediction).
    """

    method: str
    nranks: int
    predicted_time: float
    provenance: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (trace attrs, SolveInfo, logs)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class TuneEntry:
    """Measured wall seconds of one method at one problem shape."""

    n: int
    m: int
    p: int
    r: int
    dtype: str
    method: str
    time: float

    def shape(self) -> tuple[int, int, int, int]:
        return (self.n, self.m, self.p, self.r)


@dataclasses.dataclass(frozen=True)
class TuningTable:
    """Schema-versioned per-host tuning results (``TUNE_host.json``).

    Attributes
    ----------
    host:
        :func:`host_fingerprint` of the machine that produced it.
    entries:
        The measured :class:`TuneEntry` records.
    quick:
        Whether the table came from a ``--quick`` sweep (CI smoke).
    """

    host: str
    entries: tuple[TuneEntry, ...]
    quick: bool = False
    written_at: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": TUNE_SCHEMA_VERSION,
            "host": self.host,
            "quick": self.quick,
            "written_at": self.written_at,
            "entries": [dataclasses.asdict(e) for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "TuningTable":
        """Inverse of :meth:`to_dict`.  Raises :class:`ConfigError` on a
        stale ``schema_version`` or a malformed table or entry."""
        if not isinstance(data, dict):
            raise ConfigError("tuning table is not a JSON object")
        version = data.get("schema_version")
        if version != TUNE_SCHEMA_VERSION:
            raise ConfigError(
                f"tuning-table schema_version {version!r} unsupported "
                f"(expected {TUNE_SCHEMA_VERSION}); re-run "
                "'python -m repro.harness tune'"
            )
        try:
            entries = tuple(TuneEntry(**e) for e in data["entries"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed tuning-table entries: {exc}") from exc
        for e in entries:
            if not (all(type(v) is int for v in e.shape())
                    and isinstance(e.time, (int, float))):
                raise ConfigError(f"malformed tuning-table entry {e}")
        return cls(
            host=data.get("host", ""),
            entries=entries,
            quick=bool(data.get("quick", False)),
            written_at=data.get("written_at", ""),
        )


def save_table(table: TuningTable,
               path: str | pathlib.Path = DEFAULT_TUNE_PATH) -> pathlib.Path:
    """Write ``table`` as schema-versioned JSON; returns the path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table.to_dict(), indent=2) + "\n")
    return out


def load_table(path: str | pathlib.Path = DEFAULT_TUNE_PATH,
               *, strict_host: bool = False) -> TuningTable | None:
    """Load a tuning table written by :func:`save_table`.

    A missing, unreadable, malformed or stale-schema file raises
    :class:`ConfigError`.  A host-fingerprint mismatch means the
    measurements describe a different machine: the default is to *warn
    and ignore* (return ``None``, so ``method="auto"`` runs the
    reference), because a silently-wrong table is worse than no table;
    ``strict_host=True`` raises instead.
    """
    p = pathlib.Path(path)
    if not p.is_file():
        raise ConfigError(
            f"no tuning table at {p}; run 'python -m repro.harness tune' first"
        )
    try:
        data = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable tuning table {p}: {exc}") from exc
    table = TuningTable.from_dict(data)
    here = host_fingerprint()
    if table.host != here:
        if strict_host:
            raise ConfigError(
                f"tuning table at {p} was measured on {table.host!r}, "
                f"this host is {here!r}; re-run 'python -m repro.harness tune'"
            )
        warnings.warn(
            f"ignoring tuning table {p}: measured on {table.host!r}, "
            f"this host is {here!r} (method='auto' runs the ARD "
            "reference; re-run 'python -m repro.harness tune')",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return table


_default_table_cache: dict[str, Any] = {}
_override_table: TuningTable | None = None


def set_default_table(table: TuningTable | None) -> None:
    """Install ``table`` as the process-wide planner table.

    Overrides the on-disk :data:`DEFAULT_TUNE_PATH` lookup until reset
    with ``set_default_table(None)`` — used by benchmarks and
    experiments that tune in-process and want ``method="auto"`` to
    consult the fresh table without a filesystem round-trip.
    """
    global _override_table
    _override_table = table
    _plan_cache.clear()


def default_table(path: str | pathlib.Path = DEFAULT_TUNE_PATH
                  ) -> TuningTable | None:
    """The process-wide table ``method="auto"`` consults, or ``None``.

    An installed :func:`set_default_table` override wins; otherwise
    loads :data:`DEFAULT_TUNE_PATH` (relative to the working directory)
    once per file mtime.  A missing file resolves to ``None``; so does
    a table :func:`load_table` rejects or ignores, with a
    ``RuntimeWarning`` once per mtime — ``auto`` then runs the
    reference instead of failing.
    """
    if _override_table is not None:
        return _override_table
    p = pathlib.Path(path)
    try:
        mtime = p.stat().st_mtime
    except OSError:
        return None
    key = str(p)
    cached = _default_table_cache.get(key)
    if cached is not None and cached[0] == mtime:
        return cached[1]
    try:
        table = load_table(p)
    except ConfigError as exc:
        warnings.warn(
            f"ignoring tuning table {p}: {exc} (method='auto' runs the "
            "ARD reference)",
            RuntimeWarning,
            stacklevel=2,
        )
        table = None
    _default_table_cache[key] = (mtime, table)
    return table


def clear_plan_cache() -> None:
    """Drop the cached default table, override, and memoized plans."""
    global _override_table
    _override_table = None
    _default_table_cache.clear()
    _plan_cache.clear()


# -- planning ---------------------------------------------------------------


def _candidates(p: int, methods: Iterable[str] = PLAN_METHODS
                ) -> list[dict[str, Any]]:
    """The candidate ``(method, nranks)`` pairs for ``p`` requested ranks.

    Sequential methods always run single-rank.  When ``"ard"`` is among
    ``methods`` the reference comes first.
    """
    out: list[dict[str, Any]] = []
    for method in methods:
        cand = dict(method=method, nranks=p if method in _DISTRIBUTED else 1)
        if method == "ard":
            out.insert(0, cand)
        else:
            out.append(cand)
    return out


def _shape_distance(a: tuple[int, int, int, int],
                    b: tuple[int, int, int, int]) -> float:
    """Log-space distance between two ``(n, m, p, r)`` shapes."""
    return float(sum(
        abs(np.log2(max(x, 1)) - np.log2(max(y, 1))) for x, y in zip(a, b)
    ))


def _predict(method: str, n: int, m: int, p: int, r: int,
             calibration: MachineCalibration | None,
             cost_model: Any) -> float:
    return predict_time(method, n=n, m=m, p=p, r=max(r, 1),
                        cost_model=cost_model, calibration=calibration)


_plan_cache: dict[tuple, Plan] = {}


def plan(n: int, m: int, p: int = 1, r: int = 1,
         dtype: Any = None, *,
         table: TuningTable | None | str = "default",
         calibration: MachineCalibration | None | str = "default",
         cost_model: Any = None,
         methods: Iterable[str] = PLAN_METHODS) -> Plan:
    """The configuration to run for an ``(n, m, p, r, dtype)`` problem.

    The reference (ARD on ``p`` ranks) unless the table has evidence
    at ``dtype`` — an exact shape hit or an interpolation within
    :data:`MAX_INTERP_DISTANCE` — for both a candidate and the
    reference, and the candidate's time is lower; then the fastest such
    candidate.

    Parameters other than the shape:

    ``table``
        ``"default"`` consults :func:`default_table`; ``None`` plans
        without a table (always the reference); or pass a
        :class:`TuningTable`.
    ``calibration`` / ``cost_model``
        Machine rates for :func:`predict_time`, which scales
        interpolated measurements and prices a reference without
        evidence.  ``calibration="default"`` loads
        ``results/CALIB_machine.json`` when present; ``None`` uses the
        hard-coded machine constants.
    ``methods``
        Restrict the candidates (e.g. to ``FACTOR_METHODS`` when the
        caller needs a reusable factorization).  Must include
        ``"ard"``, the reference.
    """
    if n < 1 or m < 1 or p < 1 or r < 0:
        raise ConfigError(f"invalid plan shape n={n}, m={m}, p={p}, r={r}")
    dtype_name = np.dtype(dtype if dtype is not None else np.float64).name
    methods = tuple(methods)
    for meth in methods:
        if meth not in PLAN_METHODS:
            raise ConfigError(
                f"method {meth!r} is not plannable; choose from {PLAN_METHODS}"
            )
    if "ard" not in methods:
        raise ConfigError(
            f"methods {methods} must include 'ard', the reference plan"
        )

    if table == "default":
        table = default_table()
    if calibration == "default":
        calibration = _default_calibration()

    cache_key = (n, m, p, r, dtype_name, methods,
                 id(table) if table is not None else None,
                 id(calibration) if calibration is not None else None)
    hit = _plan_cache.get(cache_key)
    if hit is not None:
        return hit

    shape = (n, m, p, r)
    reference, *others = _candidates(p, methods)
    evidence = None
    if table is not None:
        evidence = _table_evidence(table, shape, dtype_name, reference,
                                   calibration, cost_model)
    if evidence is None:
        best = Plan(**reference, provenance="model",
                    predicted_time=_predict("ard", n, m, p, r,
                                            calibration, cost_model))
    else:
        best = Plan(**reference, predicted_time=evidence[0],
                    provenance=evidence[1])
        for cand in others:
            evidence = _table_evidence(table, shape, dtype_name, cand,
                                       calibration, cost_model)
            if evidence is not None and evidence[0] < best.predicted_time:
                best = Plan(**cand, predicted_time=evidence[0],
                            provenance=evidence[1])
    _plan_cache[cache_key] = best
    return best


def _table_evidence(table: TuningTable, shape: tuple[int, int, int, int],
                    dtype_name: str, cand: dict[str, Any],
                    calibration: MachineCalibration | None,
                    cost_model: Any) -> tuple[float, str] | None:
    """Table-backed (time, provenance) for one candidate, if any.

    Exact shape hit -> the entry's time, ``"measured"``.  Nearest
    measured shape within :data:`MAX_INTERP_DISTANCE` -> its time scaled
    by the model's shape ratio, ``"interpolated"``.
    """
    matches = [e for e in table.entries
               if e.method == cand["method"] and e.dtype == dtype_name]
    if not matches:
        return None
    nearest = min(matches, key=lambda e: _shape_distance(e.shape(), shape))
    if nearest.shape() == shape:
        return nearest.time, "measured"
    if _shape_distance(nearest.shape(), shape) > MAX_INTERP_DISTANCE:
        return None
    here = _predict(cand["method"], *shape[:2], cand["nranks"], shape[3],
                    calibration, cost_model)
    there = _predict(nearest.method, nearest.n, nearest.m, nearest.p,
                     nearest.r, calibration, cost_model)
    if there <= 0.0:
        return None
    return nearest.time * (here / there), "interpolated"


def _default_calibration() -> MachineCalibration | None:
    try:
        return load_calibration(DEFAULT_CALIB_PATH)
    except ConfigError:
        return None


# -- tuning sweep -----------------------------------------------------------

#: Full-sweep shape grid: anchored at the canonical bench shapes
#: (``benchmarks/bench_planner.py``: the (512, 8) service shape at
#: streamed and monolithic RHS widths), plus a wider block (256, 16)
#: and a thin one (1024, 4).
SWEEP_SHAPES = (
    (512, 8, 4, 16),
    (512, 8, 4, 256),
    (512, 8, 16, 256),
    (256, 16, 4, 32),
    (1024, 4, 4, 8),
)

#: Quick-sweep grid (CI smoke): two small shapes, one rep.
QUICK_SHAPES = (
    (128, 4, 2, 8),
    (128, 8, 2, 32),
)


def _measure_config(n: int, m: int, p: int, r: int, dtype: str,
                    cand: dict[str, Any], reps: int) -> float:
    """Wall seconds (best of ``reps``) of one candidate."""
    from ..core.api import solve
    from ..workloads import helmholtz_block_system, random_rhs

    with config_context(dtype=np.dtype(dtype)):
        mat, _ = helmholtz_block_system(n, m)
        rhs = random_rhs(n, m, nrhs=max(r, 1), seed=0)

    def run() -> None:
        with config_context(dtype=np.dtype(dtype)):
            solve(mat, rhs, method=cand["method"], nranks=cand["nranks"])

    run()  # warm up (BLAS threads)
    best = float("inf")
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def tune_machine(quick: bool = False, *,
                 shapes: Iterable[tuple[int, int, int, int]] | None = None,
                 dtypes: Iterable[str] = ("float64",),
                 progress: Callable[[str], None] | None = None
                 ) -> TuningTable:
    """Measure every candidate at every grid shape; returns the table.

    Off-grid shapes are served later by interpolation (:func:`plan`),
    never swept.  ``quick=True`` is the CI smoke configuration: tiny
    shapes and one timing rep.
    """
    say = progress or (lambda s: None)
    reps = 1 if quick else 3
    grid = tuple(shapes) if shapes is not None else (
        QUICK_SHAPES if quick else SWEEP_SHAPES)

    entries: list[TuneEntry] = []
    for dtype in dtypes:
        for (n, m, p, r) in grid:
            for c in _candidates(p):
                say(f"measure n={n} m={m} p={p} r={r} {dtype} {c['method']}")
                entries.append(TuneEntry(
                    n=n, m=m, p=p, r=r, dtype=dtype, method=c["method"],
                    time=_measure_config(n, m, p, r, dtype, c, reps),
                ))

    return TuningTable(
        host=host_fingerprint(),
        entries=tuple(entries),
        quick=quick,
        written_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
