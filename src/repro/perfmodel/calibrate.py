"""Host micro-benchmark calibration for the performance model.

The analytic predictor and the virtual-time simulation both run on
:data:`~repro.perfmodel.machine.PAPER_ERA_MODEL` constants by default —
fine for reproducing the paper's speedup *shapes*, useless for deciding
what *this* host will do (the ROADMAP's autotuned-portfolio item).
:func:`calibrate_machine` times the real block kernels the solvers
execute — block inversion, per-block LU solve, dense GEMM — and the
``fastcopy`` message-payload path, then writes a schema-versioned
JSON snapshot (``results/CALIB_machine.json`` by default) that
:func:`~repro.perfmodel.machine.load_calibration` and
``predict_time(..., calibration=...)`` consume instead of the
hard-coded constants.

Produced by ``python -m repro.harness profile --calibrate``; consumed
by the predictor, :class:`repro.obs.roofline.MachineRates`, and (soon)
the method auto-planner.  See docs/PROFILING.md for the workflow.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import time
from typing import Any

import numpy as np

from ..exceptions import ConfigError

__all__ = [
    "CALIB_SCHEMA_VERSION",
    "DEFAULT_CALIB_PATH",
    "MachineCalibration",
    "calibrate_machine",
    "save_calibration",
    "load_calibration",
]

#: Bump when the JSON layout changes incompatibly.
CALIB_SCHEMA_VERSION = 1

#: Where ``harness profile --calibrate`` writes by default.
DEFAULT_CALIB_PATH = "results/CALIB_machine.json"


@dataclasses.dataclass(frozen=True)
class MachineCalibration:
    """Measured kernel and copy rates of one host.

    Attributes
    ----------
    gemm_flop_rate / lu_flop_rate / trsm_flop_rate:
        Sustained flop rates (flops/s) of dense GEMM, the factor kernel
        (:func:`~repro.linalg.blockops.invert_blocks`, LU plus the
        solve against the identity), and the triangular solves of
        :meth:`~repro.linalg.blockops.BatchedLU.solve`, at the
        calibration block size.
    copy_bandwidth:
        ``fastcopy`` throughput on ndarray payloads (bytes/s) — the
        in-process proxy for link bandwidth in the threaded runtime,
        where a "send" is at most one payload copy.
    latency:
        Per-message software latency proxy in seconds (small-payload
        copy cost; the threaded runtime has no wire, so this bounds the
        per-message fixed cost on this host).
    block_size / batch:
        Kernel micro-benchmark shape: ``batch`` blocks of ``block_size
        x block_size``.
    host / written_at:
        Provenance: platform string and ISO timestamp.
    """

    gemm_flop_rate: float
    lu_flop_rate: float
    trsm_flop_rate: float
    copy_bandwidth: float
    latency: float
    block_size: int
    batch: int
    host: str = ""
    written_at: str = ""

    def peak_flop_rate(self) -> float:
        """Best sustained kernel rate — the compute roof."""
        return max(self.gemm_flop_rate, self.lu_flop_rate,
                   self.trsm_flop_rate)

    def cost_model(self, base: Any = None) -> Any:
        """An alpha-beta :class:`~repro.comm.costmodel.CostModel` with
        this host's measured rates.

        ``flop_rate`` comes from the measured GEMM rate (the rate the
        analytic flop counts assume), bandwidth from the measured copy
        throughput, and latency from the small-message proxy; the
        per-message CPU ``overhead`` keeps ``base``'s value (default
        :data:`~repro.perfmodel.machine.PAPER_ERA_MODEL`).
        """
        from .machine import PAPER_ERA_MODEL

        base = base or PAPER_ERA_MODEL
        return base.scaled(
            flop_rate=self.gemm_flop_rate,
            inv_bandwidth=1.0 / self.copy_bandwidth,
            latency=self.latency,
        )

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned plain-dict (JSON-serializable) form."""
        out = {"schema_version": CALIB_SCHEMA_VERSION}
        out.update(dataclasses.asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MachineCalibration":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        version = data.get("schema_version")
        if version != CALIB_SCHEMA_VERSION:
            raise ConfigError(
                f"calibration schema_version {version!r} unsupported "
                f"(expected {CALIB_SCHEMA_VERSION}); re-run "
                "'python -m repro.harness profile --calibrate'"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


def _best_seconds(fn: Any, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_machine(block_size: int = 64, batch: int = 32,
                      reps: int = 5, seed: int = 0
                      ) -> MachineCalibration:
    """Micro-benchmark this host's kernel and copy rates.

    Times the exact block kernels the solvers use
    (:func:`~repro.linalg.blockops.invert_blocks`,
    :meth:`~repro.linalg.blockops.BatchedLU.solve`, ndarray GEMM) on
    ``batch`` blocks of ``block_size x block_size``, plus
    :func:`~repro.comm.fastcopy.fastcopy` payload throughput.  Each
    measurement takes the best of ``reps`` runs (minimum time is the
    least noise-contaminated sample).  Runs in well under a second at
    the defaults.
    """
    if block_size < 2 or batch < 1 or reps < 1:
        raise ConfigError(
            f"need block_size >= 2, batch >= 1, reps >= 1; got "
            f"block_size={block_size}, batch={batch}, reps={reps}"
        )
    from ..comm.fastcopy import fastcopy
    from ..linalg.blockops import BatchedLU, invert_blocks

    m, k = block_size, batch
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((k, m, m))
    blocks += m * np.eye(m)  # keep the batch comfortably nonsingular
    rhs = rng.standard_normal((k, m, m))

    # GEMM: batched (k, m, m) @ (k, m, m) -> 2 m^3 flops per block.
    a, b = blocks.copy(), rhs.copy()
    a @ b  # warm up BLAS threads / allocator
    gemm_rate = (2.0 * k * m ** 3) / _best_seconds(lambda: a @ b, reps)

    # Block inversion: LU (~(2/3) m^3) plus the solve against the
    # identity (~2 m^3) per block, as invert_blocks charges it.
    invert_blocks(blocks)
    lu_rate = ((2.0 / 3.0 + 2.0) * k * m ** 3) / _best_seconds(
        lambda: invert_blocks(blocks), reps)

    # Per-block triangular solves (both sweeps): ~2 m^3 per block for
    # an m-column right-hand side.
    lu = BatchedLU(blocks)
    lu.solve(rhs)
    trsm_rate = (2.0 * k * m ** 3) / _best_seconds(
        lambda: lu.solve(rhs), reps)

    # fastcopy bandwidth on a solver-sized ndarray payload.
    payload = rng.standard_normal((256, 256))
    fastcopy(payload)
    copy_bw = payload.nbytes / _best_seconds(
        lambda: fastcopy(payload), reps)

    # Small-payload copy cost bounds the per-message fixed cost.
    tiny = rng.standard_normal((2, 2))
    fastcopy(tiny)
    latency = _best_seconds(lambda: fastcopy(tiny), max(reps, 3))

    return MachineCalibration(
        gemm_flop_rate=gemm_rate,
        lu_flop_rate=lu_rate,
        trsm_flop_rate=trsm_rate,
        copy_bandwidth=copy_bw,
        latency=latency,
        block_size=m,
        batch=k,
        host=platform.platform(),
        written_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )


def save_calibration(calib: MachineCalibration,
                     path: str | pathlib.Path = DEFAULT_CALIB_PATH
                     ) -> pathlib.Path:
    """Write ``calib`` as schema-versioned JSON; returns the path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(calib.to_dict(), indent=2) + "\n")
    return out


def load_calibration(path: str | pathlib.Path = DEFAULT_CALIB_PATH
                     ) -> MachineCalibration:
    """Load a calibration written by :func:`save_calibration`.

    Raises
    ------
    ConfigError
        When the file is missing or carries an unsupported
        ``schema_version``.
    """
    p = pathlib.Path(path)
    if not p.is_file():
        raise ConfigError(
            f"no calibration at {p}; run "
            "'python -m repro.harness profile --calibrate' first"
        )
    return MachineCalibration.from_dict(json.loads(p.read_text()))
