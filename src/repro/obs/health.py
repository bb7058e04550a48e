"""Numerical-health probes: residual, pivot growth, condition estimate.

The accuracy half of the telemetry pipeline.  A performance dashboard
that cannot see a drifting residual or an exploding pivot will happily
page on latency while the solver returns garbage; these probes put the
numerical quality signals next to the throughput ones.

Three measurements, each mapped to a gauge and classified against
:class:`HealthThresholds`:

===================== ============================== ====================
probe                 source                         gauge
===================== ============================== ====================
residual norm         ``matrix.residual(x, b)``      ``health.residual_norm``
pivot growth          :func:`pivot_growth`           ``health.pivot_growth``
condition estimate    :func:`repro.linalg.analysis.  ``health.condition``
                      estimate_condition`
===================== ============================== ====================

Classification is three-state: ``ok`` below the warn threshold,
``warn`` between warn and page, ``page`` above.  Breaches increment the
``health.warn`` / ``health.page`` counters and emit structured log
records (:mod:`repro.obs.log`) carrying the active trace context, so a
bad solve is attributable to its request.

Entry points: :func:`probe_solve` after a solve (cheap: one band
matvec), :func:`probe_factor` after a factorization (matrix-level;
the service runs it once per cache key, not per batch).
:class:`repro.service.SolverService` wires both when health probing is
enabled; :func:`repro.core.api.solve` exposes them via ``health=True``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .flightrec import note_event
from .log import get_logger
from .metrics import MetricsRegistry

__all__ = [
    "HealthThresholds",
    "HealthReport",
    "pivot_growth",
    "probe_solve",
    "probe_factor",
]

_log = get_logger("health")


@dataclasses.dataclass(frozen=True)
class HealthThresholds:
    """Warn/page limits for the numerical-health probes.

    Defaults follow the double-precision rules of thumb: a residual
    near ``sqrt(eps)`` deserves attention and one near ``1e-2`` means
    the answer is unusable; growth/condition limits mirror the
    ``growth_warn_threshold`` scale in :class:`repro.config.ReproConfig`
    and the ``kappa * eps ~ 1`` accuracy cliff respectively.
    """

    residual_warn: float = 1e-6
    residual_page: float = 1e-2
    growth_warn: float = 1e8
    growth_page: float = 1e12
    condition_warn: float = 1e10
    condition_page: float = 1e14

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form (for ``/healthz`` and docs tables)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class HealthReport:
    """Outcome of one probe: measured values plus classification.

    ``status`` is the worst classification across the measured probes
    (``ok`` < ``warn`` < ``page``); unmeasured probes are ``None`` and
    do not contribute.  ``messages`` lists one human-readable line per
    breached threshold.
    """

    status: str = "ok"
    residual: float | None = None
    pivot_growth: float | None = None
    condition: float | None = None
    messages: list[str] = dataclasses.field(default_factory=list)
    thresholds: HealthThresholds = dataclasses.field(
        default_factory=HealthThresholds
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``/healthz`` document body)."""
        out: dict[str, Any] = {"status": self.status}
        for key in ("residual", "pivot_growth", "condition"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.messages:
            out["messages"] = list(self.messages)
        out["thresholds"] = self.thresholds.to_dict()
        return out


def pivot_growth(matrix: Any) -> float:
    """Pivot-growth factor of the matrix's diagonal blocks.

    Factors the ``(n, m, m)`` diagonal band with LAPACK's partially
    pivoted LU and returns ``max_b max|U_b| / max|A_b|`` — the
    classical element-growth measure, skipping all-zero blocks (``0.0``
    when there are none).  The elimination methods (Thomas, SPIKE,
    cyclic reduction) pivot within these blocks or their Schur
    complements; ARD and RD never factor them (they invert the
    superdiagonal ``U_i``), so for them the value describes the matrix,
    not the solve.  Growth near ``1`` means pivoting is containing
    round-off; large growth predicts residual loss.
    """
    import scipy.linalg

    diag = np.asarray(matrix.diag)
    upper = scipy.linalg.lu(diag, check_finite=False)[2]
    top = np.abs(upper).max(axis=(1, 2), initial=0.0)
    base = np.abs(diag).max(axis=(1, 2), initial=0.0)
    ok = base > 0
    return float((top[ok] / base[ok]).max(initial=0.0))


def _classify(value: float | None, warn: float, page: float,
              name: str, report: HealthReport) -> None:
    if value is None or not np.isfinite(value):
        if value is not None:
            report.status = "page"
            report.messages.append(f"{name} is non-finite ({value})")
        return
    if value >= page:
        report.status = "page"
        report.messages.append(f"{name} {value:.3e} >= page threshold {page:.1e}")
    elif value >= warn:
        if report.status != "page":
            report.status = "warn"
        report.messages.append(f"{name} {value:.3e} >= warn threshold {warn:.1e}")


def _publish(report: HealthReport, registry: MetricsRegistry | None,
             origin: str) -> None:
    note_event("health.probe", origin=origin, status=report.status,
               **{k: v for k, v in (("residual", report.residual),
                                    ("pivot_growth", report.pivot_growth),
                                    ("condition", report.condition))
                  if v is not None})
    if registry is not None:
        if report.residual is not None:
            registry.gauge("health.residual_norm").set(report.residual)
            registry.summary("health.residual_norm.dist").observe(
                report.residual)
        if report.pivot_growth is not None:
            registry.gauge("health.pivot_growth").set(report.pivot_growth)
        if report.condition is not None:
            registry.gauge("health.condition").set(report.condition)
        if report.status == "warn":
            registry.counter("health.warn").inc()
        elif report.status == "page":
            registry.counter("health.page").inc()
    if report.status != "ok":
        emit = _log.error if report.status == "page" else _log.warning
        emit("health.breach", message="; ".join(report.messages),
             origin=origin, status=report.status,
             **{k: v for k, v in (("residual", report.residual),
                                  ("pivot_growth", report.pivot_growth),
                                  ("condition", report.condition))
                if v is not None})


def probe_solve(matrix: Any, x: np.ndarray, b: np.ndarray, *,
                factorization: Any | None = None,
                thresholds: HealthThresholds | None = None,
                condition: bool = False,
                growth: bool = False,
                registry: MetricsRegistry | None = None) -> HealthReport:
    """Probe the quality of one solve: residual, optionally more.

    ``x``/``b`` are in the canonical ``(n, m, r)`` layout.  The residual
    (one band matvec, ``O(N M^2 R)``) is always measured; the condition
    estimate (several extra solves) only with ``condition=True`` and a
    ``factorization`` to drive it; the diagonal-block pivot growth only
    with ``growth=True`` (callers that amortize it per factorization
    use :func:`probe_factor` instead).  Gauges/counters land in
    ``registry`` when given; breaches are logged with the active trace
    context.
    """
    thresholds = thresholds or HealthThresholds()
    report = HealthReport(thresholds=thresholds)
    report.residual = float(matrix.residual(x, b))
    _classify(report.residual, thresholds.residual_warn,
              thresholds.residual_page, "residual", report)
    if growth:
        report.pivot_growth = float(pivot_growth(matrix))
        _classify(report.pivot_growth, thresholds.growth_warn,
                  thresholds.growth_page, "pivot_growth", report)
    if condition and factorization is not None:
        from ..linalg.analysis import estimate_condition

        report.condition = float(estimate_condition(matrix, factorization))
        _classify(report.condition, thresholds.condition_warn,
                  thresholds.condition_page, "condition", report)
    _publish(report, registry, origin="solve")
    return report


def probe_factor(matrix: Any, factorization: Any | None = None, *,
                 thresholds: HealthThresholds | None = None,
                 condition: bool = True,
                 registry: MetricsRegistry | None = None) -> HealthReport:
    """Probe a factorization: pivot growth, optionally condition.

    Matrix-level (independent of any RHS), so callers amortize it per
    factorization — the service runs it once per cache key on the miss
    path.  The condition estimate needs ``factorization`` and is
    skipped without one.
    """
    thresholds = thresholds or HealthThresholds()
    report = HealthReport(thresholds=thresholds)
    report.pivot_growth = float(pivot_growth(matrix))
    _classify(report.pivot_growth, thresholds.growth_warn,
              thresholds.growth_page, "pivot_growth", report)
    if condition and factorization is not None:
        from ..linalg.analysis import estimate_condition

        report.condition = float(estimate_condition(matrix, factorization))
        _classify(report.condition, thresholds.condition_warn,
                  thresholds.condition_page, "condition", report)
    _publish(report, registry, origin="factor")
    return report
