"""Front-end solve/factor API.

``solve(A, b, method=...)`` covers one-shot use; ``factor(A, method=...)``
returns a reusable factorization (the factor-once / solve-many pattern
whose payoff the paper quantifies).  Distributed methods (``"rd"``,
``"ard"``) run on the simulated SPMD runtime with ``nranks`` ranks and
expose modelled timings via ``return_info=True``.

Methods
-------
``"auto"``
    The planner's reference (:mod:`repro.perfmodel.planner`): ARD on
    ``nranks`` ranks.  The :class:`~repro.perfmodel.Plan` lands on
    ``SolveInfo.plan`` and in ``plan.*`` trace instants.
``"ard"``
    Accelerated recursive doubling (the paper's contribution).
``"rd"``
    Classical recursive doubling, one full pass per RHS (the baseline).
``"spike"``
    SPIKE-style partitioned solver — distributed and backward stable for
    block diagonally dominant systems (the regime where recurrence-based
    RD/ARD lose accuracy; see DESIGN.md).
``"thomas"``
    Sequential block Thomas (block LU).
``"cyclic"``
    Sequential block cyclic reduction.
``"dense"`` / ``"banded"`` / ``"sparse"``
    Reference solvers from :mod:`repro.linalg.reference`.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..comm import CostModel, SimulationResult, run_spmd
from ..exceptions import ConfigError, ShapeError
from ..linalg.blocktridiag import (
    BlockTridiagonalMatrix,
    reshape_rhs,
    restore_rhs_shape,
)
from ..linalg.reference import banded_solve, dense_solve, sparse_solve
from .ard import ARDFactorization
from .cyclic_reduction import CyclicReductionFactorization
from .diagnostics import diagnose
from .distribute import distribute_matrix, distribute_rhs, gather_solution
from .rd import rd_solve_spmd
from .spike import SpikeFactorization
from .thomas import ThomasFactorization

__all__ = ["solve", "factor", "fingerprint", "SolveInfo", "SOLVE_METHODS",
           "FACTOR_METHODS"]

SOLVE_METHODS = ("auto", "ard", "rd", "spike", "thomas", "cyclic", "dense",
                 "banded", "sparse")
FACTOR_METHODS = ("auto", "ard", "spike", "thomas", "cyclic")


@dataclasses.dataclass
class SolveInfo:
    """Metadata about one :func:`solve` call.

    Attributes
    ----------
    method / nranks / nrhs:
        Echo of the request.
    residual:
        Relative max-norm residual of the returned solution.
    virtual_time:
        Modelled parallel seconds.  **Distributed methods only**
        (``"ard"``, ``"rd"``, ``"spike"``): sequential/reference
        methods (``"thomas"``, ``"cyclic"``, ``"dense"``, ``"banded"``,
        ``"sparse"``) never run on the simulated runtime, so
        ``virtual_time is None`` for them — check before arithmetic.
    factor_result / solve_result:
        Per-phase :class:`~repro.comm.stats.SimulationResult` objects
        (ARD/SPIKE) or the single fused result (RD).
    phase_report:
        :class:`~repro.obs.report.PhaseReport` with the measured
        per-phase time/flop/byte breakdown when the solve ran with
        ``trace=True``; ``None`` otherwise.  Its per-phase virtual
        times sum to :attr:`virtual_time`.
    trace_id:
        Correlation id (:mod:`repro.obs.context`) of this solve when it
        ran traced or under an active trace context; shared by the
        rank spans, log records, and message envelopes it produced.
    health:
        :class:`~repro.obs.health.HealthReport` when the solve ran
        with ``health=True``; ``None`` otherwise.
    plan:
        The :class:`~repro.perfmodel.Plan` the planner chose when the
        solve ran with ``method="auto"``; ``None`` for explicit
        methods.  :attr:`method` then echoes the *resolved*
        method (``plan.method``), never the literal ``"auto"``.
    """

    method: str
    nranks: int
    nrhs: int
    residual: float
    virtual_time: float | None = None
    factor_result: SimulationResult | None = None
    solve_result: SimulationResult | None = None
    phase_report: Any | None = None
    trace_id: str | None = None
    health: Any | None = None
    plan: Any | None = None


def _reject_unknown_kwargs(fn_name: str, kwargs: dict) -> None:
    """Raise :class:`~repro.exceptions.ConfigError` for stray keywords.

    A mistyped option (``nrank=4``, ``refined=1``) silently falling
    through would change results without warning; rejecting it as a
    :class:`ConfigError` keeps it catchable under
    :class:`~repro.exceptions.ReproError` alongside the other
    configuration mistakes (unknown method names, bad rank counts).
    """
    if kwargs:
        names = ", ".join(sorted(kwargs))
        raise ConfigError(f"{fn_name}() got unknown keyword argument(s): "
                          f"{names}")


def _validate(matrix: Any, method: str, nranks: int) -> None:
    if not isinstance(matrix, BlockTridiagonalMatrix):
        raise ShapeError(
            f"matrix must be a BlockTridiagonalMatrix, got {type(matrix).__name__}"
        )
    if method not in SOLVE_METHODS:
        raise ConfigError(
            f"unknown method {method!r}; choose from {SOLVE_METHODS}"
        )
    if nranks < 1:
        raise ShapeError(f"nranks must be >= 1, got {nranks}")


def solve(
    matrix: BlockTridiagonalMatrix,
    b: np.ndarray,
    *,
    method: str = "ard",
    nranks: int = 1,
    cost_model: CostModel | None = None,
    check: bool = False,
    refine: int = 0,
    trace: bool = False,
    health: Any = False,
    return_info: bool = False,
    backend: str | None = None,
    **unknown_kwargs,
):
    """Solve the block tridiagonal system ``A x = b``.

    Parameters
    ----------
    matrix:
        The system matrix.
    b:
        Right-hand side(s); any layout accepted by
        :func:`repro.linalg.blocktridiag.reshape_rhs`.  With no
        right-hand side (``R = 0``) every method returns an empty
        solution without factoring or launching ranks.
    method:
        One of :data:`SOLVE_METHODS` (default ``"ard"``).
    nranks:
        Simulated ranks for the distributed methods (ignored by
        sequential ones).
    cost_model:
        Machine model for virtual-time accounting.
    check:
        Run :func:`repro.core.diagnostics.diagnose` first (may emit a
        :class:`~repro.exceptions.StabilityWarning`).
    refine:
        Rounds of iterative refinement (``x += solve(b - A x)``); one
        round squares the ``eps * growth`` error factor (see
        :mod:`repro.core.refine`).
    trace:
        Record per-rank span timelines (see :mod:`repro.obs`) during
        the distributed methods.  The results carry
        ``SimulationResult.traces`` and, with ``return_info=True``,
        ``SolveInfo.phase_report``; export with
        :func:`repro.obs.write_chrome_trace`.  Ignored by sequential
        methods (which never run on the simulated runtime).  Off by
        default — disabled tracing costs only a no-op guard and leaves
        results bit-identical.
    health:
        Run the numerical-health probes (:mod:`repro.obs.health`) on
        the result: residual classification, diagonal-block pivot
        growth, and — when the method produced a reusable
        factorization — a condition estimate.  Pass ``True`` (default
        thresholds) or a
        :class:`~repro.obs.health.HealthThresholds`; the report lands
        on ``SolveInfo.health`` (``return_info=True`` to see it) and
        threshold breaches emit structured log records.
    return_info:
        Also return a :class:`SolveInfo`.
    backend:
        Execution backend for the distributed methods: ``"threads"``
        (in-process reference semantics), ``"processes"`` (spawned
        workers with shared-memory transport — see docs/BACKENDS.md),
        or ``None`` (default) to follow the configured
        ``comm_backend``.  Ignored by sequential methods.

    Returns
    -------
    ``x`` or ``(x, info)``:
        The solution in the caller's RHS layout.

    Raises
    ------
    ConfigError
        For an unknown ``method`` or any unrecognized keyword argument
        (mistyped options never pass silently).
    """
    _reject_unknown_kwargs("solve", unknown_kwargs)
    _validate(matrix, method, nranks)

    n, m = matrix.nblocks, matrix.block_size
    bb, original = reshape_rhs(b, n, m)
    nrhs = bb.shape[2]

    planned = None
    if method == "auto":
        from ..perfmodel.planner import plan as _resolve_plan

        planned = _resolve_plan(n, m, p=nranks, r=nrhs, dtype=matrix.dtype)
        method = planned.method
        nranks = planned.nranks

    if check and method in ("ard", "rd"):
        diagnose(matrix)
    factor_result = None
    solve_result = None
    virtual_time = None
    # (label, SimulationResult) pairs whose makespans sum to virtual_time;
    # they become the SolveInfo.phase_report when tracing.
    trace_segments: list[tuple[str, SimulationResult]] = []

    if refine < 0:
        raise ShapeError(f"refine must be >= 0, got {refine}")

    # Correlation: one TraceContext covers the whole solve, so ARD's
    # separate factor/solve SPMD runs (and any log records) share one
    # trace_id.  The caller's active context is adopted; a fresh one is
    # minted only when tracing asked for correlation.
    from ..obs.context import current_trace_context, trace_context
    from contextlib import ExitStack

    tc = current_trace_context()
    fact = None  # reusable factorization, when the method builds one
    with ExitStack() as stack:
        if tc is None and trace:
            from ..obs.context import new_trace_context

            tc = new_trace_context()
        if tc is not None:
            stack.enter_context(trace_context(tc))
        if planned is not None:
            # Stamp the decision into the active trace.
            from ..obs.flightrec import note_event
            from ..obs.tracer import instant

            instant("plan.selected", cat="plan", **planned.to_dict())
            note_event("plan.selected", **planned.to_dict())

        if nrhs == 0:
            # Every method returns the same empty solution and launches
            # no rank.
            x = np.empty((n, m, 0), dtype=np.result_type(matrix.dtype,
                                                         bb.dtype))
        elif method in ("ard", "spike"):
            cls = ARDFactorization if method == "ard" else SpikeFactorization
            fact = cls(matrix, nranks=nranks, cost_model=cost_model,
                       trace=trace, backend=backend)
            x = fact.solve(bb, refine=refine)
            factor_result = fact.factor_result
            solve_result = fact.last_solve_result
            virtual_time = (fact.factor_result.virtual_time
                            + solve_result.virtual_time)
            trace_segments = [("factor", factor_result),
                              ("solve", solve_result)]
        elif method == "rd":
            def _rd_once(rhs):
                chunks = distribute_matrix(matrix, nranks)
                d_chunks = distribute_rhs(rhs, nranks)
                return run_spmd(
                    rd_solve_spmd,
                    nranks,
                    cost_model=cost_model,
                    copy_messages=False,
                    rank_args=[(c, d) for c, d in zip(chunks, d_chunks)],
                    trace=trace,
                    backend=backend,
                )

            result = _rd_once(bb)
            solve_result = result
            virtual_time = result.virtual_time
            trace_segments = [("solve", result)]
            x = gather_solution(list(result.values))
            for i in range(refine):
                # Honest refinement for the baseline: each round repeats
                # the full per-RHS passes on the residual.
                result = _rd_once(bb - matrix.matvec(x))
                virtual_time += result.virtual_time
                trace_segments.append((f"refine{i + 1}", result))
                x = x + gather_solution(list(result.values))
        elif method == "thomas":
            fact = ThomasFactorization(matrix)
            x = fact.solve(bb, refine=refine)
        elif method == "cyclic":
            fact = CyclicReductionFactorization(matrix)
            x = fact.solve(bb, refine=refine)
        else:
            ref = {"dense": dense_solve, "banded": banded_solve,
                   "sparse": sparse_solve}[method]
            x = ref(matrix, bb)
            for _ in range(refine):
                x = x + ref(matrix, bb - matrix.matvec(x))

        x = np.asarray(x).reshape(n, m, nrhs)
        health_report = None
        if health:
            from ..obs.health import HealthThresholds, probe_solve

            thresholds = (health if isinstance(health, HealthThresholds)
                          else None)
            health_report = probe_solve(
                matrix, x, bb, factorization=fact, thresholds=thresholds,
                condition=fact is not None, growth=True,
            )

    out = restore_rhs_shape(x, original)
    if not return_info:
        return out
    phase_report = None
    if trace and trace_segments:
        from ..obs import build_phase_report

        phase_report = build_phase_report(trace_segments)
    residual = matrix.residual(x, bb)
    info = SolveInfo(
        method=method,
        nranks=nranks if method in ("ard", "rd", "spike") else 1,
        nrhs=nrhs,
        residual=residual,
        virtual_time=virtual_time,
        factor_result=factor_result,
        solve_result=solve_result,
        phase_report=phase_report,
        trace_id=tc.trace_id if tc is not None else None,
        health=health_report,
        plan=planned,
    )
    from ..obs.log import get_logger

    fields = {"method": method, "nranks": info.nranks, "nrhs": nrhs,
              "residual": residual, "virtual_time": virtual_time}
    if tc is not None:  # the dispatch context is uninstalled by now
        fields["trace_id"] = tc.trace_id
    get_logger("core.api").info("solve.completed", **fields)
    return out, info


def factor(
    matrix: BlockTridiagonalMatrix,
    *,
    method: str = "ard",
    nranks: int = 1,
    cost_model: CostModel | None = None,
    trace: bool = False,
    backend: str | None = None,
    **unknown_kwargs,
):
    """Factor ``matrix`` for repeated solves.

    Returns an object with a ``solve(b, refine=0, max_batch=None)``
    method: :class:`~repro.core.ard.ARDFactorization`,
    :class:`~repro.core.spike.SpikeFactorization`,
    :class:`~repro.core.thomas.ThomasFactorization`, or
    :class:`~repro.core.cyclic_reduction.CyclicReductionFactorization`.

    ``trace=True`` records per-rank span timelines (see
    :mod:`repro.obs`) on the distributed factorizations' factor and
    solve runs (``factor_result.traces`` / ``last_solve_result.traces``);
    sequential methods ignore it.

    Unknown keyword arguments raise
    :class:`~repro.exceptions.ConfigError`.
    """
    _reject_unknown_kwargs("factor", unknown_kwargs)
    if method not in FACTOR_METHODS:
        raise ConfigError(
            f"unknown factor method {method!r}; choose from {FACTOR_METHODS}"
        )
    if not isinstance(matrix, BlockTridiagonalMatrix):
        raise ShapeError(
            f"matrix must be a BlockTridiagonalMatrix, got {type(matrix).__name__}"
        )
    if method == "auto":
        from ..perfmodel.planner import plan as _resolve_plan

        planned = _resolve_plan(matrix.nblocks, matrix.block_size, p=nranks,
                                r=1, dtype=matrix.dtype)
        method = planned.method
        nranks = planned.nranks
    if method == "ard":
        return ARDFactorization(matrix, nranks=nranks, cost_model=cost_model,
                                trace=trace, backend=backend)
    if method == "spike":
        return SpikeFactorization(matrix, nranks=nranks, cost_model=cost_model,
                                  trace=trace, backend=backend)
    if method == "thomas":
        return ThomasFactorization(matrix)
    return CyclicReductionFactorization(matrix)


def fingerprint(
    matrix: BlockTridiagonalMatrix,
    *,
    method: str | None = None,
    nranks: int = 1,
) -> str:
    """Stable content fingerprint of ``matrix`` — the factor-cache key.

    With only a matrix, returns its content hash
    (:meth:`~repro.linalg.blocktridiag.BlockTridiagonalMatrix.fingerprint`):
    equal-content matrices map to equal digests.  With ``method``
    (one of :data:`FACTOR_METHODS`), returns the full cache key used by
    :mod:`repro.service` — the content hash qualified by method and
    rank geometry, i.e. exactly the granularity at which a stored
    factorization is reusable.

    >>> import numpy as np
    >>> from repro.workloads import poisson_block_system
    >>> A, _ = poisson_block_system(8, 2)
    >>> fingerprint(A) == fingerprint(A.copy())
    True
    >>> fingerprint(A, method="ard", nranks=4).startswith("ard:p4:")
    True
    """
    if not isinstance(matrix, BlockTridiagonalMatrix):
        raise ShapeError(
            f"matrix must be a BlockTridiagonalMatrix, got {type(matrix).__name__}"
        )
    if method is None:
        return matrix.fingerprint()
    from ..service.fingerprint import factor_key  # deferred: avoids cycle

    return factor_key(matrix, method, nranks)
