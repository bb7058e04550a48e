"""Which ``repro`` entry points the traced pass wraps, and as what layer.

Every wrapper is installed from here, on public functions, classes and
methods; nothing under ``src/`` knows it is being measured.  Ledger
rows are named ``<module>[.<part>]`` after the layer that owns the
code, and each row maps to the per-layer metrics in ``BENCHMARK.json``.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import threading

from ledger import RESIDUAL, SPMD, Ledger

#: Module-level functions: (module, attribute, ledger row).
FUNCTIONS = (
    ("repro.core.api", "solve", "core.api"),
    ("repro.core.api", "factor", "core.api"),
    ("repro.perfmodel.planner", "plan", "perfmodel.planner"),
    ("repro.core.recurrence", "local_matrix_aggregate",
     "core.recurrence.build"),
    ("repro.core.recurrence", "local_vector_aggregate",
     "core.recurrence.vector"),
    ("repro.core.recurrence", "forward_solution", "core.recurrence.vector"),
    ("repro.core.scan_affine", "affine_scan", "core.scan_affine.factor"),
    ("repro.core.scan_affine", "replay_scan", "core.scan_affine.replay"),
    ("repro.core.ard", "ard_factor_spmd", "core.ard.factor_rank"),
    ("repro.core.ard", "ard_solve_spmd", "core.ard.solve_rank"),
    ("repro.core.distribute", "distribute_matrix", "core.distribute"),
    ("repro.core.distribute", "distribute_rhs", "core.distribute"),
    ("repro.core.distribute", "gather_solution", "core.distribute"),
)

#: Methods: (module, class, attribute, ledger row).
METHODS = (
    ("repro.core.thomas", "ThomasFactorization", "__init__", "core.thomas"),
    ("repro.core.thomas", "ThomasFactorization", "solve", "core.thomas"),
    ("repro.linalg.blockops", "BatchedLU", "__init__", "linalg.blockops.lu"),
    ("repro.linalg.blockops", "BatchedLU", "solve", "linalg.blockops.solve"),
    ("repro.linalg.blockops", "BatchedLU", "solve_one",
     "linalg.blockops.solve"),
    ("repro.core.recurrence", "TransferOperators", "__init__",
     "core.recurrence.build"),
    ("repro.core.recurrence", "TransferOperators", "g",
     "core.recurrence.vector"),
    ("repro.comm.runtime", "Runtime", "match", "comm.runtime.wait"),
    ("repro.service.service", "SolverService", "register", "service.service"),
    ("repro.service.service", "SolverService", "submit", "service.service"),
    ("repro.service.cache", "FactorizationCache", "get_or_create",
     "service.cache"),
)

LAUNCH = "comm.runtime.launch"
SERVE = "service.service"

#: Every ledger row, in report order, and the per-layer metric its
#: ms/op value is reported as; the residual row comes last.
ROW_METRICS = {
    "core.api": "core.api.self_ms",
    "perfmodel.planner": "perfmodel.planner.ms",
    "core.thomas": "core.thomas.ms",
    "linalg.blockops.lu": "linalg.blockops.lu_ms",
    "linalg.blockops.solve": "linalg.blockops.solve_ms",
    "core.recurrence.build": "core.recurrence.build_ms",
    "core.recurrence.vector": "core.recurrence.vector_ms",
    "core.scan_affine.factor": "core.scan_affine.factor_ms",
    "core.scan_affine.replay": "core.scan_affine.replay_ms",
    "core.ard.factor_rank": "core.ard.factor_rank_ms",
    "core.ard.solve_rank": "core.ard.solve_rank_ms",
    LAUNCH: "comm.runtime.launch_ms",
    "comm.runtime.wait": "comm.runtime.wait_ms",
    "core.distribute": "core.distribute.ms",
    SERVE: "service.service.self_ms",
    "service.batcher": "service.batcher.wait_ms",
    "service.cache": "service.cache.self_ms",
    "generator": "generator.late_ms",
    RESIDUAL: "ledger.residual_ms",
}


@dataclasses.dataclass
class SpmdRun:
    """Counters one ``run_spmd`` call returned (``SimulationResult``)."""

    sid: int
    program: str
    msgs: int
    nbytes: int
    flops: int
    virtual_s: float
    nrhs: int | None


class Probe:
    """The installed wrappers plus the records they keep beyond spans."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.spmd_runs: list[SpmdRun] = []
        #: request id -> perf_counter when the batcher queued it.
        self.put_at: dict[str, float] = {}
        #: request id -> (perf_counter taken, batch root span id).
        self.taken: dict[str, tuple[float, int]] = {}
        self.batch_rhs: list[int] = []
        self._worker = threading.local()

    # -- run_spmd: rank programs become children of the call's span -----

    def _wrap_run_spmd(self, original):
        ledger, runs = self.ledger, self.spmd_runs
        ard = importlib.import_module("repro.core.ard")
        names = {"ard_factor_spmd": "factor", "ard_solve_spmd": "solve"}

        @functools.wraps(original)
        def run_spmd(fn, nranks, *args, **kwargs):
            token = ledger.open(LAUNCH, kind=SPMD)
            sid = token[0]

            def rank_program(comm, *a, **k):
                rank_token = ledger.open(LAUNCH, parent=sid)
                try:
                    return fn(comm, *a, **k)
                finally:
                    ledger.close(rank_token)

            try:
                result = original(rank_program, nranks, *args, **kwargs)
            finally:
                ledger.close(token)
            program = next((tag for name, tag in names.items()
                            if fn is getattr(ard, name)), "other")
            nrhs = None
            rank_args = kwargs.get("rank_args")
            if program == "solve" and rank_args:
                nrhs = int(rank_args[0][-1].shape[2])
            runs.append(SpmdRun(sid, program, result.total_msgs_sent,
                                result.total_bytes_sent, result.total_flops,
                                result.virtual_time, nrhs))
            return result

        return run_spmd

    # -- request batcher: queue wait and the worker's batch window ------

    def _wrap_put(self, original):
        ledger, put_at = self.ledger, self.put_at

        @functools.wraps(original)
        def put(batcher, request):
            put_at[request.trace.request_id] = ledger.clock()
            return original(batcher, request)

        return put

    def _wrap_take(self, original):
        ledger, probe = self.ledger, self

        @functools.wraps(original)
        def take(batcher, now, flush_all=False):
            batch = original(batcher, now, flush_all)
            if batch is not None:
                # The serving window runs from here to release(): one
                # root span on the worker thread.
                token = ledger.open(SERVE)
                probe._worker.batch = token
                at = token[4]
                for req in batch:
                    probe.taken[req.trace.request_id] = (at, token[0])
                probe.batch_rhs.append(sum(r.nrhs for r in batch))
            return batch

        return take

    def _wrap_release(self, original):
        ledger, probe = self.ledger, self

        @functools.wraps(original)
        def release(batcher, key):
            token = getattr(probe._worker, "batch", None)
            if token is not None:
                probe._worker.batch = None
                ledger.close(token)
            return original(batcher, key)

        return release

    # -- install -----------------------------------------------------------

    def install(self) -> "Probe":
        ledger = self.ledger
        for module, attr, layer in FUNCTIONS:
            importlib.import_module(module)
            ledger.wrap_function(module, attr, layer)
        for module, cls, attr, layer in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            ledger.wrap_method(owner, attr, layer)
        ledger.wrap_function("repro.comm.runtime", "run_spmd", LAUNCH,
                             make=self._wrap_run_spmd)
        batcher = importlib.import_module("repro.service.batcher")
        cls = batcher.RequestBatcher
        ledger.wrap_method(cls, "put", SERVE, make=self._wrap_put)
        ledger.wrap_method(cls, "take", SERVE, make=self._wrap_take)
        ledger.wrap_method(cls, "release", SERVE, make=self._wrap_release)
        return self

    def restore(self) -> None:
        self.ledger.restore()

    def reset(self) -> None:
        self.ledger.reset()
        self.spmd_runs.clear()
        self.put_at.clear()
        self.taken.clear()
        self.batch_rhs.clear()


def spmd_totals(runs: list[SpmdRun]) -> dict[str, float]:
    """Summed counters of a set of ``run_spmd`` calls."""
    tot = collections.Counter()
    for r in runs:
        tot["runs"] += 1
        tot["msgs"] += r.msgs
        tot["bytes"] += r.nbytes
        tot["virtual_s"] += r.virtual_s
        if r.program == "solve" and r.nrhs:
            tot["solve_flops"] += r.flops
            tot["solve_rhs"] += r.nrhs
    return tot
