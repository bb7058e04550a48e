"""Cross-rank incident bundles and their post-mortem analysis.

The flight recorder (:mod:`repro.obs.flightrec`) gives every rank a
bounded black-box ring; this module is the crash side of the pattern:

- **Capture.**  :func:`record_failure` is called from every runtime
  failure path — wait-for-graph deadlock, SPMD divergence, worker
  death/heartbeat loss on the process backend, unconsumed messages,
  service deadline breaches and admission-reject storms, health pages,
  and uncaught program exceptions.  It classifies the failure, gathers
  all ranks' ring snapshots (shipped over the control pipes for the
  process backend), the active config, recent plan/health notes, the
  calibration fingerprint, the trace context, and the structured-log
  tail, and writes one schema-versioned
  ``results/incidents/INCIDENT_<trace_id>.json`` bundle.  Capture is
  best-effort by contract: it never raises into (or otherwise masks)
  the original failure.
- **Store.**  :class:`IncidentStore` owns the on-disk bundle directory
  with bounded retention (``incident_retention`` newest bundles kept);
  the service exposes its listing at ``/incidents`` on the
  TelemetryServer.
- **Analysis.**  ``python -m repro.harness postmortem [<bundle>]``
  loads a bundle, rebuilds the merged cross-rank timeline — send→recv
  edges are matched by the runtime ``seq`` ids through
  :func:`repro.obs.critpath.reconstruct_edges`, the matcher the
  profiler runs on the same rows of traced runs — names the blocked or
  divergent operation, the culprit rank, and the straggler rank, and
  renders text (per-rank last-N-event tables), JSON, or a Chrome trace
  (:func:`repro.obs.chrome.row_events`).  ``--check`` turns the
  analysis into an exit code for CI smoke tests; ``--synthetic`` forces
  a tiny two-rank deadlock first.

See docs/INCIDENTS.md for the bundle schema and a walkthrough.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import pathlib
import re
from typing import Any

from ..exceptions import (
    CommError,
    DeadlineExceededError,
    DeadlockError,
    ReproError,
    ServiceOverloadError,
    SpmdDivergenceError,
    UnconsumedMessageError,
)
from .context import TraceContext, current_trace_context, new_trace_id
from .flightrec import RECORD_FIELDS, recent_notes
from .log import active_log, console, get_logger

__all__ = [
    "INCIDENT_SCHEMA_VERSION",
    "IncidentStore",
    "classify_reason",
    "capture_incident",
    "record_failure",
    "load_bundle",
    "analyze_bundle",
    "render_text",
    "to_chrome",
    "force_synthetic_incident",
    "run_postmortem",
]

#: Version stamped into every bundle; bump on breaking schema changes.
INCIDENT_SCHEMA_VERSION = 1

_log = get_logger("postmortem")

_RANK_RE = re.compile(r"rank (\d+)")

#: ``REPRO_INCIDENT_DIR`` values that disable capture entirely.
_DISABLE_VALUES = frozenset({"", "0", "off", "none", "false", "no"})


def classify_reason(exc: BaseException, *, rank: int | None = None,
                    op: str | None = None) -> dict[str, Any]:
    """Map a failure exception to the bundle's ``reason`` descriptor.

    Returns ``{"type", "exception", "message", "rank", "op"}`` where
    ``type`` is one of ``deadlock`` / ``divergence`` / ``worker_death``
    / ``unconsumed`` / ``deadline`` / ``reject_storm`` / ``exception``.
    ``rank`` falls back to an ``exc.failed_rank`` attribute, then to
    the first ``rank <n>`` mention in the message.
    """
    msg = str(exc)
    if isinstance(exc, DeadlockError):
        kind = "deadlock"
    elif isinstance(exc, SpmdDivergenceError):
        kind = "divergence"
    elif isinstance(exc, UnconsumedMessageError):
        kind = "unconsumed"
    elif isinstance(exc, DeadlineExceededError):
        kind = "deadline"
    elif isinstance(exc, ServiceOverloadError):
        kind = "reject_storm"
    elif isinstance(exc, CommError) and "died unexpectedly" in msg:
        kind = "worker_death"
    else:
        kind = "exception"
    if rank is None:
        rank = getattr(exc, "failed_rank", None)
    if rank is None:
        found = _RANK_RE.search(msg)
        rank = int(found.group(1)) if found else None
    return {"type": kind, "exception": type(exc).__name__,
            "message": msg, "rank": rank, "op": op}


def _calibration_fingerprint() -> dict[str, Any] | None:
    """Hash of the committed machine-calibration file, if present."""
    try:
        from ..perfmodel.calibrate import DEFAULT_CALIB_PATH

        path = pathlib.Path(DEFAULT_CALIB_PATH)
        if not path.is_file():
            return None
        data = path.read_bytes()
        return {"path": str(path), "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest()[:16]}
    except Exception:  # pragma: no cover - fingerprint is best-effort
        return None


def _config_dict() -> dict[str, Any]:
    from ..config import get_config

    out = dataclasses.asdict(get_config())
    out["dtype"] = str(out["dtype"])
    return out


class IncidentStore:
    """Bounded on-disk bundle directory with mtime-ordered retention.

    Parameters
    ----------
    directory:
        Bundle directory.  ``None`` resolves ``REPRO_INCIDENT_DIR``
        (values in ``0/off/none/false/no`` disable the store), then the
        ``incident_dir`` config field.
    retention:
        Maximum bundles kept; ``None`` reads ``incident_retention``
        from the active config.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 retention: int | None = None):
        if directory is None:
            env = os.environ.get("REPRO_INCIDENT_DIR")
            if env is not None:
                directory = env.strip()
            else:
                from ..config import get_config

                directory = get_config().incident_dir
        if retention is None:
            from ..config import get_config

            retention = get_config().incident_retention
        self.enabled = str(directory).strip().lower() not in _DISABLE_VALUES
        self.directory = (pathlib.Path(directory) if self.enabled else None)
        self.retention = int(retention)

    def paths(self) -> list[pathlib.Path]:
        """Bundle files on disk, newest first by modification time."""
        if not self.enabled or not self.directory.is_dir():
            return []
        found = sorted(
            self.directory.glob("INCIDENT_*.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        return found

    def write(self, bundle: dict[str, Any]) -> pathlib.Path | None:
        """Persist one bundle (then prune); returns its path or None."""
        if not self.enabled:
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        stem = f"INCIDENT_{bundle['incident_id']}"
        path = self.directory / f"{stem}.json"
        n = 1
        while path.exists():
            path = self.directory / f"{stem}_{n}.json"
            n += 1
        path.write_text(json.dumps(bundle, default=str, sort_keys=True),
                        encoding="utf-8")
        self.prune()
        return path

    def prune(self) -> int:
        """Delete bundles beyond the retention bound; returns count."""
        victims = self.paths()[self.retention:]
        for path in victims:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass
        return len(victims)

    def list(self) -> list[dict[str, Any]]:
        """Bundle summaries (newest first) for the ``/incidents`` route."""
        out = []
        for path in self.paths():
            try:
                bundle = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):  # pragma: no cover - torn write
                continue
            out.append({
                "path": str(path),
                "incident_id": bundle.get("incident_id"),
                "created_at": bundle.get("created_at"),
                "type": bundle.get("reason", {}).get("type"),
                "message": bundle.get("reason", {}).get("message"),
                "backend": bundle.get("backend"),
                "nranks": bundle.get("nranks"),
            })
        return out


def capture_incident(
    reason: dict[str, Any],
    *,
    backend: str,
    nranks: int,
    rings: dict[int, dict[str, Any] | None],
    trace_ctx: TraceContext | None = None,
    extra: dict[str, Any] | None = None,
    store: IncidentStore | None = None,
) -> pathlib.Path | None:
    """Assemble and persist one incident bundle; returns its path.

    ``rings`` maps world rank to a
    :meth:`~repro.obs.flightrec.FlightRecorder.snapshot` dict (``None``
    for ranks whose ring could not be recovered, e.g. a killed worker
    process).  Unlike :func:`record_failure` this raises on I/O errors;
    runtime failure paths go through the never-raising wrapper.
    """
    ctx = trace_ctx if trace_ctx is not None else current_trace_context()
    sink = active_log()
    bundle: dict[str, Any] = {
        "schema_version": INCIDENT_SCHEMA_VERSION,
        "incident_id": ctx.trace_id if ctx is not None else new_trace_id(),
        "created_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "reason": reason,
        "backend": backend,
        "nranks": nranks,
        "trace": ctx.to_dict() if ctx is not None else None,
        "config": _config_dict(),
        "notes": recent_notes(),
        "calibration": _calibration_fingerprint(),
        "log_tail": list(sink.tail) if sink is not None else [],
        "rings": {str(rank): snap for rank, snap in rings.items()},
    }
    if extra:
        bundle["extra"] = extra
    result = (store if store is not None else IncidentStore()).write(bundle)
    if result is not None:
        _log.error("incident.captured", path=str(result),
                   type=reason.get("type"), rank=reason.get("rank"))
    return result


def record_failure(
    exc: BaseException,
    *,
    backend: str,
    nranks: int,
    rings: dict[int, dict[str, Any] | None],
    trace_ctx: TraceContext | None = None,
    rank: int | None = None,
    op: str | None = None,
    extra: dict[str, Any] | None = None,
) -> pathlib.Path | None:
    """Never-raising capture hook used by runtime failure paths.

    Classifies ``exc``, captures a bundle, and stamps the bundle path
    onto the exception as ``exc.incident_path`` so callers (and nested
    failure paths — a service deadline wrapping an SPMD abort) can see
    the failure was already captured and skip double capture.
    """
    try:
        if getattr(exc, "incident_path", None) is not None:
            return None
        from ..config import get_config

        if not get_config().flightrec:
            return None
        path = capture_incident(
            classify_reason(exc, rank=rank, op=op),
            backend=backend, nranks=nranks, rings=rings,
            trace_ctx=trace_ctx, extra=extra,
        )
        if path is not None:
            try:
                exc.incident_path = str(path)  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - slotted exception
                pass
        return path
    except Exception:  # pragma: no cover - capture must never mask
        _log.warning("incident.capture_failed", exception=type(exc).__name__)
        return None


# -- analysis -------------------------------------------------------------


def load_bundle(path: str | os.PathLike) -> dict[str, Any]:
    """Load and schema-check one incident bundle from disk."""
    bundle = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    version = bundle.get("schema_version")
    if version != INCIDENT_SCHEMA_VERSION:
        raise ReproError(
            f"unsupported incident schema version {version!r} in {path} "
            f"(this build reads version {INCIDENT_SCHEMA_VERSION})"
        )
    return bundle


def _ring_records(bundle: dict[str, Any]) -> dict[int, list[Any]]:
    """Each rank's ring rows, oldest first (empty for a lost ring)."""
    return {int(k): (snap or {}).get("records", [])
            for k, snap in bundle.get("rings", {}).items()}


def _ring_rows(bundle: dict[str, Any]) -> dict[int, list[dict[str, Any]]]:
    """:func:`_ring_records` as :data:`RECORD_FIELDS`-keyed dicts."""
    return {rank: [dict(zip(RECORD_FIELDS, row)) for row in rows]
            for rank, rows in _ring_records(bundle).items()}


def analyze_bundle(bundle: dict[str, Any]) -> dict[str, Any]:
    """Derive the post-mortem verdict from one loaded bundle.

    Returns a JSON-ready dict: the classified ``reason``, the culprit
    rank and operation, the straggler rank (earliest last activity),
    the blocked set with what each rank was waiting on, per-rank ring
    digests, and the send→recv edge-matching summary.
    """
    from .critpath import reconstruct_edges

    reason = bundle.get("reason", {})
    rings = {int(k): v for k, v in bundle.get("rings", {}).items()}
    rows_by_rank = _ring_rows(bundle)

    edge_set = reconstruct_edges(_ring_records(bundle), segment="postmortem")

    blocked = []
    for rank in sorted(rows_by_rank):
        rows = rows_by_rank[rank]
        if rows and rows[-1]["kind"] == "wait":
            last = rows[-1]
            blocked.append({
                "rank": rank, "op": last["op"], "peer": last["peer"],
                "tag": last["tag"], "w_ts": last["w_ts"],
            })

    last_seen = {rank: rows[-1]["w_ts"]
                 for rank, rows in rows_by_rank.items() if rows}
    straggler = (min(last_seen, key=last_seen.get)
                 if last_seen else None)
    missing = sorted(rank for rank, snap in rings.items() if not snap)

    culprit_rank = reason.get("rank")
    culprit_op = reason.get("op")
    blocked_by_rank = {b["rank"]: b for b in blocked}
    if reason.get("type") == "deadlock" and blocked:
        if culprit_rank not in blocked_by_rank:
            culprit_rank = blocked[0]["rank"]
        culprit_op = culprit_op or blocked_by_rank[culprit_rank]["op"]
    if culprit_rank is None and missing:
        culprit_rank = missing[0]
    if culprit_op is None and culprit_rank is not None:
        rows = rows_by_rank.get(culprit_rank) or []
        if rows:
            culprit_op = rows[-1]["op"]
        elif culprit_rank in missing:
            culprit_op = "(ring lost with worker)"
    return {
        "incident_id": bundle.get("incident_id"),
        "created_at": bundle.get("created_at"),
        "backend": bundle.get("backend"),
        "nranks": bundle.get("nranks"),
        "reason": reason,
        "culprit_rank": culprit_rank,
        "culprit_op": culprit_op,
        "straggler_rank": straggler,
        "blocked": blocked,
        "missing_rings": missing,
        "edges": {
            "matched": len(edge_set.edges),
            "unmatched_sends": edge_set.unmatched_sends,
            "unmatched_recvs": edge_set.unmatched_recvs,
        },
        "ranks": {
            str(rank): {
                "count": (rings[rank] or {}).get("count", 0),
                "dropped": (rings[rank] or {}).get("dropped", 0),
                "last_kind": rows[-1]["kind"] if rows else None,
            }
            for rank, rows in rows_by_rank.items()
        },
    }


def render_text(bundle: dict[str, Any], analysis: dict[str, Any],
                *, last_n: int = 10) -> str:
    """Human-readable post-mortem: verdict, blocked set, per-rank tails."""
    from ..util.tables import render_table

    reason = analysis["reason"]
    lines = [
        f"incident {analysis['incident_id']} "
        f"({analysis['created_at']}, backend={analysis['backend']}, "
        f"nranks={analysis['nranks']})",
        f"reason: {reason.get('type')} [{reason.get('exception')}] — "
        f"{reason.get('message')}",
        f"verdict: rank {analysis['culprit_rank']} in op "
        f"{analysis['culprit_op']!r}; straggler rank "
        f"{analysis['straggler_rank']}",
        f"edges: {analysis['edges']['matched']} matched, "
        f"{analysis['edges']['unmatched_sends']} unmatched send(s), "
        f"{analysis['edges']['unmatched_recvs']} unmatched recv(s)",
    ]
    if analysis["missing_rings"]:
        lines.append(
            "missing rings (worker died before snapshot): ranks "
            + ", ".join(str(r) for r in analysis["missing_rings"])
        )
    if analysis["blocked"]:
        lines.append("")
        lines.append(render_table(
            ["rank", "blocked in", "peer", "tag"],
            [[b["rank"], b["op"], b["peer"], b["tag"]]
             for b in analysis["blocked"]],
            title="blocked ranks",
        ))
    for rank, rows in sorted(_ring_rows(bundle).items()):
        digest = analysis["ranks"].get(str(rank), {})
        title = (f"rank {rank} — last {min(last_n, len(rows))} of "
                 f"{digest.get('count', len(rows))} records "
                 f"({digest.get('dropped', 0)} dropped)")
        if not rows:
            lines.append("")
            lines.append(f"{title}: ring unavailable")
            continue
        lines.append("")
        lines.append(render_table(
            ["kind", "op", "peer", "tag", "seq", "nbytes", "v_ts"],
            [[r["kind"], r["op"], r["peer"], r["tag"], r["seq"],
              r["nbytes"], r["v_ts"]] for r in rows[-last_n:]],
            title=title,
        ))
    return "\n".join(lines)


def to_chrome(bundle: dict[str, Any]) -> dict[str, Any]:
    """Bundle rings as a ``chrome://tracing`` / Perfetto event dict.

    Wall timestamps are rebased to the earliest record across ranks;
    rows render through :func:`repro.obs.chrome.row_events`, as traced
    runs' message rows do: phases as ``B``/``E`` pairs, a receive as a
    span over its wait, other rows as instants on the rank's row.
    """
    from .chrome import row_events
    from .flightrec import recv_wait

    records = _ring_records(bundle)
    t0 = min((recv_wait(r)[1] for rows in records.values() for r in rows),
             default=0.0)
    events: list[dict[str, Any]] = []
    for rank in sorted(records):
        events.extend(row_events(records[rank], pid=0, tid=rank, wall=True,
                                 shift=-t0))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"incident_id": bundle.get("incident_id"),
                          "reason": bundle.get("reason", {}).get("type")}}


# -- CLI ------------------------------------------------------------------


def _deadlock_prog(comm: Any) -> None:
    """Two-rank cyclic wait with no sends: deterministic deadlock."""
    comm.recv(source=(comm.rank + 1) % comm.size, tag=7)


def force_synthetic_incident() -> pathlib.Path:
    """Force one tiny deadlock incident (CI smoke); returns its path."""
    from ..comm.runtime import run_spmd
    from ..config import config_context

    with config_context(flightrec=True, comm_backend="threads"):
        try:
            run_spmd(_deadlock_prog, 2)
        except DeadlockError as exc:
            path = getattr(exc, "incident_path", None)
            if path is None:
                raise ReproError(
                    "synthetic deadlock produced no incident bundle "
                    "(is REPRO_INCIDENT_DIR disabling capture?)"
                ) from exc
            return pathlib.Path(path)
    raise ReproError("synthetic deadlock did not raise DeadlockError")


def run_postmortem(
    bundle_path: str | None = None,
    *,
    as_json: bool = False,
    chrome_out: str | None = None,
    check: bool = False,
    last_n: int = 10,
    synthetic: bool = False,
    verbose: bool = True,
) -> int:
    """CLI entry point behind ``python -m repro.harness postmortem``.

    Loads ``bundle_path`` (default: the newest bundle in the incident
    store), analyzes it, and renders text (default), ``--json``, or a
    ``--chrome`` trace file.  With ``check=True`` the exit code is
    nonzero unless the analysis names a culprit rank and operation —
    the CI smoke contract.  ``synthetic=True`` forces a fresh two-rank
    deadlock bundle first and analyzes that.
    """
    if synthetic:
        bundle_path = str(force_synthetic_incident())
        if verbose:
            console(f"postmortem: forced synthetic incident {bundle_path}")
    if bundle_path is None:
        paths = IncidentStore().paths()
        if not paths:
            console("postmortem: no incident bundles found")
            return 2
        bundle_path = str(paths[0])
    bundle = load_bundle(bundle_path)
    analysis = analyze_bundle(bundle)
    if chrome_out is not None:
        pathlib.Path(chrome_out).write_text(
            json.dumps(to_chrome(bundle)), encoding="utf-8")
        if verbose:
            console(f"postmortem: wrote Chrome trace to {chrome_out}")
    if as_json:
        console(json.dumps(analysis, indent=2, sort_keys=True, default=str))
    elif verbose:
        console(render_text(bundle, analysis, last_n=last_n))
    if check:
        ok = (analysis["culprit_rank"] is not None
              and analysis["culprit_op"] is not None)
        if verbose:
            console(f"postmortem --check: "
                    f"{'OK' if ok else 'FAIL — no culprit identified'}")
        return 0 if ok else 1
    return 0
