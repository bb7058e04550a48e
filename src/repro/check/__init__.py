"""SPMD correctness analysis: static lint pass + runtime verifier.

Two cooperating layers catch communication-structure bugs — the failure
class that otherwise only surfaces as a multi-second deadlock timeout:

**Static** (:mod:`repro.check.linter`): an AST analyzer with
repo-specific rules (collectives under rank-conditional branches,
discarded nonblocking requests, raw threading primitives outside the
audited layers, ``__all__`` drift, bare ``except:``, mutable default
arguments).  Run it as ``python -m repro.check lint src`` — CI does on
every push.  Suppress a finding with ``# repro: noqa[RC101]`` (several
codes comma-separate: ``# repro: noqa[RC101, RC106]``).

**Dynamic** (:mod:`repro.check.verifier` plus the wait-for-graph
analysis inside :mod:`repro.comm.runtime`): with
``run_spmd(..., verify=True)`` or ``REPRO_VERIFY=1`` the runtime
cross-checks every rank's collective call sequence and reports the
first divergent call with both ranks' traces; unreceived messages at
finalize become errors; received arrays arrive read-only, so writing
one in place raises at the offending line; and an ``isend`` buffer
written before its ``wait()`` raises there.  Deadlocks are always
diagnosed exactly from the rank→(source, tag) wait-for graph —
reporting the actual cycle and any near-miss tag or peer — rather
than by a wall-clock stall heuristic.

See docs/CHECKING.md for the rule catalog and diagnostics reference.
"""

from .linter import (
    Finding,
    apply_suppressions,
    lint_file,
    lint_paths,
    lint_source,
)
from .rules import ALL_RULE_IDS, RULES, Rule, get_rule
from .sarif import render_sarif, to_sarif
from .verifier import CollectiveRecord, SpmdVerifier

__all__ = [
    "Finding",
    "apply_suppressions",
    "lint_source",
    "lint_file",
    "lint_paths",
    "Rule",
    "RULES",
    "ALL_RULE_IDS",
    "get_rule",
    "render_sarif",
    "to_sarif",
    "SpmdVerifier",
    "CollectiveRecord",
]
