"""Rule catalog for the SPMD static analyzer (:mod:`repro.check`).

Every finding produced by :mod:`repro.check.linter` carries the id of
one of the rules below.  Ids are stable — suppression comments
(``# repro: noqa[RC101]``), docs/CHECKING.md and CI output all refer to
them — so rules are never renumbered, only added.  RC200-RC207 belonged
to the retired symbolic protocol analyzer and are not reused; their
verdicts now come from ``run_spmd(verify=True)`` (docs/CHECKING.md).

The rules encode *this repository's* correctness contracts rather than
generic style: the SPMD solvers in :mod:`repro.core` are only correct
when every rank executes the same sequence of collectives, every
nonblocking request is completed, and shared state is confined to the
runtime layers that are audited for it.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "Rule",
    "RULES",
    "ALL_RULE_IDS",
    "get_rule",
    "render_catalog",
]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, short name, what it flags, how to fix.

    Attributes
    ----------
    rule_id:
        Stable identifier (``RC###``) used in findings and suppression
        comments.
    name:
        Short kebab-case label for reports.
    summary:
        One-line description of the hazard the rule detects.
    hint:
        Actionable fix guidance appended to every finding.
    """

    rule_id: str
    name: str
    summary: str
    hint: str


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "RC100",
            "syntax-error",
            "File could not be parsed as Python.",
            "Fix the syntax error; none of the other rules ran on this file.",
        ),
        Rule(
            "RC101",
            "rank-conditional-collective",
            "Collective call (bcast/allreduce/scan/barrier/...) inside a "
            "rank-conditional branch: ranks taking the other branch never "
            "enter the collective, so the participating ranks hang.",
            "Hoist the collective out of the rank branch so every rank of "
            "the communicator calls it, or derive a sub-communicator with "
            "comm.split() and call the collective on that.",
        ),
        Rule(
            "RC102",
            "unwaited-request",
            "Nonblocking isend/irecv whose Request handle is discarded or "
            "never used: the receive never actually happens (irecv matches "
            "lazily in Request.wait), leaving the message to poison a later "
            "wildcard receive or trip the finalize sweep.",
            "Keep the Request and call .wait() (or Request.waitall) on it; "
            "if the result is truly unneeded, use blocking send/recv.",
        ),
        Rule(
            "RC103",
            "raw-thread-primitive",
            "Raw threading primitive (Thread/Lock/Condition/...) outside "
            "the audited concurrency layers (comm/, service/, obs/): ad-hoc "
            "locking bypasses the runtime's deadlock verifier and its "
            "single-condition-variable discipline.",
            "Route concurrency through repro.comm (simulated ranks) or "
            "repro.service (worker pool); if a new layer genuinely needs a "
            "primitive, move it under an audited package.",
        ),
        Rule(
            "RC104",
            "all-drift",
            "__all__ disagrees with the module's actual top-level "
            "definitions: it names something undefined, or a public "
            "function/class is missing from it (star-imports and API docs "
            "silently lose the symbol).",
            "Add missing public names to __all__, remove stale entries, or "
            "prefix genuinely-internal definitions with an underscore.",
        ),
        Rule(
            "RC105",
            "bare-except",
            "Bare `except:` swallows SystemExit/KeyboardInterrupt and the "
            "runtime's CommAborted control-flow, hiding rank failures as "
            "hangs.",
            "Catch a concrete exception type, or `except Exception:` at "
            "the very least.",
        ),
        Rule(
            "RC106",
            "mutable-default-arg",
            "Mutable default argument ([], {}, set(), ...) is shared "
            "across calls — and across simulated ranks, since every rank "
            "thread shares the same function object.",
            "Default to None and create the container inside the function.",
        ),
        Rule(
            "RC107",
            "bare-print",
            "Bare print() in library code bypasses the structured "
            "telemetry pipeline: the output carries no level, no trace "
            "context, and cannot be captured, filtered or shipped like "
            "repro.obs.log records.",
            "Use repro.obs.log — get_logger(component) for telemetry "
            "events, console() for deliberate CLI/report output; bare "
            "print() is allowed only in __main__ modules and "
            "util/tables.py.",
        ),
        Rule(
            "RC108",
            "unentered-span",
            "Tracer span context manager created but never entered: a "
            "bare span(...) / tracer.span(...) / kernel_time(...) "
            "expression statement constructs the context manager and "
            "drops it, so no interval is ever recorded and the phase "
            "timeline silently loses it (reports and critical-path "
            "analysis then under-attribute that work).",
            "Enter the span with `with span(...):` (or use "
            "Tracer.closed_span for an already-measured interval).",
        ),
    )
}

ALL_RULE_IDS: frozenset[str] = frozenset(RULES)


def get_rule(rule_id: str) -> Rule:
    """Return the :class:`Rule` for ``rule_id`` (raises ``KeyError``)."""
    return RULES[rule_id]


def render_catalog() -> str:
    """Human-readable catalog, one block per rule (used by the CLI)."""
    blocks = []
    for rule in RULES.values():
        blocks.append(
            f"{rule.rule_id} ({rule.name})\n"
            f"  {rule.summary}\n"
            f"  fix: {rule.hint}"
        )
    return "\n\n".join(blocks)
