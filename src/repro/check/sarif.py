"""SARIF 2.1.0 rendering for ``repro.check`` findings.

Emits the minimal static-analysis interchange document GitHub's code
scanning ingests (``github/codeql-action/upload-sarif``): one run with
a tool descriptor carrying the rule catalog, and one result per
finding with the rule id, level, message and physical location
(``python -m repro.check lint --format sarif``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from .linter import Finding
from .rules import RULES

__all__ = ["to_sarif", "render_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rel(path: str, base: pathlib.Path) -> str:
    """Repository-relative forward-slash URI when possible."""
    try:
        return pathlib.Path(path).resolve().relative_to(base).as_posix()
    except ValueError:
        return pathlib.PurePath(path).as_posix()


def to_sarif(findings: Iterable[Finding]) -> dict:
    """Build the SARIF document as a plain dict."""
    findings = list(findings)
    base = pathlib.Path.cwd().resolve()
    used = sorted({f.rule_id for f in findings})
    rules = [
        {
            "id": rule_id,
            "name": RULES[rule_id].name,
            "shortDescription": {"text": RULES[rule_id].summary},
            "help": {"text": RULES[rule_id].hint},
        }
        for rule_id in used
        if rule_id in RULES
    ]
    results = [
        {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _rel(f.path, base)},
                        "region": {
                            "startLine": f.line,
                            "startColumn": max(f.col, 0) + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.check lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: Iterable[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2)
