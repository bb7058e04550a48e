"""Command-line entry point for the SPMD lint pass.

Usage::

    python -m repro.check lint [PATH ...] [--format text|json|sarif]
    python -m repro.check rules

``lint`` exits 0 when clean and 1 when it produced findings (2 on bad
usage), so it slots directly into CI next to ruff.  PATH defaults to
``src``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linter import lint_paths
from .rules import render_catalog

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="SPMD correctness lint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_p = sub.add_parser("lint", help="lint Python sources for SPMD hazards")
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    lint_p.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format (default: text)")
    lint_p.add_argument("--hints", action="store_true",
                        help="append each rule's fix hint to its findings")

    sub.add_parser("rules", help="print the rule catalog")

    args = parser.parse_args(argv)
    if args.command == "rules":
        print(render_catalog())
        return 0

    findings = lint_paths(args.paths)
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(findings))
    else:
        for finding in findings:
            print(finding.format(hint=args.hints))
        n = len(findings)
        tag = "finding" if n == 1 else "findings"
        print(f"repro.check: {n} {tag} in {', '.join(args.paths)}",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
