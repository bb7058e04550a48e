"""AST-based SPMD lint pass (stdlib :mod:`ast` only, no dependencies).

Entry points: :func:`lint_source` for one buffer, :func:`lint_paths`
for files/directory trees (``python -m repro.check lint src`` wraps the
latter).  The rule catalog lives in :mod:`repro.check.rules`.

Findings are suppressed per line with ``# repro: noqa[RC101]`` (or a
blanket ``# repro: noqa``); the suppression comment must sit on the
line the finding points at.

The checks are deliberately conservative: a rule fires only on
patterns this codebase treats as contract violations, so the shipped
tree lints clean and CI can fail on any new finding.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Iterable, Sequence

from ..comm.optable import COLLECTIVE_OPS
from .rules import RULES

__all__ = [
    "Finding",
    "apply_suppressions",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: Names whose value is (derived from) the executing rank.
_RANK_NAMES = frozenset({"rank", "vrank", "myrank", "my_rank", "rank_id"})

#: threading attributes that count as raw concurrency primitives.
#: (``threading.local`` and introspection helpers are deliberately
#: absent — thread-local state is not a locking hazard.)
_THREAD_PRIMITIVES = frozenset(
    {
        "Thread",
        "Timer",
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
    }
)

#: Directory names whose files may use raw threading primitives.
THREADING_ALLOWLIST = frozenset({"comm", "service", "obs", "check"})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One finding: rule id, location, message."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self, *, hint: bool = False) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )
        if hint:
            text += f"\n    fix: {RULES[self.rule_id].hint}"
        return text

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
    return out


def apply_suppressions(
    findings: Iterable[Finding], source: str
) -> list[Finding]:
    """Drop findings silenced by a ``# repro: noqa[...]`` on their line."""
    suppress = _suppressions(source)
    kept = []
    for finding in findings:
        rules = suppress.get(finding.line, ...)
        if rules is None or (rules is not ... and finding.rule_id in rules):
            continue
        kept.append(finding)
    return kept


def _print_exempt(path: str) -> bool:
    """Is ``path`` allowed to use bare ``print()`` (RC107)?

    Exempt: CLI entry modules (``__main__.py``), the plain-text table
    renderer (``util/tables.py``), and anything outside a ``repro``
    package tree (fixtures, scripts, the default ``<string>`` buffer) —
    the rule targets library code that should speak the structured
    telemetry protocol of :mod:`repro.obs.log`.
    """
    p = pathlib.PurePath(path)
    if "repro" not in p.parts:
        return True
    if p.name == "__main__.py":
        return True
    return p.name == "tables.py" and len(p.parts) >= 2 and p.parts[-2] == "util"


def _is_rank_dependent(node: ast.AST) -> bool:
    """Does the expression read the executing rank (``comm.rank``, a
    ``rank``/``vrank`` local, ...)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _RANK_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _RANK_NAMES:
            return True
    return False


def _collective_call_name(node: ast.Call) -> str | None:
    """Return the collective op name when ``node`` looks like a
    collective call on a communicator, else ``None``.

    Matches ``<expr>.bcast(...)`` where the receiver expression mentions
    a name containing ``comm`` (``comm``, ``subcomm``, ``self.comm`` …)
    — this keeps ``functools.reduce`` and ``np.add.reduce`` out.
    """
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in COLLECTIVE_OPS:
        return None
    for sub in ast.walk(func.value):
        if isinstance(sub, ast.Name) and "comm" in sub.id.lower():
            return func.attr
        if isinstance(sub, ast.Attribute) and "comm" in sub.attr.lower():
            return func.attr
    return None


def _is_request_call(node: ast.AST) -> str | None:
    """Return ``"isend"``/``"irecv"`` when ``node`` is such a call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("isend", "irecv")
    ):
        return node.func.attr
    return None


def _walk_scope(body: Sequence[ast.stmt]) -> Iterable[ast.AST]:
    """Walk statements without descending into nested function/class
    scopes (their bodies are visited as scopes of their own)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue  # nested scope: visited as a scope of its own
        stack.extend(ast.iter_child_nodes(node))


class _Visitor(ast.NodeVisitor):
    """Single-pass visitor implementing RC101-RC103 and RC105-RC108."""

    def __init__(self, path: str, findings: list[Finding]):
        self.path = path
        self.findings = findings
        self._rank_guard: list[int] = []  # linenos of enclosing rank-ifs
        self._thread_aliases: set[str] = set()  # `import threading as t`
        self._thread_names: set[str] = set()  # `from threading import Lock`
        self._span_names: set[str] = set()  # `from repro.obs import span`
        self._thread_allowed = any(
            part in THREADING_ALLOWLIST
            for part in pathlib.PurePath(path).parts
        )
        self._print_exempt = _print_exempt(path)

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule_id,
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    # -- RC101: collectives under rank-conditional control flow ----------

    def visit_If(self, node: ast.If) -> None:
        dep = _is_rank_dependent(node.test)
        if dep:
            self._rank_guard.append(node.lineno)
        self.visit(node.test)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        if dep:
            self._rank_guard.pop()

    def visit_IfExp(self, node: ast.IfExp) -> None:
        dep = _is_rank_dependent(node.test)
        if dep:
            self._rank_guard.append(node.lineno)
        self.generic_visit(node)
        if dep:
            self._rank_guard.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._rank_guard:
            op = _collective_call_name(node)
            if op is not None:
                self._emit(
                    "RC101",
                    node,
                    f"collective '{op}' called inside a rank-conditional "
                    f"branch (guard at line {self._rank_guard[-1]}); every "
                    f"rank of the communicator must call it in the same "
                    f"sequence",
                )
        self._check_thread_primitive(node)
        self._check_bare_print(node)
        self.generic_visit(node)

    # -- RC107: bare print() in library code ------------------------------

    def _check_bare_print(self, node: ast.Call) -> None:
        if self._print_exempt:
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self._emit(
                "RC107",
                node,
                "bare print() in library code; route output through "
                "repro.obs.log (get_logger for telemetry events, "
                "console for CLI output)",
            )

    # -- RC103: raw threading primitives ---------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "threading":
                self._thread_aliases.add(alias.asname or "threading")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "threading":
            for alias in node.names:
                if alias.name in _THREAD_PRIMITIVES:
                    self._thread_names.add(alias.asname or alias.name)
        if node.module and "obs" in node.module.split("."):
            for alias in node.names:
                if alias.name in ("span", "kernel_time"):
                    self._span_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _check_thread_primitive(self, node: ast.Call) -> None:
        if self._thread_allowed:
            return
        func = node.func
        name = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._thread_aliases
            and func.attr in _THREAD_PRIMITIVES
        ):
            name = f"threading.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in self._thread_names:
            name = func.id
        if name is not None:
            allowed = ", ".join(sorted(THREADING_ALLOWLIST))
            self._emit(
                "RC103",
                node,
                f"raw thread primitive {name}() outside the audited "
                f"concurrency layers ({allowed})",
            )

    # -- RC108: span context manager created but never entered ------------

    def visit_Expr(self, node: ast.Expr) -> None:
        self._check_unentered_span(node)
        self.generic_visit(node)

    def _check_unentered_span(self, node: ast.Expr) -> None:
        """A bare ``span(...)`` / ``tracer.span(...)`` expression
        statement builds the context manager and drops it — nothing is
        recorded.  Bare names fire only when ``span``/``kernel_time``
        was imported from an ``obs`` module; attribute calls only when
        the receiver mentions a tracer (``ctx.tracer.span(...)``),
        keeping unrelated ``.span`` attributes out."""
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        name = None
        if isinstance(func, ast.Name) and func.id in self._span_names:
            name = func.id
        elif (isinstance(func, ast.Attribute)
              and func.attr in ("span", "kernel_time")):
            for sub in ast.walk(func.value):
                if ((isinstance(sub, ast.Name)
                     and "tracer" in sub.id.lower())
                        or (isinstance(sub, ast.Attribute)
                            and "tracer" in sub.attr.lower())):
                    name = func.attr
                    break
        if name is not None:
            self._emit(
                "RC108",
                node,
                f"span context manager {name}(...) created but never "
                f"entered; the interval is not recorded — use "
                f"'with {name}(...):'",
            )

    # -- RC105: bare except ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "RC105",
                node,
                "bare 'except:' also catches SystemExit/KeyboardInterrupt "
                "and the runtime's abort signal",
            )
        self.generic_visit(node)

    # -- RC106 + RC102: per-scope checks ---------------------------------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                bad = {"List": "[]", "Dict": "{}", "Set": "{...}"}[
                    type(default).__name__
                ]
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                bad = f"{default.func.id}()"
            if bad is not None:
                self._emit(
                    "RC106",
                    default,
                    f"mutable default argument {bad} in '{node.name}' is "
                    f"shared across calls (and across rank threads)",
                )

    @staticmethod
    def _handle_key(target: ast.expr) -> str | None:
        """Trackable handle name for an assignment target: a plain name
        (``req``) or a dotted attribute path (``self.req``)."""
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            base = _Visitor._handle_key(target.value)
            return None if base is None else f"{base}.{target.attr}"
        return None

    def _check_requests(self, body: Sequence[ast.stmt], *,
                        attr_pass: bool = False) -> None:
        """RC102: discarded or never-used requests.

        Handles are tracked through plain-name assignment and tuple/list
        unpacking of a tuple of request calls within one lexical scope.
        Attribute-path handles (``self.req = comm.irecv(...)``) are
        object state rather than lexical scope — the wait often lives in
        a sibling method — so they are checked in a separate whole-file
        pass (``attr_pass=True``) where a load of the same dotted path
        anywhere in the module counts as use.
        """
        assigned: dict[str, tuple[int, int, str]] = {}
        loaded: set[str] = set()

        def record(target: ast.expr, value: ast.expr, node: ast.stmt) -> None:
            op = _is_request_call(value)
            if op is None:
                return
            key = self._handle_key(target)
            if key is not None and ("." in key) == attr_pass:
                assigned[key] = (node.lineno, node.col_offset, op)

        if attr_pass:
            nodes: Iterable[ast.AST] = (
                sub for stmt in body for sub in ast.walk(stmt)
            )
        else:
            nodes = _walk_scope(body)
        for node in nodes:
            if isinstance(node, ast.Expr) and not attr_pass:
                op = _is_request_call(node.value)
                if op is not None:
                    self._emit(
                        "RC102",
                        node,
                        f"Request returned by {op}() is discarded; the "
                        f"operation is never completed",
                    )
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                    node.value, (ast.Tuple, ast.List)
                ):
                    # ra, rb = comm.isend(...), comm.irecv(...)
                    if len(target.elts) == len(node.value.elts):
                        for tgt, val in zip(target.elts, node.value.elts):
                            record(tgt, val, node)
                else:
                    record(target, node.value, node)
        # Loads — including inside nested functions/lambdas (closures)
        # — count as use, as do loads of a tracked attribute path.
        for node in body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loaded.add(sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(
                    sub.ctx, ast.Load
                ):
                    key = self._handle_key(sub)
                    if key is not None:
                        loaded.add(key)
        for name, (lineno, col, op) in assigned.items():
            if name not in loaded:
                self.findings.append(
                    Finding(
                        "RC102",
                        self.path,
                        lineno,
                        col,
                        f"Request from {op}() assigned to '{name}' but "
                        f"never used — call .wait() on it",
                    )
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_requests(node.body)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_requests(node.body)
        self.generic_visit(node)

    def visit_Module(self, node: ast.Module) -> None:
        self._check_requests(node.body)
        self._check_requests(node.body, attr_pass=True)
        self.generic_visit(node)


def _check_all_drift(tree: ast.Module, path: str, findings: list[Finding]) -> None:
    """RC104: compare ``__all__`` against actual top-level definitions."""
    all_node: ast.Assign | None = None
    all_names: list[str] | None = None
    defined: set[str] = set()
    public_defs: set[str] = set()
    has_getattr = False
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if node.name == "__getattr__":
                has_getattr = True
            elif not node.name.startswith("_"):
                public_defs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__" and isinstance(
                        node.value, (ast.List, ast.Tuple)
                    ):
                        all_node = node
                        all_names = [
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                defined.add((alias.asname or alias.name).split(".")[0])
    if all_names is None or all_node is None:
        return
    undefined = [n for n in all_names if n not in defined]
    if undefined and has_getattr:
        undefined = []  # PEP 562 lazy exports resolve at attribute access
    missing = sorted(public_defs - set(all_names))
    if undefined:
        findings.append(
            Finding(
                "RC104",
                path,
                all_node.lineno,
                all_node.col_offset,
                "__all__ names undefined symbol(s): " + ", ".join(undefined),
            )
        )
    if missing:
        findings.append(
            Finding(
                "RC104",
                path,
                all_node.lineno,
                all_node.col_offset,
                "public definition(s) missing from __all__: "
                + ", ".join(missing),
            )
        )


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source buffer; return findings after noqa filtering."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "RC100",
                path,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                f"syntax error: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    _Visitor(path, findings).visit(tree)
    _check_all_drift(tree, path, findings)
    kept = apply_suppressions(findings, source)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept


def lint_file(path: str | pathlib.Path) -> list[Finding]:
    """Lint one file on disk."""
    p = pathlib.Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Iterable[str | pathlib.Path]) -> list[Finding]:
    """Lint files and/or directory trees (``*.py``, sorted, deduped)."""
    files: list[pathlib.Path] = []
    for entry in paths:
        p = pathlib.Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    seen: set[pathlib.Path] = set()
    findings: list[Finding] = []
    for f in files:
        resolved = f.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        findings.extend(lint_file(f))
    return findings
