"""Outside-in wall-clock ledger: spans recorded by wrappers, self times.

The program is not instrumented for this; :class:`Ledger` wraps public
entry points from the outside (see ``layers.py``) and records one span
per call: ``(id, parent, layer, start, end, thread, kind)``.  Spans of
one thread nest through a thread-local stack.  A ``run_spmd`` call
spawns one thread per rank, so its rank programs are recorded as
children of the ``run_spmd`` span; the ledger keeps only the slowest
rank on the critical path, the one the caller actually waited for.

A layer's self time is the part of its span not covered by its kept
children.  Summed over a span tree, self times add up to the root's
duration by construction, so ledger rows plus the residual row (time
inside an op that no wrapped entry point covers) equal the op time
whatever the spans are.  What can go wrong is double counting: a child
outside its parent, kept siblings that overlap, or overlapping root
spans of one thread give some span a negative self time while the sum
still comes out exact.  :meth:`SpanIndex.faults` counts those.
"""

from __future__ import annotations

import collections
import functools
import itertools
import sys
import threading
import time

RESIDUAL = "residual"

#: Span kinds.  ``spmd`` marks a ``run_spmd`` call whose children are
#: rank programs on other threads (only the slowest is kept).
PLAIN, SPMD = 0, 1

Span = collections.namedtuple(
    "Span", "sid parent layer t0 t1 tid kind")


class Ledger:
    """Span recorder plus the attribute patches that feed it.

    ``wrap_*`` methods replace an attribute with a recording wrapper and
    remember the original; :meth:`restore` puts every original back, so
    code that runs after it pays nothing for the wrappers.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, layer: str, *, parent: int | None = None,
             kind: int = PLAIN) -> tuple:
        """Start a span on this thread; returns the token for :meth:`close`.

        ``parent`` overrides the thread's innermost open span (used for
        rank programs, whose parent is on the thread that called
        ``run_spmd``).
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        self.calls[layer] += 1
        return (sid, parent, layer, kind, self.clock())

    def close(self, token: tuple) -> Span:
        t1 = self.clock()
        sid, parent, layer, kind, t0 = token
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:
            stack.remove(sid)
        span = Span(sid, parent, layer, t0, t1, threading.get_ident(), kind)
        self.spans.append(span)
        return span

    def reset(self) -> None:
        """Drop recorded spans and call counts (patches stay)."""
        self.spans = []
        self.calls = collections.Counter()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, value)

    def wrap_function(self, module_name: str, attr: str, layer: str,
                      make=None) -> None:
        """Wrap a module-level function wherever ``repro`` bound it.

        Modules that did ``from .x import fn`` hold their own reference,
        so every loaded ``repro`` module whose attribute ``attr`` is the
        same object gets the wrapper.  ``make(original)`` builds a
        custom wrapper; by default the call becomes one ``layer`` span.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = (make(original) if make is not None
                   else self._plain_wrapper(original, layer))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            if vars(module).get(attr) is original:
                self._set(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, layer: str, make=None) -> None:
        """Wrap ``cls.attr`` (possibly inherited) for instances of ``cls``."""
        original = getattr(cls, attr)
        wrapper = (make(original) if make is not None
                   else self._plain_wrapper(original, layer))
        self._set(cls, attr, wrapper)

    def _plain_wrapper(self, original, layer: str):
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = ledger.open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                ledger.close(token)

        return wrapper

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def patched(self) -> list[tuple[object, str, object, bool]]:
        """The live patches as ``(owner, attr, original, own)``."""
        return list(self._patches)

    # -- analysis ----------------------------------------------------------

    def index(self) -> "SpanIndex":
        return SpanIndex(self.spans)


class SpanIndex:
    """Spans by id with children lists, for self-time queries."""

    def __init__(self, spans: list[Span]):
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = collections.defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s.t0)

    def faults(self) -> int:
        """Spans that double-count time: a child outside its parent's
        interval, a kept child overlapping its previous sibling, or a
        root span overlapping the previous root of its thread.  A sound
        ledger has none, so every self time is non-negative."""
        n = 0
        for sid, kids in self.children.items():
            parent = self.by_id.get(sid)
            if parent is None:  # opened before the last reset
                continue
            n += sum(k.t0 < parent.t0 or k.t1 > parent.t1 for k in kids)
            n += _overlaps(self.kept_children(parent))
        roots = collections.defaultdict(list)
        for s in self.by_id.values():
            if s.parent is None:
                roots[s.tid].append(s)
        for spans in roots.values():
            n += _overlaps(sorted(spans, key=lambda s: s.t0))
        return n

    def kept_children(self, span: Span) -> list[Span]:
        """Children on the critical path: all of them, except that an
        SPMD span keeps only its slowest rank program."""
        kids = self.children.get(span.sid, [])
        if span.kind == SPMD and kids:
            return [max(kids, key=lambda s: s.t1 - s.t0)]
        return kids

    def self_times(self, root: Span, lo: float | None = None,
                   hi: float | None = None,
                   out: dict[str, float] | None = None) -> dict[str, float]:
        """Self time per layer in ``root``'s critical tree, clipped to
        ``[lo, hi]`` (default: the root's own interval)."""
        if out is None:
            out = collections.defaultdict(float)
        lo = root.t0 if lo is None else lo
        hi = root.t1 if hi is None else hi
        stack = [root]
        while stack:
            span = stack.pop()
            a, b = max(span.t0, lo), min(span.t1, hi)
            if b <= a:
                continue
            covered = 0.0
            for kid in self.kept_children(span):
                ka, kb = max(kid.t0, a), min(kid.t1, b)
                if kb > ka:
                    covered += kb - ka
                    stack.append(kid)
            out[span.layer] += (b - a) - covered
        return out


def _overlaps(spans: list[Span]) -> int:
    """Spans (sorted by start) that begin before an earlier one ended."""
    n, end = 0, float("-inf")
    for s in spans:
        n += s.t0 < end
        end = max(end, s.t1)
    return n


def window_self_times(index: SpanIndex, roots: list[Span], lo: float,
                      hi: float, out: dict[str, float]) -> None:
    """Add the self times of ``roots`` (same thread, disjoint) clipped to
    ``[lo, hi]``; the parts of the window no root covers go to
    :data:`RESIDUAL`."""
    covered = 0.0
    for root in roots:
        a, b = max(root.t0, lo), min(root.t1, hi)
        if b > a:
            covered += b - a
            index.self_times(root, a, b, out)
    out[RESIDUAL] += max(0.0, (hi - lo) - covered)
