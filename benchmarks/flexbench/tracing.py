"""Spans recorded from outside the program, around its public callables.

The harness patches timing wrappers onto the public functions of each
layer (and onto every ``from ... import`` alias of them inside
``repro``), keeps the spans in memory and writes them out when the run
ends.  A layer's cost is its spans' *self* time: duration minus the part
of that interval its child spans cover.  Spans inside the program are a
later change; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int       # id of the enclosing span on the same thread, or -1
    name: str
    tid: int
    step: int         # load-generator step id, -1 when unknown
    start: float      # time.perf_counter(): CLOCK_MONOTONIC, shared by processes
    end: float
    note: object      # small per-span fact (bytes, rows, hit flag), or None


class Tracer:
    """In-memory span sink plus the patch bookkeeping to undo it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Step the load generator is on; stamped into every span.
        self.step = -1
        self._ids = itertools.count()
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None,
             step_of: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span called ``name``.  ``note(result, args)``
        attaches one small fact (``result`` is None when ``fn`` raised);
        ``step_of(args)`` overrides the step id."""
        tls, spans, new_id = self._tls, self.spans, self._ids.__next__
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            sid = new_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(
                    sid, parent, name, ident(),
                    self.step if step_of is None else step_of(args),
                    start, end,
                    note(result, args) if note is not None else None,
                ))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------
    def patch_function(self, name: str, module, attr: str, **kw) -> None:
        """Wrap a module-level function at its defining module and at
        every ``from module import attr`` site inside ``repro``."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, alias, original))
                    setattr(mod, alias, wrapped)

    def patch_method(self, name: str, cls: type, attr: str, **kw) -> None:
        """Wrap a method on ``cls`` only (an inherited method is wrapped
        on the subclass, so siblings keep their own span names)."""
        original = getattr(cls, attr)
        self._patches.append((cls, attr, cls.__dict__.get(attr, _ABSENT)))
        if isinstance(original, property):
            setattr(cls, attr, property(self.wrap(name, original.fget, **kw)))
        else:
            setattr(cls, attr, self.wrap(name, original, **kw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


_ABSENT = object()


def load(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh]


def clip(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans lying wholly inside ``[start, end]``."""
    return [s for s in spans if s.start >= start and s.end <= end]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> self time: duration minus the part of the interval its
    child spans cover.  Children run on the parent's thread, so they do
    not overlap each other; a child is clipped to its parent's interval."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            covered[parent.id] += max(
                0.0, min(s.end, parent.end) - max(s.start, parent.start)
            )
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return out
