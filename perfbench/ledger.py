"""In-memory span ledger for the traced benchmark run.

The traced run times each layer from outside: while a :class:`Ledger`
is installed, the public entry points of every layer (lowering,
liveness, network construction, presolve, the solver backends, ...)
are rebound to wrappers that open a span around the original call.
Nothing inside ``src/`` changes; the untraced run never installs the
wrappers, so it pays nothing for them.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``op`` the id of the
benchmark operation it belongs to.  A layer's *self time* is its span
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Ledger:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: per-op facts the growth fits need: {op: {key: value}}
        self.op_facts: dict[int, dict[str, float]] = defaultdict(dict)
        #: values reported as they are (not summed per pass)
        self.gauges: dict[str, float] = {}
        self.op = 0
        self._lock = threading.Lock()
        #: open spans, per thread (the serving workload's connections
        #: call traced code from two threads at once)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self.op))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        # Unwind to the span being closed, so an exception that skipped
        # an inner end() cannot leave the stack misaligned.
        stack = self._stack()
        while stack and stack.pop() != index:
            pass

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- installing wrappers -----------------------------------------------

    def patch_function(self, original, name: str, after=None,
                       extra_modules=()) -> None:
        """Rebind every module-level name that refers to ``original``
        (in ``repro.*`` and ``extra_modules``) to a traced wrapper."""
        traced = self.wrap(name, original, after)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "repro" or key.startswith("repro."))
        ]
        for module in [*modules, *extra_modules]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        """Trace ``cls.attr`` for every caller (instance, static or
        class method alike)."""
        descriptor = cls.__dict__[attr]
        bound = getattr(cls, attr)
        if isinstance(descriptor, (classmethod, staticmethod)):
            replacement = staticmethod(self.wrap(name, bound, after))
        else:
            replacement = self.wrap(name, descriptor, after)
        self._patches.append((cls, attr, descriptor))
        setattr(cls, attr, replacement)

    def patch_item(self, mapping: dict, key, name: str, after=None) -> None:
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(name, original, after)

    def unpatch(self) -> None:
        """Restore every rebinding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        table: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children
        return table

    def write(self, path, extra: dict) -> None:
        """Dump spans, the self-time table and ``extra`` as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        payload = {
            **extra,
            "self_times": self.self_times(),
            "counts": dict(self.counts),
            "gauges": self.gauges,
            "spans": [
                [s.name, round(s.start - t0, 7), round(s.end - t0, 7),
                 s.parent, s.op]
                for s in self.spans
            ],
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
