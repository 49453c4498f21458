"""Phase tracer: nested wall-time spans over the allocation pipeline.

Usage at an instrumentation site::

    from ..obs import trace_phase

    with trace_phase("liveness"):
        ...

Spans nest into a tree.  When tracing is globally disabled and no
capture is active, :func:`trace_phase` returns a shared no-op context
manager — the per-call cost is one flag check, so instrumented code can
stay instrumented in benchmarks.

Two consumers exist:

* global tracing (``REPRO_TRACE=1`` or ``--trace``): finished top-level
  spans accumulate until :func:`take_trace` drains them;
* :func:`capture`, used by the run-report machinery to collect the span
  tree of one allocation regardless of the global flag.  A capture
  isolates the thread's span stack, and on exit re-attaches what it
  recorded to the surrounding trace so the two views stay consistent.

The same :class:`Span` is the root of a service request's trace: the
server (or gateway) opens ``Span("request", meta={"trace_id": ...})``
at admission, appends lifecycle stages with :meth:`Span.stage` —
admission, queue, batch assembly, solve (with the engine's captured
spans appended under it), reply — seals it with :meth:`Span.finish`
and keeps it in a bounded :class:`TraceStore`.  A request nobody asked
to trace never allocates a span.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed phase, with nested children.

    ``start`` is the span's ``time.perf_counter`` origin; it lives in
    memory only and is never serialised.
    """

    name: str
    seconds: float = 0.0
    meta: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    start: float = field(
        default_factory=time.perf_counter, repr=False, compare=False
    )

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Span":
        tls = _tls()
        tls.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self.start
        tls = _tls()
        if tls.stack and tls.stack[-1] is self:
            tls.stack.pop()
        if tls.stack:
            tls.stack[-1].children.append(self)
        else:
            tls.sinks[-1].append(self)
        return False

    def annotate(self, key: str, value) -> "Span":
        self.meta[key] = value
        return self

    # -- stage-by-stage building (request lifecycles) --------------------
    def stage(self, name: str, seconds: float | None = None,
              **meta) -> "Span":
        """Append a child that ends now, and return it.

        With ``seconds=None`` the child starts where the previous
        child ended (or at this span's start), so stages abut.
        ``None``-valued meta is dropped.
        """
        now = time.perf_counter()
        if seconds is None:
            last = self.children[-1] if self.children else None
            seconds = now - (
                last.start + last.seconds if last else self.start
            )
        seconds = max(0.0, seconds)
        child = Span(
            name=name,
            seconds=seconds,
            meta={k: v for k, v in meta.items() if v is not None},
            start=now - seconds,
        )
        self.children.append(child)
        return child

    def finish(self, status: str) -> "Span":
        """Seal a root: wall time since ``start``, final status."""
        self.seconds = time.perf_counter() - self.start
        self.meta["status"] = status
        return self

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "seconds": self.seconds}
        if self.meta:
            d["meta"] = dict(self.meta)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            seconds=d.get("seconds", 0.0),
            meta=dict(d.get("meta", {})),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )


class _Noop:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, key: str, value) -> "_Noop":
        return self


NOOP_SPAN = _Noop()

_ENABLED = False
_TLS = threading.local()


def _tls():
    if not hasattr(_TLS, "stack"):
        _TLS.stack = []
        _TLS.sinks = [[]]  # sinks[0] is the global trace
    return _TLS


def trace_enabled() -> bool:
    return _ENABLED


def set_trace_enabled(on: bool) -> None:
    global _ENABLED
    _ENABLED = bool(on)


def _active() -> bool:
    return _ENABLED or len(_tls().sinks) > 1


def trace_phase(name: str, **meta):
    """Start a phase span, or a shared no-op when tracing is off."""
    if not _active():
        return NOOP_SPAN
    return Span(name=name, meta=dict(meta) if meta else {})


def current_span() -> Span | None:
    stack = _tls().stack
    return stack[-1] if stack else None


def annotate(key: str, value) -> None:
    """Attach metadata to the innermost open span, if any."""
    span = current_span()
    if span is not None:
        span.annotate(key, value)


def take_trace() -> list[Span]:
    """Drain and return the finished top-level spans of this thread."""
    tls = _tls()
    spans, tls.sinks[0] = tls.sinks[0], []
    return spans


class SpanCapture:
    """Context manager that captures a span subtree (see module doc)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._saved_stack: list[Span] | None = None

    def __enter__(self) -> "SpanCapture":
        tls = _tls()
        tls.sinks.append([])
        self._saved_stack, tls.stack = tls.stack, []
        return self

    def __exit__(self, *exc) -> bool:
        tls = _tls()
        self.spans = tls.sinks.pop()
        tls.stack = self._saved_stack or []
        # Re-attach to the surrounding trace so --trace still sees the
        # spans a report capture swallowed.
        if tls.stack:
            tls.stack[-1].children.extend(self.spans)
        elif _ENABLED:
            tls.sinks[-1].extend(self.spans)
        return False


def capture() -> SpanCapture:
    """Capture the spans opened on this thread (see :class:`SpanCapture`).

    A captured span is never mutated after its capture closes, so the
    engine spans of one batch may be shared, not copied, by several
    requests' trees.
    """
    return SpanCapture()


#: finished request traces a :class:`TraceStore` keeps
TRACE_KEEP = 64


class TraceStore:
    """Bounded, thread-safe store of finished request roots.

    Keyed by ``trace_id``; inserting past :data:`TRACE_KEEP` evicts the
    oldest.  Writes come from solver and upgrade threads, reads from
    the event loop or HTTP handlers, so roots are serialised on read
    and appended to in place, both under the lock.
    """

    def __init__(self) -> None:
        self._roots: OrderedDict[str, Span] = OrderedDict()
        self._lock = threading.Lock()

    def put(self, trace_id: str, root: Span) -> None:
        with self._lock:
            self._roots[trace_id] = root
            self._roots.move_to_end(trace_id)
            while len(self._roots) > TRACE_KEEP:
                self._roots.popitem(last=False)

    def append(self, trace_id: str, span: Span) -> None:
        """Append ``span`` under a stored root; its slot stays put."""
        with self._lock:
            root = self._roots.get(trace_id)
            if root is not None:
                root.children.append(span)

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            root = self._roots.get(trace_id)
            return root.to_dict() if root is not None else None

    def last(self) -> dict | None:
        with self._lock:
            if not self._roots:
                return None
            return next(reversed(self._roots.values())).to_dict()

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._roots)

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)


def render_trace(
    spans: list[Span] | None = None,
    width: int = 40,
    show_meta: bool = True,
) -> str:
    """Flame-style text rendering of a span forest.

    Each line shows the span name, its duration, a bar proportional to
    its share of the root's wall-clock, and its annotations.  Subtrees
    annotated ``background: true`` (a service's optimal upgrade,
    stitched on after the reply went out) draw ``~`` instead of ``#``:
    their time is off the critical path and may exceed the root's.
    """
    spans = take_trace() if spans is None else spans
    if not spans:
        return "(no trace recorded)"
    lines: list[str] = []

    def walk(span: Span, depth: int, total: float,
             background: bool) -> None:
        background = background or bool(span.meta.get("background"))
        share = min(1.0, span.seconds / total) if total > 0 else 0.0
        bar = ("~" if background else "#") * max(
            1 if span.seconds > 0 else 0, round(share * width)
        )
        label = f"{'  ' * depth}{span.name}"
        tail = "  " + " ".join(
            f"{k}={json.dumps(v) if isinstance(v, (dict, list)) else v}"
            for k, v in sorted(span.meta.items())
        ) if show_meta else ""
        lines.append(
            f"{label:<36} {span.seconds * 1e3:10.3f} ms "
            f"{bar:<{width}}{tail}".rstrip()
        )
        for child in span.children:
            walk(child, depth + 1, total, background)

    for span in spans:
        walk(span, 0, span.seconds, False)
    return "\n".join(lines)
