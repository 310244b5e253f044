"""Request-scoped tracing primitives: spans, trace contexts, contextvars.

This module is the dependency-free core of the observability layer
(``repro.service.trace`` builds the recorder/exposition on top).  It
lives in ``repro.util`` so that CORE packages (``repro.qaoa``,
``repro.quantum``) can emit spans without importing the service layer —
the import graph stays acyclic and the layering rule stays happy.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Code that may run without tracing
   holds a :data:`NO_TRACE` singleton whose ``span()`` returns a shared
   no-op context manager — one attribute lookup, one call, no
   allocation.  Hot loops (backend evolve, Walsh stages) pay only that.
2. **Explicit propagation first, contextvar second.**  The owning trace
   travels on the request object through ``submit`` → shard worker →
   service → scheduler.  The contextvar (:func:`current_trace` /
   :func:`use_trace`) bridges the last hop into code that cannot take a
   trace argument (``SweepEngine``, backends) — including across
   ``asyncio.to_thread`` and executor worker threads, where the caller
   sets it explicitly via :func:`use_trace`.
3. **Spans are ``with``-scoped.**  :meth:`TraceContext.span` returns a
   context manager and must be used as a ``with``-item (machine-checked
   by the ``span-hygiene`` analyzer rule); already-elapsed intervals are
   recorded with :meth:`TraceContext.add_span` instead, which cannot
   leak because it never opens anything.

Concurrency: a trace is mutated by one logical thread at a time (the
HTTP handler is suspended on a future while the shard worker appends),
so spans take no lock.  :meth:`TraceContext.finish` flips the trace
inert, so stray spans from an abandoned solve (e.g. after a deadline
response was already sent) are dropped instead of corrupting the tree.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NO_TRACE",
    "NullTraceContext",
    "Span",
    "TraceContext",
    "current_trace",
    "use_trace",
]

#: Characters allowed in an externally supplied trace id (header value).
_ID_SAFE = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")

#: Longest accepted trace id; longer external ids are truncated.
MAX_TRACE_ID_LEN = 64


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4; no global RNG state)."""
    return uuid.uuid4().hex


def sanitize_trace_id(raw: Optional[str]) -> str:
    """Normalise an externally supplied trace id (e.g. a header value).

    Keeps only header-safe characters and caps the length; returns a
    fresh id when nothing usable remains.
    """
    if not raw:
        return new_trace_id()
    cleaned = "".join(ch for ch in raw if ch in _ID_SAFE)[:MAX_TRACE_ID_LEN]
    return cleaned or new_trace_id()


class Span:
    """One timed stage: name, wall/CPU interval, attributes, children."""

    __slots__ = ("name", "attrs", "children", "start", "end", "cpu_start", "cpu_end")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.children: List["Span"] = []
        self.start = time.perf_counter()
        self.end = self.start
        self.cpu_start = time.process_time()
        self.cpu_end = self.cpu_start

    @property
    def wall_s(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def cpu_s(self) -> float:
        return max(0.0, self.cpu_end - self.cpu_start)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _SpanHandle:
    """Context manager that closes one span on exit (and pops the stack)."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "TraceContext", span: Span) -> None:
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        span = self._span
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        if exc_type is not None:
            span.attrs.setdefault("error", getattr(exc_type, "__name__", "error"))
        stack = self._trace._stack
        if stack and stack[-1] is span:
            stack.pop()
        return False


class _NullSpanHandle:
    """Shared no-op span handle: the entire cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpanHandle":
        return self


NULL_SPAN = _NullSpanHandle()


class NullTraceContext:
    """Inert stand-in used wherever tracing is disabled.

    Every method is a no-op returning a shared object, so instrumented
    code needs no ``if traced:`` branches — holding :data:`NO_TRACE` *is*
    the branch.
    """

    __slots__ = ()

    enabled = False
    trace_id = ""

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:
        return NULL_SPAN

    def add_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def finish(self) -> None:
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": "", "spans": []}

    def format_tree(self) -> str:
        return "<no trace>"


NO_TRACE = NullTraceContext()


class TraceContext:
    """A request's identity plus its ordered span tree.

    The root span (named ``request``) opens at construction and closes
    at :meth:`finish`; :meth:`span` opens children under whichever span
    is currently innermost.  After ``finish()`` the context goes inert:
    late spans from abandoned work are silently dropped.
    """

    __slots__ = ("trace_id", "root", "finished", "_stack")

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = sanitize_trace_id(trace_id) if trace_id else new_trace_id()
        self.root = Span("request")
        self.finished = False
        self._stack: List[Span] = [self.root]

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> "_SpanHandle | _NullSpanHandle":
        """Open a child span; use only as a ``with``-item (span-hygiene)."""
        if self.finished:
            return NULL_SPAN
        span = Span(name, attrs or None)
        parent = self._stack[-1] if self._stack else self.root
        parent.children.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def add_span(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record an already-elapsed interval (e.g. queue wait) as a span.

        ``start``/``end`` are ``time.perf_counter()`` readings; CPU time
        is recorded as zero because the interval was spent waiting.
        """
        if self.finished:
            return
        span = Span(name, attrs or None)
        span.start, span.end = start, max(start, end)
        span.cpu_end = span.cpu_start
        parent = self._stack[-1] if self._stack else self.root
        parent.children.append(span)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span."""
        if self.finished:
            return
        target = self._stack[-1] if self._stack else self.root
        target.attrs.update(attrs)

    def finish(self) -> None:
        """Close the root span and make the context inert (idempotent)."""
        if self.finished:
            return
        self.root.end = time.perf_counter()
        self.root.cpu_end = time.process_time()
        self.finished = True
        del self._stack[:]

    # -- introspection -------------------------------------------------

    @property
    def wall_s(self) -> float:
        return self.root.wall_s

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first walk over the whole tree, root included."""
        pending = [self.root]
        while pending:
            span = pending.pop()
            yield span
            pending.extend(reversed(span.children))

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "spans": [self.root.to_dict()]}

    def format_tree(self) -> str:
        """Render the span tree, one line per span, durations in ms."""
        lines = [f"trace {self.trace_id}  total {self.root.wall_s * 1e3:.3f} ms"]
        total = self.root.wall_s or 1.0

        def _render(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                attrs = "  " + " ".join(
                    f"{key}={value}" for key, value in sorted(span.attrs.items())
                )
            share = 100.0 * span.wall_s / total
            lines.append(
                f"{'  ' * depth}- {span.name:<20s} "
                f"{span.wall_s * 1e3:9.3f} ms  cpu {span.cpu_s * 1e3:8.3f} ms"
                f"  {share:5.1f}%{attrs}"
            )
            for child in span.children:
                _render(child, depth + 1)

        _render(self.root, 1)
        return "\n".join(lines)


_CURRENT_TRACE: ContextVar["TraceContext | NullTraceContext"] = ContextVar(
    "repro_current_trace", default=NO_TRACE
)


def current_trace() -> "TraceContext | NullTraceContext":
    """The trace bound to the current thread/task, or :data:`NO_TRACE`."""
    return _CURRENT_TRACE.get()


@contextmanager
def use_trace(
    trace: "TraceContext | NullTraceContext",
) -> Iterator["TraceContext | NullTraceContext"]:
    """Bind ``trace`` as :func:`current_trace` for the enclosed block.

    This is the explicit bridge into executor worker threads: call it
    *inside* the submitted function so the binding lives in the worker's
    own context.  (``asyncio.to_thread`` copies the caller's context by
    itself, but batched workers carry several traces and must pick the
    right one per job.)
    """
    token = _CURRENT_TRACE.set(trace)
    try:
        yield trace
    finally:
        _CURRENT_TRACE.reset(token)
