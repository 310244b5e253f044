"""In-memory span recorder and the self-time arithmetic of the trace report.

A span is one call into a layer: its name, start, end, the span that
caused it and the thread it ran on.  Parents follow a per-thread stack;
work handed to another thread names its parent explicitly (see
``Tracer.open(parent=...)``), so a leaf job running on an executor worker
still hangs under the executor span that submitted it.

A span's *self time* is its duration minus the part of that interval its
children cover.  Children may run concurrently on several threads, so
"covered" is the length of the union of their intervals, never their sum.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

# ``Tracer.open`` default: take the parent from the calling thread's stack.
FROM_STACK = object()


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = float("nan")
    cpu: Optional[float] = None  # thread CPU seconds, when requested
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads into one list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(
        self, name: str, *, parent: object = FROM_STACK, cpu: bool = False
    ) -> Span:
        stack = self._stack()
        if parent is FROM_STACK:
            parent = stack[-1] if stack else None
        span = Span(
            sid=next(self._ids),
            name=name,
            parent=parent,  # type: ignore[arg-type]
            thread=threading.get_ident(),
            start=0.0,
            cpu=time.thread_time() if cpu else None,
        )
        stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.cpu is not None:
            span.cpu = time.thread_time() - span.cpu
        stack = self._stack()
        if not stack or stack[-1] != span.sid:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------
def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint intervals covering exactly the input intervals."""
    merged: List[Interval] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def measure(merged: Sequence[Interval]) -> float:
    return sum(hi - lo for lo, hi in merged)


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two outputs of :func:`union`."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(lo, span.start), min(hi, span.end)) for lo, hi in children[span.sid]
        ]
        out[span.sid] = span.duration - measure(union(clipped))
    return out


def unattributed(spans: Sequence[Span], roots: Iterable[str]) -> float:
    """Wall time while a root span was open but no other span was.

    For a single-threaded root this is the root's self time.  With several
    concurrent roots (clients of a server) it is the time in which some
    request was in flight and no traced layer on any thread was working.
    """
    roots = set(roots)
    root_cover = union((s.start, s.end) for s in spans if s.name in roots)
    layer_cover = union((s.start, s.end) for s in spans if s.name not in roots)
    return measure(root_cover) - measure(intersect(root_cover, layer_cover))


@dataclass
class LayerRow:
    name: str
    calls: int
    busy_s: float  # summed span durations (over threads)
    self_s: float  # summed self times


def layer_table(spans: Sequence[Span]) -> List[LayerRow]:
    """Per-layer totals, in order of first appearance."""
    own = self_times(spans)
    rows: Dict[str, LayerRow] = {}
    for span in sorted(spans, key=lambda s: s.start):
        row = rows.setdefault(span.name, LayerRow(span.name, 0, 0.0, 0.0))
        row.calls += 1
        row.busy_s += span.duration
        row.self_s += own[span.sid]
    return list(rows.values())
