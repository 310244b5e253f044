"""Trace collection and profiling on top of :mod:`repro.util.tracing`.

The primitives (``Span``, ``TraceContext``, ``NO_TRACE``, the
``current_trace`` contextvar) live in ``repro.util.tracing`` so that
CORE packages can emit spans; this module is the *service-side* half:

* :class:`TraceRecorder` — a bounded in-memory ring buffer of completed
  traces, an optional JSONL sink (one ``trace.to_dict()`` per line), and
  a slow-request log that writes the full span tree of any request over
  a configurable wall-time threshold to the ``repro.service.trace``
  logger.
* Per-stage aggregation (:meth:`TraceRecorder.stage_summary` /
  :meth:`TraceRecorder.format_stage_table`) — the breakdown table behind
  ``service-stats`` that says where p95 time actually went: wire parse,
  queue wait, cut-diagonal build, backend evolve, or cache I/O.

Span vocabulary emitted by the stack (see docs/observability.md):
``wire-parse``, ``shard-queue``, ``coalesced-inflight``, ``solve``,
``fingerprint``, ``lookup``, ``store``, ``cut_diagonal``,
``evolve_chunk``, ``walsh_stage``, ``backend-evolve``.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.util.tracing import NullTraceContext, TraceContext

__all__ = ["TraceRecorder"]

logger = logging.getLogger("repro.service.trace")

#: Completed traces kept in memory per recorder (ring buffer).
DEFAULT_TRACE_CAPACITY = 256

#: Slow traces kept separately so a burst of fast requests cannot evict
#: the interesting ones.
DEFAULT_SLOW_CAPACITY = 32


class TraceRecorder:
    """Bounded buffer of completed traces + JSONL sink + slow log.

    ``record()`` is cheap (a deque append and, when configured, one
    buffered line write), so it is safe to call from the event loop as
    the response goes out; the JSONL sink is an operator opt-in meant
    for offline analysis, not a high-volume audit log.
    """

    # The event loop records while the CLI/stats path reads concurrently.
    # repro: guarded-by=_lock writes=_traces,_slow

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        *,
        jsonl_path: Optional[str] = None,
        slow_threshold_s: Optional[float] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.jsonl_path = jsonl_path
        self.slow_threshold_s = slow_threshold_s
        self._traces: Deque[TraceContext] = deque(maxlen=capacity)
        self._slow: Deque[TraceContext] = deque(maxlen=DEFAULT_SLOW_CAPACITY)
        self._recorded = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def record(self, trace: "TraceContext | NullTraceContext") -> None:
        """File a finished trace (no-ops for ``NO_TRACE``)."""
        if not isinstance(trace, TraceContext):
            return
        if not trace.finished:
            trace.finish()
        slow = (
            self.slow_threshold_s is not None
            and trace.wall_s >= self.slow_threshold_s
        )
        with self._lock:
            self._traces.append(trace)
            self._recorded += 1
            if slow:
                self._slow.append(trace)
        if slow:
            logger.warning(
                "slow request (%.3f s >= %.3f s)\n%s",
                trace.wall_s,
                self.slow_threshold_s,
                trace.format_tree(),
            )
        if self.jsonl_path is not None:
            line = json.dumps(trace.to_dict(), sort_keys=True)
            with open(self.jsonl_path, "a", encoding="utf-8") as sink:
                sink.write(line + "\n")

    # -- retrieval -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def recorded_total(self) -> int:
        """Traces ever recorded, including ones the ring has evicted."""
        with self._lock:
            return self._recorded

    def get(self, trace_id: str) -> Optional[TraceContext]:
        """The buffered trace with this id, newest match wins."""
        with self._lock:
            buffered = list(self._traces)
        for trace in reversed(buffered):
            if trace.trace_id == trace_id:
                return trace
        return None

    def last(self, n: int = 1) -> List[TraceContext]:
        """The ``n`` most recent traces, oldest first."""
        if n < 1:
            return []
        with self._lock:
            buffered = list(self._traces)
        return buffered[-n:]

    def slow(self) -> List[TraceContext]:
        """Buffered slow traces (threshold crossers), oldest first."""
        with self._lock:
            return list(self._slow)

    # -- aggregation ---------------------------------------------------

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name totals across the buffer: count, wall, CPU.

        The root ``request`` span is included so callers can compute
        each stage's share of end-to-end time.
        """
        out: Dict[str, Dict[str, float]] = {}
        for trace in self.last(self.capacity):
            for span in trace.iter_spans():
                row = out.setdefault(
                    span.name, {"count": 0.0, "wall_s": 0.0, "cpu_s": 0.0}
                )
                row["count"] += 1
                row["wall_s"] += span.wall_s
                row["cpu_s"] += span.cpu_s
        return out

    def format_stage_table(self, title: str = "trace stage breakdown") -> str:
        """Render :meth:`stage_summary` as the ``service-stats`` table."""
        summary = self.stage_summary()
        lines = [title, "=" * len(title)]
        if not summary:
            lines.append("  (no traces recorded)")
            return "\n".join(lines)
        request_wall = summary.get("request", {}).get("wall_s", 0.0)
        denominator = request_wall if request_wall > 0 else None
        lines.append(
            f"  {'stage':<20} {'count':>7} {'wall_s':>10} "
            f"{'cpu_s':>10} {'share':>7}"
        )
        for name in sorted(
            summary, key=lambda key: summary[key]["wall_s"], reverse=True
        ):
            row = summary[name]
            share = (
                f"{100.0 * row['wall_s'] / denominator:6.1f}%"
                if denominator
                else "    n/a"
            )
            lines.append(
                f"  {name:<20} {int(row['count']):>7d} {row['wall_s']:>10.4f} "
                f"{row['cpu_s']:>10.4f} {share:>7}"
            )
        return "\n".join(lines)
