"""Service observability: counters and latency histograms.

Deliberately dependency-free (no prometheus / statsd): a counter map plus
reservoir latency recorders, rendered as the text report behind
``python -m repro service-stats``.  Everything is in-process: a
``MaxCutService``, or an ``AsyncMaxCutServer`` with every shard service
it builds, mutates one :class:`ServiceMetrics` instance, and callers
read snapshots of it.

Counter vocabulary used by the service stack (callers may add their own):

``requests``        every request seen by ``solve_many``/``solve``
``hits_memory``     answered from the in-memory cache tier
``hits_disk``       answered from the disk tier's log (then promoted)
``misses``          required an actual solve
``coalesced``       duplicate in-flight requests folded into one job
    (both within one ``solve_many`` batch and — on the async server —
    across concurrent clients)
``coalesced_inflight``  the cross-client subset of ``coalesced``: a
    submission that attached to another client's in-flight solve
``solves``          cold solves executed
``errors``          requests answered with a captured per-request error
``job_errors``      scheduler jobs whose solve raised (captured mode)
``shared_diagonals``jobs that reused a batch-mate's cut diagonal
``evictions``       LRU entries dropped for the byte budget
``compactions``     disk-tier log rewrites keeping each digest's newest record
``cache_skipped``   solves below the cost floor, not admitted to cache
``executor_retries``job batches re-run serially after an executor crash
``rejected``        submissions refused by a full shard queue (reject)
``shed``            queued submissions dropped for a newer one (shed)
``backend_<name>``  QAOA solves evolved by that statevector backend

Per-server accounting satisfies ``requests == hits_memory + hits_disk +
coalesced + misses`` (rejected/shed submissions were never admitted and
are counted separately; ``errors`` counts the subset of misses/coalesced
answered with a captured error) — pinned by the server test suite.

The histograms of timed stages (the service's fingerprint, lookup and
store, the HTTP layer's http) are fed by :meth:`ServiceMetrics.stage`,
which on a traced request shares the stage span's clock readings; the
request and batch histograms record observed values.

All mutation goes through one lock per :class:`ServiceMetrics` instance,
so shard worker threads and the event-loop thread share a server's one
recorder.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.tracing import NO_TRACE, NullTraceContext, Span, TraceContext

# Reservoir cap per histogram: enough samples for stable p50/p95 at the
# request volumes an in-process service sees, bounded so long-lived
# services do not grow without limit.
DEFAULT_RESERVOIR = 4096

# Histogram upper bounds (seconds) for the Prometheus exposition: a
# 1-2.5-5 ladder from 100µs (cache lookups) to 10s (cold QAOA solves).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class LatencyStats:
    """Streaming latency recorder with percentile readout.

    Keeps exact count/total/min/max plus a bounded sample reservoir for
    percentiles.  Past the cap, new samples overwrite pseudo-randomly (a
    deterministic linear-congruential index stream, so runs are
    reproducible without consuming any caller RNG).
    """

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be positive")
        self.reservoir = reservoir
        self.count = 0
        self.total = 0.0
        self.min = np.inf
        self.max = -np.inf
        self._samples: List[float] = []
        self._lcg = 0x9E3779B9

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)
        if len(self._samples) < self.reservoir:
            self._samples.append(seconds)
        else:
            self._lcg = (self._lcg * 1103515245 + 12345) % (1 << 31)
            slot = self._lcg % self.reservoir
            # Classic reservoir sampling keeps the slot only with
            # probability reservoir/count; a cheap deterministic analogue.
            if self._lcg % self.count < self.reservoir:
                self._samples[slot] = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """q in [0, 100]; NaN when nothing has been observed."""
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
        }

    def bucket_counts(self, bounds: Sequence[float]) -> List[int]:
        """Cumulative observation counts per upper bound (histogram rows).

        The reservoir only *samples* past capacity, so per-bucket sample
        fractions are rescaled by the exact observation count; rounding
        is monotone, so the cumulative counts stay non-decreasing (a
        Prometheus histogram invariant).
        """
        if not self._samples:
            return [0] * len(bounds)
        samples = np.sort(np.asarray(self._samples))
        positions = np.searchsorted(samples, np.asarray(bounds), side="right")
        return [
            int(round(self.count * int(pos) / len(samples))) for pos in positions
        ]


class _Clock:
    """An untraced stage's two clock readings (a traced stage uses its span's)."""

    __slots__ = ("start", "end")

    def __init__(self) -> None:
        self.start = self.end = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def set(self, **attrs: object) -> "_Clock":
        return self


class ServiceMetrics:
    """Counter map + named latency histograms, with a text report."""

    # Shard workers and the event loop mutate one instance concurrently:
    # all writes go through the lock; reads are lock-free snapshots by
    # design (see the module docstring).  Machine-checked by the
    # guarded-by rule in repro.analysis.
    # repro: guarded-by=_lock writes=counters,latencies

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self._reservoir = reservoir
        self.counters: Dict[str, int] = {}
        self.latencies: Dict[str, LatencyStats] = {}
        # A server's shard workers all record into one instance from
        # their threads while the event loop records and reads it; the
        # lock keeps read-modify-write increments and reservoir appends
        # atomic.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def increment(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            stats = self.latencies.get(name)
            if stats is None:
                stats = self.latencies[name] = LatencyStats(self._reservoir)
            stats.observe(seconds)

    @contextmanager
    def stage(
        self, name: str, trace: "TraceContext | NullTraceContext" = NO_TRACE
    ) -> Iterator["Span | _Clock"]:
        """Time one stage with one pair of clock readings.

        On a live trace the readings are the ``name`` span's own, so the
        ``name`` histogram sample equals the span's ``wall_s`` and
        ``/metrics`` cannot disagree with ``/trace/<id>``; otherwise the
        stage reads the clock itself.  The yielded span (or clock) takes
        attributes with ``set()`` and holds ``wall_s`` after the block.
        """
        try:
            with trace.span(name) as span:
                timed = span if isinstance(span, Span) else _Clock()
                yield timed
        finally:
            if isinstance(timed, _Clock):
                timed.end = time.perf_counter()
            self.observe(name, timed.wall_s)

    def percentile(self, name: str, q: float) -> float:
        stats = self.latencies.get(name)
        return stats.percentile(q) if stats is not None else float("nan")

    def counter_snapshot(self) -> Dict[str, int]:
        """Sorted copy of the counter map, taken under the lock."""
        with self._lock:
            return dict(sorted(self.counters.items()))

    def latency_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Sorted per-histogram summaries (count/mean/p50/p95/min/max),
        taken under the lock."""
        with self._lock:
            return {
                name: stats.summary()
                for name, stats in sorted(self.latencies.items())
            }

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": self.counter_snapshot(),
            "latencies": self.latency_snapshot(),
        }

    def json_snapshot(self) -> Dict[str, object]:
        """Like :meth:`snapshot`, but strictly JSON-serialisable.

        Empty histograms report NaN/±inf sentinels (min/max/percentiles);
        strict JSON has no encoding for those, so they become ``None``
        here.  This is the payload behind the HTTP ``GET /stats``
        endpoint (:mod:`repro.service.http`).
        """

        def clean(value: float) -> Optional[float]:
            if not np.isfinite(value):
                return None
            return value

        return {
            "counters": self.counter_snapshot(),
            "latencies": {
                name: {key: clean(val) for key, val in summary.items()}
                for name, summary in self.latency_snapshot().items()
            },
        }

    # ------------------------------------------------------------------
    def hit_rate(self) -> Optional[float]:
        """Fraction of requests answered without a cold solve."""
        requests = self.count("requests")
        if requests == 0:
            return None
        served = (
            self.count("hits_memory")
            + self.count("hits_disk")
            + self.count("coalesced")
        )
        return served / requests

    def format_report(self, title: str = "service metrics") -> str:
        lines = [title, "=" * len(title), "", "counters"]
        if self.counters:
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]}")
        else:
            lines.append("  (none)")
        rate = self.hit_rate()
        if rate is not None:
            lines.append(f"  {'hit_rate':<{max(8, len('hit_rate'))}}  {rate:.1%}")
        lines.append("")
        lines.append("latencies (seconds)")
        if self.latencies:
            header = f"  {'name':<16} {'count':>6} {'mean':>10} {'p50':>10} {'p95':>10} {'max':>10}"
            lines.append(header)
            for name in sorted(self.latencies):
                s = self.latencies[name].summary()
                lines.append(
                    f"  {name:<16} {s['count']:>6d} {s['mean']:>10.6f} "
                    f"{s['p50']:>10.6f} {s['p95']:>10.6f} {s['max']:>10.6f}"
                )
        else:
            lines.append("  (none)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4) — behind ``GET /metrics``.

#: Characters Prometheus forbids in metric names, replaced by ``_``.
_METRIC_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: Content type a Prometheus scraper expects for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _metric_name(namespace: str, name: str, suffix: str = "") -> str:
    return _METRIC_NAME_BAD.sub("_", f"{namespace}_{name}{suffix}")


def render_prometheus(
    metrics: "ServiceMetrics",
    *,
    namespace: str = "repro",
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> str:
    """Render counters + latency histograms as Prometheus text format.

    Counters become ``<ns>_<name>_total``; every latency reservoir
    becomes a ``<ns>_<name>_seconds`` histogram whose cumulative buckets
    are rescaled from the reservoir to the exact observation count (see
    :meth:`LatencyStats.bucket_counts`).  The snapshot is taken under the
    metrics lock so a scrape never sees a torn increment.
    """
    with metrics._lock:
        counters = dict(metrics.counters)
        histograms = {
            name: (stats.count, stats.total, stats.bucket_counts(buckets))
            for name, stats in metrics.latencies.items()
        }
    lines: List[str] = []
    for name in sorted(counters):
        metric = _metric_name(namespace, name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")
    rate = metrics.hit_rate()
    if rate is not None:
        metric = _metric_name(namespace, "hit_rate")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {rate:.6f}")
    for name in sorted(histograms):
        count, total, cumulative = histograms[name]
        metric = _metric_name(namespace, name, "_seconds")
        lines.append(f"# TYPE {metric} histogram")
        for bound, value in zip(buckets, cumulative):
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} {value}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{metric}_sum {total:.9f}")
        lines.append(f"{metric}_count {count}")
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_RESERVOIR",
    "LatencyStats",
    "PROMETHEUS_CONTENT_TYPE",
    "ServiceMetrics",
    "render_prometheus",
]
