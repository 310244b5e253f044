"""Tracing primitives, the TraceRecorder, and the metrics satellites
(a recorder shared by threads, typed snapshots, Prometheus rendering)."""

from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from repro.service.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    ServiceMetrics,
    render_prometheus,
)
from repro.service.trace import TraceRecorder
from repro.util.tracing import (
    MAX_TRACE_ID_LEN,
    NO_TRACE,
    NULL_SPAN,
    NullTraceContext,
    TraceContext,
    current_trace,
    sanitize_trace_id,
    use_trace,
)

pytestmark = pytest.mark.timeout(60)


# ---------------------------------------------------------------------------
# Span primitives
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_nested_spans_build_a_tree(self):
        trace = TraceContext()
        with trace.span("outer"):
            with trace.span("inner-a"):
                pass
            with trace.span("inner-b"):
                pass
        with trace.span("sibling"):
            pass
        trace.finish()
        assert [span.name for span in trace.iter_spans()] == [
            "request", "outer", "inner-a", "inner-b", "sibling",
        ]
        (outer, sibling) = trace.root.children
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert sibling.children == []

    def test_span_attrs_via_kwargs_and_set(self):
        trace = TraceContext()
        with trace.span("lookup", shard=3) as span:
            span.set(cache_tier="memory")
        trace.finish()
        (lookup,) = trace.root.children
        assert lookup.attrs == {"shard": 3, "cache_tier": "memory"}

    def test_annotate_targets_innermost_open_span(self):
        trace = TraceContext()
        with trace.span("solve"):
            trace.annotate(method="qaoa")
        trace.annotate(shard=1)  # no open span -> root
        trace.finish()
        assert trace.root.children[0].attrs == {"method": "qaoa"}
        assert trace.root.attrs == {"shard": 1}

    def test_add_span_records_elapsed_interval_without_opening(self):
        trace = TraceContext()
        t0 = time.perf_counter()
        trace.add_span("shard-queue", t0, t0 + 0.5, shard=2)
        with trace.span("solve"):
            pass
        trace.finish()
        queue, solve = trace.root.children
        assert queue.name == "shard-queue"
        assert queue.wall_s == pytest.approx(0.5)
        assert queue.cpu_s == 0.0  # waiting burns no CPU
        # add_span never touched the stack: "solve" is a sibling.
        assert solve.name == "solve"

    def test_add_span_clamps_negative_interval(self):
        trace = TraceContext()
        trace.add_span("skewed", 10.0, 9.0)
        assert trace.root.children[0].wall_s == 0.0

    def test_exception_stamps_error_attr_and_pops_stack(self):
        trace = TraceContext()
        with pytest.raises(RuntimeError):
            with trace.span("solve"):
                raise RuntimeError("boom")
        with trace.span("after"):
            pass
        trace.finish()
        solve, after = trace.root.children
        assert solve.attrs["error"] == "RuntimeError"
        assert after.name == "after"  # sibling, not child of the failure

    def test_finish_makes_trace_inert_and_is_idempotent(self):
        trace = TraceContext()
        trace.finish()
        wall = trace.root.end
        assert trace.span("late") is NULL_SPAN
        trace.add_span("late", 0.0, 1.0)
        trace.annotate(never="lands")
        trace.finish()
        assert trace.root.children == []
        assert trace.root.attrs == {}
        assert trace.root.end == wall
        assert trace.finished

    def test_trace_id_honoured_and_sanitized(self):
        assert TraceContext("client-id-1").trace_id == "client-id-1"
        assert TraceContext("bad id\r\nwith junk!").trace_id == "badidwithjunk"
        assert len(TraceContext("x" * 200).trace_id) == MAX_TRACE_ID_LEN
        fresh = TraceContext()
        assert re.fullmatch(r"[0-9a-f]{32}", fresh.trace_id)

    def test_sanitize_rejects_empty_and_unusable_ids(self):
        assert re.fullmatch(r"[0-9a-f]{32}", sanitize_trace_id(None))
        assert re.fullmatch(r"[0-9a-f]{32}", sanitize_trace_id("\r\n!!"))

    def test_to_dict_is_json_serializable(self):
        trace = TraceContext("round-trip")
        with trace.span("solve", method="qaoa"):
            pass
        trace.finish()
        decoded = json.loads(json.dumps(trace.to_dict()))
        assert decoded["trace_id"] == "round-trip"
        (root,) = decoded["spans"]
        assert root["name"] == "request"
        assert root["children"][0]["attrs"] == {"method": "qaoa"}

    def test_format_tree_lists_every_span(self):
        trace = TraceContext("pretty")
        with trace.span("solve", method="qaoa"):
            with trace.span("evolve_chunk", rows=4):
                pass
        trace.finish()
        tree = trace.format_tree()
        assert tree.startswith("trace pretty")
        for token in ("request", "solve", "evolve_chunk", "method=qaoa", "rows=4"):
            assert token in tree


class TestNoTrace:
    def test_null_trace_is_inert_singleton(self):
        assert NO_TRACE.enabled is False
        assert NO_TRACE.trace_id == ""
        assert NO_TRACE.span("anything", attr=1) is NULL_SPAN
        assert NO_TRACE.span("other") is NO_TRACE.span("other")
        NO_TRACE.add_span("x", 0.0, 1.0)
        NO_TRACE.annotate(ignored=True)
        NO_TRACE.finish()
        assert NO_TRACE.to_dict() == {"trace_id": "", "spans": []}
        assert NO_TRACE.format_tree() == "<no trace>"

    def test_null_span_handle_is_reusable(self):
        with NO_TRACE.span("a") as handle:
            assert handle.set(anything=1) is handle


class TestContextvarBridge:
    def test_default_is_no_trace(self):
        assert current_trace() is NO_TRACE

    def test_use_trace_binds_and_restores(self):
        trace = TraceContext()
        with use_trace(trace) as bound:
            assert bound is trace
            assert current_trace() is trace
        assert current_trace() is NO_TRACE

    def test_worker_thread_binds_its_own_trace(self):
        trace = TraceContext()
        seen = []

        def worker():
            seen.append(current_trace())
            with use_trace(trace):
                with current_trace().span("in-thread"):
                    pass
            seen.append(current_trace())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        trace.finish()
        assert seen == [NO_TRACE, NO_TRACE]  # fresh context before/after
        assert [span.name for span in trace.iter_spans()] == ["request", "in-thread"]


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------
def _finished_trace(trace_id=None, spans=()):
    trace = TraceContext(trace_id)
    for name in spans:
        with trace.span(name):
            pass
    trace.finish()
    return trace


class TestTraceRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_ring_buffer_keeps_newest(self):
        recorder = TraceRecorder(capacity=3)
        for index in range(5):
            recorder.record(_finished_trace(f"t{index}"))
        assert len(recorder) == 3
        assert recorder.recorded_total == 5
        assert [t.trace_id for t in recorder.last(3)] == ["t2", "t3", "t4"]
        assert recorder.get("t0") is None
        assert recorder.get("t4") is not None

    def test_record_ignores_null_trace_and_auto_finishes(self):
        recorder = TraceRecorder()
        recorder.record(NO_TRACE)
        assert len(recorder) == 0
        open_trace = TraceContext("open")
        recorder.record(open_trace)
        assert open_trace.finished
        assert recorder.get("open") is open_trace

    def test_get_prefers_newest_match(self):
        recorder = TraceRecorder()
        first = _finished_trace("dup")
        second = _finished_trace("dup")
        recorder.record(first)
        recorder.record(second)
        assert recorder.get("dup") is second

    def test_jsonl_sink_appends_one_line_per_trace(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        recorder = TraceRecorder(jsonl_path=path)
        recorder.record(_finished_trace("a", spans=("solve",)))
        recorder.record(_finished_trace("b"))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        decoded = [json.loads(line) for line in lines]
        assert [d["trace_id"] for d in decoded] == ["a", "b"]
        assert decoded[0]["spans"][0]["children"][0]["name"] == "solve"

    def test_slow_log_threshold(self, caplog):
        recorder = TraceRecorder(slow_threshold_s=0.0)
        with caplog.at_level("WARNING", logger="repro.service.trace"):
            recorder.record(_finished_trace("sluggish"))
        assert [t.trace_id for t in recorder.slow()] == ["sluggish"]
        assert any("slow request" in rec.message for rec in caplog.records)
        assert any("sluggish" in rec.getMessage() for rec in caplog.records)

    def test_no_slow_log_without_threshold(self):
        recorder = TraceRecorder()
        recorder.record(_finished_trace("fine"))
        assert recorder.slow() == []

    def test_stage_summary_and_table(self):
        recorder = TraceRecorder()
        recorder.record(_finished_trace("s1", spans=("solve", "store")))
        recorder.record(_finished_trace("s2", spans=("solve",)))
        summary = recorder.stage_summary()
        assert summary["solve"]["count"] == 2
        assert summary["store"]["count"] == 1
        assert summary["request"]["count"] == 2
        table = recorder.format_stage_table()
        assert "trace stage breakdown" in table
        for stage in ("request", "solve", "store"):
            assert stage in table
        # The summary covers only what the ring still holds.
        ring = TraceRecorder(capacity=2)
        for trace_id in ("r1", "r2", "r3"):
            ring.record(_finished_trace(trace_id))
        assert ring.stage_summary()["request"]["count"] == 2


# ---------------------------------------------------------------------------
# One recorder shared by an async server's threads
# ---------------------------------------------------------------------------
class TestSharedRecorder:
    def test_concurrent_writers_lose_no_update(self):
        # An async server's shard workers and its event loop all record
        # into one ServiceMetrics.  More writers than cores and a tiny
        # switch interval make a lost update likely wherever a write
        # skips the lock: a counter's read-modify-write, or two threads
        # creating the same new histogram (every name below is new).
        metrics = ServiceMetrics()
        writers, increments, stages = 4, 50000, 20000
        start = threading.Barrier(writers, timeout=60)

        def writer():
            start.wait()
            for _ in range(increments):
                metrics.increment("requests")
            start.wait()
            for index in range(stages):
                metrics.observe(f"stage-{index}", 1e-3)

        threads = [threading.Thread(target=writer) for _ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert metrics.count("requests") == writers * increments
        assert len(metrics.latencies) == stages
        assert sum(s.count for s in metrics.latencies.values()) == writers * stages


# ---------------------------------------------------------------------------
# Satellite: typed snapshots (json_snapshot without type: ignore)
# ---------------------------------------------------------------------------
class TestSnapshots:
    def _metrics(self):
        metrics = ServiceMetrics()
        metrics.increment("requests", 3)
        metrics.increment("hits")
        metrics.observe("solve", 0.25)
        metrics.observe("solve", 0.75)
        return metrics

    def test_counter_and_latency_snapshots_are_typed(self):
        metrics = self._metrics()
        counters = metrics.counter_snapshot()
        assert counters == {"requests": 3, "hits": 1}
        assert all(isinstance(v, int) for v in counters.values())
        latencies = metrics.latency_snapshot()
        assert latencies["solve"]["count"] == 2
        assert latencies["solve"]["mean"] == pytest.approx(0.5)

    def test_snapshot_composes_both(self):
        snapshot = self._metrics().snapshot()
        assert snapshot["counters"] == {"requests": 3, "hits": 1}
        assert "solve" in snapshot["latencies"]

    def test_json_snapshot_is_strict_json(self):
        metrics = ServiceMetrics()
        metrics.observe("empty-ish", float("nan"))
        metrics.increment("requests")
        text = json.dumps(metrics.json_snapshot())
        decoded = json.loads(text)  # strict: would fail on NaN
        assert decoded["counters"]["requests"] == 1
        assert decoded["latencies"]["empty-ish"]["mean"] is None


# ---------------------------------------------------------------------------
# Prometheus text rendering
# ---------------------------------------------------------------------------
NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
SERIES_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$'
)


def parse_prometheus(text):
    """Tiny format-0.0.4 parser: returns (types, series) dicts; raises on
    any line that is neither a comment nor a well-formed sample."""
    types, series = {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = SERIES_RE.match(line)
        assert match, f"malformed exposition line: {line!r}"
        labels = match.group("labels") or ""
        series[(match.group("name"), labels)] = float(match.group("value"))
    return types, series


class TestPrometheusRender:
    def _metrics(self):
        metrics = ServiceMetrics()
        metrics.increment("requests", 5)
        metrics.increment("hits_memory", 2)
        metrics.increment("misses", 3)
        for value in (0.0002, 0.004, 0.03, 0.2, 3.0):
            metrics.observe("solve", value)
        return metrics

    def test_output_parses_and_counts_match(self):
        metrics = self._metrics()
        types, series = parse_prometheus(render_prometheus(metrics))
        assert types["repro_requests_total"] == "counter"
        assert series[("repro_requests_total", "")] == 5.0
        assert types["repro_solve_seconds"] == "histogram"
        assert series[("repro_solve_seconds_count", "")] == 5.0
        assert series[("repro_solve_seconds_sum", "")] == pytest.approx(
            3.2342, rel=1e-6
        )
        assert types["repro_hit_rate"] == "gauge"
        assert series[("repro_hit_rate", "")] == pytest.approx(0.4)

    def test_histogram_buckets_are_monotone_and_end_at_count(self):
        metrics = self._metrics()
        _types, series = parse_prometheus(render_prometheus(metrics))
        buckets = [
            value
            for (name, _labels), value in sorted(
                series.items(),
                key=lambda kv: float(
                    kv[0][1].split('"')[1].replace("+Inf", "inf")
                ) if kv[0][1] else -1.0,
            )
            if name == "repro_solve_seconds_bucket"
        ]
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1  # bounds + +Inf
        assert buckets == sorted(buckets)
        assert buckets[-1] == series[("repro_solve_seconds_count", "")]

    def test_metric_names_are_legal(self):
        metrics = ServiceMetrics()
        metrics.increment("weird name-with.chars")
        metrics.observe("also weird!", 0.1)
        types, series = parse_prometheus(render_prometheus(metrics))
        for name in list(types) + [name for name, _ in series]:
            assert NAME_RE.fullmatch(name), name

    def test_namespace_override(self):
        metrics = ServiceMetrics()
        metrics.increment("http_requests")
        _types, series = parse_prometheus(
            render_prometheus(metrics, namespace="repro_http")
        )
        assert ("repro_http_http_requests_total", "") in series

    def test_empty_metrics_render_is_valid(self):
        types, series = parse_prometheus(render_prometheus(ServiceMetrics()))
        assert series == {} or all(v == 0 for v in series.values())
        assert "text/plain" in PROMETHEUS_CONTENT_TYPE
