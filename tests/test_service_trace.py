"""End-to-end request tracing: service, async server, HTTP wire, CLI.

Pins the ISSUE 9 acceptance criteria: a traced HTTP solve returns its
trace id, the recorded span tree covers wire-parse -> shard-queue ->
solve -> engine-chunk -> cache-store, coalesced followers reference the
owner's trace, disabled mode emits zero spans, and ``GET /metrics``
parses as Prometheus text.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.cli import main as cli_main
from repro.graphs import erdos_renyi
from repro.service import (
    AsyncMaxCutServer,
    HttpMaxCutClient,
    MaxCutService,
    SolveRequest,
    TraceRecorder,
    build_request,
    zipf_requests,
)
from repro.service.http import TRACE_HEADER, HttpServerThread
from repro.util.tracing import NO_TRACE, TraceContext

from test_trace import parse_prometheus

pytestmark = pytest.mark.timeout(120)

OPTIONS = {"layers": 1, "maxiter": 15}


def span_names(trace):
    return {span.name for span in trace.iter_spans()}


# ---------------------------------------------------------------------------
# MaxCutService-level tracing
# ---------------------------------------------------------------------------
class TestServiceTracing:
    def test_disabled_by_default_zero_spans(self):
        service = MaxCutService(seed=0)
        graph = erdos_renyi(10, 0.4, weighted=True, rng=1)
        request = build_request(graph, seed=2, **OPTIONS)
        service.solve_many([request])
        assert service.traces is None
        assert request.trace is NO_TRACE  # never replaced, never recorded

    def test_tracing_records_solve_stages(self):
        service = MaxCutService(seed=0, traces=TraceRecorder())
        graph = erdos_renyi(10, 0.4, weighted=True, rng=1)
        result = service.solve(graph, seed=2, **OPTIONS)
        assert not result.failed
        assert len(service.traces) == 1
        trace = service.traces.last(1)[0]
        names = span_names(trace)
        assert {"request", "fingerprint", "lookup", "solve",
                "cut_diagonal", "evolve_chunk", "store"} <= names

    def test_cache_hit_trace_has_no_solve_span(self):
        service = MaxCutService(seed=0, traces=TraceRecorder())
        graph = erdos_renyi(10, 0.4, weighted=True, rng=3)
        service.solve(graph, seed=2, **OPTIONS)
        service.solve(graph, seed=2, **OPTIONS)
        hit = service.traces.last(1)[0]
        assert "solve" not in span_names(hit)
        (lookup,) = [s for s in hit.iter_spans() if s.name == "lookup"]
        assert lookup.attrs["cache_tier"] == "memory"

    def test_custom_recorder_is_used(self, tmp_path):
        recorder = TraceRecorder(jsonl_path=tmp_path / "t.jsonl")
        service = MaxCutService(seed=0, traces=recorder)
        graph = erdos_renyi(10, 0.4, weighted=True, rng=4)
        service.solve(graph, seed=1, **OPTIONS)
        assert service.traces is recorder
        assert len(recorder) == 1
        assert (tmp_path / "t.jsonl").read_text().count("\n") == 1

    def test_stats_report_includes_stage_breakdown(self):
        service = MaxCutService(seed=0, traces=TraceRecorder())
        graph = erdos_renyi(10, 0.4, weighted=True, rng=5)
        service.solve(graph, seed=1, **OPTIONS)
        report = service.stats_report()
        assert "trace stage breakdown" in report
        assert "solve" in report

    def test_caller_supplied_trace_is_not_recorded_by_service(self):
        # The creator owns the trace: a pre-traced request must flow
        # through without the service finishing or recording it.
        service = MaxCutService(seed=0, traces=TraceRecorder())
        graph = erdos_renyi(10, 0.4, weighted=True, rng=6)
        request = build_request(graph, seed=1, **OPTIONS)
        request.trace = TraceContext("caller-owned")
        service.solve_many([request])
        assert not request.trace.finished
        assert service.traces.get("caller-owned") is None
        assert "solve" in span_names(request.trace)
        request.trace.finish()

    def test_resubmitted_request_is_traced_each_time(self):
        # The service traces a copy: the caller's request keeps NO_TRACE,
        # so submitting the same object again is traced and recorded again.
        service = MaxCutService(seed=0, traces=TraceRecorder())
        graph = erdos_renyi(10, 0.4, weighted=True, rng=9)
        request = build_request(graph, seed=1, **OPTIONS)
        service.solve_many([request])
        service.solve_many([request])
        assert service.traces.recorded_total == 2
        cold, hit = service.traces.last(2)
        assert "solve" in span_names(cold) and "solve" not in span_names(hit)
        assert request.trace is NO_TRACE

    def test_stage_histograms_share_their_spans_clock(self):
        # Each fingerprint/lookup/store histogram sample is its span's
        # wall time: one pair of clock readings feeds both.
        service = MaxCutService(seed=0, traces=TraceRecorder())
        requests = zipf_requests(
            n_requests=8, universe=3, n_nodes=8, options=OPTIONS, rng=0
        )
        service.solve_many(requests[:4])
        service.solve_many(requests[4:])
        traces = service.traces.last(len(requests))
        for stage in ("fingerprint", "lookup", "store"):
            walls = [
                span.wall_s
                for trace in traces
                for span in trace.iter_spans()
                if span.name == stage
            ]
            assert walls and service.metrics.latencies[stage]._samples == walls
        assert "cache_store" not in service.metrics.latencies


# ---------------------------------------------------------------------------
# AsyncMaxCutServer-level tracing (coalesced followers)
# ---------------------------------------------------------------------------
class TestServerTracing:
    """The async server owns no trace: it adds its spans to the trace a
    request carries and never finishes or records it."""

    def test_coalesced_follower_records_owner_reference(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        owner, follower = TraceContext(), TraceContext()

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                f1 = server.submit(request=traced(graph, 4, owner))
                f2 = server.submit(request=traced(graph, 4, follower))
                return await asyncio.gather(f1, f2)

        _, r2 = asyncio.run(main())
        assert r2.status == "coalesced-inflight"
        assert not owner.finished and not follower.finished
        assert "solve" in span_names(owner)
        assert "solve" not in span_names(follower)
        (span,) = [
            s for s in follower.iter_spans() if s.name == "coalesced-inflight"
        ]
        assert span.attrs["owner"] == owner.trace_id

    def test_owner_trace_covers_queue_and_solve(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=7)
        trace = TraceContext()

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                return await server.submit(request=traced(graph, 1, trace))

        result = asyncio.run(main())
        assert not result.failed
        assert not trace.finished
        names = span_names(trace)
        assert {"shard-queue", "solve", "evolve_chunk", "store"} <= names
        (queue,) = [s for s in trace.iter_spans() if s.name == "shard-queue"]
        assert "shard" in queue.attrs
        assert trace.root.attrs["shard"] == queue.attrs["shard"]

    def test_untraced_submission_stays_untraced(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=8)
        request = build_request(graph, seed=1, **OPTIONS)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                cold = await server.submit(request=request)
                hit = await server.submit(request=request)
                return server, cold, hit

        server, cold, hit = asyncio.run(main())
        assert (cold.status, hit.status) == ("solved", "hit-memory")
        assert request.trace is NO_TRACE
        assert all(service.traces is None for service in server.services)


def traced(graph, seed, trace):
    return SolveRequest(graph=graph, options=dict(OPTIONS), seed=seed, trace=trace)


# ---------------------------------------------------------------------------
# HTTP wire: trace id round-trip, /trace/<id>, /metrics
# ---------------------------------------------------------------------------
class TestHttpTracing:
    def test_trace_id_survives_http_round_trip(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=3)
        with HttpServerThread(
            n_shards=2, seed=0, http_options={"traces": TraceRecorder()}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                result = client.solve(
                    graph, seed=5, trace_id="wire-round-trip", **OPTIONS
                )
                assert not result.failed
                assert client.last_trace_id == "wire-round-trip"
                assert client.last_headers[TRACE_HEADER] == "wire-round-trip"
                payload = client.trace("wire-round-trip")
        assert payload["trace_id"] == "wire-round-trip"
        tree = payload["tree"]
        # The acceptance span chain: wire parse -> shard queue -> solve
        # -> engine chunk -> cache store.
        for stage in ("wire-parse", "shard-queue", "solve", "evolve_chunk",
                      "store", "await"):
            assert stage in tree
        names = {span["name"] for span in _walk(payload["spans"])}
        assert {"request", "wire-parse", "shard-queue", "solve",
                "evolve_chunk", "store"} <= names

    def test_server_names_trace_when_client_sends_no_header(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=4)
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"traces": TraceRecorder()}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)
                trace_id = client.last_trace_id
                assert re.fullmatch(r"[0-9a-f]{32}", trace_id)
                payload = client.trace(trace_id)
                assert payload["trace_id"] == trace_id

    def test_untraced_server_echoes_nothing_and_404s_trace_route(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=5)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)
                assert client.last_trace_id == ""
                assert TRACE_HEADER not in client.last_headers
                status, payload = client.request("GET", "/trace/whatever")
                assert status == 404
                assert payload["code"] == "not-found"

    def test_unknown_trace_id_is_404(self):
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"traces": TraceRecorder()}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request("GET", "/trace/nope")
                assert status == 404 and payload["code"] == "not-found"

    def test_metrics_endpoint_is_valid_prometheus(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=6)
        with HttpServerThread(n_shards=2, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)
                text = client.metrics()
                content_type = client.last_headers["Content-Type"]
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        types, series = parse_prometheus(text)
        assert series[("repro_requests_total", "")] == 1.0
        assert series[("repro_solves_total", "")] == 1.0
        # The HTTP layer exports under its own namespace.
        assert any(name.startswith("repro_http_") for name, _ in series)
        for histogram in ("request", "fingerprint", "lookup", "store"):
            assert types[f"repro_{histogram}_seconds"] == "histogram"
        assert "repro_cache_store_seconds" not in types
        assert types["repro_http_http_seconds"] == "histogram"

    def test_metrics_method_not_allowed(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request("POST", "/metrics", {})
                assert status == 405
                assert payload["code"] == "method-not-allowed"

    def test_stats_payload_gains_trace_stages(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=7)
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"traces": TraceRecorder()}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)
                stats = client.stats()
        assert stats["traces_recorded"] == 1
        assert "solve" in stats["trace_stages"]
        assert stats["trace_stages"]["request"]["count"] == 1

    def test_bad_request_still_echoes_trace_header(self):
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"traces": TraceRecorder()}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request(
                    "POST", "/solve", {"not-a": "request"},
                    headers={TRACE_HEADER: "bad-req-1"},
                )
                assert status == 400
                assert client.last_headers[TRACE_HEADER] == "bad-req-1"


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    ARGS = ["--requests", "6", "--universe", "2", "--nodes", "10",
            "--maxiter", "10", "--layers", "1"]

    def test_trace_command_prints_span_trees(self, capsys):
        assert cli_main(["trace", "--last", "2", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert out.count("trace ") >= 2
        assert "request" in out
        assert "trace stage breakdown" in out

    def test_trace_command_jsonl_sink(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        assert cli_main(
            ["trace", "--last", "1", "--jsonl", str(path), *self.ARGS]
        ) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6  # one per request
        assert all("trace_id" in json.loads(line) for line in lines)

    def test_service_stats_json_snapshot(self, capsys):
        assert cli_main(["service-stats", "--json", *self.ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 6
        assert payload["metrics"]["counters"]["requests"] == 6
        assert "trace_stages" not in payload  # tracing off

    def test_service_stats_json_with_trace(self, capsys):
        assert cli_main(
            ["service-stats", "--json", "--trace", *self.ARGS]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_stages"]["request"]["count"] == 6
        latencies = payload["metrics"]["latencies"]
        for stage in ("fingerprint", "lookup", "store"):
            spans = payload["trace_stages"][stage]
            assert latencies[stage]["count"] == spans["count"]
            assert latencies[stage]["mean"] * spans["count"] == pytest.approx(
                spans["wall_s"]
            )
        assert "cache_store" not in latencies

    def test_service_stats_text_with_trace(self, capsys):
        assert cli_main(["service-stats", "--trace", *self.ARGS]) == 0
        assert "trace stage breakdown" in capsys.readouterr().out
