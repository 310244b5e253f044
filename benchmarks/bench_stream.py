"""The serving stack's Zipf-stream gates: service, async, HTTP and tracing.

QAOA² emits floods of small, repeated sub-problems (paper §3.3), so the
stack serves them through a fingerprint cache with request coalescing.
This driver builds two Zipf-distributed streams, a few hot graphs
requested over and over, and answers each with every surface in turn.
``STREAM`` (100 requests over 8 distinct 14-node graphs) goes through:

* **uncached** — every request is its own reference job
  (:func:`repro.qaoa2.solver._solve_subgraph_job`, exactly what a service
  cold solve runs): the cold-path cost and the parity reference;
* **service** — :class:`repro.service.MaxCutService`, ``BATCH_SIZE``
  requests per ``solve_many``;
* **async** — :func:`repro.service.serve_requests`: ``CLIENTS`` client
  tasks over ``SHARDS`` fingerprint-prefix shards;
* **http** — ``CLIENTS`` threads, each with its own keep-alive
  :class:`repro.service.HttpMaxCutClient`, against a
  :class:`repro.service.http.HttpServerThread` of ``SHARDS`` shards.

``TRACE_STREAM`` (60 requests over 6 12-node graphs) goes through a
fresh ``MaxCutService`` untraced and traced (a ``TraceRecorder`` keeps
every request's span tree) in ``TRACE_PAIRS`` interleaved pairs of runs.

Acceptance bars, enforced on every CI run via ``--quick``: service and
async cuts and assignments equal the uncached jobs', each ≥5× faster
than uncached; HTTP equals both the uncached jobs and the async path,
is ≥ ``HTTP_GAIN_BAR``× faster than uncached, and ``/healthz`` reports
every shard; traced cuts and digests equal untraced ones, every request
leaves a recorded trace and ``request`` span, ``solve`` runs once per
distinct graph, and the median of the pairs' traced/untraced ratios is
≤ ``OVERHEAD_BAR``.  ``--quick`` then writes the shared-schema records
``BENCH_service.json`` (async seconds), ``BENCH_http.json`` (HTTP
seconds) and ``BENCH_trace.json`` (best traced seconds).  Under pytest
each surface is one benchmark test that asserts its cut identity.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import REPORTS_DIR, bench_checksum, paired_ratio, write_bench_record

from repro.qaoa2.solver import _solve_subgraph_job
from repro.service import (
    HttpMaxCutClient,
    MaxCutService,
    TraceRecorder,
    serve_requests,
    zipf_requests,
)
from repro.service.http import HttpServerThread

# ``zipf_requests`` arguments.  The traced stream is smaller so that its
# interleaved repetitions stay cheap.
STREAM = {
    "n_requests": 100,
    "universe": 8,
    "n_nodes": 14,
    "edge_prob": 0.3,
    "zipf_exponent": 1.1,
    "options": {"layers": 2, "maxiter": 40},
    "rng": 0,
}
TRACE_STREAM = {
    **STREAM,
    "n_requests": 60,
    "universe": 6,
    "n_nodes": 12,
    "options": {"layers": 2, "maxiter": 30},
}
# Requests arrive in small batches, not one omniscient mega-batch: the
# service's solve_many batches and the shard workers' micro-batches.
BATCH_SIZE = 10
# Concurrent clients (async tasks or HTTP threads) and shards.
CLIENTS = 4
SHARDS = 2
# The wire pays JSON encode/decode and TCP per request, so HTTP's bar is
# 3× (against 5× in process): it still proves caching dominates the
# transport.
HTTP_GAIN_BAR = 3.0
# Interleaved (untraced, traced) pairs of trace-stream runs.  One run
# varied by 10-50% on a busy 2-core VM, far beyond the bar's 5% margin;
# the median of 15 pairs' ratios passed 39 of 40 runs of unchanged code
# and failed 20 of 20 with tracing made 10% dearer.
TRACE_PAIRS = 15
# The median traced/untraced ratio must stay <= 1.05.
OVERHEAD_BAR = 1.05


def _solve_uncached(requests):
    """Each request's cut and assignment, from its own reference job."""
    jobs = [_solve_subgraph_job(request) for request in requests]
    return [(job["cut"], job["assignment"].tolist()) for job in jobs]


def _answers(results):
    """Each served result's cut and assignment, as ``_solve_uncached``'s."""
    return [(res.cut, res.assignment.tolist()) for res in results]


def _serve_service(requests):
    service = MaxCutService(seed=0)
    results = []
    for start in range(0, len(requests), BATCH_SIZE):
        results.extend(service.solve_many(requests[start : start + BATCH_SIZE]))
    return service, results


def _serve_async(requests):
    return serve_requests(
        requests, clients=CLIENTS, n_shards=SHARDS, seed=0, max_batch=BATCH_SIZE
    )


def _http_server():
    return HttpServerThread(n_shards=SHARDS, seed=0, max_batch=BATCH_SIZE)


def _serve_http(requests, handle):
    """Round-robin the stream over CLIENTS threads, each with its own
    keep-alive connection; returns results in request order."""

    def client_share(offset):
        with HttpMaxCutClient(handle.host, handle.port) as client:
            return [client.solve(request=req) for req in requests[offset::CLIENTS]]

    results = [None] * len(requests)
    with ThreadPoolExecutor(CLIENTS) as pool:
        for offset, share in enumerate(pool.map(client_share, range(CLIENTS))):
            results[offset::CLIENTS] = share
    return results


def _serve_traced(requests, *, tracing):
    """Answer the stream on a fresh service; returns (results, recorder)."""
    recorder = TraceRecorder() if tracing else None
    service = MaxCutService(seed=0, traces=recorder)
    return service.solve_many(requests), recorder


def _digests(results):
    return [(res.cut, res.digest) for res in results]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# pytest-benchmark: one test per surface
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def requests():
    return zipf_requests(**STREAM)


@pytest.fixture(scope="module")
def reference(requests):
    return _solve_uncached(requests)


def test_uncached_stream(once, requests, reference):
    assert once(_solve_uncached, requests) == reference


def test_service_stream(once, requests, reference):
    _service, served = once(_serve_service, requests)
    assert _answers(served) == reference


def test_async_stream(once, requests, reference):
    _server, served = once(_serve_async, requests)
    assert _answers(served) == reference


def test_http_stream(once, requests, reference):
    with _http_server() as handle:
        served = once(_serve_http, requests, handle)
    assert _answers(served) == reference


@pytest.fixture(scope="module")
def trace_requests():
    return zipf_requests(**TRACE_STREAM)


@pytest.fixture(scope="module")
def untraced(trace_requests):
    served, _recorder = _serve_traced(trace_requests, tracing=False)
    return _digests(served)


def test_untraced_stream(once, trace_requests, untraced):
    served, _recorder = once(_serve_traced, trace_requests, tracing=False)
    assert _digests(served) == untraced


def test_traced_stream(once, trace_requests, untraced):
    served, recorder = once(_serve_traced, trace_requests, tracing=True)
    assert _digests(served) == untraced
    assert recorder.recorded_total == TRACE_STREAM["n_requests"]


# ---------------------------------------------------------------------------
# JSON smoke mode: python bench_stream.py --quick
# ---------------------------------------------------------------------------
def _stream_report() -> dict:
    """Uncached, service, async and HTTP passes over ``STREAM``."""
    requests = zipf_requests(**STREAM)
    reference, uncached_s = _timed(_solve_uncached, requests)
    (service, served), service_s = _timed(_serve_service, requests)
    (server, served_async), async_s = _timed(_serve_async, requests)
    with _http_server() as handle:
        with HttpMaxCutClient(handle.host, handle.port) as probe:
            healthz = probe.healthz()
        served_http, http_s = _timed(_serve_http, requests, handle)
        with HttpMaxCutClient(handle.host, handle.port) as probe:
            stats = probe.stats()
        http_metrics = handle.merged_metrics()

    metrics = service.metrics
    async_metrics = server.merged_metrics()
    async_answers = _answers(served_async)
    http_answers = _answers(served_http)
    service_report = {
        "uncached_s": uncached_s,
        "service_s": service_s,
        "async_s": async_s,
        "throughput_gain": uncached_s / service_s,
        "async_gain": uncached_s / async_s,
        "hits_memory": metrics.count("hits_memory"),
        "coalesced": metrics.count("coalesced"),
        "misses": metrics.count("misses"),
        "async_hits_memory": async_metrics.count("hits_memory"),
        "async_coalesced": async_metrics.count("coalesced"),
        "async_misses": async_metrics.count("misses"),
        "request_p50_s": metrics.percentile("request", 50.0),
        "request_p95_s": metrics.percentile("request", 95.0),
        "cuts_identical": _answers(served) == reference,
        "async_cuts_identical": async_answers == reference,
        "cuts": [round(res.cut, 9) for res in served],
    }
    http_report = {
        "http_s": http_s,
        "http_gain": uncached_s / http_s,
        "wire_overhead_vs_async": http_s / async_s,
        "healthz": healthz,
        "http_requests": stats["http"]["counters"].get("http_requests", 0),
        "http_p50_s": stats["http"]["latencies"]["http"]["p50"],
        "http_p95_s": stats["http"]["latencies"]["http"]["p95"],
        "misses": http_metrics.count("misses"),
        "hits_memory": http_metrics.count("hits_memory"),
        "coalesced": http_metrics.count("coalesced"),
        "cuts_identical": http_answers == reference,
        "wire_matches_async": http_answers == async_answers,
        "cuts": [round(res.cut, 9) for res in served_http],
    }
    return {"service": service_report, "http": http_report}


def _trace_report() -> dict:
    """Median traced/untraced ratio over interleaved runs of ``TRACE_STREAM``."""
    requests = zipf_requests(**TRACE_STREAM)
    served = {}

    def run(tracing):
        served[tracing] = _serve_traced(requests, tracing=tracing)

    overhead, traced_s, untraced_s = paired_ratio(
        lambda: run(True), lambda: run(False), pairs=TRACE_PAIRS
    )
    (traced, recorder), (untraced, _) = served[True], served[False]
    stages = recorder.stage_summary()
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead": overhead,
        "traces_recorded": recorder.recorded_total,
        "solve_spans": stages.get("solve", {}).get("count", 0),
        "request_spans": stages.get("request", {}).get("count", 0),
        "cuts_identical": _digests(traced) == _digests(untraced),
        "cuts": [round(res.cut, 9) for res in traced],
    }


def _check(report: dict) -> None:
    service, http, trace = report["service"], report["http"], report["trace"]
    assert service["cuts_identical"], "service cuts diverged from direct solves"
    assert service["async_cuts_identical"], "async cuts diverged from direct solves"
    assert http["cuts_identical"], "HTTP cuts diverged from direct solves"
    assert http["wire_matches_async"], "HTTP cuts diverged from the async path"
    for path, gain, bar in (
        ("service", service["throughput_gain"], 5.0),
        ("async server", service["async_gain"], 5.0),
        ("HTTP path", http["http_gain"], HTTP_GAIN_BAR),
    ):
        assert gain >= bar, f"{path} only {gain:.1f}x faster than uncached (bar {bar}x)"
    assert http["healthz"] == {"status": "ok", "shards": SHARDS}
    assert trace["cuts_identical"], "tracing perturbed cut values"
    assert trace["traces_recorded"] == TRACE_STREAM["n_requests"]
    assert trace["request_spans"] == TRACE_STREAM["n_requests"]
    # One cold solve per distinct graph in the universe; the rest hit.
    assert trace["solve_spans"] == TRACE_STREAM["universe"]
    assert trace["overhead"] <= OVERHEAD_BAR, (
        f"tracing overhead {trace['overhead']:.3f}x exceeds the {OVERHEAD_BAR}x bar"
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the stream gates and write their regression records "
        "instead of running pytest-benchmark",
    )
    args = parser.parse_args()
    if not args.quick:
        parser.error("run under pytest for full benchmarks, or pass --quick")
    report = {**_stream_report(), "trace": _trace_report()}
    _check(report)
    printable = {
        "stream": STREAM,
        "trace_stream": TRACE_STREAM,
        **{
            name: {k: v for k, v in section.items() if k != "cuts"}
            for name, section in report.items()
        },
    }
    text = json.dumps(printable, indent=2)
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "bench_stream_quick.json").write_text(text + "\n")
    # Each record times the pass its gate is about: the async path (the
    # serving stack's flagship), the HTTP pass and the best traced run.
    # The async and HTTP hits/coalesced *split* is timing-dependent (a
    # duplicate is coalesced while its owner is in flight, a hit
    # afterwards), so only their cold solves and cut identities enter a
    # checksum; timings never do.
    for name, stream, seconds, pinned in (
        (
            "service",
            STREAM,
            "async_s",
            "cuts misses hits_memory coalesced async_misses async_cuts_identical",
        ),
        ("http", STREAM, "http_s", "cuts misses cuts_identical wire_matches_async"),
        ("trace", TRACE_STREAM, "traced_s", "cuts solve_spans cuts_identical"),
    ):
        section = report[name]
        write_bench_record(
            name,
            n=stream["n_nodes"],
            p=stream["options"]["layers"],
            seconds=section[seconds],
            checksum=bench_checksum({key: section[key] for key in pinned.split()}),
        )


if __name__ == "__main__":
    main()
