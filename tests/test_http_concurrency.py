"""Concurrent HTTP clients: the Zipf stream over real sockets must be
checksum-identical to the in-process async path, coalescing must span
HTTP clients, and a client disconnect mid-solve must not poison the
coalesced in-flight entry (ISSUE 8)."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.service import (
    HttpMaxCutClient,
    MaxCutService,
    build_request,
    serve_requests,
    zipf_requests,
)
from repro.service.http import HttpServerThread, request_to_wire

pytestmark = pytest.mark.timeout(300)

OPTIONS = {"layers": 1, "maxiter": 15}


def stream(n=32, universe=5, nodes=10, rng=0):
    return zipf_requests(
        n_requests=n,
        universe=universe,
        n_nodes=nodes,
        edge_prob=0.35,
        zipf_exponent=1.1,
        options=OPTIONS,
        rng=rng,
    )


class GatedService(MaxCutService):
    """solve_many blocks until ``gate`` is set (see test_service_server)."""

    def __init__(self, gate, entered, **kwargs):
        super().__init__(**kwargs)
        self._gate = gate
        self._entered = entered

    def solve_many(self, requests, **kwargs):
        self._entered.set()
        assert self._gate.wait(timeout=60), "test gate never opened"
        return super().solve_many(requests, **kwargs)


def solve_over_http(handle, requests, *, clients=4):
    """Round-robin the request stream over ``clients`` threads, each with
    its own keep-alive connection; returns results in request order."""
    results = [None] * len(requests)
    errors = []

    def worker(offset):
        try:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                for index in range(offset, len(requests), clients):
                    results[index] = client.solve(request=requests[index])
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(offset,))
        for offset in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)
    assert not errors, f"client thread failed: {errors[0]!r}"
    assert all(result is not None for result in results)
    return results


# ---------------------------------------------------------------------------
# The ISSUE acceptance gate: HTTP == in-process async, bit for bit
# ---------------------------------------------------------------------------
class TestHttpMatchesInProcess:
    def test_zipf_stream_checksum_identical(self):
        requests = stream(n=32, universe=5)
        _, ref = serve_requests(requests, clients=4, n_shards=2, seed=0)
        with HttpServerThread(n_shards=2, seed=0) as handle:
            results = solve_over_http(handle, requests, clients=4)
        assert len(results) == len(ref)
        for got, want in zip(results, ref, strict=True):
            assert got.digest == want.digest
            assert got.cut == want.cut
            assert np.array_equal(got.assignment, want.assignment)
            assert got.seed == want.seed
        # One aggregate checksum as well, mirroring the benchmark gate.
        assert sum(r.cut for r in results) == sum(r.cut for r in ref)

    def test_coalescing_spans_http_clients(self):
        # Six clients hammer one identical request; the solver must run
        # exactly once no matter how the submissions interleave.
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        request = build_request(graph, seed=4, **OPTIONS)
        with HttpServerThread(n_shards=2, seed=0) as handle:
            results = solve_over_http(handle, [request] * 6, clients=6)
            merged = handle.merged_metrics()
        assert merged.count("solves") == 1
        assert len({r.cut for r in results}) == 1
        reference = results[0]
        for result in results[1:]:
            assert np.array_equal(result.assignment, reference.assignment)


# ---------------------------------------------------------------------------
# Disconnect mid-solve
# ---------------------------------------------------------------------------
class TestDisconnectMidSolve:
    def test_disconnect_does_not_poison_coalesced_entry(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=7)
        request = build_request(graph, seed=3, **OPTIONS)
        body = json.dumps(request_to_wire(request)).encode("utf-8")
        gate, entered = threading.Event(), threading.Event()
        handle = HttpServerThread(
            n_shards=1,
            max_batch=1,
            service_factory=lambda k, metrics: GatedService(
                gate, entered, seed=0, metrics=metrics
            ),
        ).start()
        try:
            # Owner: a raw socket that submits the solve, then vanishes
            # while the solve is physically running in the worker thread.
            owner = socket.create_connection((handle.host, handle.port), timeout=30)
            owner.sendall(
                b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                + body
            )
            assert entered.wait(timeout=60), "solve never reached the worker"
            owner.close()  # abrupt disconnect, response never read
            # Follower: joins the same in-flight entry over its own
            # connection, then the gate opens.
            threading.Timer(0.5, gate.set).start()
            with HttpMaxCutClient(handle.host, handle.port) as client:
                follower = client.solve(request=request)
                # The server stays fully serviceable afterwards.
                assert client.healthz()["status"] == "ok"
            merged = handle.merged_metrics()
        finally:
            gate.set()
            handle.stop()
        ref = MaxCutService(seed=0).solve(graph, seed=3, **OPTIONS)
        assert follower.cut == ref.cut
        assert np.array_equal(follower.assignment, ref.assignment)
        # The dead owner's solve was the only one: the follower reused it.
        assert merged.count("solves") == 1
