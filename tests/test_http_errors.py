"""The documented HTTP error contract, asserted code-for-code: 400, 413,
502, 503 (+ Retry-After), 504 — and the promises behind them: bad input
never touches a shard, deadlines never poison the solve (ISSUE 8)."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.graphs import erdos_renyi
from repro.service import (
    HttpMaxCutClient,
    HttpResponseError,
    MaxCutService,
    RequestError,
    ServerOverloaded,
    build_request,
)
from repro.service.http import HttpServerThread, request_to_wire

pytestmark = pytest.mark.timeout(120)

OPTIONS = {"layers": 1, "maxiter": 15}


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


def post_raw_body(host, port, body: bytes, *, path="/solve"):
    """POST pre-encoded bytes (possibly not JSON) and decode the response."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# 400 bad-request
# ---------------------------------------------------------------------------
class TestBadRequest:
    def test_malformed_json_is_400(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            status, payload, _ = post_raw_body(
                handle.host, handle.port, b"{definitely not json"
            )
            merged = handle.merged_metrics()
        assert (status, payload["code"]) == (400, "bad-request")
        assert "invalid JSON" in payload["error"]
        assert merged.count("requests") == 0  # no shard was touched

    def test_schema_violation_is_400(self):
        # A removed request key ("exact") is refused like any unknown key.
        for extra in ({"surprise": 1}, {"exact": True}):
            with HttpServerThread(n_shards=1, seed=0) as handle:
                with HttpMaxCutClient(handle.host, handle.port) as client:
                    status, payload = client.request(
                        "POST",
                        "/solve",
                        {"graph": {"n_nodes": 4, "edges": []}, **extra},
                    )
                merged = handle.merged_metrics()
            assert (status, payload["code"]) == (400, "bad-request")
            assert "unknown request keys" in payload["error"]
            assert merged.count("requests") == 0

    @pytest.mark.parametrize(
        "edge, message",
        [
            # A 401-digit weight: beyond float64, so not finite.
            (b"[0, 1, 1" + b"0" * 400 + b"]", "edge 0 weight must be finite"),
            (b"[0, 1, NaN]", "edge 0 weight must be finite"),
            (b"[0, 1, -Infinity]", "edge 0 weight must be finite"),
            # Beyond int64, where a float64 cast used to wrap it negative.
            (b"[0, 1" + b"0" * 30 + b"]", "edge 0 endpoint is out of range [0, 4)"),
        ],
        ids=["weight-401-digits", "weight-nan", "weight-minus-inf", "endpoint-1e30"],
    )
    def test_out_of_range_wire_numbers_are_400(self, edge, message):
        body = b'{"graph": {"n_nodes": 4, "edges": [' + edge + b"]}}"
        with HttpServerThread(n_shards=1, seed=0) as handle:
            status, payload, _ = post_raw_body(handle.host, handle.port, body)
            merged = handle.merged_metrics()
        assert (status, payload["code"], payload["error"]) == (
            400,
            "bad-request",
            message,
        )
        assert merged.count("requests") == 0

    def test_integer_literal_past_the_digit_limit_is_400(self):
        # json.loads refuses integer literals of more than 4,300 digits
        # with a ValueError that is not a JSONDecodeError.
        body = b'{"graph": {"n_nodes": ' + b"1" * 5000 + b', "edges": []}}'
        with HttpServerThread(n_shards=1, seed=0) as handle:
            status, payload, _ = post_raw_body(handle.host, handle.port, body)
        assert (status, payload["code"]) == (400, "bad-request")
        assert payload["error"].startswith("invalid JSON body: ")

    def test_oversized_graph_is_400(self):
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"max_nodes": 16}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request(
                    "POST", "/solve", {"graph": {"n_nodes": 64, "edges": []}}
                )
        assert (status, payload["code"]) == (400, "bad-request")
        assert "service limit" in payload["error"]

    def test_malformed_request_line_is_400(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                raw = sock.recv(65536)
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"bad-request" in raw

    def test_chunked_bodies_are_400(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )
                raw = sock.recv(65536)
        assert raw.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize(
        "value, message",
        [
            (b"1_0", b"malformed Content-Length"),
            (b"+10", b"malformed Content-Length"),
            (b"0x0a", b"malformed Content-Length"),
            (b"10\xa0", b"malformed Content-Length"),
            (b"-10", b"negative Content-Length"),
        ],
        ids=["underscore", "plus-sign", "hex", "no-break-space", "negative"],
    )
    def test_content_length_is_ascii_digits_only(self, value, message):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            raw = exchange_raw(
                handle.host,
                handle.port,
                b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + value + b"\r\n\r\n0123456789",
            )
            merged = handle.merged_metrics()
        assert raw.startswith(b"HTTP/1.1 400")
        assert message in raw
        assert merged.count("requests") == 0

    def test_pipelined_request_after_a_malformed_length_is_not_served(self):
        # int() would frame "1_0" as a 10-byte body and then answer the
        # pipelined GET; a proxy that reads the header otherwise would
        # take those bytes as the body.  The server answers one 400 and
        # closes instead.
        with HttpServerThread(n_shards=1, seed=0) as handle:
            raw = exchange_raw(
                handle.host,
                handle.port,
                b"POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 1_0"
                b"\r\n\r\n0123456789GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        assert raw.startswith(b"HTTP/1.1 400")
        assert raw.count(b"HTTP/1.1 ") == 1
        assert b"malformed Content-Length" in raw

    @pytest.mark.parametrize(
        "first, second", [(b"5", b"10"), (b"10", b"5")], ids=["5-then-10", "10-then-5"]
    )
    def test_repeated_content_length_is_400_and_closes(self, first, second):
        # Keeping either value frames the body one way, and a proxy in
        # front may have kept the other: the last of "5, 10" would answer
        # the pipelined GET.  The server answers one 400 and closes.
        with HttpServerThread(n_shards=1, seed=0) as handle:
            raw = exchange_raw(
                handle.host,
                handle.port,
                b"POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + first
                + b"\r\nContent-Length: "
                + second
                + b"\r\n\r\n0123456789GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        assert raw.startswith(b"HTTP/1.1 400")
        assert raw.count(b"HTTP/1.1 ") == 1
        assert b"repeated Content-Length" in raw


def exchange_raw(host, port, request: bytes) -> bytes:
    """Send raw request bytes and read everything until the server closes."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# 413 payload-too-large
# ---------------------------------------------------------------------------
class TestPayloadTooLarge:
    def test_oversized_body_rejected_before_parse(self):
        # The body is deliberately NOT valid JSON: a 400 would prove the
        # server parsed it; the documented 413 proves it was rejected on
        # Content-Length alone and no shard was touched.
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"max_body_bytes": 2048}
        ) as handle:
            status, payload, _ = post_raw_body(
                handle.host, handle.port, b"x" * 8192
            )
            merged = handle.merged_metrics()
        assert (status, payload["code"]) == (413, "payload-too-large")
        assert merged.count("requests") == 0

    def test_connection_survives_a_413(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=1)
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"max_body_bytes": 2048}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request(
                    "POST", "/solve", {"pad": "y" * 8192}
                )
                assert (status, payload["code"]) == (413, "payload-too-large")
                # Same client, same keep-alive socket: still serviceable.
                result = client.solve(graph, seed=1, **OPTIONS)
        ref = MaxCutService(seed=0).solve(graph, seed=1, **OPTIONS)
        assert result.cut == ref.cut


# ---------------------------------------------------------------------------
# 502 solve-failed
# ---------------------------------------------------------------------------
class TestSolveFailed:
    def test_captured_solve_error_is_502_and_never_cached(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                for _ in range(2):
                    with pytest.raises(RequestError):
                        client.solve(graph, seed=1, method="no-such-method")
                # The server keeps serving real requests afterwards.
                good = client.solve(graph, seed=1, **OPTIONS)
            merged = handle.merged_metrics()
        assert not good.failed
        # Two captured errors, zero cache hits: error results are never
        # cached, each resubmission is solved (and fails) afresh.
        assert merged.count("errors") == 2
        assert merged.count("hits_memory") == 0

    def test_502_body_carries_the_documented_code(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                status, payload = client.request(
                    "POST",
                    "/solve",
                    request_to_wire(
                        build_request(graph, seed=1, method="no-such-method")
                    ),
                )
        assert (status, payload["code"]) == (502, "solve-failed")
        assert payload["status"] == "error"


# ---------------------------------------------------------------------------
# 503 overloaded (+ Retry-After)
# ---------------------------------------------------------------------------
class TestOverloaded:
    def test_admission_reject_is_503_with_retry_after(self):
        graphs = [
            erdos_renyi(9, 0.4, weighted=True, rng=100 + i) for i in range(3)
        ]
        gate, entered = threading.Event(), threading.Event()
        handle = HttpServerThread(
            n_shards=1,
            queue_depth=1,
            max_batch=1,
            admission="reject",
            service_factory=lambda k, metrics: GatedService(
                gate, entered, seed=0, metrics=metrics
            ),
        ).start()

        def blocked_solve(graph):
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.solve(graph, seed=1, **OPTIONS)

        first = threading.Thread(target=blocked_solve, args=(graphs[0],))
        second = threading.Thread(target=blocked_solve, args=(graphs[1],))
        try:
            # Sequenced so there is no admission race: the worker holds
            # graph 0 before graph 1 is posted, so graph 1 fills the
            # depth-1 queue and graph 2 must be rejected.
            first.start()
            assert entered.wait(timeout=60)
            second.start()
            deadline = time.monotonic() + 30
            while sum(handle.server.router.loads) < 2:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.01)
            with HttpMaxCutClient(handle.host, handle.port) as client:
                with pytest.raises(ServerOverloaded) as excinfo:
                    client.solve(graphs[2], seed=1, **OPTIONS)
                assert excinfo.value.retry_after == 1.0
                assert client.last_headers.get("Retry-After") == "1"
        finally:
            gate.set()
            first.join(timeout=60)
            if second.ident is not None:
                second.join(timeout=60)
            handle.stop()
        assert handle.merged_metrics().count("rejected") == 1


# ---------------------------------------------------------------------------
# 504 deadline-exceeded
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_deadline_is_504_and_does_not_poison_the_solve(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=5)
        gate, entered = threading.Event(), threading.Event()
        handle = HttpServerThread(
            n_shards=1,
            max_batch=1,
            service_factory=lambda k, metrics: GatedService(
                gate, entered, seed=0, metrics=metrics
            ),
        ).start()
        try:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                with pytest.raises(HttpResponseError) as excinfo:
                    client.solve(graph, seed=1, deadline_s=0.3, **OPTIONS)
                assert excinfo.value.status == 504
                assert excinfo.value.code == "deadline-exceeded"
                # Release the gated solve; the shield kept it running.
                gate.set()
                deadline = time.monotonic() + 60
                while handle.merged_metrics().count("solves") < 1:
                    assert time.monotonic() < deadline, "solve never finished"
                    time.sleep(0.02)
                retry = client.solve(graph, seed=1, **OPTIONS)
        finally:
            gate.set()
            handle.stop()
        ref = MaxCutService(seed=0).solve(graph, seed=1, **OPTIONS)
        # Served from the completed first solve, not re-solved or poisoned.
        assert retry.status in ("hit-memory", "coalesced-inflight")
        assert retry.cut == ref.cut
        assert handle.merged_metrics().count("solves") == 1
