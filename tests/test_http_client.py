"""HttpMaxCutClient behaviour: exception mapping, keep-alive retry after
server-side idle close, calling styles, lifecycle (ISSUE 8)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs import Graph, erdos_renyi
from repro.service import (
    HttpMaxCutClient,
    HttpResponseError,
    MaxCutService,
    RequestError,
    ServerOverloaded,
    build_request,
)
from repro.service.http import RETRY_AFTER_S, HttpServerThread

pytestmark = pytest.mark.timeout(120)

OPTIONS = {"layers": 1, "maxiter": 15}


# ---------------------------------------------------------------------------
# Exception mapping (the wire -> exception half of the error contract)
# ---------------------------------------------------------------------------
class TestRaiseFor:
    def client(self):
        return HttpMaxCutClient("localhost", 1)  # never connected

    def test_overloaded_maps_to_server_overloaded(self):
        client = self.client()
        with pytest.raises(ServerOverloaded) as excinfo:
            client._raise_for(503, {"code": "overloaded", "error": "full"})
        # No Retry-After header seen -> the documented default.
        assert excinfo.value.retry_after == float(RETRY_AFTER_S)

    def test_retry_after_header_is_parsed(self):
        client = self.client()
        client.last_headers = {"Retry-After": "7"}
        with pytest.raises(ServerOverloaded) as excinfo:
            client._raise_for(503, {"code": "overloaded", "error": "full"})
        assert excinfo.value.retry_after == 7.0

    def test_solve_failed_maps_to_request_error(self):
        with pytest.raises(RequestError, match="boom"):
            self.client()._raise_for(502, {"code": "solve-failed", "error": "boom"})

    def test_anything_else_is_http_response_error(self):
        with pytest.raises(HttpResponseError) as excinfo:
            self.client()._raise_for(418, {"code": "teapot", "error": "short"})
        error = excinfo.value
        assert error.status == 418
        assert error.code == "teapot"
        assert error.payload == {"code": "teapot", "error": "short"}
        assert "HTTP 418 [teapot]: short" in str(error)

    def test_payload_without_code_still_raises(self):
        with pytest.raises(HttpResponseError) as excinfo:
            self.client()._raise_for(500, {})
        assert excinfo.value.code == "unknown"


# ---------------------------------------------------------------------------
# Calling styles
# ---------------------------------------------------------------------------
class TestCallingStyles:
    def test_prebuilt_request_equals_graph_plus_options(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=3)
        request = build_request(graph, seed=4, **OPTIONS)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                via_request = client.solve(request=request)
                via_options = client.solve(graph, seed=4, **OPTIONS)
        assert via_request.digest == via_options.digest
        assert via_request.cut == via_options.cut
        assert np.array_equal(via_request.assignment, via_options.assignment)

    def test_neither_graph_nor_request_raises(self):
        client = HttpMaxCutClient("localhost", 1)
        with pytest.raises(ValueError, match="graph or a request"):
            client.solve()

    def test_both_graph_and_request_raises(self):
        graph = erdos_renyi(6, 0.5, weighted=True, rng=0)
        client = HttpMaxCutClient("localhost", 1)
        with pytest.raises(ValueError, match="not both"):
            client.solve(graph, request=build_request(graph))


# ---------------------------------------------------------------------------
# The request body on the wire
# ---------------------------------------------------------------------------
class _CannedResponse:
    status = 200

    def __init__(self, body: bytes) -> None:
        self._body = body

    def read(self) -> bytes:
        return self._body

    def getheaders(self):
        return [("Content-Type", "application/json")]

    def getheader(self, name, default=None):
        return dict(self.getheaders()).get(name, default)


class _RecordingConnection:
    """Stands in for the client's HTTPConnection: keeps what is sent."""

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.sent: list = []

    def request(self, method, path, body=None, headers=None):
        self.sent.append((method, path, body, dict(headers or {})))

    def getresponse(self):
        return _CannedResponse(self.reply)

    def close(self):
        pass


class TestRequestBody:
    def test_solve_sends_the_pinned_body(self):
        """The exact bytes of one weighted graph with numpy-typed options:
        a faster encoder must not move one of them."""
        graph = erdos_renyi(5, 0.6, weighted=True, rng=3)
        connection = _RecordingConnection(
            b'{"digest":"d","status":"hit-memory","assignment":[0,1,1,0,1],'
            b'"cut":2.5,"method":"qaoa","seed":11,"elapsed":0.001,'
            b'"params":null,"extra":{}}'
        )
        client = HttpMaxCutClient("localhost", 1)  # never connected
        client._conn = connection  # type: ignore[assignment]
        result = client.solve(
            graph,
            layers=np.int64(2),
            maxiter=np.int32(20),
            rhobeg=np.float64(0.25),
            seed=np.int64(11),
            deadline_s=np.float64(2.5),
        )
        assert connection.sent == [
            (
                "POST",
                "/solve",
                b'{"graph": {"n_nodes": 5, "edges": [[0, 1, 0.39122819049566204], '
                b"[0, 2, 0.5167401826213637], [0, 4, 0.4306280204141778], "
                b"[1, 2, 0.5867985714381407], [1, 3, 0.7378377872921602], "
                b"[1, 4, 0.9562672548360985], [2, 3, 0.28420116374879145], "
                b'[3, 4, 0.648547207079825]]}, "options": {"layers": 2, '
                b'"maxiter": 20, "rhobeg": 0.25}, "seed": 11, "deadline_s": 2.5}',
                {"Content-Type": "application/json"},
            )
        ]
        assert result.assignment.tolist() == [0, 1, 1, 0, 1]
        # Every other field, and a deadline strict JSON cannot carry.
        client.solve(
            Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 2)]),
            method="gw",
            gw_options={"rounds": np.int64(4)},
            qaoa_grid=[{"p": np.int64(1)}],
            deadline_s=float("inf"),
        )
        assert connection.sent[1][2] == (
            b'{"graph": {"n_nodes": 3, "edges": [[0, 1, 0.5], [1, 2, 2.0]]}, '
            b'"method": "gw", "qaoa_grid": [{"p": 1}], "gw_options": {"rounds": 4}, '
            b'"deadline_s": null}'
        )


# ---------------------------------------------------------------------------
# Connection lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_context_manager_closes_connection(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.healthz()
                assert client._conn is not None
            assert client._conn is None

    def test_retry_after_server_side_idle_close(self):
        # The server reaps idle kept-alive connections after keepalive_s;
        # the client must transparently retry once on the stale socket
        # instead of surfacing a connection error.
        with HttpServerThread(
            n_shards=1, seed=0, http_options={"keepalive_s": 0.3}
        ) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                assert client.healthz()["status"] == "ok"
                time.sleep(1.0)  # server closes the idle connection
                assert client.healthz()["status"] == "ok"

    def test_last_headers_recorded(self):
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                client.healthz()
                assert client.last_headers.get("Content-Type") == "application/json"

    def test_solve_result_types_decode(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=6)
        ref = MaxCutService(seed=0).solve(graph, seed=2, **OPTIONS)
        with HttpServerThread(n_shards=1, seed=0) as handle:
            with HttpMaxCutClient(handle.host, handle.port) as client:
                result = client.solve(graph, seed=2, **OPTIONS)
        assert result.assignment.dtype == np.uint8
        assert isinstance(result.cut, float)
        assert isinstance(result.seed, int)
        assert result.cut == ref.cut
