"""HttpMaxCutClient behaviour: exception mapping, the request bytes and
response framing on its own keep-alive socket, the one retry after a
server-side close, calling styles, lifecycle."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

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
REPO_ROOT = Path(__file__).resolve().parent.parent


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
# A scripted raw-socket server: the client's framing seen from the wire
# ---------------------------------------------------------------------------
def read_request(conn: socket.socket) -> bytes:
    """One request off ``conn``: its head and ``Content-Length`` body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


def response(body: bytes = b'{"status":"ok"}', *headers: bytes) -> bytes:
    """A 200 JSON response with ``Content-Length`` and any extra headers."""
    lines = [
        b"HTTP/1.1 200 OK",
        b"Content-Type: application/json",
        b"Content-Length: %d" % len(body),
        *headers,
    ]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def replies(*messages: bytes, per_byte: bool = False):
    """Script: answer one request per message, then wait for the client's close.

    ``per_byte`` sends each message one byte per ``send``.
    """

    def script(server: "ScriptedServer", conn: socket.socket) -> None:
        for message in messages:
            server.requests.append(read_request(conn))
            if per_byte:
                for byte in message:
                    conn.sendall(bytes([byte]))
                    time.sleep(0.0005)
            else:
                conn.sendall(message)
        server.eofs.append(conn.recv(1) == b"")

    return script


def hang_up(server: "ScriptedServer", conn: socket.socket) -> None:
    """Script: read one request and close without replying."""
    server.requests.append(read_request(conn))


class ScriptedServer:
    """A listening socket that runs one script per accepted connection.

    Scripts run in order on a background thread; ``requests`` holds every
    request they read and ``accepted`` counts the connections.
    """

    def __init__(self, *scripts) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self.scripts = list(scripts)
        self.requests: list = []
        self.eofs: list = []
        self.accepted = 0
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "ScriptedServer":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stopped.set()
        self.thread.join(timeout=30)
        self.listener.close()
        assert not self.thread.is_alive()

    def _run(self) -> None:
        scripts = iter(self.scripts)
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(30)
                self.accepted += 1
                script = next(scripts, None)
                if script is None:
                    return
                script(self, conn)


HIT_BODY = (
    b'{"digest":"d","status":"hit-memory","assignment":[0,1,1,0,1],'
    b'"cut":2.5,"method":"qaoa","seed":11,"elapsed":0.001,'
    b'"params":null,"extra":{}}'
)


def request_body(raw: bytes) -> bytes:
    return raw.partition(b"\r\n\r\n")[2]


# ---------------------------------------------------------------------------
# The request body on the wire
# ---------------------------------------------------------------------------
class TestRequestBody:
    def test_solve_sends_the_pinned_body(self):
        """The exact bytes of one weighted graph with numpy-typed options:
        a faster encoder must not move one of them."""
        graph = erdos_renyi(5, 0.6, weighted=True, rng=3)
        answers = replies(response(HIT_BODY), response(HIT_BODY))
        with ScriptedServer(answers) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                result = client.solve(
                    graph,
                    layers=np.int64(2),
                    maxiter=np.int32(20),
                    rhobeg=np.float64(0.25),
                    seed=np.int64(11),
                    deadline_s=np.float64(2.5),
                )
                # Every other field, and a deadline strict JSON cannot carry.
                client.solve(
                    Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 2)]),
                    method="gw",
                    gw_options={"rounds": np.int64(4)},
                    qaoa_grid=[{"p": np.int64(1)}],
                    deadline_s=float("inf"),
                )
        body = (
            b'{"graph": {"n_nodes": 5, "edges": [[0, 1, 0.39122819049566204], '
            b"[0, 2, 0.5167401826213637], [0, 4, 0.4306280204141778], "
            b"[1, 2, 0.5867985714381407], [1, 3, 0.7378377872921602], "
            b"[1, 4, 0.9562672548360985], [2, 3, 0.28420116374879145], "
            b'[3, 4, 0.648547207079825]]}, "options": {"layers": 2, '
            b'"maxiter": 20, "rhobeg": 0.25}, "seed": 11, "deadline_s": 2.5}'
        )
        assert server.accepted == 1  # both requests on one kept-alive socket
        assert server.requests[0] == (
            b"POST /solve HTTP/1.1\r\n"
            b"Host: 127.0.0.1:%d\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % (server.port, len(body))
        ) + body
        assert result.assignment.tolist() == [0, 1, 1, 0, 1]
        assert request_body(server.requests[1]) == (
            b'{"graph": {"n_nodes": 3, "edges": [[0, 1, 0.5], [1, 2, 2.0]]}, '
            b'"method": "gw", "qaoa_grid": [{"p": 1}], "gw_options": {"rounds": 4}, '
            b'"deadline_s": null}'
        )

    def test_numpy_string_method_is_sent_as_a_string(self):
        with ScriptedServer(replies(response(HIT_BODY))) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                client.solve(
                    Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 2)]),
                    method=np.str_("gw"),
                )
        assert request_body(server.requests[0]) == (
            b'{"graph": {"n_nodes": 3, "edges": [[0, 1, 0.5], [1, 2, 2.0]]}, '
            b'"method": "gw"}'
        )

    def test_get_sends_no_body(self):
        with ScriptedServer(replies(response())) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                client.request("GET", "/healthz", headers={"X-Repro-Trace": "t1"})
        assert server.requests == [
            b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
            b"X-Repro-Trace: t1\r\n\r\n" % server.port
        ]

    @pytest.mark.parametrize(
        "path, headers",
        [
            ("/healthz", {"X-Repro-Trace": "a\r\nContent-Length: 9"}),
            ("/trace/a b", {}),
            ("/healthz\n", {}),
            ("/healthz", {"X\nY": "1"}),
        ],
        ids=["crlf-in-value", "space-in-path", "lf-in-path", "lf-in-name"],
    )
    def test_a_field_that_would_break_the_head_is_refused(self, path, headers):
        client = HttpMaxCutClient("127.0.0.1", 1)  # never connected
        with pytest.raises(ValueError, match="not one line"):
            client.request("GET", path, headers=headers)
        assert client._conn is None


# ---------------------------------------------------------------------------
# Response framing on one keep-alive socket
# ---------------------------------------------------------------------------
class TestFraming:
    def test_response_arriving_one_byte_per_send(self):
        first = response(b'{"n":1}', b"X-Repro-Trace: t-1")
        second = response(b'{"n":2}')
        with ScriptedServer(replies(first, second, per_byte=True)) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                assert client.request("GET", "/a") == (200, {"n": 1})
                assert client.last_trace_id == "t-1"
                assert client.request("GET", "/b") == (200, {"n": 2})
                assert client.last_trace_id == ""
        assert server.accepted == 1
        assert server.eofs == [True]

    def test_connection_close_closes_and_the_next_request_reconnects(self):
        closing = response(b'{"n":1}', b"Connection: close")
        with ScriptedServer(replies(closing), replies(response())) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                assert client.request("GET", "/a") == (200, {"n": 1})
                assert client._conn is None
                assert client.healthz() == {"status": "ok"}
                assert client._conn is not None
        assert server.accepted == 2
        assert server.eofs == [True, True]  # the client closed both sockets

    def test_a_hang_up_is_retried_once(self):
        with ScriptedServer(hang_up, replies(response())) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                assert client.healthz() == {"status": "ok"}
        assert server.accepted == 2
        assert len(server.requests) == 2
        assert server.requests[0] == server.requests[1]

    def test_a_second_hang_up_raises_connection_error(self):
        scripts = (hang_up, hang_up, replies(response()))
        with ScriptedServer(*scripts) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                with pytest.raises(ConnectionError, match="without a response"):
                    client.healthz()
                assert client._conn is None
                assert len(server.requests) == 2  # one retry, no more
                assert client.healthz() == {"status": "ok"}
        assert server.accepted == 3

    def test_malformed_status_line_leaves_no_buffer_behind(self):
        # Each bad reply is followed by a well-formed one that no later
        # request may be answered from.
        stale = response(b'{"stale":true}')
        bad = b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}" + stale
        scripts = (replies(bad), replies(bad), replies(response(b'{"n":3}')))
        with ScriptedServer(*scripts) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                with pytest.raises(ConnectionError, match="malformed status line"):
                    client.request("GET", "/a")
                assert client._conn is None
                assert not client._buffer
                assert client.request("GET", "/a") == (200, {"n": 3})
        assert server.accepted == 3

    def test_header_case_is_kept(self):
        raw = (
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
            b"X-Custom-CASE:  v \r\ncontent-LENGTH: 7\r\n\r\n" + b'{"n":1}'
        )
        with ScriptedServer(replies(raw)) as server:
            with HttpMaxCutClient("127.0.0.1", server.port) as client:
                assert client.request("GET", "/a") == (200, {"n": 1})
                assert client.last_headers == {
                    "content-type": "application/json",
                    "X-Custom-CASE": "v",
                    "content-LENGTH": "7",
                }

    def test_read_timeout_closes_the_socket_without_a_retry(self):
        released = threading.Event()

        def stall(server, conn):
            server.requests.append(read_request(conn))
            released.wait(timeout=30)

        with ScriptedServer(stall) as server:
            try:
                with HttpMaxCutClient(
                    "127.0.0.1", server.port, timeout=0.2
                ) as client:
                    with pytest.raises(TimeoutError):
                        client.healthz()
                    assert client._conn is None
            finally:
                released.set()
        assert len(server.requests) == 1

    def test_importing_the_client_loads_no_stdlib_http_parser(self):
        script = (
            "import sys\n"
            "import repro.service.client\n"
            "loaded = sorted({'http.client', 'email.parser'} & set(sys.modules))\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            timeout=120,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


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
