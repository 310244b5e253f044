"""Blocking HTTP client for the MaxCut serving stack.

:class:`HttpMaxCutClient` is the blocking counterpart to
:mod:`repro.service.http`: one keep-alive TCP socket, the documented JSON
wire schemas (``docs/http-api.md``), and the error contract mapped back
onto the service's own exception types —

* 503 ``overloaded``        -> :class:`repro.service.ServerOverloaded`
  (with the parsed ``Retry-After`` seconds on ``.retry_after``)
* 502 ``solve-failed``      -> :class:`repro.service.RequestError`
* any other non-200         -> :class:`HttpResponseError` (status, code,
  payload)

so callers can swap ``AsyncMaxCutServer.solve`` for a wire round-trip
without changing their error handling.  The client is synchronous by
design: benchmark client threads, examples and tests all drive it from
plain threads.

It frames HTTP/1.1 itself, in the subset the server speaks: a request's
head and body leave in one ``sendall`` on a ``TCP_NODELAY`` socket, and a
response is parsed from one receive buffer — status line, headers, then
exactly ``Content-Length`` body bytes (no chunked bodies).  A response
it cannot frame is a :class:`ConnectionError`, like a closed or reset
socket.  Framing the subset directly keeps the stdlib's general parser
(:mod:`http.client` and its ``email.parser`` header parse) off every
cache hit's round trip.
"""

from __future__ import annotations

import json
import re
import socket
from typing import Optional, Tuple

from repro.graphs.graph import Graph
from repro.qaoa2.solver import SolveRequest
from repro.service.http import (
    MAX_HEADER_BYTES,
    RETRY_AFTER_S,
    TRACE_HEADER,
    TRACE_ROUTE_PREFIX,
    jsonable,
    request_to_wire,
    result_from_wire,
)
from repro.service.server import RequestError, ServerOverloaded
from repro.service.service import ServiceResult, build_request

DEFAULT_TIMEOUT_S = 300.0

_STATUS_LINE = re.compile(r"HTTP/1\.[0-9] ([0-9]{3})(?: |$)")


class HttpResponseError(RuntimeError):
    """A non-200 response outside the overloaded/solve-failed contract."""

    def __init__(self, status: int, payload: dict) -> None:
        code = payload.get("code", "unknown")
        message = payload.get("error", "no error message")
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = int(status)
        self.code = str(code)
        self.payload = dict(payload)


class HttpMaxCutClient:
    """One keep-alive connection to an :class:`HttpMaxCutServer`.

    ::

        with HttpMaxCutClient(host, port) as client:
            result = client.solve(graph, layers=2, maxiter=30, seed=5)

    Not thread-safe (one underlying socket): give each client thread its
    own instance — connections are cheap and kept alive across requests.
    ``timeout`` bounds the connect and every send and receive.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = DEFAULT_TIMEOUT_S
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[socket.socket] = None
        #: Bytes received on ``_conn`` past the end of the last response.
        self._buffer = bytearray()
        authority = f"[{host}]" if ":" in host else host
        self._host_line = f"Host: {authority}:{self.port}\r\n"
        #: Response headers of the most recent round-trip (Retry-After &c).
        self.last_headers: dict = {}
        #: Trace id echoed by the most recent round-trip ("" if untraced).
        self.last_trace_id: str = ""

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> socket.socket:
        if self._conn is None:
            self._conn = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._conn

    def close(self) -> None:
        """Close the socket and drop unread bytes; a later request reconnects."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._buffer = bytearray()

    def __enter__(self) -> "HttpMaxCutClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        headers: Optional[dict] = None,
    ) -> Tuple[int, dict]:
        """One round-trip; returns ``(status, decoded JSON body)``.

        Text responses (``GET /metrics``) are wrapped as ``{"text": ...}``.
        Retries exactly once on a stale keep-alive socket (the server
        closed an idle connection between our requests) — a fresh
        connection distinguishes "server gone" from "connection expired".
        """
        return self._round_trip(method, path, jsonable(payload), headers)

    def _round_trip(
        self,
        method: str,
        path: str,
        payload: Optional[dict],
        headers: Optional[dict],
    ) -> Tuple[int, dict]:
        """:meth:`request` for a payload already made of strict-JSON builtins."""
        fields = dict(headers or {})
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            fields.setdefault("Content-Type", "application/json")
            fields["Content-Length"] = len(body)
        texts = (method, path, *fields, *map(str, fields.values()))
        if " " in method + path or not all(map(str.isprintable, texts)):
            raise ValueError(f"request line or header is not one line: {texts!r}")
        head = f"{method} {path} HTTP/1.1\r\n{self._host_line}" + "".join(
            f"{name}: {value}\r\n" for name, value in fields.items()
        )
        message = (head + "\r\n").encode("latin-1") + body
        for attempt in (0, 1):
            try:
                status, content_type, raw = self._exchange(message)
                break
            except BaseException as exc:
                # The socket's framing is lost: never reuse it.  A
                # connection failure (a stale keep-alive socket, reset,
                # refused, or a response that cannot be framed) gets one
                # retry on a fresh socket.
                self.close()
                if attempt or not isinstance(exc, ConnectionError):
                    raise
        if content_type.startswith("text/plain"):
            return status, {"text": raw.decode("utf-8")}
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpResponseError(
                status, {"code": "bad-response", "error": f"undecodable body: {exc}"}
            ) from exc
        return status, decoded

    def _exchange(self, message: bytes) -> Tuple[int, str, bytes]:
        """Send one request; read its response off the kept-alive socket.

        Sets :attr:`last_headers` (names in the server's case) and
        :attr:`last_trace_id`, closes the socket on ``Connection: close``
        and returns ``(status, Content-Type, body)``.
        """
        sock = self._connection()
        sock.sendall(message)
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            if len(buffer) > MAX_HEADER_BYTES:
                raise ConnectionError(
                    f"response head exceeds {MAX_HEADER_BYTES} bytes"
                )
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError(
                    "server closed the connection without a response"
                )
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        status_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
        match = _STATUS_LINE.match(status_line)
        if match is None:
            raise ConnectionError(f"malformed status line {status_line!r}")
        headers = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if not sep:
                raise ConnectionError(f"malformed header line {line!r}")
            headers[name] = value.strip()
        folded = {name.lower(): value for name, value in headers.items()}
        length = folded.get("content-length", "")
        if not length.isdecimal():  # absent, negative, or a chunked body
            raise ConnectionError(
                f"response without a usable Content-Length: {length!r}"
            )
        start = end + 4
        stop = start + int(length)
        while len(buffer) < stop:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        raw = bytes(buffer[start:stop])
        del buffer[:stop]
        self.last_headers = headers
        self.last_trace_id = headers.get(TRACE_HEADER, "")
        if folded.get("connection", "").lower() == "close":
            self.close()
        return int(match.group(1)), folded.get("content-type", ""), raw

    def _raise_for(self, status: int, payload: dict) -> None:
        if payload.get("code") == "overloaded":
            error = ServerOverloaded(payload.get("error", "server overloaded"))
            error.retry_after = float(  # type: ignore[attr-defined]
                self.last_headers.get("Retry-After", RETRY_AFTER_S)
            )
            raise error
        if payload.get("code") == "solve-failed":
            raise RequestError(payload.get("error", "solve failed"))
        raise HttpResponseError(status, payload)

    # -- API -----------------------------------------------------------
    def solve(
        self,
        graph: Optional[Graph] = None,
        *,
        request: Optional[SolveRequest] = None,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
        **options,
    ) -> ServiceResult:
        """Solve over the wire; mirrors ``AsyncMaxCutServer.solve``.

        Accepts the same two calling styles as every facade in the stack
        (a prebuilt :class:`SolveRequest`, or graph + keyword knobs) plus
        ``deadline_s``, the server-side per-request deadline, and
        ``trace_id``, sent as ``X-Repro-Trace`` so a tracing server names
        the request's trace; the echoed id lands on ``last_trace_id``.
        """
        solve_request = build_request(graph, request=request, **options)
        headers = {} if trace_id is None else {TRACE_HEADER: str(trace_id)}
        status, payload = self._round_trip(
            "POST",
            "/solve",
            request_to_wire(solve_request, deadline_s=deadline_s),
            headers,
        )
        if status != 200:
            self._raise_for(status, payload)
        return result_from_wire(payload)

    def healthz(self) -> dict:
        status, payload = self.request("GET", "/healthz")
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def stats(self) -> dict:
        status, payload = self.request("GET", "/stats")
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def metrics(self) -> str:
        """``GET /metrics`` — the raw Prometheus text exposition."""
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            self._raise_for(status, payload)
        return str(payload.get("text", ""))

    def trace(self, trace_id: str) -> dict:
        """``GET /trace/<id>`` — a recorded span tree (with ``"tree"``)."""
        status, payload = self.request("GET", TRACE_ROUTE_PREFIX + str(trace_id))
        if status != 200:
            self._raise_for(status, payload)
        return payload


__all__ = ["DEFAULT_TIMEOUT_S", "HttpMaxCutClient", "HttpResponseError"]
