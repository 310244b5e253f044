"""Blocking HTTP client for the MaxCut serving stack.

:class:`HttpMaxCutClient` is the stdlib (:mod:`http.client`) counterpart
to :mod:`repro.service.http`: one persistent keep-alive connection, the
documented JSON wire schemas (``docs/http-api.md``), and the error
contract mapped back onto the service's own exception types —

* 503 ``overloaded``        -> :class:`repro.service.ServerOverloaded`
  (with the parsed ``Retry-After`` seconds on ``.retry_after``)
* 502 ``solve-failed``      -> :class:`repro.service.RequestError`
* any other non-200         -> :class:`HttpResponseError` (status, code,
  payload)

so callers can swap ``AsyncMaxCutServer.solve`` for a wire round-trip
without changing their error handling.  The client is synchronous by
design: benchmark client threads, examples and tests all drive it from
plain threads.
"""

from __future__ import annotations

import http.client
import json
from typing import Optional, Tuple

from repro.graphs.graph import Graph
from repro.qaoa2.solver import SolveRequest
from repro.service.http import (
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
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = DEFAULT_TIMEOUT_S
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Response headers of the most recent round-trip (Retry-After &c).
        self.last_headers: dict = {}
        #: Trace id echoed by the most recent round-trip ("" if untraced).
        self.last_trace_id: str = ""

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

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
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = dict(headers or {})
        if body is not None:
            headers.setdefault("Content-Type", "application/json")
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError):
                self.close()
                if attempt:
                    raise
        status = response.status
        self.last_headers = {name: value for name, value in response.getheaders()}
        self.last_trace_id = str(self.last_headers.get(TRACE_HEADER, ""))
        content_type = str(response.getheader("Content-Type") or "")
        if content_type.startswith("text/plain"):
            if response.getheader("Connection", "").lower() == "close":
                self.close()
            return status, {"text": raw.decode("utf-8")}
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpResponseError(
                status, {"code": "bad-response", "error": f"undecodable body: {exc}"}
            ) from exc
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return status, decoded

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
