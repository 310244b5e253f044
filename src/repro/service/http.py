"""HTTP wire transport for :class:`~repro.service.server.AsyncMaxCutServer`.

PR 6 built the in-process heavy-traffic story; this module puts a real
service boundary in front of it — a **stdlib-only** asyncio HTTP/1.1
front end so anything that can speak HTTP (curl, a load balancer, another
language) can reach the sharded solver.  Design goals, in order:

* **nothing between the socket and ``submit()``** — requests are parsed,
  validated and handed straight to :meth:`AsyncMaxCutServer.submit`; all
  coalescing/sharding/admission behaviour is the server's, unchanged;
* **robustness mapping is explicit** — every failure class has one
  documented status code (see :data:`ERROR_CONTRACT` and
  ``docs/http-api.md``; the two must match, pinned by
  ``tests/test_http_docs.py``):

  ==================  ====  =============================================
  code                HTTP  meaning
  ==================  ====  =============================================
  bad-request          400  malformed JSON / invalid request schema
  not-found            404  unknown path
  method-not-allowed   405  known path, wrong HTTP method
  payload-too-large    413  body above ``max_body_bytes``; rejected
                            before the body is read or parsed
  internal-error       500  unexpected transport-layer failure
  solve-failed         502  the shard captured a per-request solve error
                            (``error_mode="capture"``); never cached
  overloaded           503  admission control refused the request
                            (``ServerOverloaded``); carries Retry-After
  deadline-exceeded    504  the request's deadline elapsed mid-solve;
                            the solve itself keeps running so coalesced
                            followers are never poisoned
  ==================  ====  =============================================

* **connections are cheap** — HTTP/1.1 keep-alive by default, bounded
  header/body sizes, per-connection idle timeout, and a graceful drain on
  shutdown (stop accepting, finish in-flight responses, then drain the
  shard queues via :meth:`AsyncMaxCutServer.stop`).

The JSON request/response schemas live in ``docs/http-api.md``; the
blocking counterpart is :class:`repro.service.client.HttpMaxCutClient`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import numbers
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.qaoa2.solver import SolveRequest
from repro.service.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    ServiceMetrics,
    render_prometheus,
)
from repro.service.server import (
    AsyncMaxCutServer,
    RequestError,
    ServerOverloaded,
)
from repro.service.service import ServiceResult
from repro.service.trace import TraceRecorder
from repro.util.tracing import NO_TRACE, NullTraceContext, TraceContext

# ---------------------------------------------------------------------------
# Protocol constants (docs/http-api.md mirrors these; tests pin the match)
# ---------------------------------------------------------------------------

#: Machine-readable error code -> HTTP status.  The single source of
#: truth for the error contract; ``docs/http-api.md`` documents exactly
#: this table and ``tests/test_http_docs.py`` fails if either drifts.
ERROR_CONTRACT: Dict[str, int] = {
    "bad-request": 400,
    "not-found": 404,
    "method-not-allowed": 405,
    "payload-too-large": 413,
    "internal-error": 500,
    "solve-failed": 502,
    "overloaded": 503,
    "deadline-exceeded": 504,
}

#: Seconds a 503 response advises the client to wait before retrying.
RETRY_AFTER_S = 1

DEFAULT_MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is a very large graph
DEFAULT_MAX_NODES = 4096  # statevector solvers cap out far below this
DEFAULT_KEEPALIVE_S = 30.0
MAX_HEADER_BYTES = 16 * 1024
#: Oversized bodies up to this size are read-and-discarded so the 413
#: response can be delivered reliably and the connection kept alive;
#: beyond it the connection is closed instead (the client may observe a
#: reset while still transmitting).
DISCARD_BYTES_CAP = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Route table: path -> allowed HTTP method.  Anything else is 404/405.
#: ``/trace/<id>`` is the one non-exact route; :meth:`_dispatch` matches
#: it by the :data:`TRACE_ROUTE_PREFIX` before this table is consulted.
ROUTES = {
    "/solve": "POST",
    "/healthz": "GET",
    "/stats": "GET",
    "/metrics": "GET",
}

#: Prefix of the span-tree inspection route ``GET /trace/<id>``.
TRACE_ROUTE_PREFIX = "/trace/"

#: Request/response header carrying the trace id.  Clients may send it
#: to name their own trace; traced responses always echo it back.
TRACE_HEADER = "X-Repro-Trace"

_SOLVE_KEYS = frozenset(
    {"graph", "method", "options", "qaoa_grid", "gw_options", "seed", "deadline_s"}
)
_GRAPH_KEYS = frozenset({"n_nodes", "edges"})
_INT64 = np.iinfo(np.int64)


class WireFormatError(ValueError):
    """A request/response payload violates the documented JSON schema."""


# ---------------------------------------------------------------------------
# JSON wire codecs (shared with the blocking client)
# ---------------------------------------------------------------------------
def jsonable(obj):
    """Recursively coerce ``obj`` into strict-JSON-safe builtins.

    NumPy scalars become the Python values ``.item()`` gives and arrays
    become lists; non-finite floats become ``None`` (strict JSON has no
    NaN/Infinity).  A value strict JSON cannot carry (a complex number, a
    date, bytes, a set) raises :class:`TypeError` naming its type.
    """
    # Exact builtins first: a wire payload is mostly ints, floats and
    # lists, which need no ABC checks (``type(True)`` is not ``int``).
    kind = type(obj)
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind is list:
        return [jsonable(item) for item in obj]
    if isinstance(obj, np.generic):
        value = obj.item()
        if not isinstance(value, np.generic):  # .item() keeps long doubles
            return jsonable(value)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    raise TypeError(f"{kind.__name__} value {obj!r} is not strict JSON")


def graph_to_wire(graph: Graph) -> dict:
    """``{"n_nodes": n, "edges": [[u, v, w], ...]}`` (docs/http-api.md)."""
    edges = [
        [a, b, weight]
        for a, b, weight in zip(
            graph.u.tolist(), graph.v.tolist(), graph.w.tolist(), strict=True
        )
    ]
    return {"n_nodes": int(graph.n_nodes), "edges": edges}


def graph_from_wire(payload: object, *, max_nodes: int = DEFAULT_MAX_NODES) -> Graph:
    """Validate and decode the wire graph schema into a :class:`Graph`.

    One pass checks each edge's shape and types (exact ``int``/``float``
    first, as ``json.loads`` makes them) and collects the endpoint and
    weight arrays ``Graph`` canonicalises; ``Graph`` then applies its own
    range, self-loop, duplicate and finiteness checks.
    """
    if not isinstance(payload, dict):
        raise WireFormatError("'graph' must be an object")
    unknown = set(payload) - _GRAPH_KEYS
    if unknown:
        raise WireFormatError(f"unknown graph keys {sorted(unknown)}")
    if "n_nodes" not in payload:
        raise WireFormatError("'graph.n_nodes' is required")
    n_nodes = payload["n_nodes"]
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, int):
        raise WireFormatError("'graph.n_nodes' must be an integer")
    if n_nodes < 0:
        raise WireFormatError("'graph.n_nodes' must be non-negative")
    if n_nodes > max_nodes:
        raise WireFormatError(
            f"'graph.n_nodes' = {n_nodes} exceeds the service limit {max_nodes}"
        )
    edges = payload.get("edges", [])
    if not isinstance(edges, list):
        raise WireFormatError("'graph.edges' must be a list")
    us: List[int] = []
    vs: List[int] = []
    weights: List[float] = []
    for index, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise WireFormatError(
                f"edge {index} must be [u, v] or [u, v, weight]"
            )
        a, b = edge[0], edge[1]
        if type(a) is not int or type(b) is not int:
            for endpoint in (a, b):
                if isinstance(endpoint, bool) or not isinstance(endpoint, int):
                    raise WireFormatError(
                        f"edge {index} endpoints must be integers"
                    )
        weight = edge[2] if len(edge) == 3 else 1.0
        if type(weight) is not float:
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise WireFormatError(f"edge {index} weight must be a number")
            try:
                weight = float(weight)
            except OverflowError:  # an integer literal beyond float64
                weight = math.inf
        if not math.isfinite(weight):
            raise WireFormatError(f"edge {index} weight must be finite")
        us.append(a)
        vs.append(b)
        weights.append(weight)
    try:
        uu = np.array(us, dtype=np.int64)
        vv = np.array(vs, dtype=np.int64)
    except OverflowError:  # an endpoint beyond int64, hence beyond n_nodes
        index = next(
            k
            for k, pair in enumerate(zip(us, vs))
            if min(pair) < _INT64.min or max(pair) > _INT64.max
        )
        raise WireFormatError(
            f"edge {index} endpoint is out of range [0, {n_nodes})"
        ) from None
    try:
        return Graph._from_arrays(
            n_nodes, uu, vv, np.array(weights, dtype=np.float64)
        )
    except ValueError as exc:
        raise WireFormatError(f"invalid graph: {exc}") from exc


def request_to_wire(
    request: SolveRequest, *, deadline_s: Optional[float] = None
) -> dict:
    """Encode a :class:`SolveRequest` as the documented POST /solve body.

    Every value is a strict-JSON builtin already (``jsonable`` returns the
    payload unchanged), so the client serialises it as it stands.
    """
    payload: dict = {"graph": graph_to_wire(request.graph)}
    if request.method != "qaoa":
        payload["method"] = jsonable(request.method)
    if request.options:
        payload["options"] = jsonable(request.options)
    if request.qaoa_grid is not None:
        payload["qaoa_grid"] = jsonable(list(request.qaoa_grid))
    if request.gw_options:
        payload["gw_options"] = jsonable(request.gw_options)
    if request.seed is not None:
        payload["seed"] = int(request.seed)
    if deadline_s is not None:
        payload["deadline_s"] = jsonable(float(deadline_s))
    return payload


def request_from_wire(
    payload: object, *, max_nodes: int = DEFAULT_MAX_NODES
) -> Tuple[SolveRequest, Optional[float]]:
    """Validate and decode a POST /solve body.

    Returns ``(request, deadline_s)``; raises :class:`WireFormatError`
    on any schema violation (mapped to a 400 by the server, before any
    shard is touched).
    """
    if not isinstance(payload, dict):
        raise WireFormatError("request body must be a JSON object")
    unknown = set(payload) - _SOLVE_KEYS
    if unknown:
        raise WireFormatError(f"unknown request keys {sorted(unknown)}")
    if "graph" not in payload:
        raise WireFormatError("'graph' is required")
    graph = graph_from_wire(payload["graph"], max_nodes=max_nodes)
    method = payload.get("method", "qaoa")
    if not isinstance(method, str):
        raise WireFormatError("'method' must be a string")
    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise WireFormatError("'options' must be an object")
    qaoa_grid = payload.get("qaoa_grid")
    if qaoa_grid is not None:
        if not isinstance(qaoa_grid, list) or not all(
            isinstance(point, dict) for point in qaoa_grid
        ):
            raise WireFormatError("'qaoa_grid' must be a list of objects")
    gw_options = payload.get("gw_options", {})
    if not isinstance(gw_options, dict):
        raise WireFormatError("'gw_options' must be an object")
    seed = payload.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise WireFormatError("'seed' must be an integer or null")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        if isinstance(deadline_s, bool) or not isinstance(
            deadline_s, (int, float)
        ):
            raise WireFormatError("'deadline_s' must be a number")
        try:
            deadline_s = float(deadline_s)
        except OverflowError:  # an integer literal beyond float64
            deadline_s = math.inf
        if not deadline_s > 0:
            raise WireFormatError("'deadline_s' must be positive")
    request = SolveRequest(
        graph=graph,
        method=method,
        options=dict(options),
        qaoa_grid=qaoa_grid,
        gw_options=dict(gw_options),
        seed=None if seed is None else int(seed),
    )
    return request, deadline_s


def result_to_wire(result: ServiceResult) -> dict:
    """Encode a :class:`ServiceResult` as the documented 200 body."""
    return {
        "digest": result.digest,
        "status": result.status,
        "assignment": np.asarray(result.assignment, dtype=np.int64).tolist(),
        "cut": jsonable(result.cut),
        "method": result.method,
        "seed": int(result.seed),
        "elapsed": float(result.elapsed),
        "params": None if result.params is None else jsonable(result.params),
        "extra": jsonable(result.extra),
    }


def result_from_wire(payload: dict) -> ServiceResult:
    """Decode a 200 body back into a :class:`ServiceResult` (client side)."""
    try:
        return ServiceResult(
            digest=str(payload["digest"]),
            status=str(payload["status"]),
            assignment=np.asarray(payload["assignment"], dtype=np.uint8),
            cut=float(payload["cut"]),
            method=str(payload["method"]),
            seed=int(payload["seed"]),
            elapsed=float(payload["elapsed"]),
            params=(
                None
                if payload.get("params") is None
                else [float(p) for p in payload["params"]]
            ),
            extra=dict(payload.get("extra") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed result payload: {exc}") from exc


# ---------------------------------------------------------------------------
# The asyncio HTTP server
# ---------------------------------------------------------------------------
class _HttpReject(Exception):
    """Internal: abort the current request with a specific error code."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        close: bool = False,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = ERROR_CONTRACT[code]
        self.close = close
        self.headers = tuple(headers)


class _Request:
    __slots__ = ("method", "path", "body", "keep_alive", "trace_id")

    def __init__(
        self,
        method: str,
        path: str,
        body: bytes,
        keep_alive: bool,
        trace_id: str = "",
    ):
        self.method = method
        self.path = path
        self.body = body
        self.keep_alive = keep_alive
        self.trace_id = trace_id


class HttpMaxCutServer:
    """Asyncio HTTP/1.1 front end over one :class:`AsyncMaxCutServer`.

    Knobs
    -----
    ``max_body_bytes``     request bodies above this are answered 413
                           *before* being read or parsed
    ``max_nodes``          graphs above this node count are answered 400
    ``keepalive_s``        idle seconds before a kept-alive connection
                           is closed
    ``traces``             a :class:`TraceRecorder` turns tracing on: each
                           ``/solve`` request gets a
                           :class:`~repro.util.tracing.TraceContext`
                           (named by an incoming ``X-Repro-Trace`` header),
                           whose finished span tree is recorded there and
                           whose id is echoed in the response.  The HTTP
                           layer is the trace's only owner on the wire.

    Lifecycle: ``await start()`` binds the socket; ``await stop()`` runs
    the graceful drain (close the listener, finish in-flight responses,
    then drain the shard queues).  ``serve_forever()`` blocks until
    :meth:`request_stop` is called (the CLI's signal handler does).
    """

    def __init__(
        self,
        server: AsyncMaxCutServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_nodes: int = DEFAULT_MAX_NODES,
        keepalive_s: float = DEFAULT_KEEPALIVE_S,
        traces: Optional[TraceRecorder] = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        self.server = server
        self.requested_host = host
        self.requested_port = port
        self.max_body_bytes = int(max_body_bytes)
        self.max_nodes = int(max_nodes)
        self.keepalive_s = float(keepalive_s)
        self.traces = traces
        self.metrics = ServiceMetrics()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        # Connection tasks waiting for their next request (_next_request).
        self._idle: set = set()
        self._stop_requested: Optional[asyncio.Event] = None
        self._stopped = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "HttpMaxCutServer":
        if self._listener is not None:
            raise RuntimeError("HTTP server already started")
        self._stop_requested = asyncio.Event()
        self._listener = await asyncio.start_server(
            self._accept,
            host=self.requested_host,
            port=self.requested_port,
            # Bounds readline() (request line / header lines); bodies go
            # through readexactly(), which the limit does not constrain.
            limit=MAX_HEADER_BYTES + 1024,
        )
        sockname = self._listener.sockets[0].getsockname()  # type: ignore[union-attr]
        self.host, self.port = sockname[0], sockname[1]
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self.host is None or self.port is None:
            raise RuntimeError("HTTP server is not started")
        return self.host, self.port

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (signal-handler safe)."""
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def serve_forever(self) -> None:
        if self._stop_requested is None:
            raise RuntimeError("HTTP server is not started")
        await self._stop_requested.wait()

    async def stop(self) -> None:
        """Graceful drain: listener -> in-flight responses -> shards."""
        if self._stopped or self._listener is None:
            return
        self._stopped = True
        self.request_stop()
        # 1. Stop accepting: the listening sockets leave the loop first, so
        #    no accept starts, and one pass lets the accepts already under
        #    way build their transports.  A transport built after close()
        #    cannot attach to the listener and leaks its socket.  A second
        #    pass runs their connection_made, which registers each one.
        loop = asyncio.get_running_loop()
        for sock in self._listener.sockets:
            loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        self._listener.close()
        await asyncio.sleep(0)
        # New submissions on live connections are refused via the
        # server's drain flag.
        self.server.begin_drain()
        # 2. Close the idle connections and let in-flight request handlers
        #    finish writing responses.
        while self._connections:
            for task in list(self._idle):
                self._cancel_idle(task)
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._listener.wait_closed()
        # 3. Drain the shard queues and shut the workers down.
        await self.server.stop()

    async def __aenter__(self) -> "HttpMaxCutServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------
    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The connection's task is registered as it is accepted, before it
        # first runs, so stop() waits for every connection it let in.
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            self.metrics.increment("http_disconnects")
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _shutting_down(self) -> bool:
        return self._stopped or (
            self._stop_requested is not None and self._stop_requested.is_set()
        )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._shutting_down():
            try:
                request = await self._next_request(reader, writer)
            except _HttpReject as reject:
                # Framing-preserving rejections (e.g. a drained oversized
                # body) may keep the connection; framing-losing ones close.
                await self._respond_error(
                    writer, reject, keep_alive=not reject.close
                )
                if reject.close:
                    return
                continue
            except ValueError:
                # Oversized request line / header stream (stream limit).
                reject = _HttpReject(
                    "bad-request", "request line or headers too large"
                )
                await self._respond_error(writer, reject, keep_alive=False)
                return
            if request is None:
                return  # EOF, idle timeout, or a drain between requests
            self.metrics.increment("http_requests")
            keep_alive = request.keep_alive and not self._shutting_down()
            with self.metrics.stage("http"):
                try:
                    status, payload, headers = await self._dispatch(request)
                except _HttpReject as reject:
                    keep_alive = keep_alive and not reject.close
                    await self._respond_error(writer, reject, keep_alive=keep_alive)
                except (ConnectionError, asyncio.IncompleteReadError):
                    raise
                except Exception as exc:  # transport bug: never kill the loop
                    keep_alive = False
                    reject = _HttpReject(
                        "internal-error", f"{type(exc).__name__}: {exc}"
                    )
                    await self._respond_error(writer, reject, keep_alive=False)
                else:
                    await self._respond(
                        writer, status, payload, keep_alive=keep_alive, headers=headers
                    )
            if not keep_alive:
                return

    async def _next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Request]:
        """Read the next request; ``None`` on EOF, idle timeout or drain.

        The connection is idle while it waits here, and only then may the
        keep-alive timer or the drain cancel it, so no request is cut off
        half served.  Both take the task out of ``_idle`` before they
        cancel it, which tells their cancel from any other.
        """
        task = asyncio.current_task()
        assert task is not None
        self._idle.add(task)
        timer = asyncio.get_running_loop().call_later(
            self.keepalive_s, self._cancel_idle, task
        )
        try:
            return await self._read_request(reader, writer)
        except asyncio.CancelledError:
            if task in self._idle:
                raise
            return None
        finally:
            timer.cancel()
            self._idle.discard(task)

    def _cancel_idle(self, task: "asyncio.Task[None]") -> None:
        if task in self._idle:
            self._idle.discard(task)
            task.cancel()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Request]:
        line = await reader.readline()
        if not line:
            return None
        try:
            parts = line.decode("latin-1").strip().split()
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise _HttpReject("bad-request", "undecodable request line") from None
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpReject(
                "bad-request", "malformed HTTP request line", close=True
            )
        method, target, version = parts
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _HttpReject(
                    "bad-request", "connection closed mid-headers", close=True
                )
            header_bytes += len(raw)
            if header_bytes > MAX_HEADER_BYTES:
                raise _HttpReject("bad-request", "headers too large", close=True)
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HttpReject(
                    "bad-request", f"malformed header {name!r}", close=True
                )
            name = name.strip().lower()
            if name == "content-length" and name in headers:
                # Two lengths frame the body two ways; which one a proxy
                # in front honoured is unknowable, so neither is used.
                raise _HttpReject(
                    "bad-request", "repeated Content-Length", close=True
                )
            # HTTP's optional whitespace is SP and HTAB; a bare strip()
            # would also drop latin-1's NBSP and NEL around a value.
            headers[name] = value.strip(" \t\r\n")

        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _HttpReject(
                "bad-request", "chunked request bodies are not supported",
                close=True,
            )
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            # ASCII digits only: int() also reads "+10" and "1_0" as ten,
            # which a proxy in front may frame differently.  Header text is
            # latin-1, in which isdecimal() accepts exactly 0-9.
            if not length_header.isdecimal():
                negative = (
                    length_header[:1] == "-" and length_header[1:].isdecimal()
                )
                raise _HttpReject(
                    "bad-request",
                    "negative Content-Length" if negative
                    else "malformed Content-Length",
                    close=True,
                )
            length = int(length_header)
            if length > self.max_body_bytes:
                # Rejected from the Content-Length header alone: the body
                # is never parsed and no shard is touched.  Moderate
                # oversends are drained (unread bytes would desynchronise
                # keep-alive framing and reset the in-flight response);
                # egregious ones get a close instead.
                message = (
                    f"body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit"
                )
                expects_continue = (
                    headers.get("expect", "").lower() == "100-continue"
                )
                if expects_continue or length > DISCARD_BYTES_CAP:
                    raise _HttpReject("payload-too-large", message, close=True)
                remaining = length
                while remaining:
                    chunk = await reader.read(min(65536, remaining))
                    if not chunk:
                        raise _HttpReject(
                            "payload-too-large", message, close=True
                        )
                    remaining -= len(chunk)
                raise _HttpReject("payload-too-large", message)
            if length:
                if headers.get("expect", "").lower() == "100-continue":
                    writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    await writer.drain()
                body = await reader.readexactly(length)

        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return _Request(
            method.upper(),
            target.split("?", 1)[0],
            body,
            keep_alive,
            headers.get(TRACE_HEADER.lower(), ""),
        )

    # -- routing -------------------------------------------------------
    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, "dict | str", Sequence[Tuple[str, str]]]:
        if request.path.startswith(TRACE_ROUTE_PREFIX):
            if request.method != "GET":
                raise _HttpReject(
                    "method-not-allowed", "/trace/<id> only supports GET"
                )
            return 200, self._trace_payload(
                request.path[len(TRACE_ROUTE_PREFIX):]
            ), ()
        allowed = ROUTES.get(request.path)
        if allowed is None:
            raise _HttpReject("not-found", f"unknown path {request.path!r}")
        if request.method != allowed:
            raise _HttpReject(
                "method-not-allowed",
                f"{request.path} only supports {allowed}",
            )
        if request.path == "/healthz":
            return 200, self._healthz_payload(), ()
        if request.path == "/stats":
            return 200, self._stats_payload(), ()
        if request.path == "/metrics":
            return 200, self._metrics_text(), ()
        return await self._solve(request)

    def _healthz_payload(self) -> dict:
        return {
            "status": "draining" if self.server.draining else "ok",
            "shards": self.server.router.n_shards,
        }

    def _stats_payload(self) -> dict:
        payload = {
            "shards": self.server.router.n_shards,
            "draining": self.server.draining,
            "loads": [int(load) for load in self.server.router.loads],
            "metrics": self.server.merged_metrics().json_snapshot(),
            "http": self.metrics.json_snapshot(),
        }
        if self.traces is not None:
            payload["trace_stages"] = self.traces.stage_summary()
            payload["traces_recorded"] = self.traces.recorded_total
        return payload

    def _metrics_text(self) -> str:
        """Prometheus text exposition: server metrics + HTTP-layer metrics."""
        return render_prometheus(
            self.server.merged_metrics(), namespace="repro"
        ) + render_prometheus(self.metrics, namespace="repro_http")

    def _trace_payload(self, trace_id: str) -> dict:
        if self.traces is None:
            raise _HttpReject("not-found", "tracing is disabled")
        trace = self.traces.get(trace_id)
        if trace is None:
            raise _HttpReject("not-found", f"unknown trace id {trace_id!r}")
        payload = trace.to_dict()
        payload["tree"] = trace.format_tree()
        return payload

    async def _solve(
        self, http_request: _Request
    ) -> Tuple[int, dict, Sequence[Tuple[str, str]]]:
        # The HTTP layer owns the trace: it creates the context (reusing
        # the client's X-Repro-Trace id when one arrived), the server and
        # shard worker add their spans via SolveRequest.trace, and the
        # ``finally`` below records it — including on error and deadline
        # paths, where late spans from the still-running solve are
        # dropped by the inert finished trace.
        trace: "TraceContext | NullTraceContext" = NO_TRACE
        if self.traces is not None:
            trace = TraceContext(http_request.trace_id or None)
        headers: Tuple[Tuple[str, str], ...] = (
            ((TRACE_HEADER, trace.trace_id),) if trace.enabled else ()
        )
        body = http_request.body
        try:
            with trace.span("wire-parse", bytes=len(body)):
                try:
                    payload = json.loads(body.decode("utf-8"))
                except ValueError as exc:
                    # Also an integer literal past the interpreter's
                    # digit limit, which json.loads reports as ValueError.
                    raise _HttpReject(
                        "bad-request",
                        f"invalid JSON body: {exc}",
                        headers=headers,
                    ) from exc
                try:
                    request, deadline_s = request_from_wire(
                        payload, max_nodes=self.max_nodes
                    )
                except WireFormatError as exc:
                    raise _HttpReject(
                        "bad-request", str(exc), headers=headers
                    ) from exc
            request.trace = trace
            try:
                future = self.server.submit(request=request)
            except ServerOverloaded as exc:
                raise _HttpReject(
                    "overloaded", str(exc), headers=headers
                ) from exc
            try:
                # shield(): a deadline must abandon *this response*, never
                # the underlying solve — coalesced followers and the
                # in-flight table keep their owner.  The shard worker's
                # spans nest under ``await`` while this task is suspended.
                with trace.span("await"):
                    result = await asyncio.wait_for(
                        asyncio.shield(future), timeout=deadline_s
                    )
            except asyncio.TimeoutError:
                self.metrics.increment("http_deadline_exceeded")
                raise _HttpReject(
                    "deadline-exceeded",
                    f"deadline of {deadline_s}s elapsed before the solve "
                    "finished",
                    headers=headers,
                ) from None
            except ServerOverloaded as exc:  # shed while queued
                raise _HttpReject(
                    "overloaded", str(exc), headers=headers
                ) from exc
            except RequestError as exc:  # batch-level failure below capture
                raise _HttpReject(
                    "solve-failed", str(exc), headers=headers
                ) from exc
            if result.failed:
                return (
                    502,
                    {
                        "error": str(result.extra.get("error", "solve failed")),
                        "code": "solve-failed",
                        "digest": result.digest,
                        "status": result.status,
                        "method": result.method,
                        "seed": int(result.seed),
                        "elapsed": float(result.elapsed),
                    },
                    headers,
                )
            return 200, result_to_wire(result), headers
        finally:
            if self.traces is not None:
                self.traces.record(trace)

    # -- response writing ----------------------------------------------
    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        reject: _HttpReject,
        *,
        keep_alive: bool,
    ) -> None:
        headers = tuple(reject.headers)
        if reject.status == ERROR_CONTRACT["overloaded"]:
            headers += (("Retry-After", str(RETRY_AFTER_S)),)
        await self._respond(
            writer,
            reject.status,
            {"error": str(reject), "code": reject.code},
            keep_alive=keep_alive and not reject.close,
            headers=headers,
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict | str",
        *,
        keep_alive: bool,
        headers: Iterable[Tuple[str, str]] = (),
    ) -> None:
        self.metrics.increment(f"http_{status}")
        if isinstance(payload, str):
            # Text exposition (GET /metrics): Prometheus format 0.0.4.
            body = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


# ---------------------------------------------------------------------------
# Sync harnesses: CLI driver and a background-thread server for tests
# ---------------------------------------------------------------------------
def serve_http(
    host: str,
    port: int,
    *,
    http_options: Optional[dict] = None,
    install_signal_handlers: bool = True,
    ready: Optional[threading.Event] = None,
    **server_options,
) -> None:
    """Run the HTTP front end until SIGINT/SIGTERM, then drain gracefully.

    The blocking driver behind ``python -m repro serve --http HOST:PORT``.
    Prints the bound address (``port=0`` picks a free port) and, after a
    clean drain, the server's stats report.
    """
    import signal

    async def run() -> AsyncMaxCutServer:
        async with AsyncMaxCutServer(**server_options) as server:
            http_server = HttpMaxCutServer(
                server, host=host, port=port, **(http_options or {})
            )
            await http_server.start()
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGINT, signal.SIGTERM):
                    with contextlib.suppress(NotImplementedError):
                        loop.add_signal_handler(
                            signum, http_server.request_stop
                        )
            bound_host, bound_port = http_server.address
            print(f"listening on http://{bound_host}:{bound_port}", flush=True)
            if ready is not None:
                ready.set()
            try:
                await http_server.serve_forever()
                print("shutdown requested — draining", flush=True)
            finally:
                await http_server.stop()
        return server

    server = asyncio.run(run())
    print()
    print(server.stats_report())


class HttpServerThread:
    """A full HTTP + AsyncMaxCutServer stack on a background thread.

    The sync-world harness used by the benchmark, the example and the
    test suite: the event loop (shard workers + HTTP listener) runs in a
    daemon thread; the caller gets ``host``/``port`` to point blocking
    clients at, and ``stop()`` runs the graceful drain.

    ::

        with HttpServerThread(n_shards=2, seed=0) as handle:
            client = HttpMaxCutClient(handle.host, handle.port)
            result = client.solve(graph, layers=2)
    """

    def __init__(
        self, *, host: str = "127.0.0.1", port: int = 0,
        http_options: Optional[dict] = None, **server_options,
    ) -> None:
        self._host_requested = host
        self._port_requested = port
        self._http_options = dict(http_options or {})
        self._server_options = dict(server_options)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.server: Optional[AsyncMaxCutServer] = None
        self.http: Optional[HttpMaxCutServer] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="maxcut-http-server", daemon=True
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "HttpServerThread":
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None:
            raise RuntimeError("HTTP server thread failed to start") from self._error
        if not self._ready.is_set():
            raise RuntimeError("HTTP server thread did not come up in 60s")
        return self

    def stop(self) -> None:
        """Request the graceful drain and join the server thread."""
        if self._loop is not None and self.http is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.http.request_stop)
        self._thread.join(timeout=120)
        if self._error is not None:
            raise RuntimeError("HTTP server thread crashed") from self._error

    def __enter__(self) -> "HttpServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def merged_metrics(self) -> ServiceMetrics:
        if self.server is None:
            raise RuntimeError("server thread was never started")
        return self.server.merged_metrics()

    # -- internals -----------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # surfaced to the caller in start()/stop()
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        async with AsyncMaxCutServer(**self._server_options) as server:
            self.server = server
            http_server = HttpMaxCutServer(
                server,
                host=self._host_requested,
                port=self._port_requested,
                **self._http_options,
            )
            await http_server.start()
            self.http = http_server
            self.host, self.port = http_server.address
            self._ready.set()
            try:
                await http_server.serve_forever()
            finally:
                await http_server.stop()


__all__ = [
    "DEFAULT_KEEPALIVE_S",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_NODES",
    "ERROR_CONTRACT",
    "HttpMaxCutServer",
    "HttpServerThread",
    "RETRY_AFTER_S",
    "ROUTES",
    "TRACE_HEADER",
    "TRACE_ROUTE_PREFIX",
    "WireFormatError",
    "graph_from_wire",
    "graph_to_wire",
    "jsonable",
    "request_from_wire",
    "request_to_wire",
    "result_from_wire",
    "result_to_wire",
    "serve_http",
]
