"""repro.service — the request-level MaxCut serving stack.

Turns the repo's solvers into a high-throughput service whose unit of
work is a *request* (graph + solver configuration) rather than a graph:

* :mod:`repro.service.fingerprint` — canonical graph hashing (degree
  refinement + individualisation backtracking) so relabeled-isomorphic
  requests share one identity;
* :mod:`repro.service.cache`       — two-tier result cache (byte-budget
  LRU + append-only, CRC-framed disk log) with knowledge-base warm-start
  export;
* :mod:`repro.service.scheduler`   — coalesced-job dispatch: the direct
  QAOA² solve's lock-step jobs, shared cut diagonals, executor fan-out;
* :mod:`repro.service.service`     — the :class:`MaxCutService` facade
  (``solve`` / ``solve_many``);
* :mod:`repro.service.sharding`    — fingerprint-prefix shard routing
  (:class:`ShardRouter`): deterministic and relabeling-invariant;
* :mod:`repro.service.server`      — :class:`AsyncMaxCutServer`, the
  asyncio front end: concurrent clients, cross-client in-flight
  coalescing, bounded-queue admission control, per-shard worker
  threads (``python -m repro serve``);
* :mod:`repro.service.http`        — stdlib HTTP/1.1 wire transport over
  the async server: JSON protocol, per-request deadlines, keep-alive,
  graceful drain (``python -m repro serve --http HOST:PORT``; contract
  in ``docs/http-api.md``);
* :mod:`repro.service.client`      — :class:`HttpMaxCutClient`, the
  blocking keep-alive client speaking the same wire schema;
* :mod:`repro.service.metrics`     — counters and latency histograms
  behind ``python -m repro service-stats``, ``GET /stats`` and the
  Prometheus exposition ``GET /metrics``;
* :mod:`repro.service.trace`       — :class:`TraceRecorder`: bounded
  ring buffer of finished request span trees, JSONL sink, slow-request
  log and per-stage breakdown (``python -m repro trace``; span
  vocabulary in ``docs/observability.md``).

Its unit of work, :class:`SolveRequest`, is the QAOA² leaf request
(:mod:`repro.qaoa2.solver`).  See ``src/repro/service/README.md`` for the
request lifecycle.
"""

from repro.qaoa2.solver import SolveRequest
from repro.service.cache import CacheEntry, ResultCache
from repro.service.client import HttpMaxCutClient, HttpResponseError
from repro.service.fingerprint import (
    GraphFingerprint,
    canonical_fingerprint,
    config_token,
    request_digest,
)
from repro.service.http import (
    HttpMaxCutServer,
    HttpServerThread,
    WireFormatError,
    serve_http,
)
from repro.service.metrics import LatencyStats, ServiceMetrics
from repro.service.scheduler import BatchScheduler
from repro.service.server import (
    AsyncMaxCutServer,
    RequestError,
    ServerOverloaded,
    serve_requests,
)
from repro.service.service import (
    MaxCutService,
    RequestKey,
    ServiceResult,
    build_request,
    zipf_requests,
)
from repro.service.sharding import ShardRouter, shard_for_digest
from repro.service.trace import TraceRecorder

__all__ = [
    "AsyncMaxCutServer",
    "BatchScheduler",
    "CacheEntry",
    "GraphFingerprint",
    "HttpMaxCutClient",
    "HttpMaxCutServer",
    "HttpResponseError",
    "HttpServerThread",
    "LatencyStats",
    "MaxCutService",
    "RequestError",
    "RequestKey",
    "ResultCache",
    "ServerOverloaded",
    "ServiceMetrics",
    "ServiceResult",
    "ShardRouter",
    "SolveRequest",
    "TraceRecorder",
    "WireFormatError",
    "build_request",
    "canonical_fingerprint",
    "config_token",
    "request_digest",
    "serve_http",
    "serve_requests",
    "shard_for_digest",
    "zipf_requests",
]
