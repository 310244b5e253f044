"""Async sharded front end over :class:`~repro.service.service.MaxCutService`.

``AsyncMaxCutServer`` is the concurrent-traffic story for the serving
stack (stdlib asyncio only): many clients submit requests concurrently;
the server routes each to a shard by canonical-fingerprint prefix
(:mod:`repro.service.sharding`), coalesces duplicates *across clients
while they are in flight*, applies admission control at bounded per-shard
queues, and drives each shard's synchronous :class:`MaxCutService` from
its own worker — so shards solve genuinely in parallel while every
invariant of the synchronous stack (seed determinism, checksum-identical
cuts, verified cache hits, bounded memory) is preserved.

Request lifecycle::

    client ──▶ submit()
                 │ describe: fingerprint + seed + digest (service.describe)
                 │
                 ├─ digest already in flight? ──▶ await the owner's future,
                 │       map the assignment through both fingerprints
                 │       ("coalesced-inflight" — exactly one solve per
                 │        distinct (fingerprint, digest) in flight)
                 ├─ cache hit on the owning shard? ──▶ return immediately
                 │
                 ▼ admission: bounded shard queue
                 │    full + policy "reject" → ServerOverloaded now
                 │    full + policy "shed"   → oldest queued request is
                 │         failed with ServerOverloaded, newest admitted
                 ▼
           shard worker: drains a micro-batch, runs the shard's
           MaxCutService.solve_many in a thread (coalescing and
           diagonal sharing apply within the batch),
           resolves the futures

Determinism: every shard service is built from the same master ``seed``,
and derived per-request seeds depend only on (master seed, canonical
fingerprint, config) — so answers are independent of shard count, queue
interleaving and client concurrency, and checksum-identical to the
synchronous facade at fixed seeds (pinned by the bench gate and
``tests/test_service_server.py``).

Failure handling: shard services run with ``error_mode="capture"`` — a
failing request resolves *its own* future with :class:`RequestError`
(surfaced by :meth:`AsyncMaxCutServer.solve`) and never poisons
batch-mates or hangs the queue; a worker process killed mid-solve is
retried serially by the scheduler (see :mod:`repro.service.scheduler`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.graphs.graph import Graph
from repro.hpc.executor import ExecutorConfig
from repro.qaoa2.solver import SolveRequest
from repro.service.cache import DEFAULT_MAX_BYTES
from repro.service.fingerprint import GraphFingerprint
from repro.service.metrics import ServiceMetrics
from repro.service.service import (
    MaxCutService,
    RequestKey,
    ServiceResult,
    build_request,
)
from repro.service.sharding import ShardRouter
from repro.util.tracing import NullTraceContext, TraceContext

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_MAX_BATCH = 16
ADMISSION_POLICIES = ("reject", "shed")


class ServerOverloaded(RuntimeError):
    """The request was not admitted (full queue) or was shed for a newer one."""


class RequestError(RuntimeError):
    """A request failed cleanly; other requests were unaffected."""


@dataclass
class _Submission:
    """One admitted request waiting in a shard queue."""

    request: SolveRequest
    key: RequestKey
    future: asyncio.Future
    # When it was admitted, for the retroactive shard-queue span.
    enqueued: float


@dataclass
class _InFlight:
    """Owner record for cross-client coalescing: result future + labels."""

    future: asyncio.Future
    fp: GraphFingerprint
    # Owner's trace id so follower traces can reference the solve they
    # piggybacked on ("" when the owner was untraced).
    trace_id: str = ""


class AsyncMaxCutServer:
    """Asyncio front end: sharding, in-flight coalescing, admission control.

    Use as an async context manager (or call :meth:`start`/:meth:`stop`)::

        async with AsyncMaxCutServer(n_shards=2, seed=0) as server:
            result = await server.solve(graph, layers=2, maxiter=40)

    Knobs
    -----
    ``n_shards``          shard services (cache + scheduler each), routed
                          by fingerprint prefix; all record into the
                          server's one ``ServiceMetrics``
    ``queue_depth``       per-shard bounded queue (admission limit)
    ``admission``         ``"reject"`` (refuse when full) or ``"shed"``
                          (drop the oldest queued request for the newest)
    ``max_batch``         micro-batch size a shard worker drains per solve
    ``cache_cost_floor``  cache admission: only store solves costlier
                          than this many seconds ("auto" = the server's
                          measured fingerprint+store cost; None = always)
    ``disk_dir``          per-shard disk tiers: shard ``k`` appends to
                          ``<disk_dir>/shard-<kk>/cache.log``
    ``service_factory``   override shard construction entirely
                          (``factory(shard_index, metrics) ->
                          MaxCutService``); the service must record into
                          the ``metrics`` it is given, or the server
                          raises ``ValueError``

    Tracing: the server owns no trace.  It adds its spans
    (``shard-queue``, ``coalesced-inflight``) and the ``shard``
    annotation to whatever trace a request carries, which its creator
    (the HTTP front end, or a caller) finishes and records — see
    docs/observability.md.
    """

    def __init__(
        self,
        *,
        n_shards: int = 1,
        seed: int = 0,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        admission: str = "reject",
        max_batch: int = DEFAULT_MAX_BATCH,
        max_bytes: int = DEFAULT_MAX_BYTES,
        disk_dir: Optional[str | Path] = None,
        executor: Optional[ExecutorConfig] = None,
        use_cache: bool = True,
        cache_cost_floor: Optional[object] = None,
        service_factory: Optional[
            Callable[[int, ServiceMetrics], MaxCutService]
        ] = None,
    ) -> None:
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.admission = admission
        self.queue_depth = queue_depth
        self.max_batch = max_batch

        if service_factory is None:
            base_dir = Path(disk_dir) if disk_dir is not None else None

            def service_factory(shard: int, metrics: ServiceMetrics) -> MaxCutService:
                return MaxCutService(
                    # Same seed everywhere: derived request seeds depend
                    # only on content, so answers are shard-count
                    # independent and match the synchronous facade.
                    seed=seed,
                    max_bytes=max_bytes,
                    disk_dir=(
                        None if base_dir is None else base_dir / f"shard-{shard:02d}"
                    ),
                    executor=executor,
                    use_cache=use_cache,
                    cache_cost_floor=cache_cost_floor,
                    error_mode="capture",
                    metrics=metrics,
                )

        # One recorder for the whole server: /stats, /metrics and
        # stats_report() read it as it stands, and every shard's auto
        # cost floor sees every fingerprint (shard 0 describes them all).
        self._metrics = ServiceMetrics()
        self.router = ShardRouter(
            n_shards, lambda shard: service_factory(shard, self._metrics)
        )
        for index, service in enumerate(self.services):
            if service.metrics is not self._metrics:
                raise ValueError(
                    f"shard {index}'s service records into its own metrics; "
                    "build it with the metrics the factory is given"
                )
        self._inflight: dict[str, _InFlight] = {}
        self._queues: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        self._started = False
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncMaxCutServer":
        if self._started:
            raise RuntimeError("server already started")
        self._queues = [
            asyncio.Queue(maxsize=self.queue_depth)
            for _ in range(self.router.n_shards)
        ]
        self._workers = [
            asyncio.create_task(self._worker(shard), name=f"maxcut-shard-{shard}")
            for shard in range(self.router.n_shards)
        ]
        self._started = True
        return self

    def begin_drain(self) -> None:
        """Stop admitting new submissions; queued/in-flight work continues.

        The graceful-shutdown hook the HTTP front end uses: after this,
        :meth:`submit` raises :class:`ServerOverloaded` immediately (so a
        load balancer retries elsewhere) while everything already admitted
        still resolves.  :meth:`stop` calls it implicitly.
        """
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self) -> None:
        """Wait until every admitted submission has been resolved."""
        await asyncio.gather(*(queue.join() for queue in self._queues))

    async def stop(self) -> None:
        """Drain every queue, then shut the shard workers down."""
        if not self._started:
            return
        self.begin_drain()
        await self.drain()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._started = False
        self._draining = False

    async def __aenter__(self) -> "AsyncMaxCutServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: Optional[Graph] = None,
        *,
        request: Optional[SolveRequest] = None,
        **options,
    ) -> "asyncio.Future[ServiceResult]":
        """Admit one request; returns the future of its ServiceResult.

        Must be called from the event loop running the server.  Raises
        :class:`ServerOverloaded` immediately when the owning shard's
        queue is full under the ``"reject"`` policy.  No awaits happen
        between the in-flight check and the enqueue, so duplicate-digest
        submissions race-freely coalesce onto one underlying solve.
        """
        if not self._started:
            raise RuntimeError("server is not started (use 'async with' or start())")
        if self._draining:
            raise ServerOverloaded("server is draining (shutdown in progress)")
        request = build_request(graph, request=request, **options)
        loop = asyncio.get_running_loop()
        trace = request.trace

        # The request's identity depends only on the shared master seed,
        # so any shard's service computes the same key; shard 0 describes,
        # the digest picks the owner, and the owning shard's solve_many
        # takes the key with the request instead of describing it again
        # (or probing the cache again: a queued submission missed below).
        key = self.router.shards[0].describe(request)  # type: ignore[union-attr]
        shard_index = self.router.shard_index(key.fp.digest)
        service: MaxCutService = self.router.shards[shard_index]  # type: ignore
        trace.annotate(shard=shard_index, fingerprint_prefix=key.fp.digest[:10])

        # Cross-client in-flight coalescing: exactly one underlying solve
        # per distinct (fingerprint, digest) at any moment.  The whole
        # check-then-enqueue block below must stay await-free — any
        # suspension point would let a duplicate submission race past the
        # in-flight check and solve twice (machine-checked by the
        # atomic-section rule in repro.analysis).
        # repro: begin-atomic
        inflight = self._inflight.get(key.digest)
        if inflight is not None and not inflight.future.cancelled():
            self._metrics.increment("requests")
            self._metrics.increment("coalesced")
            self._metrics.increment("coalesced_inflight")
            return loop.create_task(self._follow(inflight, key, trace))

        # The one cache probe, on the owning shard (cheap; the cache is
        # thread-safe against the shard worker).  Counted and timed exactly
        # like a solve_many hit; queued requests are counted by solve_many
        # itself, which takes them as probed, preserving
        # requests == hits + coalesced + misses.
        hit = service.lookup(key, trace=trace)
        if hit is not None:
            self._metrics.increment("requests")
            self._metrics.observe("request", hit.elapsed)
            done: asyncio.Future = loop.create_future()
            done.set_result(hit)
            return done

        future: asyncio.Future = loop.create_future()
        submission = _Submission(
            request=request, key=key, future=future, enqueued=time.perf_counter()
        )
        queue = self._queues[shard_index]
        try:
            queue.put_nowait(submission)
        except asyncio.QueueFull:
            if self.admission == "reject":
                self._metrics.increment("rejected")
                raise ServerOverloaded(
                    f"shard {shard_index} queue full ({self.queue_depth})"
                ) from None
            # "shed": fail the oldest queued request in favour of the new.
            victim: _Submission = queue.get_nowait()
            queue.task_done()
            stale = self._inflight.get(victim.key.digest)
            if stale is not None and stale.future is victim.future:
                del self._inflight[victim.key.digest]
            if not victim.future.done():
                victim.future.set_exception(
                    ServerOverloaded(f"shed from shard {shard_index} queue")
                )
            self._metrics.increment("shed")
            queue.put_nowait(submission)
        self._inflight[key.digest] = _InFlight(
            future=future, fp=key.fp, trace_id=trace.trace_id
        )
        self.router.loads[shard_index] += 1
        # repro: end-atomic
        return future

    async def solve(
        self,
        graph: Optional[Graph] = None,
        *,
        request: Optional[SolveRequest] = None,
        **options,
    ) -> ServiceResult:
        """Submit and await one request; raises :class:`RequestError` on failure."""
        result = await self.submit(graph, request=request, **options)
        if result.failed:
            raise RequestError(result.extra.get("error", "solve failed"))
        return result

    async def solve_stream(
        self,
        requests: Sequence[SolveRequest],
        *,
        clients: int = 4,
    ) -> List[ServiceResult]:
        """Serve ``requests`` as ``clients`` concurrent sequential clients.

        The canonical benchmark/demo driver: request ``i`` goes to client
        ``i % clients``; each client submits its stream one request at a
        time (natural flow control against the bounded queues).  Results
        come back in the original request order.
        """
        if clients < 1:
            raise ValueError("clients must be positive")
        if not requests:
            return []
        results: List[Optional[ServiceResult]] = [None] * len(requests)

        async def run_client(offset: int) -> None:
            for index in range(offset, len(requests), clients):
                results[index] = await self.solve(request=requests[index])

        await asyncio.gather(
            *(run_client(c) for c in range(min(clients, len(requests))))
        )
        assert all(res is not None for res in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    async def _follow(
        self,
        inflight: _InFlight,
        key: RequestKey,
        trace: "TraceContext | NullTraceContext",
    ) -> ServiceResult:
        """Piggyback on another client's in-flight solve for ``key``.

        The owner may have submitted an isomorphic-but-relabelled graph:
        its result is in *its* labels, so map owner → canonical → this
        request's labels through the two fingerprints.
        """
        t0 = time.perf_counter()
        with trace.span("coalesced-inflight", owner=inflight.trace_id):
            owner: ServiceResult = await asyncio.shield(inflight.future)
        elapsed = time.perf_counter() - t0
        self._metrics.observe("request", elapsed)
        if owner.failed:
            self._metrics.increment("errors")
            return ServiceResult(
                digest=key.digest,
                status="error",
                assignment=key.fp.from_canonical(
                    inflight.fp.to_canonical(owner.assignment)
                ),
                cut=owner.cut,
                method=owner.method,
                seed=key.seed,
                elapsed=elapsed,
                params=None,
                extra=dict(owner.extra),
            )
        assignment = key.fp.from_canonical(inflight.fp.to_canonical(owner.assignment))
        return ServiceResult(
            digest=key.digest,
            status="coalesced-inflight",
            assignment=assignment,
            cut=owner.cut,
            method=owner.method,
            seed=key.seed,
            elapsed=elapsed,
            params=list(owner.params) if owner.params else None,
            extra=dict(owner.extra),
        )

    def _solve_batch(
        self,
        service: MaxCutService,
        batch: List[_Submission],
        shard_index: int = 0,
    ) -> List[ServiceResult]:
        # Runs in a worker thread: the shard's synchronous facade does
        # coalescing / diagonal sharing as usual.
        # Queue wait is recorded retroactively (admission → first dequeue)
        # so the span tree shows where p95 time went without the admission
        # path ever opening a span it could leak.
        now = time.perf_counter()
        for sub in batch:
            sub.request.trace.add_span(
                "shard-queue", sub.enqueued, now, shard=shard_index
            )
        return service.solve_many(
            [sub.request for sub in batch], keys=[sub.key for sub in batch]
        )

    async def _worker(self, shard_index: int) -> None:
        queue = self._queues[shard_index]
        service: MaxCutService = self.router.shards[shard_index]  # type: ignore
        while True:
            submission: _Submission = await queue.get()
            batch = [submission]
            while len(batch) < self.max_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                results = await asyncio.to_thread(
                    self._solve_batch, service, batch, shard_index
                )
                for sub, result in zip(batch, results, strict=True):
                    self._resolve(sub, result=result)
            except asyncio.CancelledError:
                self._fail_batch(batch, RuntimeError("server stopped mid-solve"))
                for _ in batch:
                    queue.task_done()
                raise
            except Exception as exc:
                # Whole-batch failure below the per-request capture layer
                # (should be rare): fail these futures, keep serving.
                self._fail_batch(batch, exc)
                for _ in batch:
                    queue.task_done()
            else:
                for _ in batch:
                    queue.task_done()

    def _resolve(self, submission: _Submission, *, result: ServiceResult) -> None:
        inflight = self._inflight.get(submission.key.digest)
        if inflight is not None and inflight.future is submission.future:
            del self._inflight[submission.key.digest]
        if not submission.future.done():
            submission.future.set_result(result)

    def _fail_batch(self, batch: List[_Submission], exc: BaseException) -> None:
        for submission in batch:
            inflight = self._inflight.get(submission.key.digest)
            if inflight is not None and inflight.future is submission.future:
                del self._inflight[submission.key.digest]
            if not submission.future.done():
                submission.future.set_exception(
                    RequestError(f"{type(exc).__name__}: {exc}")
                )
            submission.request.trace.annotate(error=type(exc).__name__)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def services(self) -> List[MaxCutService]:
        return list(self.router.shards)  # type: ignore[arg-type]

    def merged_metrics(self) -> ServiceMetrics:
        """The server's one recorder, which every shard service records into."""
        return self._metrics

    def stats_report(self) -> str:
        parts = [
            self.merged_metrics().format_report(
                f"AsyncMaxCutServer stats ({self.router.n_shards} shards)"
            ),
            "",
            self.router.load_report(),
        ]
        for index, service in enumerate(self.services):
            parts.append("")
            parts.append(f"shard {index} " + service.cache.format_summary())
        return "\n".join(parts)


def serve_requests(
    requests: Sequence[SolveRequest],
    *,
    clients: int = 4,
    **server_options,
) -> tuple[AsyncMaxCutServer, List[ServiceResult]]:
    """Synchronous convenience: serve ``requests`` on a fresh server.

    Spins up an event loop, runs ``clients`` concurrent clients through
    :meth:`AsyncMaxCutServer.solve_stream`, shuts the server down, and
    returns ``(server, results-in-request-order)`` — the CLI ``serve``
    command, the async benchmark path and ``examples/service_async.py``
    all drive this helper.
    """

    async def run() -> tuple[AsyncMaxCutServer, List[ServiceResult]]:
        async with AsyncMaxCutServer(**server_options) as server:
            results = await server.solve_stream(requests, clients=clients)
        return server, results

    return asyncio.run(run())


__all__ = [
    "ADMISSION_POLICIES",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_QUEUE_DEPTH",
    "AsyncMaxCutServer",
    "RequestError",
    "ServerOverloaded",
    "serve_requests",
]
