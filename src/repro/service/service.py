"""`MaxCutService` — the request-level facade over the repo's solvers.

Request lifecycle (see also ``src/repro/service/README.md``)::

    solve_many ─▶ fingerprint ─▶ cache? ──hit──▶ un-relabel, return
                                    │miss
                                    ▼
                               coalesce duplicates
                                    │
                                    ▼
                           BatchScheduler (shared diagonals /
                            executor fan-out)
                                    │
                                    ▼
                            cache fill ─▶ return (submission order)

Determinism contract
--------------------
* Every request resolves to one integer seed: the caller's explicit
  ``seed`` if given, else a seed *derived* from the service master seed
  and the request's canonical fingerprint — so the seed (and therefore
  the answer) depends on *what* is asked, never on submission order or
  executor concurrency.  Serial and concurrent runs of the same request
  set are identical.
* The cache key includes the resolved seed and the full solver
  configuration: a hit returns exactly what a cold solve of that request
  would have computed (bit-identical for byte-equal graphs; mapped
  through the canonical relabeling for isomorphic ones).
* Results of one ``solve_many`` batch are returned in submission order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.maxcut import CutResult
from repro.hpc.executor import ExecutorConfig
from repro.ml.knowledge import KnowledgeBase
from repro.qaoa2.solver import SolveRequest
from repro.service.cache import DEFAULT_MAX_BYTES, CacheEntry, ResultCache
from repro.service.fingerprint import (
    GraphFingerprint,
    canonical_fingerprint,
    config_digest,
    solver_config,
)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import BatchScheduler
from repro.service.trace import TraceRecorder
from repro.util.rng import RngLike, ensure_rng
from repro.util.tracing import NO_TRACE, NullTraceContext, TraceContext


@dataclass
class ServiceResult:
    """Answer to one request, plus serving metadata.

    ``status`` is one of ``"solved"``, ``"coalesced"`` (folded into a
    batch-mate's solve), ``"coalesced-inflight"`` (the async server folded
    it into another client's in-flight solve), ``"hit-memory"`` /
    ``"hit-disk"`` (cache tiers), or ``"error"`` (capture-mode services
    only; the failure text is in ``extra["error"]`` and ``cut`` is NaN).
    """

    digest: str
    status: str
    assignment: np.ndarray
    cut: float
    method: str
    seed: int
    elapsed: float
    params: Optional[List[float]] = None
    extra: dict = field(default_factory=dict)

    @property
    def cached(self) -> bool:
        return self.status.startswith("hit")

    @property
    def failed(self) -> bool:
        return self.status == "error"

    def as_cut_result(self) -> CutResult:
        return CutResult(self.assignment, self.cut, self.method, dict(self.extra))


@dataclass(frozen=True)
class RequestKey:
    """A request's resolved identity: fingerprint + seed + cache digest.

    Everything downstream — cache lookup, coalescing, shard routing —
    keys off this triple; :meth:`MaxCutService.describe` computes it once
    per request.
    """

    fp: GraphFingerprint
    seed: int
    digest: str


def build_request(
    graph: Optional[Graph] = None,
    *,
    request: Optional[SolveRequest] = None,
    **options,
) -> SolveRequest:
    """Normalise the facade's two calling styles into one SolveRequest.

    Accepts either a prebuilt request or a graph plus keyword knobs
    (``method=``, ``seed=``, and any ``QAOASolver`` option) — shared by
    :meth:`MaxCutService.solve` and the async server front end.
    """
    if request is None:
        if graph is None:
            raise ValueError("a solve needs a graph or a request")
        method = options.pop("method", "qaoa")
        seed = options.pop("seed", None)
        qaoa_grid = options.pop("qaoa_grid", None)
        gw_options = options.pop("gw_options", None) or {}
        return SolveRequest(
            graph=graph,
            method=method,
            options=options,
            qaoa_grid=qaoa_grid,
            gw_options=gw_options,
            seed=seed,
        )
    if graph is not None or options:
        raise ValueError("pass either request= or graph+options, not both")
    return request


class MaxCutService:
    """High-throughput MaxCut solving with caching and batching."""

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        disk_dir=None,
        executor: Optional[ExecutorConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
        seed: RngLike = 0,
        use_cache: bool = True,
        cache_cost_floor: Optional[object] = None,
        error_mode: str = "raise",
        traces: Optional[TraceRecorder] = None,
    ) -> None:
        if error_mode not in ("raise", "capture"):
            raise ValueError(
                f"unknown error_mode {error_mode!r}; expected 'raise' or 'capture'"
            )
        if not (
            cache_cost_floor is None
            or cache_cost_floor == "auto"
            or isinstance(cache_cost_floor, (int, float))
        ):
            raise ValueError(
                "cache_cost_floor must be None, 'auto', or seconds (float)"
            )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(
                max_bytes=max_bytes, disk_dir=disk_dir, metrics=self.metrics
            )
        )
        self.scheduler = BatchScheduler(executor, metrics=self.metrics)
        # One integer master seed; derived per-request seeds hash it with
        # the request fingerprint so they are submission-order independent.
        self.master_seed = int(ensure_rng(seed).integers(2**63 - 1))
        self.use_cache = use_cache
        # Cache-admission floor: only store solves whose measured cost
        # exceeds this many seconds ("auto" = the measured mean
        # fingerprint + store cost, i.e. only cache what is cheaper to
        # replay from cache than to identify and store).  None/0 keeps
        # the store-everything behaviour.
        self.cache_cost_floor = cache_cost_floor
        self.error_mode = error_mode
        # Request tracing is on when a recorder is given: ``solve_many``
        # traces a copy of each request that arrived untraced and records
        # it.  Requests arriving with a live trace (HTTP front end, or a
        # caller's own) keep it; its creator finishes and records it.
        self.traces = traces

    # ------------------------------------------------------------------
    # Facade
    # ------------------------------------------------------------------
    def solve(
        self,
        graph: Optional[Graph] = None,
        *,
        request: Optional[SolveRequest] = None,
        **options,
    ) -> ServiceResult:
        """Answer one request: ``solve_many`` of a batch of one.

        Pass either a prebuilt :class:`SolveRequest` or a graph plus
        keyword knobs (``method=``, ``seed=``, and any ``QAOASolver``
        option).
        """
        return self.solve_many([build_request(graph, request=request, **options)])[0]

    # ------------------------------------------------------------------
    # Core batch path
    # ------------------------------------------------------------------
    def solve_many(
        self,
        requests: Sequence[SolveRequest],
        *,
        executor: Optional[ExecutorConfig] = None,
        keys: Optional[Sequence[RequestKey]] = None,
    ) -> List[ServiceResult]:
        """Answer a batch of requests (submission order preserved).

        ``executor`` overrides the service's dispatch backend for this
        batch only (QAOA² passes its own leaf executor through).  ``keys``
        are the requests' :meth:`describe` results from a caller that has
        also probed the cache with them (the async server describes each
        submission to route it and probes its shard inline): such
        requests are not looked up again here.  Without ``keys`` each
        request is described and probed here.

        One consequence of taking keys as probed: if a caller of the
        async server's ``solve()`` is cancelled and the same request is
        resubmitted, and the two land in different micro-batches, the
        request is solved a second time instead of read back from the
        cache.  Both answers are equal."""
        t_batch = time.perf_counter()
        requests = list(requests)
        if keys is not None and len(keys) != len(requests):
            raise ValueError(f"{len(keys)} keys for {len(requests)} requests")
        self.metrics.increment("requests", len(requests))

        # Service-owned tracing: each request that arrived untraced is
        # traced as a copy, so the caller's object keeps NO_TRACE and can
        # be submitted again; its trace is recorded when the batch ends.
        owned: List[TraceContext] = []
        if self.traces is not None:
            for idx, request in enumerate(requests):
                if not request.trace.enabled:
                    owned.append(TraceContext())
                    requests[idx] = replace(request, trace=owned[-1])

        probe = keys is None
        if keys is None:
            keys = [self.describe(request) for request in requests]
        fps = [key.fp for key in keys]
        seeds = [key.seed for key in keys]
        digests = [key.digest for key in keys]

        results: List[Optional[ServiceResult]] = [None] * len(requests)
        owners: Dict[str, int] = {}  # digest -> owning job slot
        # Per cold job: its owner's request with the resolved seed, and the
        # request indices it serves.
        cold: List[SolveRequest] = []
        job_members: List[List[int]] = []
        for idx, request in enumerate(requests):
            if probe:
                results[idx] = self.lookup(keys[idx], trace=request.trace)
                if results[idx] is not None:
                    continue
            digest = digests[idx]
            if digest in owners:
                job_members[owners[digest]].append(idx)
                self.metrics.increment("coalesced")
                continue
            owners[digest] = len(cold)
            self.metrics.increment("misses")
            cold.append(replace(request, seed=seeds[idx]))
            job_members.append([idx])

        if cold:
            solved = self.scheduler.run(
                cold,
                executor=executor,
                capture_errors=self.error_mode == "capture",
            )
            for members, raw in zip(job_members, solved, strict=True):
                owner_idx = members[0]
                if raw.get("error"):
                    self.metrics.increment("errors", len(members))
                    for idx in members:
                        results[idx] = self._error_result(
                            digests[idx], fps[idx], seeds[idx], raw
                        )
                    continue
                entry = self._entry_from_raw(
                    digests[owner_idx], fps[owner_idx], seeds[owner_idx], raw
                )
                if self._should_cache(raw, entry):
                    with self.metrics.stage("store", requests[owner_idx].trace):
                        self.cache.put(entry)
                # Coalesced members share the digest, hence the canonical
                # graph — but may label it differently.  Map the canonical
                # assignment once per distinct relabeling so identical
                # submissions receive the *same* result array.
                mapped: Dict[bytes, np.ndarray] = {}
                for rank, idx in enumerate(members):
                    status = "solved" if rank == 0 else "coalesced"
                    perm_key = fps[idx].perm.tobytes()
                    assignment = mapped.get(perm_key)
                    if assignment is None:
                        assignment = fps[idx].from_canonical(entry.assignment)
                        mapped[perm_key] = assignment
                    results[idx] = ServiceResult(
                        digest=digests[idx],
                        status=status,
                        assignment=assignment,
                        cut=entry.cut,
                        method=entry.method,
                        seed=seeds[idx],
                        elapsed=float(raw.get("elapsed", 0.0)),
                        params=list(entry.params) if entry.params else None,
                        extra=dict(entry.extra),
                    )

        out = [res for res in results if res is not None]
        assert len(out) == len(requests)
        for res in out:
            self.metrics.observe("request", res.elapsed)
        self.metrics.observe("batch", time.perf_counter() - t_batch)
        if self.traces is not None:
            for trace in owned:
                self.traces.record(trace)
        return out

    # ------------------------------------------------------------------
    # Request identity + cache lookup (shared with the async server)
    # ------------------------------------------------------------------
    def describe(self, request: SolveRequest) -> RequestKey:
        """Resolve a request's fingerprint, seed and cache digest.

        This is the routing-relevant identity: the async server calls it
        once per submission to pick a shard and detect in-flight
        duplicates, then hands the key to the shard's ``solve_many``.
        """
        with self.metrics.stage("fingerprint", request.trace) as span:
            fp = canonical_fingerprint(request.graph)
            config = solver_config(
                method=request.method,
                options=request.options,
                qaoa_grid=request.qaoa_grid,
                gw_options=request.gw_options,
            )
            seed = self._resolve_seed(request, fp, config)
            digest = config_digest(fp.digest, config, seed)
            span.set(fingerprint_prefix=fp.digest[:10])
        return RequestKey(fp=fp, seed=seed, digest=digest)

    def lookup(
        self,
        key: RequestKey,
        *,
        trace: "TraceContext | NullTraceContext" = NO_TRACE,
    ) -> Optional[ServiceResult]:
        """Serve ``key`` from the cache if possible (counts the hit).

        Returns ``None`` on a miss — including hash collisions, which the
        stored canonical arrays detect — and does **not** count the miss:
        the caller decides whether the request becomes a solve, a
        coalesced duplicate, or is handed to another shard.
        """
        if not self.use_cache:
            return None
        with self.metrics.stage("lookup", trace) as span:
            entry, tier = self.cache.get_tiered(key.digest)
            hit = entry is not None and entry.matches(key.fp)
            span.set(cache_tier=tier if hit else "miss")
        if hit and entry is not None:
            return self._result_from_entry(entry, key.fp, key.seed, tier, span.wall_s)
        return None

    def _should_cache(self, raw: dict, entry: CacheEntry) -> bool:
        """Cost-floor cache admission (see ``cache_cost_floor``)."""
        if not self.use_cache:
            return False
        floor = self.cache_cost_floor
        if floor is None:
            return True
        if floor == "auto":
            # Admit only when replaying from cache is cheaper than the
            # solve it would save: the hit path costs one fingerprint
            # (+ the store itself, paid once) — both continuously
            # measured on this service's recorder, which an async
            # server's shards share.
            fingerprint = self.metrics.latencies.get("fingerprint")
            store = self.metrics.latencies.get("store")
            floor = (fingerprint.mean if fingerprint is not None else 0.0) + (
                store.mean if store is not None and store.count else 0.0
            )
        if float(raw.get("elapsed", 0.0)) >= float(floor):
            return True
        self.metrics.increment("cache_skipped")
        return False

    def _error_result(
        self, digest: str, fp: GraphFingerprint, seed: int, raw: dict
    ) -> ServiceResult:
        """A clean per-request failure (capture-mode services only)."""
        return ServiceResult(
            digest=digest,
            status="error",
            assignment=np.zeros(fp.n_nodes, dtype=np.uint8),
            cut=float("nan"),
            method=str(raw.get("method")),
            seed=seed,
            elapsed=float(raw.get("elapsed", 0.0)),
            params=None,
            extra={"error": str(raw.get("error"))},
        )

    # ------------------------------------------------------------------
    def _resolve_seed(
        self, request: SolveRequest, fp: GraphFingerprint, config: str
    ) -> int:
        if request.seed is not None:
            return int(request.seed)
        digest_sans_seed = config_digest(fp.digest, config, None)
        h = hashlib.sha256(
            f"seed|{self.master_seed}|{digest_sans_seed}".encode()
        ).digest()
        return int.from_bytes(h[:4], "little") % (2**31)

    def _result_from_entry(
        self,
        entry: CacheEntry,
        fp: GraphFingerprint,
        seed: int,
        tier: str,
        elapsed: float,
    ) -> ServiceResult:
        self.metrics.increment("hits_memory" if tier == "memory" else "hits_disk")
        return ServiceResult(
            digest=entry.digest,
            status=f"hit-{tier}",
            assignment=fp.from_canonical(entry.assignment),
            cut=entry.cut,
            method=entry.method,
            seed=seed,
            elapsed=elapsed,
            # Copies: a caller mutating its result must not corrupt the
            # cached entry (and with it every future hit / KB export).
            params=list(entry.params) if entry.params else None,
            extra=dict(entry.extra),
        )

    def _entry_from_raw(
        self, digest: str, fp: GraphFingerprint, seed: int, raw: dict
    ) -> CacheEntry:
        extra = {
            key: raw.get(key)
            for key in ("qaoa_cut", "gw_cut", "gw_average", "backend")
            if raw.get(key) is not None
        }
        return CacheEntry(
            digest=digest,
            n_nodes=fp.n_nodes,
            canon_u=fp.canon_u,
            canon_v=fp.canon_v,
            canon_w=fp.canon_w,
            assignment=fp.to_canonical(np.asarray(raw["assignment"], dtype=np.uint8)),
            cut=float(raw["cut"]),
            method=str(raw["method"]),
            seed=seed,
            params=raw.get("params"),
            layers=raw.get("layers"),
            rhobeg=raw.get("rhobeg"),
            extra=extra,
        )

    # ------------------------------------------------------------------
    # Reporting / export
    # ------------------------------------------------------------------
    def stats_report(self) -> str:
        report = (
            self.metrics.format_report("MaxCutService stats")
            + "\n\n"
            + self.cache.format_summary()
        )
        if self.traces is not None and len(self.traces):
            report += "\n\n" + self.traces.format_stage_table()
        return report

    def export_knowledge(self, kb: Optional[KnowledgeBase] = None) -> KnowledgeBase:
        """Warm-start export: cached angles -> Fig. 3 knowledge base."""
        return self.cache.export_knowledge(kb)


# ---------------------------------------------------------------------------
# Workload helper (bench / example / CLI)
# ---------------------------------------------------------------------------
def zipf_requests(
    *,
    n_requests: int = 100,
    universe: int = 8,
    n_nodes: int = 14,
    edge_prob: float = 0.3,
    weighted: bool = True,
    zipf_exponent: float = 1.1,
    method: str = "qaoa",
    options: Optional[dict] = None,
    rng: RngLike = 0,
) -> List[SolveRequest]:
    """A Zipf-distributed request stream over a small graph universe.

    The canonical cache-demo workload: ``universe`` distinct seeded ER
    graphs, requested ``n_requests`` times with rank-``k`` probability
    ∝ ``k**-zipf_exponent`` (heavily skewed toward a few hot graphs, like
    the repeated sub-graphs QAOA² emits at deeper levels).  Each distinct
    graph carries one fixed per-graph seed so repeats are exact repeats.
    """
    from repro.graphs.generators import erdos_renyi

    gen = ensure_rng(rng)
    graphs = [
        erdos_renyi(n_nodes, edge_prob, weighted=weighted, rng=1000 + k)
        for k in range(universe)
    ]
    seeds = [int(gen.integers(2**31)) for _ in range(universe)]
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -zipf_exponent
    weights /= weights.sum()
    picks = gen.choice(universe, size=n_requests, p=weights)
    options = dict(options or {})
    return [
        SolveRequest(
            graph=graphs[k], method=method, options=dict(options), seed=seeds[k]
        )
        for k in picks
    ]


__all__ = [
    "MaxCutService",
    "RequestKey",
    "ServiceResult",
    "build_request",
    "zipf_requests",
]
