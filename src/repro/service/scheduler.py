"""Batched job scheduler for the MaxCut solver service.

The service hands the scheduler the :class:`~repro.qaoa2.solver.SolveRequest`
of each of a batch's *deduplicated* cold requests (coalescing happens
upstream in :mod:`repro.service.service`), each with its resolved seed and
its caller's trace.  The scheduler splits them into executor jobs by the
direct QAOA² solve's own rule, :func:`repro.qaoa2.solver.leaf_jobs` (under
the ``serial`` executor, at least ``LOCKSTEP_MIN_LEAVES`` small requests
form one lock-step job, every other request is a job of its own).  Either
job computes each request's reference result bit for bit, so a service
cold solve is the solve a direct caller gets (pinned by ``TestBatching``
and ``TestSchedulerLockstep`` in ``tests/test_service.py``).  Around that
it shares one cut diagonal among ``qaoa`` and ``best`` jobs on
byte-identical graphs (``n_nodes`` plus exact edge arrays) — the dominant
per-solve setup cost for statevector QAOA, with bit-identical values
either way — and fans the jobs out through
:func:`repro.hpc.executor.map_jobs`.  Results come back in submission
order, so serial and concurrent runs are indistinguishable to the caller.

Fault tolerance (the async server's contract): when an executor batch
fails — a worker process killed mid-solve (``BrokenProcessPool``), or one
poisoned request, which fails its whole lock-step job — the batch is
**retried serially in-process, one request at a time**, reproducing each
reference computation exactly (the job is deterministic in its request).
A request that still fails is, under ``capture_errors=True``, returned as
an ``{"error": ...}`` result dict instead of poisoning its batch-mates;
with the default ``capture_errors=False`` the exception propagates.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.maxcut import cut_diagonal
from repro.hpc.executor import ExecutorConfig, map_jobs
from repro.qaoa2.solver import (
    SolveRequest,
    _solve_lockstep_job,
    _solve_subgraph_job,
    in_request_order,
    leaf_jobs,
)
from repro.service.metrics import ServiceMetrics
from repro.util.tracing import NO_TRACE, use_trace

# Only graphs small enough for a statevector benefit from an eagerly
# shared diagonal (mirrors the solver's own max_qubits default).
MAX_SHARED_DIAGONAL_QUBITS = 26

# One cold request and the cut diagonal it shares, if any.
_Item = Tuple[SolveRequest, Optional[np.ndarray]]


def _traced_leaf_job(job: List[_Item]) -> List[dict]:
    """One job of :func:`repro.qaoa2.solver.leaf_jobs`, plus span bookkeeping.

    A request solved alone binds its trace as the ambient trace inside the
    executor worker, so ``SweepEngine``/backend spans land on the right
    request even when jobs with distinct traces share a thread pool.  A
    lock-stepped job serves several requests, so it binds none and records
    one ``solve`` span with ``leaves=K`` on each member's trace.
    Module-level so the process backend can pickle it (with traces
    stripped; see :meth:`BatchScheduler.run`).
    """
    if len(job) == 1:
        request, diagonal = job[0]
        with use_trace(request.trace):
            with request.trace.span("solve", method=str(request.method)):
                return [_solve_subgraph_job(request, diagonal)]
    start = time.perf_counter()
    requests = [request for request, _ in job]
    results = _solve_lockstep_job(requests, [diagonal for _, diagonal in job])
    end = time.perf_counter()
    for request in requests:
        request.trace.add_span(
            "solve", start, end, method=str(request.method), leaves=len(job)
        )
    return results


def _graph_key(graph: Graph) -> Tuple[int, bytes, bytes, bytes]:
    return (
        graph.n_nodes,
        graph.u.tobytes(),
        graph.v.tobytes(),
        graph.w.tobytes(),
    )


class BatchScheduler:
    """Dispatches deduplicated solve jobs, sharing same-graph cut diagonals."""

    def __init__(
        self,
        executor: Optional[ExecutorConfig] = None,
        *,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.executor = executor if executor is not None else ExecutorConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[SolveRequest],
        *,
        executor: Optional[ExecutorConfig] = None,
        capture_errors: bool = False,
    ) -> List[dict]:
        """Solve every request (each with an integer seed); result dicts
        come back in the order of ``requests``.

        Each request's ``trace`` records its job's spans (observability
        only).  ``executor`` overrides the scheduler's default backend
        for this batch — QAOA² passes its own leaf executor through so
        ``--backend thread`` keeps its meaning on the service path.
        ``capture_errors=True`` turns a failing job into an
        ``{"error": ...}`` result dict instead of an exception (see the
        module docs for the retry semantics).
        """
        executor = executor if executor is not None else self.executor
        diagonals = self._shared_diagonals(requests, executor)
        if executor.backend == "process":
            # Spans recorded in a worker process die with it: send copies
            # without traces rather than pickle span trees that never
            # return (mirrors the diagonal-sharing skip).  The callers'
            # requests keep their traces.
            requests = [replace(request, trace=NO_TRACE) for request in requests]
        results = self._map_resilient(
            list(zip(requests, diagonals, strict=True)), executor, capture_errors
        )
        self.metrics.increment("solves", len(requests))
        failed = sum(1 for r in results if r.get("error"))
        if failed:
            self.metrics.increment("job_errors", failed)
        # Per-backend solve counters ("backend_numpy", "backend_fused",
        # ...) so the stats report shows which evolve kernels served the
        # traffic.
        for result in results:
            name = result.get("backend")
            if name:
                self.metrics.increment(f"backend_{name}")
        return results

    # ------------------------------------------------------------------
    def _map_resilient(
        self,
        items: List[_Item],
        executor: ExecutorConfig,
        capture_errors: bool,
    ) -> List[dict]:
        """``map_jobs`` over the jobs of :func:`leaf_jobs`, with an
        in-process serial retry, one request at a time, on any failure.

        ``pool.map`` raises on the *first* failure, discarding every other
        job's work — whether the cause is one poisoned request (which also
        fails every lock-stepped request with it) or a worker process
        dying mid-solve (``BrokenProcessPool``).  The retry runs each
        request alone so one bad request cannot take its batch-mates down,
        and deterministic jobs recompute their reference results exactly.
        """
        jobs = leaf_jobs([request for request, _ in items], executor)
        try:
            solved = map_jobs(
                _traced_leaf_job, [[items[i] for i in job] for job in jobs], config=executor
            )
            return in_request_order(jobs, solved)
        except Exception:
            self.metrics.increment("executor_retries")
        return [self._solve_or_error(item, capture_errors) for item in items]

    def _solve_or_error(self, item: _Item, capture_errors: bool) -> dict:
        try:
            return _traced_leaf_job([item])[0]
        except Exception as exc:
            if not capture_errors:
                raise
            return {
                "error": f"{type(exc).__name__}: {exc}",
                "method": item[0].method,
                "elapsed": 0.0,
            }

    # ------------------------------------------------------------------
    def _shared_diagonals(
        self, requests: Sequence[SolveRequest], executor: ExecutorConfig
    ) -> List[Optional[np.ndarray]]:
        """One cut diagonal per shape group that wants one, per request
        (``None`` where none is shared).

        Only methods whose solve path reads a diagonal (the QAOA engine
        setup inside ``run_qaoa``) benefit, and only same-graph groups of
        two or more amortise anything.  The thread and serial backends
        share the array by reference; the process backend would pickle a
        2**n vector per job, so sharing is skipped there.
        """
        diagonals: List[Optional[np.ndarray]] = [None] * len(requests)
        if executor.backend == "process":
            return diagonals
        by_graph: Dict[Tuple, List[int]] = {}
        for slot, request in enumerate(requests):
            if request.method in ("qaoa", "best") and (
                request.graph.n_nodes <= MAX_SHARED_DIAGONAL_QUBITS
            ):
                by_graph.setdefault(_graph_key(request.graph), []).append(slot)
        for slots in by_graph.values():
            if len(slots) < 2:
                continue
            diagonal = cut_diagonal(requests[slots[0]].graph)
            for slot in slots:
                diagonals[slot] = diagonal
            self.metrics.increment("shared_diagonals", len(slots))
        return diagonals


__all__ = ["BatchScheduler", "MAX_SHARED_DIAGONAL_QUBITS"]
