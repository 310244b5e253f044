"""Batched job scheduler for the MaxCut solver service.

The service hands the scheduler a batch of *deduplicated* jobs (one per
distinct request digest — coalescing happens upstream in
:mod:`repro.service.service`).  Every job runs the reference
:func:`repro.qaoa2.solver._solve_subgraph_job`, so a service cold solve
is bit-for-bit the solve a direct caller gets (pinned by
``tests/test_service.py::TestBatching``).  The scheduler adds two things
around it:

1. **Shared diagonals.**  ``qaoa`` and ``best`` jobs on byte-identical
   graphs (``n_nodes`` plus exact edge arrays) share one cut diagonal —
   the dominant per-solve setup cost for statevector QAOA — threaded into
   the job via its payload, which produces bit-identical values with or
   without sharing.
2. **Fan-out.**  The jobs are dispatched through
   :func:`repro.hpc.executor.map_jobs` (serial/thread/process).

Results are always returned in submission order, so serial and
concurrent scheduler runs are indistinguishable to the caller.

Fault tolerance (the async server's contract): when an executor batch
dies wholesale — a worker process killed mid-solve surfaces as
``BrokenProcessPool`` — the batch is **retried serially in-process**,
which reproduces the exact per-job reference computation (the job
function is deterministic in its payload).  A job that then still fails
is, under ``capture_errors=True``, returned as an ``{"error": ...}``
result dict instead of poisoning its batch-mates; with the default
``capture_errors=False`` the exception propagates as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.graphs.maxcut import cut_diagonal
from repro.hpc.executor import ExecutorConfig, map_jobs
from repro.qaoa2.solver import _solve_subgraph_job
from repro.service.metrics import ServiceMetrics
from repro.util.tracing import NO_TRACE, NullTraceContext, TraceContext, use_trace

# Only graphs small enough for a statevector benefit from an eagerly
# shared diagonal (mirrors the solver's own max_qubits default).
MAX_SHARED_DIAGONAL_QUBITS = 26


@dataclass
class ScheduledJob:
    """One deduplicated unit of work, as seen by the scheduler."""

    graph: Graph
    method: str
    options: dict
    qaoa_grid: Optional[Sequence[dict]]
    gw_options: dict
    seed: int
    # Owner request's trace (observability only — never in the payload
    # dict, so the reference job function's contract is untouched).
    trace: "TraceContext | NullTraceContext" = NO_TRACE

    def payload(self) -> dict:
        return {
            "graph": self.graph,
            "method": self.method,
            "seed": self.seed,
            "qaoa_options": dict(self.options),
            "qaoa_grid": self.qaoa_grid,
            "gw_options": dict(self.gw_options),
        }


def _traced_solve_job(item: Tuple[dict, "TraceContext | NullTraceContext"]) -> dict:
    """Reference job function plus span bookkeeping.

    The trace rides *next to* the payload (never inside it) and is bound
    as the ambient trace inside the executor worker — this is the bridge
    that lets ``SweepEngine``/backend spans land on the right request even
    when several jobs with distinct traces run in one thread pool.
    Module-level so the process backend can pickle the callable (its items
    carry ``NO_TRACE`` there — see :meth:`BatchScheduler.run`).
    """
    payload, trace = item
    with use_trace(trace):
        with trace.span("solve", method=str(payload.get("method"))):
            return _solve_subgraph_job(payload)


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
        jobs: Sequence[ScheduledJob],
        *,
        executor: Optional[ExecutorConfig] = None,
        capture_errors: bool = False,
    ) -> List[dict]:
        """Execute all jobs; result dicts come back in the order of ``jobs``.

        ``executor`` overrides the scheduler's default backend for this
        batch — QAOA² passes its own leaf executor through so
        ``--backend thread`` keeps its meaning on the service path.
        ``capture_errors=True`` turns a failing job into an
        ``{"error": ...}`` result dict instead of an exception (see the
        module docs for the retry semantics).
        """
        executor = executor if executor is not None else self.executor
        payloads = [job.payload() for job in jobs]
        self._attach_shared_diagonals(jobs, payloads, executor)
        if executor.backend == "process":
            # Spans recorded in a worker process die with it; strip
            # traces rather than pickle span trees that never return
            # (mirrors the diagonal-sharing skip).
            traces: List["TraceContext | NullTraceContext"] = [
                NO_TRACE for _ in jobs
            ]
        else:
            traces = [job.trace for job in jobs]
        results = self._map_resilient(
            list(zip(payloads, traces, strict=True)), executor, capture_errors
        )
        self.metrics.increment("solves", len(jobs))
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
        items: List[Tuple[dict, "TraceContext | NullTraceContext"]],
        executor: ExecutorConfig,
        capture_errors: bool,
    ) -> List[dict]:
        """``map_jobs`` with an in-process serial retry on executor death.

        ``pool.map`` raises on the *first* failure, discarding every other
        job's work — whether the cause is one poisoned payload or a worker
        process dying mid-solve (``BrokenProcessPool``).  The retry runs
        each job serially so one bad job cannot take its batch-mates down,
        and deterministic jobs recompute their reference results exactly.
        """
        try:
            return map_jobs(_traced_solve_job, items, config=executor)
        except Exception:
            self.metrics.increment("executor_retries")
        return [self._solve_or_error(item, capture_errors) for item in items]

    def _solve_or_error(
        self,
        item: Tuple[dict, "TraceContext | NullTraceContext"],
        capture_errors: bool,
    ) -> dict:
        try:
            return _traced_solve_job(item)
        except Exception as exc:
            if not capture_errors:
                raise
            return {
                "error": f"{type(exc).__name__}: {exc}",
                "method": item[0].get("method"),
                "elapsed": 0.0,
            }

    # ------------------------------------------------------------------
    def _attach_shared_diagonals(
        self,
        jobs: Sequence[ScheduledJob],
        payloads: List[dict],
        executor: ExecutorConfig,
    ) -> None:
        """Precompute one cut diagonal per shape group that wants one.

        Only methods whose solve path reads ``payload["diagonal"]`` (the
        QAOA engine setup inside ``run_qaoa``) benefit, and only
        same-graph groups of two or more amortise anything.  The thread
        and serial backends share the array by reference; the process
        backend would pickle a 2**n vector per job, so sharing is skipped
        there.
        """
        if executor.backend == "process":
            return
        by_graph: Dict[Tuple, List[int]] = {}
        for slot, job in enumerate(jobs):
            if job.method in ("qaoa", "best") and (
                job.graph.n_nodes <= MAX_SHARED_DIAGONAL_QUBITS
            ):
                by_graph.setdefault(_graph_key(job.graph), []).append(slot)
        for slots in by_graph.values():
            if len(slots) < 2:
                continue
            diagonal = cut_diagonal(jobs[slots[0]].graph)
            for slot in slots:
                payloads[slot]["diagonal"] = diagonal
            self.metrics.increment("shared_diagonals", len(slots))


__all__ = ["BatchScheduler", "ScheduledJob", "MAX_SHARED_DIAGONAL_QUBITS"]
