"""Coordinator/worker distribution of QAOA² sub-graphs (paper Fig. 2).

"A coordinator executed on a dedicated MPI rank handles the partitioning
and collection of results"; worker ranks solve sub-graph MaxCut problems
either classically (GW) or quantum-mechanically (simulated QAOA).  This
module implements exactly that scheme on the in-process MPI substrate
(:mod:`repro.hpc.comm`) with dynamic (first-free-worker) dispatch, and
measures the coordination overhead behind the paper's "almost ideal
scaling" observation.

Rank 0 drives :meth:`repro.qaoa2.QAOA2Solver.steps`, which partitions,
draws the seeds, merges and flips; every level's batch of leaf requests
(level 0's parts, then each merged graph or its parts) goes to the worker
ranks, which run :func:`repro.qaoa2.solver._solve_subgraph_job` on each
:class:`~repro.qaoa2.solver.SolveRequest`.  So a coordinated solve returns
the in-process ``QAOA2Solver.solve`` answer bit for bit at any worker
count.  A leaf that raises on a worker is sent back and re-raised on rank
0, which stops every worker on its way out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.hpc.comm import ANY_SOURCE, ANY_TAG, Communicator, run_parallel
from repro.optim import drive
from repro.util.rng import RngLike

# NOTE: repro.qaoa2 imports are deferred to function bodies: qaoa2.solver
# uses repro.hpc.executor, so importing it here would create a package-level
# import cycle through repro.hpc.__init__.

_TAG_JOB = 1
_TAG_RESULT = 2
_TAG_STOP = 3


@dataclass
class WorkerStats:
    rank: int
    jobs: int = 0
    busy_time: float = 0.0


@dataclass
class CoordinatorResult:
    """Distributed QAOA² outcome + scaling diagnostics."""

    assignment: np.ndarray
    cut: float
    wall_time: float
    worker_stats: List[WorkerStats]
    coordinator_time: float  # rank 0's partition, merge and flip time
    n_jobs: int

    @property
    def total_work(self) -> float:
        return sum(w.busy_time for w in self.worker_stats)

    @property
    def coordination_overhead(self) -> float:
        """Fraction of wall time not covered by useful work on the critical
        path (lower is better; the paper reports it as 'minimal')."""
        if self.wall_time <= 0:
            return 0.0
        ideal = (self.total_work / max(1, len(self.worker_stats))) + self.coordinator_time
        return max(0.0, 1.0 - ideal / self.wall_time)


def _worker_loop(comm: Communicator) -> WorkerStats:
    from repro.qaoa2.solver import _solve_subgraph_job

    stats = WorkerStats(rank=comm.rank)
    while True:
        status: dict = {}
        message = comm.recv(source=0, tag=ANY_TAG, status=status)
        if status["tag"] == _TAG_STOP:
            return stats
        job_id, request = message
        start = time.perf_counter()
        try:
            result = _solve_subgraph_job(request)
        except Exception as exc:  # sent to rank 0, which re-raises it
            result = exc
        stats.busy_time += time.perf_counter() - start
        stats.jobs += 1
        comm.send((job_id, result), dest=0, tag=_TAG_RESULT)


def _coordinator_loop(comm: Communicator, solver, graph: Graph) -> CoordinatorResult:
    wall_start = time.perf_counter()
    waited = 0.0  # rank 0's time with a batch out at the workers

    def dispatch(requests: list) -> List[dict]:  # of SolveRequest
        nonlocal waited
        start = time.perf_counter()
        jobs = enumerate(requests)
        results: Dict[int, dict] = {}
        # Prime every worker, then dynamic dispatch on completion (Fig. 2's
        # "consumption of resources does not start at the same time" is
        # handled naturally: idle workers immediately receive the next
        # sub-graph).
        for worker, job in zip(range(1, comm.size), jobs, strict=False):
            comm.send(job, dest=worker, tag=_TAG_JOB)
        while len(results) < len(requests):
            status: dict = {}
            job_id, result = comm.recv(
                source=ANY_SOURCE, tag=_TAG_RESULT, status=status
            )
            if isinstance(result, Exception):
                raise result
            results[job_id] = result
            job = next(jobs, None)
            if job is not None:
                comm.send(job, dest=status["source"], tag=_TAG_JOB)
        waited += time.perf_counter() - start
        return [results[job_id] for job_id in range(len(requests))]

    try:
        solved = drive(solver.steps(graph), dispatch)
    finally:
        for worker in range(1, comm.size):
            comm.send(None, dest=worker, tag=_TAG_STOP)
    wall_time = time.perf_counter() - wall_start
    return CoordinatorResult(
        assignment=solved.assignment,
        cut=solved.cut,
        wall_time=wall_time,
        worker_stats=[],  # filled by run_coordinated_qaoa2
        coordinator_time=wall_time - waited,
        n_jobs=solved.n_subproblems,
    )


def run_coordinated_qaoa2(
    graph: Graph,
    *,
    n_workers: int = 2,
    n_max_qubits: int = 10,
    method: Union[str, Callable[[Graph], str]] = "qaoa",
    qaoa_options: Optional[dict] = None,
    gw_options: Optional[dict] = None,
    merged_method: str = "gw",
    partition_method: str = "greedy_modularity",
    rng: RngLike = None,
) -> CoordinatorResult:
    """Run QAOA² through the coordinator/worker scheme.

    Rank 0 partitions and merges; ranks 1..n_workers solve every level's
    sub-graphs.  The answer equals ``QAOA2Solver(...).solve(graph)`` with
    the same options and ``rng`` (``method`` is its ``subgraph_method``);
    the result adds per-worker utilisation statistics.
    """
    from repro.qaoa2.solver import QAOA2Solver

    if n_workers < 1:
        raise ValueError("need at least one worker rank")
    solver = QAOA2Solver(
        n_max_qubits=n_max_qubits,
        subgraph_method=method,
        merged_method=merged_method,
        qaoa_options=qaoa_options or {},
        gw_options=gw_options or {},
        partition_method=partition_method,
        rng=rng,
    )

    def entry(comm: Communicator):
        if comm.rank == 0:
            return _coordinator_loop(comm, solver, graph)
        return _worker_loop(comm)

    outputs = run_parallel(n_workers + 1, entry)
    result: CoordinatorResult = outputs[0]
    result.worker_stats = [outputs[r] for r in range(1, n_workers + 1)]
    return result


__all__ = ["WorkerStats", "CoordinatorResult", "run_coordinated_qaoa2"]
