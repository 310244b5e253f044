"""Figs. 1-2 workflow experiments: heterogeneous-job idle-time reduction and
coordinator/worker distribution overhead.

Fig. 1 is a scheduling claim — submitting the hybrid jobs as heterogeneous
components lets a second job use the quantum device before the first job
finishes, eliminating QPU hold-idle time.  Fig. 2's scheme is the
coordinator rank distributing QAOA² sub-graphs to workers; the paper reports
the coordination overhead "is minimal and overall an almost ideal scaling is
achieved".  Both are measured here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.generators import erdos_renyi
from repro.hpc.coordinator import CoordinatorResult, run_coordinated_qaoa2
from repro.hpc.slurm import Cluster, SlurmSimulator, hybrid_workflow_jobs
from repro.util.rng import RngLike


# ---------------------------------------------------------------------------
# Fig. 1 — heterogeneous jobs vs monolithic allocation
# ---------------------------------------------------------------------------
@dataclass
class HetJobExperimentResult:
    """Metrics per scheduling mode (the Fig. 1 comparison)."""

    metrics: Dict[str, Dict[str, float]]
    gantts: Dict[str, str]

    @property
    def qpu_idle_reduction(self) -> float:
        """Absolute QPU hold-idle time saved by heterogeneous jobs."""
        return (
            self.metrics["monolithic"]["qpu_idle_while_allocated"]
            - self.metrics["heterogeneous"]["qpu_idle_while_allocated"]
        )

    @property
    def makespan_speedup(self) -> float:
        het = self.metrics["heterogeneous"]["makespan"]
        if het <= 0:
            return 1.0
        return self.metrics["monolithic"]["makespan"] / het

    def format_report(self) -> str:
        from repro.experiments.report import format_kv_block

        blocks = []
        for mode, values in self.metrics.items():
            blocks.append(format_kv_block(f"[{mode}]", values))
            blocks.append(self.gantts[mode])
        blocks.append(
            format_kv_block(
                "[summary]",
                {
                    "qpu_idle_reduction": self.qpu_idle_reduction,
                    "makespan_speedup": self.makespan_speedup,
                },
            )
        )
        return "\n\n".join(blocks)


def run_hetjob_experiment(
    *,
    n_jobs: int = 2,
    classical_pre: float = 4.0,
    quantum: float = 1.0,
    classical_post: float = 2.0,
    cpus: int = 4,
    qpus: int = 1,
    backfill: bool = True,
) -> HetJobExperimentResult:
    """Schedule the Fig. 1 workload under both submission modes."""
    metrics: Dict[str, Dict[str, float]] = {}
    gantts: Dict[str, str] = {}
    for mode in ("monolithic", "heterogeneous"):
        cluster = Cluster({"cpu": cpus, "qpu": qpus})
        sim = SlurmSimulator(cluster, mode=mode, backfill=backfill)
        for job in hybrid_workflow_jobs(
            n_jobs,
            classical_pre=classical_pre,
            quantum=quantum,
            classical_post=classical_post,
        ):
            sim.submit(job)
        schedule = sim.run()
        metrics[mode] = {
            "makespan": schedule.makespan,
            "qpu_idle_while_allocated": schedule.idle_while_allocated("qpu"),
            "qpu_utilization": schedule.utilization("qpu"),
            "cpu_utilization": schedule.utilization("cpu"),
            "mean_turnaround": float(
                np.mean(list(schedule.job_turnaround().values()))
            ),
        }
        gantts[mode] = schedule.gantt(width=60)
    return HetJobExperimentResult(metrics, gantts)


# ---------------------------------------------------------------------------
# Fig. 2 — coordinator/worker scaling
# ---------------------------------------------------------------------------
@dataclass
class CoordinatorScalingResult:
    worker_counts: List[int]
    results: List[CoordinatorResult]

    def speedups(self) -> List[float]:
        """The first run's wall time over each run's (the first reads 1.0)."""
        first = self.results[0].wall_time
        return [first / r.wall_time for r in self.results]

    def efficiencies(self) -> List[float]:
        """Each speedup over its worker count's ratio to the first run's."""
        ratios = [w / self.worker_counts[0] for w in self.worker_counts]
        return [s / r for s, r in zip(self.speedups(), ratios, strict=True)]

    def overheads(self) -> List[float]:
        return [r.coordination_overhead for r in self.results]

    def format_table(self) -> str:
        from repro.experiments.report import format_series_table

        return format_series_table(
            "workers",
            self.worker_counts,
            {
                "cut": [r.cut for r in self.results],
                "wall_s": [r.wall_time for r in self.results],
                "speedup": self.speedups(),
                "efficiency": self.efficiencies(),
                "overhead": self.overheads(),
            },
            title="Fig2 coordinator/worker scaling",
        )


def run_coordinator_scaling(
    graph: Optional[Graph] = None,
    *,
    worker_counts: Sequence[int] = (1, 2, 4),
    n_nodes: int = 60,
    edge_prob: float = 0.1,
    n_max_qubits: int = 10,
    method: str = "qaoa",
    qaoa_options: Optional[dict] = None,
    rng: RngLike = 0,
) -> CoordinatorScalingResult:
    """Run the coordinator scheme at several worker counts on one graph."""
    if graph is None:
        graph = erdos_renyi(n_nodes, edge_prob, rng=rng)
    results = []
    for workers in worker_counts:
        results.append(
            run_coordinated_qaoa2(
                graph,
                n_workers=int(workers),
                n_max_qubits=n_max_qubits,
                method=method,
                qaoa_options=qaoa_options or {"layers": 3, "maxiter": 40},
                rng=rng,
            )
        )
    return CoordinatorScalingResult(list(worker_counts), results)


__all__ = [
    "HetJobExperimentResult",
    "run_hetjob_experiment",
    "CoordinatorScalingResult",
    "run_coordinator_scaling",
]
