#!/usr/bin/env python
"""The HPC workflow experiments: Fig. 1 (heterogeneous jobs) and Fig. 2
(coordinator/worker distribution) on the simulated SLURM + MPI substrate.

Part 1 schedules hybrid jobs (classical pre-work -> quantum phase ->
classical post-work) on a CPU+QPU cluster, comparing monolithic
allocations against SLURM heterogeneous jobs and printing the Gantt
charts — the quantum device idle time drops exactly as Fig. 1 sketches.

Part 2 runs a real QAOA² solve through the Fig. 2 coordinator scheme:
rank 0 partitions the graph and dynamically dispatches sub-graphs to
worker ranks over the MPI-like communicator.

Run:  python examples/hybrid_workflow_slurm.py          (~4 seconds)
"""

from __future__ import annotations

from repro.experiments import run_coordinator_scaling, run_hetjob_experiment


def main() -> None:
    print("=" * 70)
    print("Part 1 — Fig. 1: heterogeneous jobs vs monolithic allocation")
    print("=" * 70)
    het = run_hetjob_experiment(
        n_jobs=3, classical_pre=4.0, quantum=1.0, classical_post=2.0,
        cpus=4, qpus=1,
    )
    print(het.format_report())
    print(
        f"\n-> heterogeneous jobs save {het.qpu_idle_reduction:.1f} time units "
        f"of QPU hold-idle time and speed the makespan up "
        f"{het.makespan_speedup:.2f}x"
    )

    print()
    print("=" * 70)
    print("Part 2 — Fig. 2: coordinator/worker QAOA² distribution")
    print("=" * 70)
    scaling = run_coordinator_scaling(
        worker_counts=(1, 2, 4),
        n_nodes=80,
        edge_prob=0.1,
        n_max_qubits=12,
        method="qaoa",
        qaoa_options={"layers": 3, "maxiter": 40},
        rng=0,
    )
    print(scaling.format_table())
    workers = scaling.worker_counts
    print(
        f"\n-> {workers[-1]} workers against {workers[0]}: wall-time speedup "
        f"{scaling.speedups()[-1]:.2f}x, efficiency {scaling.efficiencies()[-1]:.0%}, "
        f"coordination overhead {scaling.results[-1].coordination_overhead:.1%} "
        f"(paper: 'minimal ... almost ideal scaling')"
    )


if __name__ == "__main__":
    main()
