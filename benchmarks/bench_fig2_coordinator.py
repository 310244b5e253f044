"""E7 — Fig. 2: coordinator/worker distribution of QAOA² sub-graphs.

Runs the coordinator scheme (rank 0 partitions/merges, workers solve every
level's sub-graphs, dynamic first-free dispatch) at several worker counts and
reports speedup, efficiency and coordination overhead.  The paper reports
the coordination overhead "is minimal and overall an almost ideal scaling
is achieved".
"""

from __future__ import annotations

from conftest import emit_report, paper_scale

from repro.experiments import run_coordinator_scaling


def test_fig2_coordinator_scaling(once):
    if paper_scale():
        worker_counts, n_nodes, cap = (1, 2, 4, 8), 300, 14
        qaoa = {"layers": 3, "maxiter": 60}
    else:
        worker_counts, n_nodes, cap = (1, 2, 4), 80, 12
        qaoa = {"layers": 3, "maxiter": 40}
    result = once(
        run_coordinator_scaling,
        worker_counts=worker_counts,
        n_nodes=n_nodes,
        edge_prob=0.1,
        n_max_qubits=cap,
        method="qaoa",
        qaoa_options=qaoa,
        rng=0,
    )
    emit_report("fig2_coordinator_scaling", result.format_table())
    # Overhead should be small (the paper: "minimal").
    assert all(o < 0.5 for o in result.overheads())
    # The same solution at every worker count: rank 0 drives the in-process
    # solver's level loop, so the work and the seeds are the same.
    cuts = [r.cut for r in result.results]
    assert len(set(cuts)) == 1, cuts
