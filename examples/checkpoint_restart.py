#!/usr/bin/env python
"""Checkpoint/restart of a QAOA² solve (Fig. 2 caption).

The paper notes that aligning classical and quantum resource consumption
"can be achieved by splitting, checkpointing, and restarting the classical
part appropriately".  Here the checkpoint is the solver service's disk
tier: a QAOA² solve routed through ``MaxCutService(disk_dir=...)`` stores
every leaf result it solves, keyed by the leaf's graph, method, options
and seed.  This example solves part of level 0 through a disk-backed
service, abandons the solve (a node failure), and restarts the same solve
on a fresh service over the same directory: the leaves already on disk
are read back, the rest are solved, and the result must equal an
uninterrupted solve.

The restart unit is one batch of leaves (one QAOA² level): the service
stores a batch's results after the batch, so a crash mid-level loses that
level's leaves.  A restart resumes only with an integer ``rng`` (it
re-draws the same partitions and seeds) and the service's default
``cache_cost_floor=None`` (every solve is stored).

Run:  python examples/checkpoint_restart.py          (~2 seconds)
Exits 1 unless the resumed result equals the uninterrupted one and at
least one leaf came from disk.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import time

import numpy as np

from repro.graphs import erdos_renyi
from repro.qaoa2 import QAOA2Solver
from repro.service import MaxCutService


def main() -> int:
    graph = erdos_renyi(80, 0.1, rng=21)
    solver = QAOA2Solver(
        n_max_qubits=10, qaoa_options={"layers": 3, "maxiter": 40}, rng=0
    )
    print(f"instance: {graph}")

    with tempfile.TemporaryDirectory() as tmp:
        # --- First run: the node fails after half of level 0 -------------
        steps = solver.steps(graph)
        level0 = next(steps)
        half = len(level0) // 2
        print(f"\nrun 1: level 0 has {len(level0)} sub-graphs, node fails after {half}")
        t0 = time.perf_counter()
        MaxCutService(disk_dir=tmp).solve_many(level0[:half])
        steps.close()
        print(f"  'crash' after {time.perf_counter() - t0:.1f}s")

        # --- Restart: a fresh service over the same directory ------------
        print("\nrun 2: restarting on a fresh service over the same directory...")
        service = MaxCutService(disk_dir=tmp)
        t0 = time.perf_counter()
        resumed = dataclasses.replace(solver, service=service).solve(graph)
        hits_disk = service.metrics.count("hits_disk")
        print(
            f"  completed {resumed.n_subproblems} sub-problems over "
            f"{len(resumed.levels) + 1} levels in {time.perf_counter() - t0:.1f}s"
        )
        print(f"  hits_disk: {hits_disk}  misses: {service.metrics.count('misses')}")

    reference = solver.solve(graph)
    print(f"\nresumed QAOA² cut: {resumed.cut:.1f}")
    print(f"uninterrupted cut: {reference.cut:.1f}")
    if resumed.cut != reference.cut or not np.array_equal(
        resumed.assignment, reference.assignment
    ):
        print("FAIL: the resumed solve differs from the uninterrupted one")
        return 1
    if hits_disk < 1:
        print("FAIL: the restart read no leaf from disk")
        return 1
    print("resumed solve equals the uninterrupted one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
