#!/usr/bin/env python
"""Checkpoint/restart of a QAOA² solve (Fig. 2 caption).

The paper notes that aligning classical and quantum resource consumption
"can be achieved by splitting, checkpointing, and restarting the classical
part appropriately".  This example journals sub-graph results as they
complete, abandons the solve halfway through level 0 (a node failure), and
restarts: the second run resumes from the journal, computes only the
missing sub-problems and the merged levels, and must return exactly the
result of an uninterrupted solve.

Run:  python examples/checkpoint_restart.py          (~2 seconds)
Exits 1 if the resumed result differs from the uninterrupted one.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.graphs import erdos_renyi
from repro.hpc.checkpoint import CheckpointStore, checkpointed_qaoa2, solve_journaled
from repro.qaoa2 import QAOA2Solver


def main() -> int:
    graph = erdos_renyi(80, 0.1, rng=21)
    solver = QAOA2Solver(
        n_max_qubits=10, qaoa_options={"layers": 3, "maxiter": 40}, rng=0
    )
    print(f"instance: {graph}")

    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp) / "qaoa2.jsonl")

        # --- First run: the node fails after half of level 0 -------------
        steps = solver.steps(graph)
        level0 = next(steps)
        half = len(level0) // 2
        print(f"\nrun 1: level 0 has {len(level0)} sub-graphs, node fails after {half}")
        t0 = time.perf_counter()
        solve_journaled(level0[:half], store)
        steps.close()
        print(f"  'crash' after {time.perf_counter() - t0:.1f}s")
        journaled = len(store.load())
        print(f"  journal holds {journaled} committed sub-graph results")

        # --- Restart: resumes from the journal ---------------------------
        print("\nrun 2: restarting from the journal...")
        t0 = time.perf_counter()
        resumed = checkpointed_qaoa2(solver, graph, store)
        print(
            f"  completed {resumed.n_subproblems} sub-problems over "
            f"{len(resumed.levels) + 1} levels in {time.perf_counter() - t0:.1f}s "
            f"({journaled} resumed from disk, "
            f"{resumed.n_subproblems - journaled} computed)"
        )

    reference = solver.solve(graph)
    print(f"\nresumed QAOA² cut: {resumed.cut:.1f}")
    print(f"uninterrupted cut: {reference.cut:.1f}")
    if resumed.cut != reference.cut or not np.array_equal(
        resumed.assignment, reference.assignment
    ):
        print("FAIL: the resumed solve differs from the uninterrupted one")
        return 1
    print("resumed solve equals the uninterrupted one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
