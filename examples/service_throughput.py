#!/usr/bin/env python
"""Quickstart: serving MaxCut requests through `repro.service`.

Feeds a Zipf-distributed request stream (a few hot graphs requested over
and over — the shape of QAOA²'s deeper-level sub-problem traffic) through
:class:`repro.service.MaxCutService` and compares against paying a cold
solve per request.  Also shows the two subtler cache behaviours: a
relabeled-isomorphic graph hitting the original's entry, and cached
optimal angles exported into the Fig. 3 knowledge base as warm starts.

Run:  python examples/service_throughput.py          (~4 seconds)
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.maxcut import cut_value
from repro.qaoa2.solver import _solve_subgraph_job
from repro.service import MaxCutService, zipf_requests

OPTIONS = {"layers": 2, "maxiter": 30}


def main() -> None:
    requests = zipf_requests(
        n_requests=40, universe=5, n_nodes=12, edge_prob=0.3,
        options=OPTIONS, rng=0,
    )
    print(f"workload: {len(requests)} requests, Zipf over 5 distinct graphs\n")

    # -- every request pays a cold solve ------------------------------
    start = time.perf_counter()
    direct = [_solve_subgraph_job(r) for r in requests]
    uncached_s = time.perf_counter() - start
    print(f"uncached (one solve per request): {uncached_s:6.2f}s")

    # -- the same stream through the service --------------------------
    service = MaxCutService(seed=0)
    start = time.perf_counter()
    served = []
    for i in range(0, len(requests), 8):  # requests arrive in batches
        served.extend(service.solve_many(requests[i : i + 8]))
    service_s = time.perf_counter() - start
    identical = all(
        res.cut == ref["cut"] for ref, res in zip(direct, served, strict=True)
    )
    print(f"service (cache + coalescing):     {service_s:6.2f}s  "
          f"→ {uncached_s / service_s:.1f}x, cuts identical: {identical}\n")

    # -- isomorphic graphs share one cache entry ----------------------
    hot = requests[0].graph
    relabeled = hot.relabel(np.random.default_rng(1).permutation(hot.n_nodes))
    result = service.solve(relabeled, seed=requests[0].seed, **OPTIONS)
    print(f"relabeled-isomorphic request: {result.status}, cut "
          f"{result.cut:.3f} (verified: "
          f"{abs(cut_value(relabeled, result.assignment) - result.cut) < 1e-9})\n")

    # -- cached angles become knowledge-base warm starts --------------
    kb = service.export_knowledge()
    print(f"knowledge base export: {len(kb)} warm-start records\n")

    print(service.stats_report())


if __name__ == "__main__":
    main()
