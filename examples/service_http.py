#!/usr/bin/env python
"""Quickstart: the MaxCut service over real HTTP.

Boots the full serving stack (async sharded server + HTTP/1.1 front
end) on a background thread, then talks to it the way an external
caller would — :class:`repro.service.HttpMaxCutClient` over a
keep-alive socket:

* ``GET /healthz`` liveness probe;
* ``POST /solve`` — a cold solve, then the identical request again as a
  cache hit, with results asserted **bit-identical** to an in-process
  :class:`repro.service.MaxCutService` (the wire is invisible to
  determinism);
* the documented error contract in action: an unknown path (404) and a
  strict-schema rejection (400) — see ``docs/http-api.md``;
* ``GET /stats`` — the server's counters + HTTP latency percentiles;
* graceful drain on shutdown.

Run:  python examples/service_http.py          (~2 seconds)
"""

from __future__ import annotations

import numpy as np

from repro.graphs import erdos_renyi
from repro.service import HttpMaxCutClient, MaxCutService
from repro.service.http import HttpServerThread

OPTIONS = {"layers": 2, "maxiter": 40}


def main() -> None:
    graph = erdos_renyi(14, 0.3, weighted=True, rng=7)

    with HttpServerThread(n_shards=2, seed=0) as handle:
        print(f"server up on http://{handle.host}:{handle.port}  (2 shards)")
        with HttpMaxCutClient(handle.host, handle.port) as client:
            health = client.healthz()
            print(f"GET /healthz        -> {health}")

            first = client.solve(graph, seed=5, **OPTIONS)
            print(
                f"POST /solve         -> status={first.status!r} "
                f"cut={first.cut:.4f} ({first.elapsed * 1e3:.1f}ms solve)"
            )
            again = client.solve(graph, seed=5, **OPTIONS)
            print(f"POST /solve (same)  -> status={again.status!r} (cached)")
            assert again.cut == first.cut

            # The wire is invisible: bit-identical to in-process solving.
            reference = MaxCutService(seed=0).solve(graph, seed=5, **OPTIONS)
            assert first.cut == reference.cut
            assert np.array_equal(first.assignment, reference.assignment)
            assert first.seed == reference.seed
            print("parity              -> identical to in-process MaxCutService")

            # The documented error contract (docs/http-api.md).
            status, payload = client.request("GET", "/nope")
            print(f"GET /nope           -> {status} code={payload['code']!r}")
            status, payload = client.request(
                "POST", "/solve", {"graph": {"n_nodes": 4, "edges": []}, "typo": 1}
            )
            print(f"POST bad schema     -> {status} code={payload['code']!r}")

            stats = client.stats()
            counters = stats["metrics"]["counters"]
            http_counters = stats["http"]["counters"]
            print(
                f"GET /stats          -> shard requests={counters['requests']} "
                f"hits_memory={counters.get('hits_memory', 0)} | "
                f"http_requests={http_counters['http_requests']}"
            )
    print("graceful drain      -> done")


if __name__ == "__main__":
    main()
