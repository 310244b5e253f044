"""AsyncMaxCutServer: concurrent clients, in-flight coalescing, sharding,
admission control, determinism vs the synchronous facade (ISSUE 6)."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.graphs.maxcut import cut_value
from repro.service import (
    AsyncMaxCutServer,
    MaxCutService,
    RequestError,
    ServerOverloaded,
    serve_requests,
    zipf_requests,
)
from repro.service.fingerprint import canonical_fingerprint
from repro.service.sharding import shard_for_digest

pytestmark = pytest.mark.timeout(120)

OPTIONS = {"layers": 1, "maxiter": 15}


def stream(n=40, universe=5, nodes=10, rng=0):
    return zipf_requests(
        n_requests=n,
        universe=universe,
        n_nodes=nodes,
        edge_prob=0.35,
        zipf_exponent=1.1,
        options=OPTIONS,
        rng=rng,
    )


def distinct_digests(requests):
    probe = MaxCutService(seed=0)
    return {probe.describe(r).digest for r in requests}


class GatedService(MaxCutService):
    """A shard service whose solve_many blocks until ``gate`` is set.

    Lets tests hold a solve physically in flight in the worker thread
    (``entered`` flips once the worker is inside) while the event loop
    keeps admitting requests — the window in-flight coalescing and
    admission control exist for.
    """

    def __init__(self, gate, entered, **kwargs):
        super().__init__(**kwargs)
        self._gate = gate
        self._entered = entered

    def solve_many(self, requests, **kwargs):
        self._entered.set()
        assert self._gate.wait(timeout=60), "test gate never opened"
        return super().solve_many(requests, **kwargs)


# ---------------------------------------------------------------------------
# Determinism vs the synchronous facade
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_solve_matches_sync_facade(self):
        graph = erdos_renyi(11, 0.4, weighted=True, rng=3)
        ref = MaxCutService(seed=0).solve(graph, seed=5, **OPTIONS)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                return await server.solve(graph, seed=5, **OPTIONS)

        result = asyncio.run(main())
        assert result.cut == ref.cut
        assert np.array_equal(result.assignment, ref.assignment)
        assert result.seed == ref.seed

    def test_stream_checksum_identical_to_sync(self):
        requests = stream(n=40)
        ref = MaxCutService(seed=0).solve_many(requests)
        server, results = serve_requests(
            requests, clients=6, n_shards=3, seed=0, max_batch=4
        )
        assert len(results) == len(requests)
        for got, want in zip(results, ref, strict=True):
            assert got.cut == want.cut
            assert np.array_equal(got.assignment, want.assignment)
            assert got.seed == want.seed

    def test_shard_count_invariance(self):
        requests = stream(n=30, universe=4)
        _, one = serve_requests(requests, clients=4, n_shards=1, seed=0)
        _, three = serve_requests(requests, clients=4, n_shards=3, seed=0)
        for a, b in zip(one, three, strict=True):
            assert a.cut == b.cut
            assert np.array_equal(a.assignment, b.assignment)

    def test_derived_seed_parity(self):
        # seed=None asks for the content-derived seed on both paths.
        graph = erdos_renyi(10, 0.4, weighted=True, rng=8)
        ref = MaxCutService(seed=0).solve(graph, **OPTIONS)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                return await server.solve(graph, **OPTIONS)

        result = asyncio.run(main())
        assert result.seed == ref.seed
        assert result.cut == ref.cut
        assert np.array_equal(result.assignment, ref.assignment)


# ---------------------------------------------------------------------------
# Concurrency stress: one solve per distinct identity, counters add up
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    def test_exactly_one_solve_per_distinct_digest(self):
        requests = stream(n=60, universe=6)
        server, results = serve_requests(
            requests, clients=8, n_shards=3, seed=0, max_batch=4
        )
        distinct = distinct_digests(requests)
        merged = server.merged_metrics()
        assert merged.count("misses") == len(distinct)
        assert merged.count("solves") == len(distinct)

    def test_metrics_invariant_across_shards(self):
        requests = stream(n=50, universe=5)
        server, _ = serve_requests(requests, clients=6, n_shards=2, seed=0)
        merged = server.merged_metrics()
        assert merged.count("requests") == len(requests)
        assert merged.count("requests") == (
            merged.count("hits_memory")
            + merged.count("hits_disk")
            + merged.count("coalesced")
            + merged.count("misses")
        )

    def test_request_histogram_counts_every_answer(self):
        # solve_many answers misses, submit answers inline hits and
        # _follow answers in-flight followers: each adds one sample.
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        other = erdos_renyi(10, 0.4, weighted=True, rng=3)

        async def main():
            async with AsyncMaxCutServer(seed=0, n_shards=2) as server:
                owner = server.submit(graph, seed=4, **OPTIONS)
                follower = server.submit(graph, seed=4, **OPTIONS)
                results = list(await asyncio.gather(owner, follower))
                for g in (graph, other, other):
                    results.append(await server.solve(g, seed=4, **OPTIONS))
                return server, [r.status for r in results]

        server, statuses = asyncio.run(main())
        assert statuses == [
            "solved", "coalesced-inflight", "hit-memory", "solved", "hit-memory"
        ]
        merged = server.merged_metrics()
        assert merged.count("requests") == 5
        assert merged.latencies["request"].count == 5

    def test_each_submission_is_fingerprinted_once(self):
        # submit() describes a request to route it; a queued request's
        # shard takes that key instead of describing it again.
        requests = zipf_requests(
            n_requests=40,
            universe=4,
            n_nodes=8,
            edge_prob=0.4,
            options={"layers": 1, "maxiter": 10},
            rng=0,
        )
        server, results = serve_requests(requests, clients=2, n_shards=2, seed=0)
        merged = server.merged_metrics()
        assert merged.count("misses") > 0  # some requests were queued
        assert merged.latencies["fingerprint"].count == len(requests)
        reference = MaxCutService(seed=0).solve_many(requests)
        assert [r.digest for r in results] == [r.digest for r in reference]
        assert [r.cut for r in results] == [r.cut for r in reference]

    def test_each_submission_is_probed_once(self):
        # submit() probes the owning shard's cache inline; a queued miss's
        # shard takes it as probed.  One client: no in-flight followers.
        requests = stream(n=30, universe=6)
        server, _ = serve_requests(requests, clients=1, n_shards=2, seed=0)
        merged = server.merged_metrics()
        assert merged.count("misses") > 0
        assert merged.latencies["lookup"].count == len(requests)

    def test_solve_many_rejects_a_key_count_mismatch(self):
        requests = stream(n=3, universe=2)
        service = MaxCutService(seed=0)
        keys = [service.describe(request) for request in requests[:2]]
        with pytest.raises(ValueError, match="2 keys for 3 requests"):
            service.solve_many(requests, keys=keys)

    def test_router_loads_count_admissions_only(self):
        # Only queued (cold) submissions are admissions; inline hits and
        # in-flight followers never enter a queue.
        requests = stream(n=50, universe=5)
        server, _ = serve_requests(requests, clients=6, n_shards=3, seed=0)
        assert sum(server.router.loads) == server.merged_metrics().count("misses")

    def test_many_clients_few_graphs(self):
        # Heavy duplication: every client hammers the same two graphs.
        requests = stream(n=48, universe=2)
        server, results = serve_requests(requests, clients=12, n_shards=2, seed=0)
        assert len(results) == 48
        merged = server.merged_metrics()
        assert merged.count("solves") == len(distinct_digests(requests))
        ref = MaxCutService(seed=0).solve_many(requests)
        for got, want in zip(results, ref, strict=True):
            assert got.cut == want.cut

    def test_backpressure_small_queue_serves_everything(self):
        # Sequential clients give natural flow control — each has at most
        # one cold submission queued — so clients <= queue_depth must
        # slow things down, never drop or deadlock.
        requests = stream(n=30, universe=6)
        server, results = serve_requests(
            requests, clients=3, n_shards=1, seed=0, queue_depth=3, max_batch=2
        )
        assert len(results) == 30
        merged = server.merged_metrics()
        assert merged.count("rejected") == 0
        assert merged.count("shed") == 0


# ---------------------------------------------------------------------------
# One metrics recorder per server
# ---------------------------------------------------------------------------
class TestOneRecorder:
    def test_every_shard_records_into_the_server_recorder(self):
        server = AsyncMaxCutServer(n_shards=2, seed=0)
        assert len(server.services) == 2
        for service in server.services:
            assert service.metrics is server.merged_metrics()

    def test_a_service_with_its_own_recorder_is_refused(self):
        with pytest.raises(ValueError, match="shard 0's service records"):
            AsyncMaxCutServer(
                n_shards=2, service_factory=lambda k, metrics: MaxCutService()
            )

    def test_auto_cost_floor_on_shard_one_sees_the_fingerprint_cost(self):
        # Shard 0 describes every submission; the auto floor of the shard
        # that solves must still see those fingerprint samples.
        graph = next(
            g
            for g in (erdos_renyi(9, 0.4, weighted=True, rng=k) for k in range(64))
            if shard_for_digest(canonical_fingerprint(g).digest, 2) == 1
        )

        async def main():
            async with AsyncMaxCutServer(
                n_shards=2, seed=0, cache_cost_floor="auto"
            ) as server:
                server.merged_metrics().observe("fingerprint", 1e9)
                result = await server.solve(graph, seed=1, **OPTIONS)
            return server, result

        server, result = asyncio.run(main())
        assert result.status == "solved"
        assert server.merged_metrics().count("cache_skipped") == 1
        assert len(server.services[1].cache) == 0


# ---------------------------------------------------------------------------
# In-flight coalescing
# ---------------------------------------------------------------------------
class TestInflightCoalescing:
    def test_duplicate_submissions_coalesce_before_worker_runs(self):
        # No awaits between submits: the second MUST piggyback on the
        # first (the in-flight map is updated synchronously).
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                f1 = server.submit(graph, seed=4, **OPTIONS)
                f2 = server.submit(graph, seed=4, **OPTIONS)
                r1, r2 = await asyncio.gather(f1, f2)
                return server, r1, r2

        server, r1, r2 = asyncio.run(main())
        assert r1.status in ("solved", "coalesced")
        assert r2.status == "coalesced-inflight"
        assert r2.cut == r1.cut
        assert np.array_equal(r2.assignment, r1.assignment)
        merged = server.merged_metrics()
        assert merged.count("solves") == 1
        assert merged.count("coalesced_inflight") == 1

    def test_follower_joins_physically_running_solve(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=5)
        gate, entered = threading.Event(), threading.Event()

        async def main():
            server = AsyncMaxCutServer(
                max_batch=1,
                service_factory=lambda k, metrics: GatedService(
                    gate, entered, seed=0, metrics=metrics
                ),
            )
            try:
                async with server:
                    f1 = server.submit(graph, seed=1, **OPTIONS)
                    assert await asyncio.to_thread(entered.wait, 60)
                    # The solve is now executing in the worker thread.
                    f2 = server.submit(graph, seed=1, **OPTIONS)
                    gate.set()
                    return server, *(await asyncio.gather(f1, f2))
            finally:
                gate.set()

        server, r1, r2 = asyncio.run(main())
        assert r2.status == "coalesced-inflight"
        assert r2.cut == r1.cut
        assert server.merged_metrics().count("solves") == 1

    def test_relabelled_follower_gets_unrelabelled_assignment(self):
        graph = erdos_renyi(12, 0.35, weighted=True, rng=6)
        perm = np.random.default_rng(42).permutation(12)
        relabeled = graph.relabel(perm)
        gate, entered = threading.Event(), threading.Event()

        async def main():
            server = AsyncMaxCutServer(
                max_batch=1,
                service_factory=lambda k, metrics: GatedService(
                    gate, entered, seed=0, metrics=metrics
                ),
            )
            try:
                async with server:
                    f1 = server.submit(graph, seed=7, **OPTIONS)
                    assert await asyncio.to_thread(entered.wait, 60)
                    f2 = server.submit(relabeled, seed=7, **OPTIONS)
                    gate.set()
                    return await asyncio.gather(f1, f2)
            finally:
                gate.set()

        r1, r2 = asyncio.run(main())
        assert r2.status == "coalesced-inflight"
        assert r2.cut == r1.cut
        # The follower's assignment is in the follower's labels: it must
        # achieve the owner's cut on the *relabelled* graph.
        assert cut_value(relabeled, r2.assignment) == pytest.approx(r1.cut, abs=1e-9)

    def test_sequential_resubmission_is_a_cache_hit(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=9)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                first = await server.solve(graph, seed=2, **OPTIONS)
                second = await server.solve(graph, seed=2, **OPTIONS)
                return server, first, second

        server, first, second = asyncio.run(main())
        assert first.status == "solved"
        assert second.status == "hit-memory"
        merged = server.merged_metrics()
        assert merged.count("requests") == 2
        assert merged.count("hits_memory") == 1


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    @staticmethod
    def _graphs(k):
        return [erdos_renyi(9, 0.4, weighted=True, rng=100 + i) for i in range(k)]

    def test_reject_policy_raises_when_full(self):
        g1, g2, g3 = self._graphs(3)
        gate, entered = threading.Event(), threading.Event()

        async def main():
            server = AsyncMaxCutServer(
                queue_depth=1,
                max_batch=1,
                admission="reject",
                service_factory=lambda k, metrics: GatedService(
                    gate, entered, seed=0, metrics=metrics
                ),
            )
            try:
                async with server:
                    f1 = server.submit(g1, seed=1, **OPTIONS)
                    assert await asyncio.to_thread(entered.wait, 60)
                    f2 = server.submit(g2, seed=1, **OPTIONS)  # fills the queue
                    with pytest.raises(ServerOverloaded):
                        server.submit(g3, seed=1, **OPTIONS)
                    rejected = server.merged_metrics().count("rejected")
                    gate.set()
                    r1, r2 = await asyncio.gather(f1, f2)
                    return server, rejected, r1, r2
            finally:
                gate.set()

        server, rejected, r1, r2 = asyncio.run(main())
        assert rejected == 1
        # The admitted requests were unaffected by the rejection.
        assert r1.status in ("solved", "coalesced")
        assert r2.status in ("solved", "coalesced")

    def test_shed_policy_fails_oldest_admits_newest(self):
        g1, g2, g3 = self._graphs(3)
        gate, entered = threading.Event(), threading.Event()

        async def main():
            server = AsyncMaxCutServer(
                queue_depth=1,
                max_batch=1,
                admission="shed",
                service_factory=lambda k, metrics: GatedService(
                    gate, entered, seed=0, metrics=metrics
                ),
            )
            try:
                async with server:
                    f1 = server.submit(g1, seed=1, **OPTIONS)
                    assert await asyncio.to_thread(entered.wait, 60)
                    f2 = server.submit(g2, seed=1, **OPTIONS)
                    f3 = server.submit(g3, seed=1, **OPTIONS)  # sheds f2
                    gate.set()
                    r1 = await f1
                    r3 = await f3
                    with pytest.raises(ServerOverloaded):
                        await f2
                    return server, r1, r3

            finally:
                gate.set()

        server, r1, r3 = asyncio.run(main())
        assert server.merged_metrics().count("shed") == 1
        assert r1.status in ("solved", "coalesced")
        assert r3.status in ("solved", "coalesced")

    def test_shed_request_can_be_resubmitted(self):
        g1, g2, g3 = self._graphs(3)
        gate, entered = threading.Event(), threading.Event()

        async def main():
            server = AsyncMaxCutServer(
                queue_depth=1,
                max_batch=1,
                admission="shed",
                service_factory=lambda k, metrics: GatedService(
                    gate, entered, seed=0, metrics=metrics
                ),
            )
            try:
                async with server:
                    server.submit(g1, seed=1, **OPTIONS)
                    assert await asyncio.to_thread(entered.wait, 60)
                    f2 = server.submit(g2, seed=1, **OPTIONS)
                    server.submit(g3, seed=1, **OPTIONS)
                    with pytest.raises(ServerOverloaded):
                        await f2
                    gate.set()
                    # The shed graph is re-admittable once load drains —
                    # its stale in-flight record must not poison it.
                    retry = await server.solve(g2, seed=1, **OPTIONS)
                    return retry
            finally:
                gate.set()

        retry = asyncio.run(main())
        ref = MaxCutService(seed=0).solve(g2, seed=1, **OPTIONS)
        assert retry.cut == ref.cut


# ---------------------------------------------------------------------------
# Error propagation
# ---------------------------------------------------------------------------
class TestErrors:
    def test_bad_request_fails_alone(self):
        good = erdos_renyi(10, 0.4, weighted=True, rng=1)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                f_good = server.submit(good, seed=1, **OPTIONS)
                f_bad = server.submit(good, seed=2, method="no-such-method")
                f_good2 = server.submit(good, seed=3, **OPTIONS)
                r_good, r_bad, r_good2 = await asyncio.gather(f_good, f_bad, f_good2)
                return server, r_good, r_bad, r_good2

        server, r_good, r_bad, r_good2 = asyncio.run(main())
        assert r_bad.failed and r_bad.status == "error"
        assert "error" in r_bad.extra
        assert not r_good.failed and not r_good2.failed
        assert server.merged_metrics().count("errors") >= 1

    def test_solve_raises_request_error(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=1)

        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                with pytest.raises(RequestError):
                    await server.solve(graph, method="no-such-method")
                # The server keeps serving afterwards.
                return await server.solve(graph, seed=1, **OPTIONS)

        result = asyncio.run(main())
        assert not result.failed

    def test_follower_of_failed_owner_also_fails(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=4)
        gate, entered = threading.Event(), threading.Event()

        async def main():
            server = AsyncMaxCutServer(
                max_batch=1,
                service_factory=lambda k, metrics: GatedService(
                    gate, entered, seed=0, error_mode="capture", metrics=metrics
                ),
            )
            try:
                async with server:
                    f1 = server.submit(graph, seed=1, method="no-such-method")
                    assert await asyncio.to_thread(entered.wait, 60)
                    f2 = server.submit(graph, seed=1, method="no-such-method")
                    gate.set()
                    return server, *(await asyncio.gather(f1, f2))
            finally:
                gate.set()

        server, r1, r2 = asyncio.run(main())
        assert r1.failed and r2.failed
        assert r2.extra.get("error") == r1.extra.get("error")


# ---------------------------------------------------------------------------
# Lifecycle and validation
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_submit_before_start_raises(self):
        server = AsyncMaxCutServer(seed=0)
        graph = erdos_renyi(8, 0.4, weighted=True, rng=0)

        async def main():
            with pytest.raises(RuntimeError, match="not started"):
                server.submit(graph, seed=1, **OPTIONS)

        asyncio.run(main())

    def test_double_start_raises(self):
        async def main():
            server = await AsyncMaxCutServer(seed=0).start()
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            await server.stop()

        asyncio.run(main())

    def test_stop_is_idempotent(self):
        async def main():
            server = await AsyncMaxCutServer(seed=0).start()
            await server.stop()
            await server.stop()  # no-op, no error

        asyncio.run(main())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admission": "drop-newest"},
            {"queue_depth": 0},
            {"max_batch": 0},
            {"n_shards": 0},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            AsyncMaxCutServer(seed=0, **kwargs)

    def test_solve_stream_validates_and_handles_empty(self):
        async def main():
            async with AsyncMaxCutServer(seed=0) as server:
                assert await server.solve_stream([]) == []
                with pytest.raises(ValueError, match="clients"):
                    await server.solve_stream(stream(n=2), clients=0)

        asyncio.run(main())

    def test_stats_report_covers_shards(self):
        requests = stream(n=20, universe=3)
        server, _ = serve_requests(requests, clients=4, n_shards=2, seed=0)
        report = server.stats_report()
        assert "2 shards" in report
        assert "shard 0" in report and "shard 1" in report
        assert "requests" in report

    def test_serve_requests_returns_in_request_order(self):
        requests = stream(n=25, universe=4)
        _, results = serve_requests(requests, clients=5, seed=0)
        ref = MaxCutService(seed=0).solve_many(requests)
        assert [r.digest for r in results] == [r.digest for r in ref]
