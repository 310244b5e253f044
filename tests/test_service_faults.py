"""Fault injection: torn and bit-flipped disk logs, stale log offsets,
compaction under concurrency, executor crashes, per-request error
capture."""

from __future__ import annotations

import bisect
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.service import AsyncMaxCutServer, MaxCutService, RequestError, ResultCache
from repro.service.cache import LOG_FILE

from test_service_cache import make_entry

pytestmark = pytest.mark.timeout(120)

OPTIONS = {"layers": 1, "maxiter": 15}


def assert_same_entry(got, want):
    assert got.digest == want.digest
    assert got.cut == want.cut
    assert got.seed == want.seed
    np.testing.assert_array_equal(got.assignment, want.assignment)
    np.testing.assert_array_equal(got.canon_u, want.canon_u)
    np.testing.assert_array_equal(got.canon_v, want.canon_v)
    np.testing.assert_array_equal(got.canon_w, want.canon_w)


# ---------------------------------------------------------------------------
# Torn / truncated / stale logs degrade to misses
# ---------------------------------------------------------------------------
class TestTornStores:
    def _compacted(self, tmp_path, n=4):
        cache = ResultCache(disk_dir=tmp_path)
        for i in range(n):
            cache.put(make_entry(f"d{i:02d}", seed=i))
        cache.compact()
        return cache

    def test_truncated_data_file_is_miss_never_crash(self, tmp_path):
        self._compacted(tmp_path)
        log = tmp_path / LOG_FILE
        raw = log.read_bytes()
        log.write_bytes(raw[: len(raw) // 2])  # torn mid-record
        fresh = ResultCache(disk_dir=tmp_path)
        served = sum(fresh.get(f"d{i:02d}") is not None for i in range(4))
        # Records before the tear are served; the rest are clean misses.
        # Nothing raises, nothing returns a wrong entry.
        assert 0 < served < 4
        for i in range(4):
            got = fresh.get(f"d{i:02d}")
            if got is not None:
                assert got.digest == f"d{i:02d}"

    def test_garbage_data_file_is_all_misses(self, tmp_path):
        self._compacted(tmp_path)
        (tmp_path / LOG_FILE).write_bytes(b"\x00\xff" * 128)
        fresh = ResultCache(disk_dir=tmp_path)
        assert all(fresh.get(f"d{i:02d}") is None for i in range(4))
        assert (tmp_path / LOG_FILE).stat().st_size == 0  # nothing framed

    def test_bad_index_offsets_are_misses(self, tmp_path):
        # Equal-length records, so offsets made stale by another handle's
        # compaction land exactly on a neighbour's clean record: only the
        # digest re-check keeps that a miss.
        writer = ResultCache(disk_dir=tmp_path)
        entries = [make_entry(f"d{i:02d}", seed=i) for i in range(4)]
        for i, entry in enumerate(entries):
            entry.cut = 1.5 + i
            writer.put(entry)
        newer = make_entry("d00", seed=9)
        newer.cut = 9.5
        writer.put(newer)  # d00's newest record is now the last one
        reader = ResultCache(disk_dir=tmp_path)
        writer.compact()  # drops d00's first record: every offset shifts
        assert all(reader.get(f"d{i:02d}") is None for i in range(4))
        fresh = ResultCache(disk_dir=tmp_path)
        for want in [newer, *entries[1:]]:
            assert_same_entry(fresh.get(want.digest), want)

    def test_truncated_store_can_be_rebuilt(self, tmp_path):
        cache = self._compacted(tmp_path)
        (tmp_path / LOG_FILE).write_bytes(b"")
        # Re-populating and recompacting recovers a healthy store.
        cache2 = ResultCache(disk_dir=tmp_path)
        for i in range(4):
            cache2.put(make_entry(f"d{i:02d}", seed=i))
        cache2.compact()
        fresh = ResultCache(disk_dir=tmp_path)
        assert all(fresh.get(f"d{i:02d}") is not None for i in range(4))
        assert cache is not None  # first handle unaffected by the rebuild


# ---------------------------------------------------------------------------
# A crash at any byte: the log recovers every whole record
# ---------------------------------------------------------------------------
class TestCrashAtAnyByte:
    N_FLIPS = 500

    def _written(self, tmp_path):
        """Four entries in one log, and the offset where each record starts."""
        entries = [
            make_entry(f"e{i}", seed=i, params=[0.1 * i, 0.2], layers=1)
            for i in range(4)
        ]
        cache = ResultCache(disk_dir=tmp_path / "src")
        log = tmp_path / "src" / LOG_FILE
        starts = []
        for entry in entries:
            starts.append(log.stat().st_size if log.exists() else 0)
            cache.put(entry)
        return entries, log.read_bytes(), starts

    def test_truncation_at_every_byte_of_the_last_record(self, tmp_path):
        entries, raw, starts = self._written(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        log = work / LOG_FILE
        for cut in range(starts[3], len(raw)):
            log.write_bytes(raw[:cut])
            fresh = ResultCache(disk_dir=work)
            for want in entries[:3]:
                got, tier = fresh.get_tiered(want.digest)
                assert tier == "disk"
                assert_same_entry(got, want)
            assert fresh.get(entries[3].digest) is None
            assert log.stat().st_size == starts[3]  # cut back to the boundary
            fresh.put(entries[3])
            again = ResultCache(disk_dir=work).get(entries[3].digest)
            assert_same_entry(again, entries[3])

    def test_bit_flips_never_serve_a_wrong_entry(self, tmp_path):
        entries, raw, starts = self._written(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        log = work / LOG_FILE
        log.write_bytes(raw)
        opened = ResultCache(disk_dir=work)  # indexed before any flip
        rng = np.random.default_rng(2024)
        for bit in rng.integers(0, 8 * len(raw), size=self.N_FLIPS):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            log.write_bytes(bytes(flipped))
            hit = bisect.bisect_right(starts, bit // 8) - 1  # record holding it
            # The open handle re-checks every record it reads: only the
            # flipped one is a miss.
            opened.clear()
            for k, want in enumerate(entries):
                got = opened.get(want.digest)
                if k == hit:
                    assert got is None
                else:
                    assert_same_entry(got, want)
            # A fresh handle cuts the log at the flipped record and serves
            # every whole record before it.
            fresh = ResultCache(disk_dir=work)
            assert log.stat().st_size == starts[hit]
            for k, want in enumerate(entries):
                got = fresh.get(want.digest)
                if k < hit:
                    assert_same_entry(got, want)
                else:
                    assert got is None


# ---------------------------------------------------------------------------
# Compaction racing puts and gets on one cache
# ---------------------------------------------------------------------------
class TestConcurrentCompaction:
    def test_concurrent_puts_gets_and_compactions(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        errors = []

        def writer(tag):
            try:
                for i in range(20):
                    cache.put(make_entry(f"{tag}{i:02d}", seed=i))
                    cache.get(f"{tag}{(i // 2):02d}")
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def compactor():
            try:
                for _ in range(5):
                    cache.compact()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=("x",)),
            threading.Thread(target=writer, args=("y",)),
            threading.Thread(target=compactor),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.disk_entries() == 40
        for tag in ("x", "y"):
            for i in range(20):
                assert fresh.get(f"{tag}{i:02d}") is not None
        assert [p.name for p in tmp_path.iterdir()] == [LOG_FILE]


# ---------------------------------------------------------------------------
# Executor crashes and per-request error capture
# ---------------------------------------------------------------------------
class TestExecutorFaults:
    def test_broken_pool_retried_serially_bit_identical(self, monkeypatch, tmp_path):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=3)
        ref = MaxCutService(seed=0).solve(graph, seed=2, **OPTIONS)

        import repro.service.scheduler as sched

        real_map_jobs = sched.map_jobs
        calls = {"n": 0}

        def dying_map_jobs(fn, payloads, config=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BrokenProcessPool("worker killed mid-solve")
            return real_map_jobs(fn, payloads, config=config)

        monkeypatch.setattr(sched, "map_jobs", dying_map_jobs)
        service = MaxCutService(seed=0)
        result = service.solve(graph, seed=2, **OPTIONS)
        assert service.metrics.count("executor_retries") == 1
        assert result.cut == ref.cut
        assert np.array_equal(result.assignment, ref.assignment)

    def test_error_mode_raise_propagates(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=1)
        service = MaxCutService(seed=0, error_mode="raise")
        with pytest.raises(ValueError, match="no-such-method"):
            service.solve(graph, method="no-such-method")

    def test_error_mode_capture_isolates_and_never_caches(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=1)
        service = MaxCutService(seed=0, error_mode="capture")
        bad = service.solve(graph, method="no-such-method")
        assert bad.failed and bad.status == "error"
        assert np.isnan(bad.cut)
        assert "error" in bad.extra
        assert service.metrics.count("errors") == 1
        # Errors are never admitted to the cache: resubmission re-fails
        # as a fresh miss rather than serving a cached failure.
        again = service.solve(graph, method="no-such-method")
        assert again.failed
        assert service.metrics.count("misses") == 2
        # And a good request on the same service still works.
        good = service.solve(graph, seed=1, **OPTIONS)
        assert not good.failed

    def test_error_mode_validation(self):
        with pytest.raises(ValueError, match="error_mode"):
            MaxCutService(seed=0, error_mode="ignore")

    def test_batch_mates_survive_one_bad_request(self):
        graphs = [erdos_renyi(9, 0.4, weighted=True, rng=300 + i) for i in range(3)]
        service = MaxCutService(seed=0, error_mode="capture")
        from repro.service import SolveRequest

        requests = [
            SolveRequest(graph=graphs[0], seed=1, options=dict(OPTIONS)),
            SolveRequest(graph=graphs[1], seed=1, method="no-such-method"),
            SolveRequest(graph=graphs[2], seed=1, options=dict(OPTIONS)),
        ]
        results = service.solve_many(requests)
        assert [r.failed for r in results] == [False, True, False]
        ref = MaxCutService(seed=0).solve(graphs[0], seed=1, **OPTIONS)
        assert results[0].cut == ref.cut

    def test_server_survives_whole_batch_failure(self):
        # A crash *below* the per-request capture layer fails those
        # futures with RequestError but leaves the worker serving.
        class ExplodingOnceService(MaxCutService):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.exploded = False

            def solve_many(self, requests, **kwargs):
                if not self.exploded:
                    self.exploded = True
                    raise RuntimeError("solver heap corrupted")
                return super().solve_many(requests, **kwargs)

        import asyncio

        graph = erdos_renyi(9, 0.4, weighted=True, rng=7)

        async def main():
            server = AsyncMaxCutServer(
                service_factory=lambda k, metrics: ExplodingOnceService(
                    seed=0, metrics=metrics
                )
            )
            async with server:
                with pytest.raises(RequestError, match="heap corrupted"):
                    await server.solve(graph, seed=1, **OPTIONS)
                return await server.solve(graph, seed=1, **OPTIONS)

        result = asyncio.run(main())
        assert not result.failed

    def test_cache_cost_floor_skips_cheap_solves(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=2)
        service = MaxCutService(seed=0, cache_cost_floor=1e9)
        service.solve(graph, seed=1, **OPTIONS)
        second = service.solve(graph, seed=1, **OPTIONS)
        # Nothing met the (absurd) floor, so the repeat is a fresh miss.
        assert second.status == "solved"
        assert service.metrics.count("misses") == 2
        assert service.metrics.count("cache_skipped") >= 1
        assert len(service.cache) == 0

    def test_cache_cost_floor_auto_admits_real_solves(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        service = MaxCutService(seed=0, cache_cost_floor="auto")
        service.solve(graph, seed=1, **OPTIONS)
        second = service.solve(graph, seed=1, **OPTIONS)
        # A real QAOA solve costs orders of magnitude more than a
        # fingerprint+store, so auto mode admits it.
        assert second.status == "hit-memory"

    def test_cache_cost_floor_auto_includes_the_store_mean(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=2)
        service = MaxCutService(seed=0, cache_cost_floor="auto")
        service.metrics.observe("store", 1e9)  # an absurdly dear store
        service.solve(graph, seed=1, **OPTIONS)
        assert service.metrics.count("cache_skipped") == 1
        assert len(service.cache) == 0

    def test_cache_cost_floor_validation(self):
        with pytest.raises(ValueError, match="cache_cost_floor"):
            MaxCutService(seed=0, cache_cost_floor="always")
