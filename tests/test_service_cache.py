"""Two-tier result cache: LRU accounting, disk tier, knowledge export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.service.cache import ENTRY_OVERHEAD_BYTES, LOG_FILE, CacheEntry, ResultCache
from repro.service.fingerprint import canonical_fingerprint


def make_entry(
    digest, n_nodes=6, seed=0, params=None, layers=None, extra=None,
    graph_seed=0,
):
    """``graph_seed`` pins the topology (and so the entry byte size);
    ``seed`` varies the stored solution."""
    gen = np.random.default_rng(seed)
    graph = erdos_renyi(n_nodes, 0.5, weighted=True, rng=graph_seed)
    fp = canonical_fingerprint(graph)
    return CacheEntry(
        digest=digest,
        n_nodes=n_nodes,
        canon_u=fp.canon_u,
        canon_v=fp.canon_v,
        canon_w=fp.canon_w,
        assignment=gen.integers(0, 2, n_nodes).astype(np.uint8),
        cut=float(gen.uniform(1, 10)),
        method="qaoa",
        seed=seed,
        params=params,
        layers=layers,
        rhobeg=0.5 if layers else None,
        extra=dict(extra or {}),
    )


class TestMemoryTier:
    def test_put_get_roundtrip(self):
        cache = ResultCache()
        entry = make_entry("d0")
        cache.put(entry)
        got = cache.get("d0")
        assert got is entry
        assert got.hits == 1
        assert cache.get("missing") is None

    def test_lru_eviction_by_bytes(self):
        entry_bytes = make_entry("x").nbytes
        cache = ResultCache(max_bytes=3 * entry_bytes)
        for i in range(3):
            cache.put(make_entry(f"d{i}", seed=i))
        assert len(cache) == 3
        cache.get("d0")  # touch: d1 becomes least recently used
        cache.put(make_entry("d3", seed=3))
        assert cache.get("d1") is None  # evicted
        assert cache.get("d0") is not None
        assert cache.metrics.count("evictions") == 1
        assert cache.nbytes <= cache.max_bytes

    def test_nbytes_tracks_replacement(self):
        cache = ResultCache()
        cache.put(make_entry("d0"))
        before = cache.nbytes
        cache.put(make_entry("d0", seed=9))  # same digest, replaced
        assert len(cache) == 1
        assert cache.nbytes == before

    def test_entry_nbytes_accounts_arrays(self):
        entry = make_entry("d0")
        assert entry.nbytes >= ENTRY_OVERHEAD_BYTES + entry.assignment.nbytes

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestDiskTier:
    def test_write_through_and_reload(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "kb")
        entry = make_entry("d0", params=[0.1, 0.2], layers=1, extra={"qaoa_cut": 3.5})
        cache.put(entry)
        assert cache.disk_entries() == 1

        fresh = ResultCache(disk_dir=tmp_path / "kb")  # simulates a restart
        got, tier = fresh.get_tiered("d0")
        assert tier == "disk"
        assert got is not entry
        assert got.cut == entry.cut
        assert np.array_equal(got.assignment, entry.assignment)
        assert np.array_equal(got.canon_w, entry.canon_w)
        assert got.params == [0.1, 0.2]
        assert got.extra == {"qaoa_cut": 3.5}
        # Promoted: second read is a memory hit.
        assert fresh.get_tiered("d0")[1] == "memory"

    def test_eviction_keeps_disk_copy(self, tmp_path):
        entry_bytes = make_entry("x").nbytes
        cache = ResultCache(max_bytes=2 * entry_bytes, disk_dir=tmp_path)
        for i in range(4):
            cache.put(make_entry(f"d{i}", seed=i))
        assert len(cache) <= 2
        assert cache.get_tiered("d0")[1] == "disk"  # evicted but persisted

    def test_corrupt_file_is_miss(self, tmp_path):
        # Stray files, including a valid entry in the old one-JSON-per-digest
        # and compacted-store layouts, are never read and never touched.
        old = json.dumps(make_entry("old").to_json())
        strays = {
            "bad.json": "{not json",
            "old.json": old,
            "compact.data.jsonl": old + "\n",
            "compact.index.json": '{"version": 1, "entries": {"old": [0, 10]}}',
        }
        for name, text in strays.items():
            (tmp_path / name).write_text(text)
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get("bad") is None
        assert cache.get("old") is None
        cache.put(make_entry("new"))
        cache.compact()
        assert ResultCache(disk_dir=tmp_path).get("new") is not None
        left = {p.name: p.read_text() for p in tmp_path.iterdir() if p.name != LOG_FILE}
        assert left == strays


class TestKnowledgeExport:
    def test_exports_angle_records(self):
        cache = ResultCache()
        cache.put(
            make_entry(
                "d0", params=[0.3, 0.4], layers=1,
                extra={"qaoa_cut": 4.0, "gw_cut": 3.0},
            )
        )
        cache.put(make_entry("d1", seed=1))  # no params: skipped
        kb = cache.export_knowledge()
        assert len(kb) == 1
        rec = kb.records[0]
        assert rec.layers == 1 and rec.qaoa_params == [0.3, 0.4]
        assert rec.qaoa_cut == 4.0 and rec.gw_cut == 3.0
        assert rec.qaoa_win

    def test_warm_start_retrievable(self):
        cache = ResultCache()
        entry = make_entry("d0", n_nodes=10, params=[0.2, 0.5], layers=1)
        cache.put(entry)
        kb = cache.export_knowledge()
        warm = kb.warm_start_params(entry.n_nodes, entry.density, entry.weighted)
        assert warm is not None
        np.testing.assert_allclose(warm, [0.2, 0.5])


class TestCompaction:
    """ResultCache.compact(): the log keeps only each digest's newest record."""

    def test_compact_round_trip(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        entries = {f"d{i:02d}": make_entry(f"d{i:02d}", seed=i) for i in range(5)}
        for entry in entries.values():
            cache.put(entry)
        stats = cache.compact()
        assert stats["entries"] == 5
        assert stats["dropped"] == 0
        assert stats["log_bytes"] == (tmp_path / LOG_FILE).stat().st_size
        assert [p.name for p in tmp_path.iterdir()] == [LOG_FILE]
        # A fresh cache (cold memory) serves every entry from the log.
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.disk_entries() == 5
        for digest, original in entries.items():
            got, tier = fresh.get_tiered(digest)
            assert tier == "disk"
            assert got.cut == original.cut
            np.testing.assert_array_equal(got.assignment, original.assignment)
            np.testing.assert_array_equal(got.canon_u, original.canon_u)

    def test_post_compaction_writes_win_and_recompact(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(make_entry("dup", seed=1))
        cache.compact()
        # A newer put of the digest appends a second record, and the
        # open scan keeps the newest.
        newer = make_entry("dup", seed=2)
        cache.put(newer)
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.disk_entries() == 1
        assert fresh.get("dup").cut == newer.cut
        size_before = (tmp_path / LOG_FILE).stat().st_size
        stats = cache.compact()
        assert stats["entries"] == 1 and stats["dropped"] == 1
        assert stats["log_bytes"] < size_before
        fresh2 = ResultCache(disk_dir=tmp_path)
        assert fresh2.get("dup").cut == newer.cut
        assert [p.name for p in tmp_path.iterdir()] == [LOG_FILE]

    def test_compact_empty_dir(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        stats = cache.compact()
        assert stats == {"entries": 0, "dropped": 0, "log_bytes": 0}
        assert cache.disk_entries() == 0

    def test_compact_requires_disk_tier(self):
        with pytest.raises(ValueError, match="disk_dir"):
            ResultCache().compact()

    def test_torn_loose_file_skipped_by_compaction(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(make_entry("ok"))
        (tmp_path / "torn.json").write_text("{broken")
        stats = cache.compact()
        assert stats["entries"] == 1
        assert ResultCache(disk_dir=tmp_path).get("ok") is not None
        assert (tmp_path / "torn.json").read_text() == "{broken"

    def test_compaction_metric(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(make_entry("m1"))
        cache.compact()
        assert cache.metrics.count("compactions") == 1
