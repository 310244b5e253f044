"""Shard routing: determinism, relabelling invariance, load balance
(ISSUE 6 property-based satellite)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import erdos_renyi
from repro.service import shard_for_digest
from repro.service.fingerprint import canonical_fingerprint
from repro.service.sharding import (
    BALANCE_BOUND,
    SHARD_PREFIX_HEX,
    ShardRouter,
    shard_counts,
)

pytestmark = pytest.mark.timeout(120)


def _digest(token: str) -> str:
    return hashlib.sha256(token.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shard_for_digest basics
# ---------------------------------------------------------------------------
class TestShardForDigest:
    def test_range_and_determinism(self):
        for i in range(64):
            digest = _digest(f"g{i}")
            for n_shards in (1, 2, 3, 5, 8):
                first = shard_for_digest(digest, n_shards)
                assert 0 <= first < n_shards
                assert shard_for_digest(digest, n_shards) == first

    def test_single_shard_is_always_zero(self):
        assert shard_for_digest(_digest("anything"), 1) == 0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_shard_count(self, bad):
        with pytest.raises(ValueError, match="n_shards"):
            shard_for_digest(_digest("x"), bad)

    def test_only_the_prefix_matters(self):
        prefix = "c0ffee42"
        assert len(prefix) == SHARD_PREFIX_HEX
        a, b = prefix + "0" * 56, prefix + "f" * 56
        for n_shards in (2, 3, 7):
            assert shard_for_digest(a, n_shards) == shard_for_digest(b, n_shards)


# ---------------------------------------------------------------------------
# Property: routing is relabelling-invariant
# ---------------------------------------------------------------------------
class TestRelabellingInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=12),
        graph_seed=st.integers(min_value=0, max_value=2**31 - 1),
        perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_shards=st.integers(min_value=1, max_value=8),
    )
    def test_isomorphic_graphs_land_on_one_shard(
        self, n, graph_seed, perm_seed, n_shards
    ):
        graph = erdos_renyi(n, 0.4, weighted=True, rng=graph_seed)
        perm = np.random.default_rng(perm_seed).permutation(n)
        relabeled = graph.relabel(perm)
        digest = canonical_fingerprint(graph).digest
        digest_relabeled = canonical_fingerprint(relabeled).digest
        assert digest == digest_relabeled
        assert shard_for_digest(digest, n_shards) == shard_for_digest(
            digest_relabeled, n_shards
        )

    def test_router_routes_relabelled_graph_to_same_backend(self):
        graph = erdos_renyi(11, 0.35, weighted=True, rng=5)
        relabeled = graph.relabel(np.random.default_rng(9).permutation(11))
        router = ShardRouter(4, lambda k: f"backend-{k}")
        a = router.shards[router.shard_index(canonical_fingerprint(graph))]
        b = router.shards[router.shard_index(canonical_fingerprint(relabeled))]
        assert a is b


# ---------------------------------------------------------------------------
# Load balance: the documented BALANCE_BOUND guarantee
# ---------------------------------------------------------------------------
class TestLoadBalance:
    # sha256 request digests are what production routing sees; synthetic
    # digests give the >=1000-key population without 1000 solves.
    DIGESTS = [_digest(f"graph-{i}") for i in range(1500)]

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_synthetic_digests_within_bound(self, n_shards):
        counts = shard_counts(self.DIGESTS, n_shards)
        assert sum(counts.values()) == len(self.DIGESTS)
        mean = len(self.DIGESTS) / n_shards
        for shard, load in counts.items():
            assert abs(load - mean) <= BALANCE_BOUND * mean, (
                f"shard {shard} holds {load} of mean {mean}"
            )

    def test_real_fingerprints_within_bound(self):
        # Smaller population of genuine canonical fingerprints: the
        # documented bound is for K>=1000, so allow the same relative
        # deviation scaled to this population's looser statistics.
        digests = [
            canonical_fingerprint(
                erdos_renyi(8, 0.4, weighted=True, rng=i)
            ).digest
            for i in range(200)
        ]
        assert len(set(digests)) == len(digests)
        counts = shard_counts(digests, 4)
        mean = len(digests) / 4
        for load in counts.values():
            assert abs(load - mean) <= 2.5 * BALANCE_BOUND * mean

    @settings(max_examples=10, deadline=None)
    @given(n_shards=st.integers(min_value=1, max_value=8))
    def test_counts_partition_the_population(self, n_shards):
        counts = shard_counts(self.DIGESTS[:400], n_shards)
        assert set(counts) == set(range(n_shards))
        assert sum(counts.values()) == 400


# ---------------------------------------------------------------------------
# ShardRouter
# ---------------------------------------------------------------------------
class TestShardRouter:
    def test_factory_builds_one_backend_per_shard(self):
        built = []
        router = ShardRouter(3, lambda k: built.append(k) or f"svc-{k}")
        assert built == [0, 1, 2]
        assert router.shards == ["svc-0", "svc-1", "svc-2"]
        assert router.loads == [0, 0, 0]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardRouter(0, lambda k: k)

    def test_shard_index_accepts_fingerprint_or_str(self):
        graph = erdos_renyi(9, 0.4, weighted=True, rng=3)
        fp = canonical_fingerprint(graph)
        router = ShardRouter(4, lambda k: k)
        assert router.shard_index(fp) == router.shard_index(fp.digest)

    def test_load_report_shares(self):
        router = ShardRouter(2, lambda k: k)
        for i in range(10):
            router.loads[router.shard_index(_digest(f"r{i}"))] += 1
        report = router.load_report()
        assert "shards: 2, admissions: 10" in report
        assert "shard 0" in report and "shard 1" in report
