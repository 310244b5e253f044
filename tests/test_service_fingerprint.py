"""Canonical graph fingerprints: relabeling invariance and soundness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, erdos_renyi
from repro.graphs.maxcut import cut_value
from repro.service.fingerprint import (
    canonical_fingerprint,
    config_token,
    request_digest,
)


def random_permutations(n, count, seed=0):
    gen = np.random.default_rng(seed)
    return [gen.permutation(n) for _ in range(count)]


class TestCanonicalInvariance:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_relabeling_invariant_digest(self, seed, weighted):
        graph = erdos_renyi(12, 0.3, weighted=weighted, rng=seed)
        fp = canonical_fingerprint(graph)
        for perm in random_permutations(12, 4, seed=seed):
            relabeled = graph.relabel(perm)
            fp2 = canonical_fingerprint(relabeled)
            assert fp2.digest == fp.digest
            assert fp2.n_nodes == fp.n_nodes
            for attr in ("canon_u", "canon_v", "canon_w"):
                np.testing.assert_array_equal(getattr(fp2, attr), getattr(fp, attr))

    def test_identical_graph_identical_digest(self, er_small):
        assert (
            canonical_fingerprint(er_small).digest
            == canonical_fingerprint(er_small).digest
        )

    def test_different_weights_different_digest(self, weighted_square):
        other = weighted_square.with_weights(weighted_square.w + 0.25)
        assert (
            canonical_fingerprint(weighted_square).digest
            != canonical_fingerprint(other).digest
        )

    def test_different_topology_different_digest(self):
        a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert canonical_fingerprint(a).digest != canonical_fingerprint(b).digest

    def test_symmetric_graphs_within_budget(self):
        """Cycles have 2n automorphisms; search must still canonicalise."""
        cycle = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        fp = canonical_fingerprint(cycle)
        assert fp.exact
        for perm in random_permutations(8, 4, seed=3):
            assert canonical_fingerprint(cycle.relabel(perm)).digest == fp.digest

    def test_budget_fallback_is_sound(self):
        """Past the leaf budget the fingerprint degrades to refinement-only:
        still deterministic for byte-equal graphs, flagged inexact."""
        cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
        fp = canonical_fingerprint(cycle, max_leaves=2)
        assert not fp.exact
        assert canonical_fingerprint(cycle, max_leaves=2).digest == fp.digest
        # Inexact and exact digests never collide (the flag is hashed).
        assert fp.digest != canonical_fingerprint(cycle).digest

    def test_large_graph_skips_search(self):
        graph = erdos_renyi(40, 0.2, rng=0)
        fp = canonical_fingerprint(graph, max_search_nodes=10)
        assert fp.n_nodes == 40  # still produces a usable fingerprint

    def test_edgeless_graph(self):
        fp = canonical_fingerprint(Graph.from_edges(5, []))
        assert fp.exact and fp.n_nodes == 5 and len(fp.canon_u) == 0


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGoldenFingerprints:
    """Digest, permutation and exactness on each canonicalisation route.

    Cache keys and disk-log records rest on these; a faster route (such
    as skipping refinement of a colouring that is already discrete) must
    reproduce them exactly.
    """

    @pytest.mark.parametrize(
        "graph, digest, perm, exact",
        [
            pytest.param(
                # Discrete after the initial (degree, weights) colouring.
                erdos_renyi(12, 0.3, weighted=True, rng=0),
                "4d813b63e0709e5c11e03a42ee4275b6",
                [5, 9, 4, 6, 0, 3, 11, 8, 1, 7, 2, 10],
                True,
                id="weighted-er-discrete",
            ),
            pytest.param(
                # Discrete only after 1-WL refinement.
                erdos_renyi(10, 0.3, weighted=False, rng=3),
                "87c227232354811b0dbaead9997a0886",
                [8, 6, 9, 0, 1, 7, 5, 3, 4, 2],
                True,
                id="unweighted-er-refined",
            ),
            pytest.param(
                # Refinement leaves ties: individualisation search.
                erdos_renyi(10, 0.3, weighted=False, rng=0),
                "a3074065001074dd0a435ecc4e64683e",
                [7, 6, 8, 3, 9, 0, 4, 5, 2, 1],
                True,
                id="unweighted-er-searched",
            ),
            pytest.param(
                _cycle(8),
                "7334b24f2a0a8e315d1f10b7af61d950",
                [0, 1, 3, 5, 7, 6, 4, 2],
                True,
                id="cycle-8",
            ),
            pytest.param(
                _complete(4),
                "779e732e72abfb4731244c50fdbd53d5",
                [0, 1, 2, 3],
                True,
                id="complete-4",
            ),
            pytest.param(
                # 6! leaves overrun the 64-leaf budget: refinement fallback.
                _complete(6),
                "3df4414ad099fec56baae0c68be16ba5",
                [0, 1, 2, 3, 4, 5],
                False,
                id="complete-6-over-budget",
            ),
            pytest.param(
                Graph.from_edges(5, []),
                "9a8b8d1523e4893289da43ad22a8e210",
                [0, 1, 2, 3, 4],
                True,
                id="edgeless-5",
            ),
        ],
    )
    def test_golden_fingerprint(self, graph, digest, perm, exact):
        fp = canonical_fingerprint(graph)
        assert (fp.digest, fp.perm.tolist(), fp.exact) == (digest, perm, exact)


class TestAssignmentMapping:
    def test_round_trip(self, er_small):
        fp = canonical_fingerprint(er_small)
        gen = np.random.default_rng(0)
        x = gen.integers(0, 2, er_small.n_nodes).astype(np.uint8)
        assert np.array_equal(fp.from_canonical(fp.to_canonical(x)), x)

    @pytest.mark.parametrize("seed", range(3))
    def test_cut_preserved_across_relabeling(self, seed):
        graph = erdos_renyi(14, 0.35, weighted=True, rng=seed)
        perm = np.random.default_rng(seed).permutation(14)
        relabeled = graph.relabel(perm)
        fp1 = canonical_fingerprint(graph)
        fp2 = canonical_fingerprint(relabeled)
        gen = np.random.default_rng(1)
        x1 = gen.integers(0, 2, 14).astype(np.uint8)
        # Map graph-1 assignment into graph-2 labels via canonical space.
        x2 = fp2.from_canonical(fp1.to_canonical(x1))
        assert cut_value(graph, x1) == pytest.approx(
            cut_value(relabeled, x2), abs=1e-9
        )


class TestRequestDigest:
    def test_seed_and_options_distinguish(self):
        base = dict(method="qaoa", options={"layers": 2}, seed=1)
        d0 = request_digest("abc", **base)
        assert request_digest("abc", **base) == d0
        assert request_digest("abc", method="qaoa", options={"layers": 3}, seed=1) != d0
        assert request_digest("abc", method="gw", options={"layers": 2}, seed=1) != d0
        assert request_digest("abc", method="qaoa", options={"layers": 2}, seed=2) != d0
        assert request_digest("xyz", **base) != d0

    def test_option_order_irrelevant(self):
        a = request_digest("g", method="qaoa", options={"layers": 2, "maxiter": 30})
        b = request_digest("g", method="qaoa", options={"maxiter": 30, "layers": 2})
        assert a == b

    def test_golden_digest_and_derived_seed(self):
        """Seedless requests derive their seed from this digest, so moving
        it moves every zipf_http checksum and orphans every disk-log
        record (e.g. by dropping the constant "batched" field)."""
        from repro.service import MaxCutService, SolveRequest

        g = erdos_renyi(12, 0.3, weighted=True, rng=7)
        options = {"layers": 2, "maxiter": 30}
        key = MaxCutService(seed=0).describe(SolveRequest(graph=g, options=options))
        assert key.digest == "b5a991c98db7fcad983603f13aea4702"
        assert key.seed == 1743642096
        digest = request_digest(
            canonical_fingerprint(g).digest, method="qaoa", options=options, seed=None
        )
        assert digest == "bc3f35d5171e34862b4afdd497ff11c8"

    def test_golden_digests_of_empty_and_full_configs(self):
        """Absent and empty configuration fields hash as before, and so
        does a request that sets every field."""
        assert request_digest("g", method="gw") == "27c9f1180d7cb19bcbd5eaac0fea371d"
        for empty in ({"options": {}, "qaoa_grid": [], "gw_options": {}}, {}):
            assert request_digest("g", method="gw", **empty) == (
                "27c9f1180d7cb19bcbd5eaac0fea371d"
            )
        digest = request_digest(
            "g",
            method="qaoa",
            options={"layers": np.int64(3), "warm": np.array([0.5, 0.25])},
            qaoa_grid=[{"p": 1, "rhobeg": 0.3}, {"p": 2}],
            gw_options={"rounds": 8},
            seed=11,
        )
        assert digest == "14b73ab3ac126726654fba95b9fed1bd"

    def test_config_token_handles_numpy(self):
        token = config_token({"warm": np.array([0.1, 0.2]), "n": np.int64(3)})
        assert "0.1" in token and '"n":3' in token
