"""Unit tests for repro.graphs.graph.Graph."""

import warnings

import numpy as np
import pytest

from repro.graphs import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert g.total_weight == 5.0

    def test_edges_canonicalised(self):
        g = Graph.from_edges(3, [(2, 0, 1.0), (1, 0, 1.0)])
        assert np.all(g.u < g.v)
        assert (g.u.tolist(), g.v.tolist()) == ([0, 0], [1, 2])

    def test_unweighted_pairs_default_weight_one(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert np.allclose(g.w, 1.0)

    def test_duplicate_edges_summed(self):
        g = Graph.from_edges(2, [(0, 1, 1.5), (1, 0, 2.5)])
        assert g.n_edges == 1
        assert g.w[0] == 4.0

    def test_duplicate_edges_rejected_when_disabled(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)], sum_duplicates=False)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph.from_edges(2, [(0, 0, 1.0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            Graph.from_edges(2, [(0, 2, 1.0)])

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges(2, [(-1, 1, 1.0)])

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        assert g.n_edges == 0
        assert g.total_weight == 0.0
        assert g.density == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # A 6-cycle with one bad weight: every cut of it would be NaN or
        # infinite, so it must not be built at all.
        edges = [(i, (i + 1) % 6, bad if i == 2 else 1.0) for i in range(6)]
        with pytest.raises(ValueError, match="finite"):
            Graph.from_edges(6, edges)

    def test_overflowing_duplicate_sum_rejected(self):
        # Each weight is finite, their sum is not; no overflow warning
        # escapes ahead of the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                Graph.from_edges(2, [(0, 1, 1e308), (1, 0, 1e308)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_with_weights_rejects_non_finite(self, bad):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            g.with_weights(np.array([1.0, bad]))
        assert g.with_weights(np.array([-1e308, 1e308])).n_edges == 2


class TestProperties:
    def test_density_complete(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.density == pytest.approx(1.0)

    def test_is_weighted_flags(self):
        unweighted = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        weighted = Graph.from_edges(3, [(0, 1, 0.3), (1, 2, 1.0)])
        assert not unweighted.is_weighted
        assert weighted.is_weighted

    def test_degrees(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.degrees().tolist() == [1.0, 2.0, 1.0]
        assert g.degrees(weighted=True).tolist() == [2.0, 5.0, 3.0]

    def test_adjacency_symmetric(self, er_small):
        a = er_small.adjacency()
        assert np.allclose(a, a.T)
        assert np.allclose(np.diag(a), 0.0)

    def test_adjacency_sparse_matches_dense(self, er_small):
        assert np.allclose(
            er_small.adjacency_sparse().toarray(), er_small.adjacency()
        )

    def test_laplacian_rows_sum_zero(self, er_small):
        lap = er_small.laplacian()
        assert np.allclose(lap.sum(axis=1), 0.0)

    def test_neighbors_csr_consistent(self, er_small):
        indptr, indices, weights = er_small.neighbors()
        deg = er_small.degrees()
        assert np.all(np.diff(indptr) == deg)

    def test_edge_index_roundtrip(self, weighted_square):
        index = weighted_square.edge_index()
        for k, (a, b) in enumerate(zip(weighted_square.u, weighted_square.v, strict=True)):
            assert index[(int(a), int(b))] == k


class TestSubgraph:
    def test_subgraph_induced(self):
        g = Graph.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)])
        sub, orig = g.subgraph([1, 2, 3])
        assert sub.n_nodes == 3
        assert sub.n_edges == 2  # (1,2) and (2,3)
        assert sub.total_weight == 5.0
        assert orig.tolist() == [1, 2, 3]

    def test_subgraph_respects_node_order(self):
        g = Graph.from_edges(4, [(0, 3, 5.0)])
        sub, orig = g.subgraph([3, 0])
        assert orig.tolist() == [3, 0]
        assert sub.n_edges == 1
        assert sub.w[0] == 5.0

    def test_subgraph_duplicate_nodes_rejected(self, er_small):
        with pytest.raises(ValueError, match="duplicate"):
            er_small.subgraph([0, 0, 1])

    def test_cross_edges(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 5.0)])
        membership = np.array([0, 0, 1, 1])
        u, v, w, pu, pv = g.cross_edges(membership)
        assert len(u) == 1
        assert w[0] == 5.0
        assert {int(pu[0]), int(pv[0])} == {0, 1}

    def test_relabel_preserves_structure(self, weighted_square):
        perm = [2, 0, 3, 1]
        relabelled = weighted_square.relabel(perm)
        assert relabelled.n_edges == weighted_square.n_edges
        assert relabelled.total_weight == weighted_square.total_weight

    def test_relabel_invalid_permutation(self, weighted_square):
        with pytest.raises(ValueError, match="bijection"):
            weighted_square.relabel([0, 0, 1, 2])

    def test_with_weights(self, weighted_square):
        new = weighted_square.with_weights(np.ones(weighted_square.n_edges))
        assert new.total_weight == weighted_square.n_edges
        assert new.n_nodes == weighted_square.n_nodes

    def test_with_weights_shape_mismatch(self, weighted_square):
        with pytest.raises(ValueError, match="shape"):
            weighted_square.with_weights(np.ones(1))


class TestNetworkxRoundtrip:
    def test_roundtrip_preserves_graph(self, er_small):
        back = Graph.from_networkx(er_small.to_networkx())
        assert back == er_small

    def test_from_networkx_relabels(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("b", "a", weight=2.0)
        ours = Graph.from_networkx(g)
        assert ours.n_nodes == 2
        assert ours.w[0] == 2.0

    def test_equality_and_hash(self, er_small):
        other = Graph.from_edges(
            er_small.n_nodes,
            list(zip(er_small.u.tolist(), er_small.v.tolist(), er_small.w.tolist(), strict=True)),
        )
        assert other == er_small
        assert hash(other) == hash(er_small)
