"""Unit + property tests for repro.graphs.maxcut."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    as_binary,
    as_spins,
    assignment_to_bitstring,
    bitstring_to_assignment,
    complete,
    complete_bipartite,
    cut_diagonal,
    cut_value,
    erdos_renyi,
    exact_maxcut,
    exact_maxcut_branch_and_bound,
    exact_maxcut_bruteforce,
    one_exchange,
    random_cut,
    randomized_partitioning,
    ring,
)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def small_graphs(draw, max_nodes=10, weighted=True):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    if weighted:
        weights = draw(
            st.lists(
                st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
    else:
        weights = [1.0] * len(chosen)
    edges = [(a, b, w) for (a, b), w in zip(chosen, weights, strict=True)]
    return Graph.from_edges(n, edges)


class TestCutValue:
    def test_triangle_known(self, triangle):
        assert cut_value(triangle, [0, 0, 1]) == 2.0
        assert cut_value(triangle, [0, 0, 0]) == 0.0

    def test_weighted_square_known(self, weighted_square):
        assert cut_value(weighted_square, [0, 1, 0, 1]) == 10.0

    def test_spin_and_binary_agree(self, er_small, rng):
        x = rng.integers(0, 2, er_small.n_nodes).astype(np.uint8)
        spins = 1 - 2 * x.astype(int)
        assert cut_value(er_small, x) == cut_value(er_small, spins)

    def test_length_mismatch(self, triangle):
        with pytest.raises(ValueError, match="length"):
            cut_value(triangle, [0, 1])

    def test_invalid_values(self, triangle):
        with pytest.raises(ValueError, match="0/1"):
            cut_value(triangle, [0, 2, 1])

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_graphs(), small_graphs(weighted=False)))
    @example(Graph.from_edges(4, [(0, 1, -1.5), (1, 3, 0.25), (0, 2, -0.1)]))
    def test_complement_symmetry(self, graph):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, graph.n_nodes).astype(np.uint8)
        assert cut_value(graph, x) == pytest.approx(cut_value(graph, 1 - x))
        # Exact, for any weights including the negative ones QAOA² merge
        # graphs carry: the backends evolve only the top-bit-0 half of a
        # QAOA state, which needs d[x] == d[~x] bit for bit.
        diagonal = cut_diagonal(graph)
        np.testing.assert_array_equal(diagonal, diagonal[::-1])

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(max_nodes=8))
    def test_cut_bounded_by_positive_weight(self, graph):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, graph.n_nodes).astype(np.uint8)
        positive = graph.w[graph.w > 0].sum() if graph.n_edges else 0.0
        assert cut_value(graph, x) <= positive + 1e-12


class TestConversions:
    def test_as_binary_from_spins(self):
        assert as_binary(np.array([1, -1, 1])).tolist() == [0, 1, 0]

    def test_as_spins_roundtrip(self):
        x = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert as_binary(as_spins(x)).tolist() == x.tolist()

    def test_bitstring_roundtrip(self):
        for bits in (0, 1, 5, 12, 15):
            x = bitstring_to_assignment(bits, 4)
            assert assignment_to_bitstring(x) == bits

    def test_bitstring_little_endian(self):
        x = bitstring_to_assignment(1, 3)
        assert x.tolist() == [1, 0, 0]  # bit 0 = node 0


def _per_edge_cut_diagonal(graph: Graph) -> np.ndarray:
    """Reference cut diagonal: bit-index arithmetic over the whole index
    range, accumulating ``w * (bit_u XOR bit_v)`` edge by edge."""
    diag = np.zeros(1 << graph.n_nodes)
    idx = np.arange(1 << graph.n_nodes, dtype=np.uint64)
    u64 = graph.u.astype(np.uint64)
    v64 = graph.v.astype(np.uint64)
    for a, b, weight in zip(u64, v64, graph.w, strict=True):
        differs = ((idx >> a) ^ (idx >> b)) & np.uint64(1)
        diag += weight * differs
    return diag


class TestCutDiagonal:
    def test_matches_explicit_enumeration(self, er_small):
        diag = cut_diagonal(er_small)
        for idx in [0, 1, 17, 100, (1 << er_small.n_nodes) - 1]:
            x = bitstring_to_assignment(idx, er_small.n_nodes)
            assert diag[idx] == pytest.approx(cut_value(er_small, x))

    def test_zero_and_ones_are_zero_cut(self, er_small):
        diag = cut_diagonal(er_small)
        assert diag[0] == 0.0
        assert diag[-1] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 16, 18])
    @pytest.mark.parametrize("kind", ["unweighted", "weighted", "signed", "edgeless"])
    def test_bit_identical_to_per_edge_loop(self, n, kind):
        # The diagonal is built on its top-bit-0 half and mirrored; every
        # entry must still get its cut edges' weights in edge order.
        rng = np.random.default_rng(n)
        if kind == "edgeless" or n == 0:
            graph = Graph.from_edges(n, [])
        else:
            graph = erdos_renyi(n, 0.5, weighted=kind != "unweighted", rng=n)
        if kind == "signed":  # merge graphs carry negative weights
            signs = rng.choice([-1.0, 1.0], size=graph.n_edges)
            graph = Graph.from_edges(
                n, list(zip(graph.u, graph.v, graph.w * signs, strict=True))
            )
            assert n < 5 or (graph.w < 0).any()
        got, expected = cut_diagonal(graph), _per_edge_cut_diagonal(graph)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_too_many_nodes_rejected(self):
        g = erdos_renyi(30, 0.1, rng=0)
        with pytest.raises(ValueError, match="infeasible"):
            cut_diagonal(g)

    def test_empty_graph_all_zero(self):
        g = Graph.from_edges(3, [])
        assert np.all(cut_diagonal(g) == 0.0)


class TestBaselines:
    def test_random_cut_valid(self, er_small):
        result = random_cut(er_small, rng=0)
        assert result.cut == cut_value(er_small, result.assignment)

    def test_randomized_partitioning_trials_improve(self, er_small):
        one = randomized_partitioning(er_small, trials=1, rng=3)
        many = randomized_partitioning(er_small, trials=50, rng=3)
        assert many.cut >= one.cut

    def test_one_exchange_local_optimum(self, er_small):
        result = one_exchange(er_small, rng=0)
        x = result.assignment
        indptr, indices, weights = er_small.neighbors()
        for i in range(er_small.n_nodes):
            nbr = indices[indptr[i]: indptr[i + 1]]
            wn = weights[indptr[i]: indptr[i + 1]]
            cross = wn[x[nbr] != x[i]].sum()
            same = wn[x[nbr] == x[i]].sum()
            assert same <= cross + 1e-9  # no improving flip

    def test_one_exchange_from_given_start(self, er_small):
        start = np.zeros(er_small.n_nodes, dtype=np.uint8)
        result = one_exchange(er_small, start, rng=0)
        assert result.cut >= 0.0

    def test_one_exchange_beats_expectation(self, er_small):
        # Local optimum cuts at least half the total weight (classic bound).
        result = one_exchange(er_small, rng=1)
        assert result.cut >= er_small.total_weight / 2 - 1e-9


class TestExact:
    def test_bruteforce_known_optima(self):
        assert exact_maxcut_bruteforce(ring(6)).cut == 6.0
        assert exact_maxcut_bruteforce(ring(7)).cut == 6.0
        assert exact_maxcut_bruteforce(complete(5)).cut == 6.0  # 2*3
        assert exact_maxcut_bruteforce(complete_bipartite(3, 4)).cut == 12.0

    def test_bruteforce_assignment_achieves_cut(self, er_small):
        result = exact_maxcut_bruteforce(er_small)
        assert cut_value(er_small, result.assignment) == result.cut

    def test_bnb_matches_bruteforce(self):
        for seed in range(5):
            g = erdos_renyi(11, 0.4, rng=seed)
            bf = exact_maxcut_bruteforce(g)
            bb = exact_maxcut_branch_and_bound(g)
            assert bb.cut == pytest.approx(bf.cut)
            assert bb.extra["optimal"]

    def test_bnb_negative_weights_correct(self):
        rng = np.random.default_rng(9)
        base = erdos_renyi(10, 0.5, rng=1)
        g = base.with_weights(rng.uniform(-1, 1, base.n_edges))
        bf = exact_maxcut_bruteforce(g)
        bb = exact_maxcut_branch_and_bound(g)
        assert bb.cut == pytest.approx(bf.cut)

    def test_dispatcher_small_and_medium(self):
        g = erdos_renyi(10, 0.3, rng=2)
        assert exact_maxcut(g).cut == exact_maxcut_bruteforce(g).cut
        g22 = erdos_renyi(22, 0.15, rng=2)
        result = exact_maxcut(g22)
        assert result.method == "exact_bnb"

    def test_empty_graph(self):
        g = Graph.from_edges(3, [])
        assert exact_maxcut_bruteforce(g).cut == 0.0

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(max_nodes=8))
    def test_bruteforce_dominates_random(self, graph):
        best = exact_maxcut_bruteforce(graph)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.integers(0, 2, graph.n_nodes).astype(np.uint8)
            assert best.cut >= cut_value(graph, x) - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(max_nodes=9))
    def test_bnb_equals_bruteforce_property(self, graph):
        bf = exact_maxcut_bruteforce(graph)
        bb = exact_maxcut_branch_and_bound(graph)
        assert bb.cut == pytest.approx(bf.cut, abs=1e-9)
