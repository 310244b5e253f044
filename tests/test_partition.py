"""Unit + property tests for repro.graphs.partition."""

import heapq
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    erdos_renyi,
    greedy_modularity_communities,
    modularity,
    networkx_modularity_communities,
    partition_with_cap,
    planted_partition,
    random_balanced_partition,
    spectral_bisection,
)
from repro.graphs import partition as partition_module
from repro.qaoa2 import build_merge_problem


def membership_of(communities, n):
    m = np.full(n, -1, dtype=np.int64)
    for cid, comm in enumerate(communities):
        m[comm] = cid
    return m


class TestModularityScore:
    def test_all_in_one_community(self, er_small):
        m = np.zeros(er_small.n_nodes, dtype=int)
        # Q = 1 - 1 = 0 for the trivial single community? Actually
        # Q = Σ_in/(2m) - (Σ_tot/2m)^2 = 1 - 1 = 0.
        assert modularity(er_small, m) == pytest.approx(0.0)

    def test_singletons_negative_or_zero(self, er_small):
        m = np.arange(er_small.n_nodes)
        assert modularity(er_small, m) <= 0.0

    def test_planted_blocks_positive(self):
        g = planted_partition(40, 4, 0.9, 0.02, rng=0)
        m = np.arange(40) % 4
        assert modularity(g, m) > 0.3

    def test_empty_graph_zero(self):
        g = Graph.from_edges(4, [])
        assert modularity(g, np.zeros(4, dtype=int)) == 0.0


class TestGreedyModularity:
    def test_partitions_cover_all_nodes(self, er_medium):
        comms = greedy_modularity_communities(er_medium)
        nodes = np.sort(np.concatenate(comms))
        assert nodes.tolist() == list(range(er_medium.n_nodes))

    def test_recovers_planted_partition(self):
        g = planted_partition(40, 4, 0.9, 0.02, rng=1)
        comms = greedy_modularity_communities(g)
        # Should find roughly the 4 planted blocks.
        assert 3 <= len(comms) <= 6
        m = membership_of(comms, 40)
        assert modularity(g, m) > 0.3

    def test_matches_networkx_quality(self):
        for seed in (3, 7):
            g = erdos_renyi(35, 0.15, rng=seed)
            ours = greedy_modularity_communities(g)
            theirs = networkx_modularity_communities(g)
            q_ours = modularity(g, membership_of(ours, g.n_nodes))
            q_theirs = modularity(g, membership_of(theirs, g.n_nodes))
            # Same algorithm: qualities should agree closely.
            assert q_ours == pytest.approx(q_theirs, abs=0.02)

    def test_empty_graph_singletons(self):
        g = Graph.from_edges(5, [])
        comms = greedy_modularity_communities(g)
        assert len(comms) == 5

    def test_isolated_nodes_kept(self):
        g = Graph.from_edges(5, [(0, 1, 1.0)])
        comms = greedy_modularity_communities(g)
        nodes = np.sort(np.concatenate(comms))
        assert nodes.tolist() == list(range(5))

    def test_two_cliques_separated(self):
        edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j, 1.0) for i in range(4, 8) for j in range(i + 1, 8)]
        edges += [(0, 4, 1.0)]  # single bridge
        g = Graph.from_edges(8, edges)
        comms = greedy_modularity_communities(g)
        assert len(comms) == 2
        assert sorted(len(c) for c in comms) == [4, 4]

    def test_min_communities_respected(self, er_medium):
        comms = greedy_modularity_communities(er_medium, min_communities=5)
        assert len(comms) >= 5


class TestSplitters:
    def test_spectral_bisection_two_parts(self, er_medium):
        parts = spectral_bisection(er_medium)
        assert len(parts) == 2
        assert abs(len(parts[0]) - len(parts[1])) <= 1
        nodes = np.sort(np.concatenate(parts))
        assert nodes.tolist() == list(range(er_medium.n_nodes))

    def test_spectral_bisection_separates_components(self):
        # Two disjoint triangles: Fiedler vector separates them.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = Graph.from_edges(6, [(a, b, 1.0) for a, b in edges])
        parts = spectral_bisection(g)
        sets = [set(p.tolist()) for p in parts]
        assert {0, 1, 2} in sets and {3, 4, 5} in sets

    def test_spectral_bisection_empty_graph(self):
        g = Graph.from_edges(6, [])
        parts = spectral_bisection(g)
        assert len(parts) == 2

    def test_random_balanced_partition_cap(self, er_medium):
        parts = random_balanced_partition(er_medium, 7, rng=0)
        assert max(len(p) for p in parts) <= 7
        nodes = np.sort(np.concatenate(parts))
        assert nodes.tolist() == list(range(er_medium.n_nodes))


class TestPartitionWithCap:
    @pytest.mark.parametrize("method", ["greedy_modularity", "networkx", "spectral", "random"])
    def test_cap_respected_all_methods(self, er_medium, method):
        result = partition_with_cap(er_medium, 8, method=method, rng=0)
        assert result.sizes().max() <= 8
        nodes = np.sort(np.concatenate(result.parts))
        assert nodes.tolist() == list(range(er_medium.n_nodes))

    def test_membership_consistent(self, er_medium):
        result = partition_with_cap(er_medium, 10, rng=0)
        for part_id, part in enumerate(result.parts):
            assert np.all(result.membership[part] == part_id)

    def test_cap_one_gives_singletons(self, er_small):
        result = partition_with_cap(er_small, 1, rng=0)
        assert result.n_parts == er_small.n_nodes

    def test_cap_larger_than_graph(self, er_small):
        result = partition_with_cap(er_small, 100, rng=0)
        # Modularity partitioning may still split, but no part exceeds cap
        assert result.sizes().max() <= 100

    def test_unknown_method_rejected(self, er_small):
        with pytest.raises(ValueError, match="unknown partition method"):
            partition_with_cap(er_small, 5, method="metis")

    def test_clique_forced_split(self):
        # A 12-clique has no community structure; must still satisfy cap 5.
        edges = [(i, j, 1.0) for i in range(12) for j in range(i + 1, 12)]
        g = Graph.from_edges(12, edges)
        result = partition_with_cap(g, 5, rng=0)
        assert result.sizes().max() <= 5

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    def test_partition_is_exact_cover_property(self, n, cap, seed):
        g = erdos_renyi(n, 0.3, rng=seed)
        result = partition_with_cap(g, cap, rng=seed)
        nodes = np.sort(np.concatenate(result.parts))
        assert nodes.tolist() == list(range(n))
        assert result.sizes().max() <= cap


# ---------------------------------------------------------------------------
# Parity with the heap-based CNM
# ---------------------------------------------------------------------------
def heap_greedy_modularity_communities(
    graph: Graph,
    *,
    resolution: float = 1.0,
    min_communities: int = 1,
) -> List[np.ndarray]:
    """CNM on a lazily invalidated heap: the parity reference, kept verbatim.

    This is how ``greedy_modularity_communities`` merged before it moved to
    a dense gain matrix; the two must return the same communities, in the
    same order, bit for bit.
    """
    n = graph.n_nodes
    if n == 0:
        return []
    two_m = 2.0 * float(np.abs(graph.w).sum())
    if graph.n_edges == 0 or two_m == 0.0:
        return [np.array([i], dtype=np.int64) for i in range(n)]

    # For modularity on possibly negative weights (merge graphs), use |w|;
    # standard instances have positive weights so this is a no-op.
    w_eff = np.abs(graph.w)
    deg = np.zeros(n)
    np.add.at(deg, graph.u, w_eff)
    np.add.at(deg, graph.v, w_eff)
    a = deg / two_m

    # Community adjacency: dq[i][j] = modularity gain of merging i and j.
    dq: List[dict] = [dict() for _ in range(n)]
    for uu, vv, ww in zip(graph.u.tolist(), graph.v.tolist(), w_eff.tolist(), strict=True):
        gain = 2.0 * (ww / two_m - resolution * a[uu] * a[vv])
        dq[uu][vv] = gain
        dq[vv][uu] = gain

    heap: list[tuple[float, int, int]] = []
    for i in range(n):
        for j, gain in dq[i].items():
            if i < j:
                heapq.heappush(heap, (-gain, i, j))

    alive = np.ones(n, dtype=bool)
    members: List[Optional[list]] = [[i] for i in range(n)]
    n_comm = n

    while heap and n_comm > min_communities:
        neg_gain, i, j = heapq.heappop(heap)
        gain = -neg_gain
        if not (alive[i] and alive[j]):
            continue
        current = dq[i].get(j)
        if current is None or current != gain:
            continue  # stale heap entry
        if gain <= 1e-15:
            break  # no improving merge remains
        # Merge j into i (keep the larger community label for fewer updates).
        if len(members[j]) > len(members[i]):
            i, j = j, i
        neighbors = set(dq[i]) | set(dq[j])
        neighbors.discard(i)
        neighbors.discard(j)
        for k in neighbors:
            in_i = k in dq[i]
            in_j = k in dq[j]
            if in_i and in_j:
                new_gain = dq[i][k] + dq[j][k]
            elif in_i:
                new_gain = dq[i][k] - 2.0 * resolution * a[j] * a[k]
            else:
                new_gain = dq[j][k] - 2.0 * resolution * a[i] * a[k]
            dq[i][k] = new_gain
            dq[k][i] = new_gain
            dq[k].pop(j, None)
            heapq.heappush(heap, (-new_gain, min(i, k), max(i, k)))
        dq[i].pop(j, None)
        dq[j].clear()
        a[i] += a[j]
        members[i].extend(members[j])
        members[j] = None
        alive[j] = False
        n_comm -= 1

    communities = [
        np.array(sorted(m), dtype=np.int64) for m in members if m is not None
    ]
    communities.sort(key=lambda c: (-len(c), int(c[0])))
    return communities


RESOLUTIONS = (-0.5, 0.0, 1.0, 1.7)
MIN_COMMUNITIES = (1, 3, 10)
METHODS = ("greedy_modularity", "networkx", "spectral", "random")


def _cycle(gen):
    n = int(gen.integers(3, 40))
    return Graph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def _grid(gen):
    rows, cols = int(gen.integers(1, 8)), int(gen.integers(2, 8))
    node = np.arange(rows * cols).reshape(rows, cols)
    pairs = [*zip(node[:, :-1].ravel(), node[:, 1:].ravel(), strict=True)]
    pairs += [*zip(node[:-1].ravel(), node[1:].ravel(), strict=True)]
    edges = [(int(a), int(b), 1.0) for a, b in pairs]
    return Graph.from_edges(rows * cols, edges)


def _cliques(gen):
    size, count = int(gen.integers(2, 10)), int(gen.integers(1, 5))
    edges = [
        (b * size + i, b * size + j, 1.0)
        for b in range(count)
        for i in range(size)
        for j in range(i + 1, size)
    ]
    edges += [(b * size, (b + 1) * size, 1.0) for b in range(count - 1)]
    return Graph.from_edges(count * size, edges)


def _zero_weights_isolated_nodes(gen):
    g = erdos_renyi(int(gen.integers(4, 40)), float(gen.uniform(0.1, 0.5)), rng=gen)
    w = np.where(gen.random(g.n_edges) < 0.3, 0.0, g.w)
    return Graph(g.n_nodes + int(gen.integers(1, 4)), g.u, g.v, w)


def _merge_graph(gen):
    """A QAOA² merged graph: summed signed cross edges between parts."""
    n, p = int(gen.integers(8, 80)), float(gen.uniform(0.1, 0.5))
    g = erdos_renyi(n, p, weighted=bool(gen.integers(2)), rng=gen)
    parts = random_balanced_partition(g, int(gen.integers(1, 5)), rng=gen)
    membership = np.empty(g.n_nodes, dtype=np.int64)
    for part_id, part in enumerate(parts):
        membership[part] = part_id
    x = gen.integers(0, 2, g.n_nodes)
    return build_merge_problem(g, parts, membership, x).merged_graph


def _er(gen, weighted=False):
    n, p = int(gen.integers(2, 60)), float(gen.uniform(0.05, 0.6))
    return erdos_renyi(n, p, weighted=weighted, rng=gen)


def _planted(gen):
    n = 4 * int(gen.integers(2, 12))
    p_in, p_out = float(gen.uniform(0.5, 1.0)), float(gen.uniform(0.0, 0.1))
    return planted_partition(n, 4, p_in, p_out, rng=gen)


FAMILIES = {
    "er": _er,
    "weighted_er": lambda gen: _er(gen, weighted=True),
    "planted": _planted,
    "merge": _merge_graph,
    "cycle": _cycle,
    "grid": _grid,
    "cliques": _cliques,
    "zero_weights_isolated": _zero_weights_isolated_nodes,
}


def assert_same_communities(ours, reference, context):
    assert [c.tolist() for c in ours] == [c.tolist() for c in reference], context
    assert all(c.dtype == np.int64 for c in ours), context


def assert_heap_parity(graph, resolution, min_communities, context):
    ours = greedy_modularity_communities(
        graph, resolution=resolution, min_communities=min_communities
    )
    reference = heap_greedy_modularity_communities(
        graph, resolution=resolution, min_communities=min_communities
    )
    assert_same_communities(ours, reference, context)


def heap_partition_with_cap(monkeypatch, graph, cap, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(
            partition_module,
            "greedy_modularity_communities",
            heap_greedy_modularity_communities,
        )
        return partition_with_cap(graph, cap, **kwargs)


class TestHeapParity:
    """The dense gain matrix merges exactly as the heap-based CNM did."""

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family, resolution):
        for index in range(2):
            for min_communities in MIN_COMMUNITIES:
                context = (family, index, resolution, min_communities)
                seed = [index, min_communities, RESOLUTIONS.index(resolution)]
                graph = FAMILIES[family](np.random.default_rng(seed))
                assert_heap_parity(graph, resolution, min_communities, context)

    @pytest.mark.parametrize("seed", [1, 3, 9, 44, 48])
    def test_benchmark_graphs(self, seed, monkeypatch):
        """The small- and large-leaf benchmark graphs split into the same parts.

        On seeds 44 and 48 a pair's gain on the small-leaf graph comes back
        to within 1e-12 below an earlier one: a rule that ranked the pair by
        that earlier gain splits the graph differently.
        """
        stream = [seed, 0, 0]  # the benchmark's graph 0
        small = erdos_renyi(240, 0.1, rng=np.random.default_rng(stream))
        large = planted_partition(72, 4, 0.9, 0.01, rng=np.random.default_rng(stream))
        for graph, cap in ((small, 12), (large, 18)):
            ours = partition_with_cap(graph, cap, rng=seed).parts
            reference = heap_partition_with_cap(monkeypatch, graph, cap, rng=seed).parts
            assert_same_communities(ours, reference, (seed, graph.n_nodes))

    def test_near_tied_graph(self):
        """A graph whose merge order moves if any earlier gain within 1e-12 of
        a pair's current gain ranks the pair."""
        assert_heap_parity(erdos_renyi(80, 0.15, rng=1419), 1.0, 1, "near tie")

    @pytest.mark.slow
    @pytest.mark.parametrize("chunk", range(8))
    def test_sweep(self, chunk):
        """300 random cases per chunk, 2,400 in all."""
        gen = np.random.default_rng([2406, chunk])
        names = sorted(FAMILIES)
        for case in range(300):
            family = names[int(gen.integers(len(names)))]
            resolution = RESOLUTIONS[int(gen.integers(len(RESOLUTIONS)))]
            min_communities = MIN_COMMUNITIES[int(gen.integers(len(MIN_COMMUNITIES)))]
            context = (chunk, case, family, resolution, min_communities)
            graph = FAMILIES[family](gen)
            assert_heap_parity(graph, resolution, min_communities, context)


class TestNonFiniteInput:
    """A NaN or infinite weight raises instead of returning a partition."""

    @staticmethod
    def six_cycle(bad):
        edges = [(i, (i + 1) % 6, bad if i == 2 else 1.0) for i in range(6)]
        return Graph.from_edges(6, edges)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_greedy_modularity_rejects_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            greedy_modularity_communities(self.six_cycle(bad))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_partition_with_cap_rejects_weight(self, bad, method):
        with pytest.raises(ValueError, match="finite"):
            partition_with_cap(self.six_cycle(bad), 3, method=method, rng=0)

    def test_overflowing_total_rejected(self):
        graph = Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
        with pytest.raises(ValueError, match="finite"):
            greedy_modularity_communities(graph)

    @pytest.mark.parametrize("resolution", [np.nan, np.inf])
    def test_non_finite_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            greedy_modularity_communities(self.six_cycle(1.0), resolution=resolution)
