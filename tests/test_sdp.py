"""Unit + property tests for the SDP solvers."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.classical.gw as gw_module
from repro.classical import (
    SDPResult,
    goemans_williamson,
    solve_sdp,
    solve_sdp_admm,
    solve_sdp_mixing,
)
from repro.graphs import (
    Graph,
    complete,
    complete_bipartite,
    erdos_renyi,
    exact_maxcut_bruteforce,
    planted_partition,
)
from repro.util.rng import RngLike, ensure_rng


class TestMixingMethod:
    def test_unit_norm_columns(self, er_small):
        result = solve_sdp_mixing(er_small, rng=0)
        norms = np.linalg.norm(result.vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_upper_bounds_exact_maxcut(self):
        for seed in range(4):
            g = erdos_renyi(12, 0.4, rng=seed)
            sdp = solve_sdp_mixing(g, rng=seed)
            exact = exact_maxcut_bruteforce(g).cut
            assert sdp.objective >= exact - 1e-6

    def test_bipartite_tight(self):
        # K_{a,b} SDP relaxation is tight (rank-1 optimal).
        g = complete_bipartite(4, 5)
        sdp = solve_sdp_mixing(g, rng=0)
        assert sdp.objective == pytest.approx(20.0, rel=1e-4)

    def test_gram_matrix_psd_unit_diagonal(self, er_small):
        result = solve_sdp_mixing(er_small, rng=1)
        gram = result.gram
        assert np.allclose(np.diag(gram), 1.0, atol=1e-9)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9

    def test_convergence_flag(self, er_small):
        result = solve_sdp_mixing(er_small, rng=0, max_sweeps=500)
        assert result.converged

    def test_custom_rank(self, er_small):
        result = solve_sdp_mixing(er_small, rank=3, rng=0)
        assert result.vectors.shape[0] == 3

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        result = solve_sdp_mixing(g, rng=0)
        assert result.objective == 0.0

    def test_negative_weights(self):
        base = erdos_renyi(10, 0.5, rng=2)
        g = base.with_weights(np.random.default_rng(0).uniform(-1, 1, base.n_edges))
        sdp = solve_sdp_mixing(g, rng=0)
        exact = exact_maxcut_bruteforce(g).cut
        assert sdp.objective >= exact - 1e-6

    def test_deterministic_with_seed(self, er_small):
        a = solve_sdp_mixing(er_small, rng=5)
        b = solve_sdp_mixing(er_small, rng=5)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.objective == b.objective
        assert a.iterations == b.iterations


def _column_major_objective(graph: Graph, vectors: np.ndarray) -> float:
    dots = np.einsum("ki,ki->i", vectors[:, graph.u], vectors[:, graph.v])
    return float(0.5 * np.sum(graph.w * (1.0 - dots)))


def _column_major_mixing(
    graph: Graph,
    *,
    rank: Optional[int] = None,
    max_sweeps: int = 500,
    tol: float = 1e-7,
    rng: RngLike = None,
) -> SDPResult:
    """The mixing method as it updated the columns of the ``(k, n)`` array.

    Kept verbatim as the reference that ``solve_sdp_mixing``'s node-major
    sweep must match bit for bit: the ``cut_ratio_gw`` denominators, QAOA²'s
    GW merge levels and the ``gw``/``best`` methods all rest on these bits.
    """
    n = graph.n_nodes
    gen = ensure_rng(rng)
    if n == 0:
        return SDPResult(np.zeros((1, 0)), 0.0, 0, True)
    k = rank if rank is not None else int(np.ceil(np.sqrt(2.0 * n))) + 1
    k = max(k, 2)
    vectors = gen.standard_normal((k, n))
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    if graph.n_edges == 0:
        return SDPResult(vectors, 0.0, 0, True)

    indptr, indices, weights = graph.neighbors()
    prev_obj = _column_major_objective(graph, vectors)
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        for i in range(n):
            start, stop = indptr[i], indptr[i + 1]
            if start == stop:
                continue
            nbr = indices[start:stop]
            g = vectors[:, nbr] @ weights[start:stop]
            norm = np.linalg.norm(g)
            if norm > 1e-14:
                vectors[:, i] = -g / norm
        obj = _column_major_objective(graph, vectors)
        if abs(obj - prev_obj) <= tol * max(1.0, abs(obj)):
            converged = True
            prev_obj = obj
            break
        prev_obj = obj
    return SDPResult(vectors, prev_obj, sweeps, converged, "mixing")


def _weighted_er(n: int, p: float, seed: int, low: float, high: float) -> Graph:
    base = erdos_renyi(n, p, rng=seed)
    return base.with_weights(
        np.random.default_rng(seed).uniform(low, high, base.n_edges)
    )


# Two isolated nodes (5 and 6) between weighted components.
_ISOLATED = Graph.from_edges(
    9,
    [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 2.0), (2, 3, 1.5), (3, 4, 1.0),
     (7, 8, 0.75), (4, 7, 1.25)],
)

_PARITY_CASES = [
    *(
        pytest.param(erdos_renyi(240, 0.1, rng=s), s, {}, id=f"er240-{s}")
        for s in (1, 2, 3)
    ),
    pytest.param(planted_partition(72, 4, 0.9, 0.01, rng=1), 1, {}, id="planted72"),
    *(
        pytest.param(_weighted_er(12, 0.3, s, 0.1, 1.0), s, {}, id=f"er12w-{s}")
        for s in range(20)
    ),
    pytest.param(_weighted_er(30, 0.3, 4, -1.0, 1.0), 4, {}, id="negative-weights"),
    pytest.param(_ISOLATED, 2, {}, id="isolated-nodes"),
    pytest.param(erdos_renyi(40, 0.2, rng=5), 5, {"rank": 3}, id="rank3"),
    pytest.param(
        erdos_renyi(60, 0.2, rng=6), 6, {"max_sweeps": 2}, id="max-sweeps-2"
    ),
    pytest.param(Graph.from_edges(5, []), 7, {}, id="edgeless"),
]


class TestColumnMajorParity:
    """The node-major sweep returns the column-major loop's bits."""

    @pytest.mark.parametrize("graph, seed, kwargs", _PARITY_CASES)
    def test_bit_identical(self, graph, seed, kwargs):
        ref = _column_major_mixing(graph, rng=seed, **kwargs)
        got = solve_sdp_mixing(graph, rng=seed, **kwargs)
        assert got.vectors.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got.vectors, ref.vectors)
        assert got.objective == ref.objective
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged

    def test_cases_cover_their_edges(self):
        params = {p.id: p.values for p in _PARITY_CASES}
        assert params["negative-weights"][0].w.min() < 0
        degrees = np.diff(_ISOLATED.neighbors()[0])
        assert np.flatnonzero(degrees == 0).tolist() == [5, 6]
        graph, seed, kwargs = params["max-sweeps-2"]
        assert not _column_major_mixing(graph, rng=seed, **kwargs).converged

    @pytest.mark.parametrize(
        "graph, seed",
        [
            (erdos_renyi(240, 0.1, rng=1), 1),
            (planted_partition(72, 4, 0.9, 0.01, rng=1), 1),
            (_weighted_er(30, 0.3, 4, -1.0, 1.0), 4),
        ],
        ids=["er240", "planted72", "negative-weights"],
    )
    def test_goemans_williamson_identical(self, graph, seed, monkeypatch):
        got = goemans_williamson(graph, rng=seed)
        monkeypatch.setattr(
            gw_module,
            "solve_sdp",
            lambda g, *, method, **kwargs: _column_major_mixing(g, **kwargs),
        )
        ref = goemans_williamson(graph, rng=seed)
        assert got.slice_cuts == ref.slice_cuts
        np.testing.assert_array_equal(got.best_assignment, ref.best_assignment)
        assert got.sdp_objective == ref.sdp_objective


class TestADMM:
    def test_agrees_with_mixing(self):
        for seed in (0, 1):
            g = erdos_renyi(10, 0.5, rng=seed)
            mix = solve_sdp_mixing(g, rng=seed)
            admm = solve_sdp_admm(g)
            assert admm.objective == pytest.approx(mix.objective, rel=0.02)

    def test_upper_bounds_exact(self):
        g = erdos_renyi(10, 0.5, rng=3)
        exact = exact_maxcut_bruteforce(g).cut
        assert solve_sdp_admm(g).objective >= exact - 1e-4

    def test_complete_graph_known_value(self):
        # K_n SDP optimum = n^2/4 * (edge weight contribution): for K_n the
        # SDP value is n(n-1)/2 * (1-(-1/(n-1)))/2 = n^2/4.
        n = 6
        sdp = solve_sdp_admm(complete(n))
        assert sdp.objective == pytest.approx(n * n / 4.0, rel=0.02)

    def test_empty_graph(self):
        g = Graph.from_edges(3, [])
        assert solve_sdp_admm(g).objective == pytest.approx(0.0, abs=1e-9)


class TestDispatch:
    def test_method_selection(self, er_small):
        assert solve_sdp(er_small, method="mixing", rng=0).method == "mixing"
        assert solve_sdp(er_small, method="admm").method == "admm"

    def test_unknown_method(self, er_small):
        with pytest.raises(ValueError, match="unknown SDP method"):
            solve_sdp(er_small, method="ipm")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_sdp_sandwich_property(self, seed):
        """exact <= SDP <= total positive weight, for random instances."""
        g = erdos_renyi(9, 0.4, rng=seed)
        sdp = solve_sdp_mixing(g, rng=seed)
        exact = exact_maxcut_bruteforce(g).cut
        # Lower slack reflects the solver's relative convergence tolerance
        # (tight instances stop a hair below the true optimum).
        assert exact * (1 - 1e-4) - 1e-6 <= sdp.objective <= g.total_weight + 1e-6
