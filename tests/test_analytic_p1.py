"""Closed-form p=1 fast path + p≥2 angle-grid API tests.

Three pillars:

* analytic-vs-statevector agreement to 1e-9 (randomized weighted/unweighted
  graphs plus the degenerate shapes: single edge, disconnected nodes,
  negative weights, edgeless),
* p≥2 ``angle_grid`` parity against per-point ``energies``,
* the shape-validation bugfix (mismatched γ/β dimensionality raises instead
  of being silently misread as p=1 input).
"""

import numpy as np
import pytest

from repro.experiments import run_angle_grid
from repro.graphs import Graph, erdos_renyi, ring
from repro.qaoa import AnalyticP1Energy, MaxCutEnergy, QAOASolver, SweepEngine
from repro.qaoa.analytic import angle_axes
from repro.qaoa.rqaoa import rqaoa_solve

ATOL = 1e-9


def random_graphs(n_cases, seed=7):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_cases):
        n = int(rng.integers(2, 11))
        graphs.append(
            erdos_renyi(
                n,
                float(rng.uniform(0.2, 0.9)),
                weighted=bool(rng.integers(0, 2)),
                rng=int(rng.integers(2**31)),
            )
        )
    return graphs


def edge_case_graphs():
    base = erdos_renyi(8, 0.5, rng=3)
    negative = base.with_weights(
        np.random.default_rng(1).uniform(-2.0, 2.0, base.n_edges)
    )
    return [
        Graph.from_edges(2, [(0, 1, 2.5)]),  # single edge
        Graph.from_edges(6, [(0, 5, 1.5)]),  # disconnected nodes
        ring(6),  # exactly-degenerate landscape
        negative,  # signed weights (QAOA² merge graphs)
    ]


class TestAnalyticAgainstStatevector:
    @pytest.mark.parametrize("graph", random_graphs(12) + edge_case_graphs())
    def test_energies_match_expectation(self, graph):
        rng = np.random.default_rng(graph.n_edges + 11)
        params = rng.uniform(-np.pi, np.pi, size=(16, 2))
        analytic = AnalyticP1Energy(graph)
        energy = MaxCutEnergy(graph)
        reference = np.array([energy.expectation(row) for row in params])
        np.testing.assert_allclose(analytic.energies(params), reference, atol=ATOL)

    @pytest.mark.parametrize("graph", edge_case_graphs())
    def test_grid_matches_spectral_tier(self, graph):
        gammas, betas = angle_axes(9)
        engine = SweepEngine(graph)
        analytic = engine.angle_grid(gammas, betas, method="analytic")
        spectral = engine.angle_grid(gammas, betas, method="spectral")
        generic = engine.angle_grid(gammas, betas, method="batched")
        np.testing.assert_allclose(analytic, spectral, atol=ATOL)
        np.testing.assert_allclose(analytic, generic, atol=ATOL)

    def test_auto_tier_is_analytic_for_p1(self, weighted_square):
        engine = SweepEngine(weighted_square)
        gammas, betas = angle_axes(6)
        auto = engine.angle_grid(gammas, betas)
        analytic = engine.analytic.grid(gammas, betas)
        np.testing.assert_array_equal(auto, analytic)

    def test_edgeless_graph_is_flat_zero(self):
        graph = Graph.from_edges(4, [])
        analytic = AnalyticP1Energy(graph)
        grid = analytic.grid(np.linspace(0, 3, 5), np.linspace(0, 1.5, 4))
        np.testing.assert_array_equal(grid, np.zeros((5, 4)))
        assert analytic.energy(np.array([0.3, 0.7])) == 0.0

    def test_single_edge_closed_form(self):
        # One edge of weight w: F = w/2 + (w/2)·sin(4β)·sin(γw); the p=1
        # optimum reaches the full cut w.
        w = 2.5
        analytic = AnalyticP1Energy(Graph.from_edges(2, [(0, 1, w)]))
        gamma = np.pi / (2 * w)
        beta = np.pi / 8
        assert analytic.energy(np.array([gamma, beta])) == pytest.approx(w)

    def test_gamma_chunking_invariant(self):
        # Tiny chunk budget → many (γ, edge) blocks; results must agree
        # with the single-block evaluation exactly.
        import repro.qaoa.analytic as analytic_module

        graph = erdos_renyi(10, 0.6, weighted=True, rng=5)
        gammas, betas = angle_axes(13)
        wide = AnalyticP1Energy(graph).grid(gammas, betas)
        old_budget = analytic_module.TERMS_BUDGET_BYTES
        analytic_module.TERMS_BUDGET_BYTES = 256
        try:
            narrow = AnalyticP1Energy(graph).grid(gammas, betas)
        finally:
            analytic_module.TERMS_BUDGET_BYTES = old_budget
        np.testing.assert_allclose(narrow, wide, atol=1e-12)

    def test_rejects_deeper_params(self, weighted_square):
        analytic = AnalyticP1Energy(weighted_square)
        with pytest.raises(ValueError, match="p=1"):
            analytic.energies(np.zeros((3, 4)))

    def test_best_seed_matches_grid_argmax(self, er_small):
        analytic = AnalyticP1Energy(er_small)
        seed, value = analytic.best_seed(8)
        gammas, betas = angle_axes(8)
        grid = analytic.grid(gammas, betas)
        assert value == pytest.approx(float(grid.max()))
        assert analytic.energy(seed) == pytest.approx(value)

    def test_wrapper_apis_agree(self, er_small):
        # The public convenience wrappers must hit the same closed form.
        params = np.array([[0.3, 0.7], [1.1, 0.2]])
        energy = MaxCutEnergy(er_small)
        engine = SweepEngine(er_small)
        reference = AnalyticP1Energy(er_small).energies(params)
        analytic = energy.engine.analytic
        np.testing.assert_array_equal(analytic.energies(params), reference)
        np.testing.assert_array_equal(engine.analytic.energies(params), reference)
        assert analytic.energy(params[0]) == reference[0]
        assert analytic.energy(params[0]) == pytest.approx(
            energy.expectation(params[0]), abs=ATOL
        )

    def test_no_statevector_wall_for_large_graphs(self):
        # 2**48 amplitudes are unbuildable; the analytic tier must evaluate
        # a 48-node p=1 grid without the engine ever materialising the cut
        # diagonal (it is constructed lazily, by statevector tiers only).
        graph = erdos_renyi(48, 0.15, weighted=True, rng=1)
        engine = SweepEngine(graph)
        gammas, betas = angle_axes(6)
        grid = engine.angle_grid(gammas, betas)
        assert grid.shape == (6, 6)
        assert np.all(np.isfinite(grid))
        assert engine._diagonal is None  # never touched 2**48


class TestDeepAngleGrid:
    """p≥2 grids route through chunked generic batches."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_parity_against_per_point_energies(self, p):
        rng = np.random.default_rng(40 + p)
        for weighted in (False, True):
            graph = erdos_renyi(
                7, 0.5, weighted=weighted, rng=int(rng.integers(2**31))
            )
            gammas = rng.uniform(-np.pi, np.pi, size=(4, p))
            betas = rng.uniform(-np.pi, np.pi, size=(3, p))
            grid = SweepEngine(graph).angle_grid(gammas, betas)
            energy = MaxCutEnergy(graph)
            for i in range(4):
                for j in range(3):
                    point = energy.expectation(
                        np.concatenate([gammas[i], betas[j]])
                    )
                    assert grid[i, j] == pytest.approx(point, abs=ATOL)

    def test_run_angle_grid_deep_loop_parity(self):
        graph = erdos_renyi(6, 0.6, weighted=True, rng=9)
        rng = np.random.default_rng(2)
        gammas = rng.uniform(0, np.pi, size=(5, 2))
        betas = rng.uniform(0, np.pi / 2, size=(4, 2))
        batched = run_angle_grid(graph, gammas, betas, method="batched")
        loop = run_angle_grid(graph, gammas, betas, method="loop")
        np.testing.assert_allclose(batched.energies, loop.energies, atol=ATOL)
        assert batched.best_index == loop.best_index
        np.testing.assert_array_equal(batched.best_params, loop.best_params)
        assert batched.best_params.shape == (4,)  # [γ1, γ2, β1, β2]

    def test_p1_as_2d_matches_1d(self, er_small):
        engine = SweepEngine(er_small)
        gammas, betas = angle_axes(5)
        flat = engine.angle_grid(gammas, betas)
        columns = engine.angle_grid(gammas[:, None], betas[:, None])
        np.testing.assert_array_equal(flat, columns)


class TestAngleGridValidation:
    """The silent-p=1-assumption bugfix: bad shapes raise with clear text."""

    def test_mismatched_layer_counts_raise(self, er_small):
        engine = SweepEngine(er_small)
        with pytest.raises(ValueError, match="same ansatz depth"):
            engine.angle_grid(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_mixed_1d_and_deep_axis_raises(self, er_small):
        engine = SweepEngine(er_small)
        with pytest.raises(ValueError, match="same ansatz depth"):
            engine.angle_grid(np.zeros(4), np.zeros((4, 2)))

    def test_higher_rank_axes_rejected(self, er_small):
        engine = SweepEngine(er_small)
        with pytest.raises(ValueError, match="ndim"):
            engine.angle_grid(np.zeros((2, 2, 2)), np.zeros(4))

    def test_zero_layer_axes_rejected(self, er_small):
        engine = SweepEngine(er_small)
        with pytest.raises(ValueError, match="at least one layer"):
            engine.angle_grid(np.zeros((4, 0)), np.zeros((4, 0)))

    def test_spectral_tier_rejects_deep_grids(self, er_small):
        engine = SweepEngine(er_small)
        with pytest.raises(ValueError, match="p=1 only"):
            engine.angle_grid(
                np.zeros((2, 2)), np.zeros((2, 2)), method="spectral"
            )

    def test_unknown_method_rejected(self, er_small):
        engine = SweepEngine(er_small)
        with pytest.raises(ValueError, match="unknown angle-grid method"):
            engine.angle_grid(np.zeros(2), np.zeros(2), method="magic")

    def test_empty_axes_return_empty_grid(self, er_small):
        engine = SweepEngine(er_small)
        assert engine.angle_grid(np.zeros(0), np.zeros(3)).shape == (0, 3)
        assert engine.angle_grid(np.zeros(3), np.zeros(0)).shape == (3, 0)


class TestSolverAnalyticTier:
    """QAOASolver auto-picks the closed form at p=1."""

    def test_p1_solve_statevector_free_objective(self, er_small):
        auto = QAOASolver(layers=1, rng=0, maxiter=30).solve(er_small)
        forced_off = QAOASolver(
            layers=1, rng=0, maxiter=30, analytic=False
        ).solve(er_small)
        # Same optimum up to COBYLA's stopping wobble; the two objectives
        # differ in the last float bits, so the trajectories (and the
        # final stationary point) agree only approximately.
        assert auto.energy == pytest.approx(forced_off.energy, abs=1e-3)
        assert auto.cut == forced_off.cut

    def test_p1_batched_pointwise_parity_preserved(self, er_small):
        batched = QAOASolver(
            layers=1, optimizer="spsa", rng=3, maxiter=40, n_starts=3
        ).solve(er_small)
        pointwise = QAOASolver(
            layers=1, optimizer="spsa", rng=3, maxiter=40, n_starts=3,
            batched=False,
        ).solve(er_small)
        assert batched.cut == pointwise.cut
        np.testing.assert_allclose(batched.params, pointwise.params, atol=1e-9)

    def test_analytic_true_requires_p1(self, er_small):
        with pytest.raises(ValueError, match="layers=1"):
            QAOASolver(layers=2, analytic=True, rng=0).solve(er_small)

    def test_analytic_true_requires_exact_objective(self, er_small):
        with pytest.raises(ValueError, match="statevector"):
            QAOASolver(
                layers=1, analytic=True, objective="sampled", rng=0
            ).solve(er_small)

    def test_unknown_analytic_mode_rejected(self, er_small):
        with pytest.raises(ValueError, match="analytic"):
            QAOASolver(layers=1, analytic="sometimes", rng=0).solve(er_small)

    def test_engine_attached_shares_analytic_instance(self, er_small):
        engine = SweepEngine(er_small)
        energy = MaxCutEnergy(er_small, engine=engine)
        assert energy.engine.analytic is engine.analytic


class TestRqaoaAngleSeeding:
    def test_seed_recorded_and_batched_parity(self):
        graph = erdos_renyi(10, 0.5, weighted=True, rng=23)
        seeded = rqaoa_solve(graph, n_cutoff=5, layers=1, rng=0, batched=True)
        pointwise = rqaoa_solve(
            graph, n_cutoff=5, layers=1, rng=0, batched=False
        )
        assert seeded.extra["angle_seed"] is True
        assert seeded.cut == pointwise.cut
        assert seeded.eliminations == pointwise.eliminations

    def test_seed_can_be_disabled(self):
        graph = erdos_renyi(10, 0.5, weighted=True, rng=23)
        plain = rqaoa_solve(
            graph, n_cutoff=5, layers=1, rng=0, angle_seed=False
        )
        assert plain.extra["angle_seed"] is False

    def test_warm_started_solver_not_overridden(self):
        graph = erdos_renyi(10, 0.5, weighted=True, rng=23)
        solver = QAOASolver(
            layers=1, init="warm", warm_start=np.array([0.4, 0.2]), rng=0,
            maxiter=15,
        )
        result = rqaoa_solve(graph, n_cutoff=5, solver=solver, rng=0)
        assert result.extra["angle_seed"] is False

    def test_deep_solver_gets_interpolated_seed(self):
        graph = erdos_renyi(10, 0.4, weighted=True, rng=29)
        result = rqaoa_solve(graph, n_cutoff=5, layers=2, rng=0)
        assert result.extra["angle_seed"] is True
        assert result.cut == pytest.approx(
            __import__("repro.graphs.maxcut", fromlist=["cut_value"]).cut_value(
                graph, result.assignment
            )
        )


class TestAxesHelpers:
    def test_default_axes_delegate(self):
        """``run_angle_grid`` without axes evaluates the ``angle_axes`` grid."""
        gammas, betas = angle_axes(5)
        result = run_angle_grid(ring(4), resolution=5)
        np.testing.assert_array_equal(result.gammas, gammas)
        np.testing.assert_array_equal(result.betas, betas)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            angle_axes(0)


class TestCSRNeighbourGather:
    """The O(E·deg) sparse fast path must match the dense-row reference."""

    @pytest.mark.parametrize("graph", random_graphs(12) + edge_case_graphs())
    def test_csr_matches_dense_grid(self, graph):
        gammas, betas = angle_axes(11)
        dense = AnalyticP1Energy(graph, mode="dense").grid(gammas, betas)
        csr = AnalyticP1Energy(graph, mode="csr").grid(gammas, betas)
        np.testing.assert_allclose(csr, dense, atol=1e-12)

    def test_csr_matches_dense_energies(self):
        graph = erdos_renyi(14, 0.15, weighted=True, rng=5)
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.0, np.pi, size=(23, 2))
        dense = AnalyticP1Energy(graph, mode="dense").energies(rows)
        csr = AnalyticP1Energy(graph, mode="csr").energies(rows)
        np.testing.assert_allclose(csr, dense, atol=1e-12)

    def test_csr_chunking_boundaries(self, monkeypatch):
        """Tiny scratch budgets exercise the (γ, edge-block) chunk loops."""
        import repro.qaoa.analytic as analytic_module

        graph = erdos_renyi(16, 0.2, weighted=True, rng=9)
        gammas, betas = angle_axes(9)
        reference = AnalyticP1Energy(graph, mode="csr").grid(gammas, betas)
        monkeypatch.setattr(analytic_module, "TERMS_BUDGET_BYTES", 256)
        chunked = AnalyticP1Energy(graph, mode="csr").grid(gammas, betas)
        np.testing.assert_allclose(chunked, reference, atol=1e-12)

    def test_auto_mode_selects_by_density(self):
        from repro.qaoa.analytic import CSR_DENSITY_THRESHOLD

        sparse = erdos_renyi(20, 0.1, rng=0)
        dense = erdos_renyi(20, 0.8, rng=0)
        assert sparse.density <= CSR_DENSITY_THRESHOLD
        assert dense.density > CSR_DENSITY_THRESHOLD
        assert AnalyticP1Energy(sparse).resolved_mode == "csr"
        assert AnalyticP1Energy(dense).resolved_mode == "dense"
        assert AnalyticP1Energy(dense, mode="csr").resolved_mode == "csr"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="analytic mode"):
            AnalyticP1Energy(erdos_renyi(6, 0.5, rng=0), mode="sparse")

    def test_lazy_construction(self):
        """Neither representation is built before the first evaluation."""
        graph = erdos_renyi(10, 0.3, rng=1)
        evaluator = AnalyticP1Energy(graph, mode="csr")
        assert evaluator._dense_rows is None and evaluator._csr_terms is None
        evaluator.energy(np.array([0.3, 0.4]))
        assert evaluator._csr_terms is not None
        assert evaluator._dense_rows is None  # CSR path never densifies
