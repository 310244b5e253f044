"""SweepEngine regression + integration tests.

The golden test pins the (γ, β) angle-grid result on a fixed seeded graph:
the batched rewrite must reproduce the per-point loop's best grid point
exactly (same argmax index → bitwise-identical best parameters).
"""

import numpy as np
import pytest

from repro.experiments import run_angle_grid
from repro.graphs import cut_diagonal, erdos_renyi
from repro.optim import minimize_spsa
from repro.qaoa import MaxCutEnergy, QAOASolver, SweepEngine, angle_axes
from repro.qaoa2.solver import QAOA2Solver
from repro.quantum.backend import ScratchPool, shared_pool

GOLDEN_GRAPH_ARGS = dict(n=12, p=0.4, weighted=True, rng=3)


@pytest.fixture(scope="module")
def golden_graph():
    return erdos_renyi(
        GOLDEN_GRAPH_ARGS["n"],
        GOLDEN_GRAPH_ARGS["p"],
        weighted=GOLDEN_GRAPH_ARGS["weighted"],
        rng=GOLDEN_GRAPH_ARGS["rng"],
    )


class TestGoldenAngleGrid:
    """Pinned values computed with the seed per-point implementation."""

    GOLDEN_BEST_INDEX = (4, 4)
    GOLDEN_BEST_ENERGY = 8.559131130471727

    def test_loop_reference_unchanged(self, golden_graph):
        result = run_angle_grid(golden_graph, resolution=16, method="loop")
        assert result.best_index == self.GOLDEN_BEST_INDEX
        assert result.best_energy == pytest.approx(
            self.GOLDEN_BEST_ENERGY, abs=1e-9
        )

    def test_batched_matches_loop_bitwise_params(self, golden_graph):
        batched = run_angle_grid(golden_graph, resolution=16, method="batched")
        loop = run_angle_grid(golden_graph, resolution=16, method="loop")
        assert batched.best_index == loop.best_index == self.GOLDEN_BEST_INDEX
        # Same argmax over the same axes -> bitwise-identical parameters.
        assert np.array_equal(batched.best_params, loop.best_params)
        assert batched.best_energy == pytest.approx(
            self.GOLDEN_BEST_ENERGY, abs=1e-9
        )
        np.testing.assert_allclose(batched.energies, loop.energies, atol=1e-10)

    def test_default_axes_shape(self):
        gammas, betas = angle_axes(7)
        assert len(gammas) == len(betas) == 7
        assert gammas[0] == 0.0 and gammas[-1] < np.pi
        assert betas[-1] < np.pi / 2
        with pytest.raises(ValueError):
            angle_axes(0)

    def test_unknown_method_rejected(self, golden_graph):
        with pytest.raises(ValueError, match="method"):
            run_angle_grid(golden_graph, resolution=4, method="magic")


class TestChunking:
    """chunk_size edge cases: B=1, B % chunk != 0, chunk > B."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = erdos_renyi(9, 0.5, weighted=True, rng=17)
        matrix = np.random.default_rng(4).uniform(-np.pi, np.pi, size=(10, 4))
        energy = MaxCutEnergy(graph)
        reference = np.array([energy.expectation(row) for row in matrix])
        return graph, matrix, reference

    def test_single_row_batch(self, setup):
        graph, matrix, reference = setup
        engine = SweepEngine(graph, chunk_size=8)
        assert engine.energies(matrix[:1]) == pytest.approx(
            reference[:1], abs=1e-10
        )

    def test_batch_not_divisible_by_chunk(self, setup):
        graph, matrix, reference = setup
        engine = SweepEngine(graph, chunk_size=3)  # 10 = 3+3+3+1
        np.testing.assert_allclose(engine.energies(matrix), reference, atol=1e-10)

    def test_chunk_larger_than_batch(self, setup):
        graph, matrix, reference = setup
        engine = SweepEngine(graph, chunk_size=512)
        np.testing.assert_allclose(engine.energies(matrix), reference, atol=1e-10)

    def test_statevectors_chunked(self, setup):
        graph, matrix, _ = setup
        energy = MaxCutEnergy(graph)
        states = SweepEngine(graph, chunk_size=4).statevectors(matrix)
        for row in (0, 5, 9):
            np.testing.assert_allclose(
                states[row], energy.statevector(matrix[row]), atol=1e-10
            )

    def test_invalid_inputs(self, setup):
        graph, _, _ = setup
        with pytest.raises(ValueError, match="chunk_size"):
            SweepEngine(graph, chunk_size=0)
        engine = SweepEngine(graph)
        with pytest.raises(ValueError, match="even"):
            engine.energies(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="diagonal"):
            SweepEngine(graph, diagonal=np.zeros(4))

    def test_diagonal_must_be_complement_symmetric(self, setup):
        # The backends evolve only the top-bit-0 half of the state, so a
        # caller-supplied diagonal with d[x] != d[~x] is refused up front.
        graph, _, _ = setup
        diagonal = cut_diagonal(graph)
        SweepEngine(graph, diagonal=diagonal)
        skewed = diagonal.copy()
        skewed[0] += 1.0
        with pytest.raises(ValueError, match="complement-symmetric"):
            SweepEngine(graph, diagonal=skewed)


class TestScratchPool:
    def test_same_shape_reuses_allocation(self):
        pool = ScratchPool()
        a = pool.take("states", (4, 16))
        b = pool.take("states", (4, 16))
        assert a is b
        c = pool.take("states", (2, 16))
        assert c is not a
        assert pool.n_buffers == 2
        assert pool.nbytes() == (4 * 16 + 2 * 16) * 16
        pool.clear()
        assert pool.n_buffers == 0

    def test_equal_sized_graphs_share_buffers(self):
        pool = ScratchPool()
        g1 = erdos_renyi(6, 0.5, rng=1)
        g2 = erdos_renyi(6, 0.5, rng=2)
        e1 = SweepEngine(g1, pool=pool, chunk_size=4)
        e2 = SweepEngine(g2, pool=pool, chunk_size=4)
        params = np.random.default_rng(0).uniform(-1, 1, size=(4, 2))
        e1.energies(params)
        buffers_after_first = pool.n_buffers
        e2.energies(params)
        assert pool.n_buffers == buffers_after_first

    def test_shared_pool_is_singleton(self):
        assert shared_pool() is shared_pool()

    def test_byte_budget_evicts_lru_shapes(self):
        # Regression for the unbounded-growth bug: mixed-shape workloads
        # (service streams over many sub-graph sizes) used to accumulate
        # one dead buffer pair per shape forever.
        pool = ScratchPool(max_bytes=16 * 1024)
        for i in range(1, 9):  # shapes of 1..8 KiB, 36 KiB total
            pool.take("states", (i, 1 << 6))
        assert pool.nbytes() <= 16 * 1024
        assert pool.evictions > 0
        # The most recently taken shapes survive; the oldest were dropped.
        buffers_before = pool.n_buffers
        pool.take("states", (8, 1 << 6))  # hot shape: no new allocation
        assert pool.n_buffers == buffers_before

    def test_budget_never_evicts_the_taken_buffer(self):
        pool = ScratchPool(max_bytes=64)  # smaller than any real buffer
        buf = pool.take("states", (4, 16))
        assert buf.shape == (4, 16)
        assert pool.n_buffers == 1  # retained even though over budget
        again = pool.take("states", (4, 16))
        assert again is buf

    def test_lru_order_is_take_order(self):
        pool = ScratchPool(max_bytes=3 * 16 * 16)  # fits three (1,16) buffers
        a = pool.take("a", (1, 16))
        pool.take("b", (1, 16))
        pool.take("c", (1, 16))
        # Touch "a", then overflow: "b" (now coldest) must be evicted.
        assert pool.take("a", (1, 16)) is a
        pool.take("d", (1, 16))
        assert pool.evictions == 1
        assert pool.take("a", (1, 16)) is a  # still pooled
        pool.clear()
        assert pool.nbytes() == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ScratchPool(max_bytes=0)


class TestConsumers:
    def test_solver_with_engine_matches_without(self):
        graph = erdos_renyi(8, 0.5, weighted=True, rng=21)
        engine = SweepEngine(graph)
        with_engine = QAOASolver(layers=2, rng=0, engine=engine).solve(graph)
        without = QAOASolver(layers=2, rng=0).solve(graph)
        assert with_engine.cut == without.cut
        np.testing.assert_array_equal(with_engine.params, without.params)
        np.testing.assert_array_equal(with_engine.assignment, without.assignment)

    def test_spsa_batch_pair_matches_sequential(self):
        def quadratic(x):
            return float(np.sum((x - 1.5) ** 2))

        def quadratic_batch(matrix):
            return np.array([quadratic(row) for row in matrix])

        sequential = minimize_spsa(quadratic, np.zeros(3), maxiter=60, rng=0)
        batched = minimize_spsa(
            quadratic, np.zeros(3), maxiter=60, rng=0, batch_fun=quadratic_batch
        )
        assert batched.nfev == sequential.nfev
        np.testing.assert_array_equal(batched.x, sequential.x)
        assert batched.history == sequential.history

    def test_spsa_batch_shape_validated(self):
        with pytest.raises(ValueError, match="batch_fun"):
            minimize_spsa(
                lambda x: 0.0,
                np.zeros(2),
                maxiter=4,
                rng=0,
                batch_fun=lambda m: np.zeros(3),
            )

    def test_qaoa_solver_spsa_objective(self):
        graph = erdos_renyi(8, 0.5, rng=13)
        result = QAOASolver(layers=2, optimizer="spsa", rng=5).solve(graph)
        assert 0.0 < result.cut <= graph.total_weight
        assert result.nfev > 0

    def test_qaoa2_subgraph_grid_uses_shared_engine(self):
        graph = erdos_renyi(24, 0.2, rng=31)
        solver = QAOA2Solver(
            n_max_qubits=8,
            rng=0,
            qaoa_grid=[{"layers": 1}, {"layers": 2}],
        )
        result = solver.solve(graph)
        assert result.cut > 0
        assert result.n_subproblems >= 2
