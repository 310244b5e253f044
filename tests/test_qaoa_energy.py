"""Unit + property tests for the fast QAOA energy path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, cut_diagonal, erdos_renyi
from repro.qaoa import MaxCutEnergy, SweepEngine
from repro.quantum import StatevectorSimulator, run_qaoa_reference
from repro.quantum.statevector import fidelity, plus_state
from repro.synth import CombinatorialModel, qaoa_ansatz

angles = st.floats(-np.pi, np.pi, allow_nan=False)


class TestStatevectorPath:
    def test_zero_params_plus_state(self, er_small):
        energy = MaxCutEnergy(er_small)
        state = energy.statevector(np.zeros(4))
        assert np.allclose(state, plus_state(er_small.n_nodes))

    def test_matches_reference_path(self, er_small):
        energy = MaxCutEnergy(er_small)
        params = np.array([0.3, 0.7, 0.2, 0.5])
        fast = energy.statevector(params)
        ref = run_qaoa_reference(cut_diagonal(er_small), params[:2], params[2:])
        assert np.allclose(fast, ref)

    def test_matches_synthesized_circuit(self, er_small):
        energy = MaxCutEnergy(er_small)
        model = CombinatorialModel.maxcut(er_small, layers=3)
        params = np.random.default_rng(1).uniform(-1, 1, 6)
        fast = energy.statevector(params)
        circ = qaoa_ansatz(model).bind(params)
        circuit_state = StatevectorSimulator().statevector(circ)
        assert fidelity(fast, circuit_state) == pytest.approx(1.0, abs=1e-9)

    def test_odd_param_length_rejected(self, er_small):
        with pytest.raises(ValueError, match="even"):
            MaxCutEnergy(er_small).statevector(np.zeros(3))

    @settings(max_examples=20, deadline=None)
    @given(angles, angles)
    def test_norm_preserved(self, gamma, beta):
        g = erdos_renyi(6, 0.5, rng=0)
        state = MaxCutEnergy(g).statevector(np.array([gamma, beta]))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


class TestExpectation:
    def test_zero_params_half_total_weight(self, er_small):
        energy = MaxCutEnergy(er_small)
        assert energy.expectation(np.zeros(2)) == pytest.approx(
            er_small.total_weight / 2
        )

    def test_expectation_bounded_by_maxcut(self, er_small):
        energy = MaxCutEnergy(er_small)
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = rng.uniform(-np.pi, np.pi, 4)
            f = energy.expectation(params)
            assert 0.0 - 1e-9 <= f <= energy.diagonal.max() + 1e-9

    def test_sampled_expectation_close_to_exact(self, er_small):
        energy = MaxCutEnergy(er_small)
        params = np.array([0.4, 0.3])
        exact = energy.expectation(params)
        sampled = energy.sampled_expectation(params, shots=30000, rng=2)
        assert sampled == pytest.approx(exact, rel=0.05)

    def test_empty_node_graph_rejected(self):
        with pytest.raises(ValueError):
            MaxCutEnergy(Graph.from_edges(0, []))

    def test_engine_of_another_graph_rejected(self, er_small):
        engine = SweepEngine(erdos_renyi(10, 0.4, rng=8))
        with pytest.raises(ValueError, match="different graph"):
            MaxCutEnergy(er_small, engine=engine)

    def test_periodicity_unweighted_gamma_2pi(self):
        # Integer-weight cut diagonal: gamma has period 2π.
        g = erdos_renyi(6, 0.5, rng=1)
        energy = MaxCutEnergy(g)
        a = energy.expectation(np.array([0.3, 0.4]))
        b = energy.expectation(np.array([0.3 + 2 * np.pi, 0.4]))
        assert a == pytest.approx(b, abs=1e-9)
