"""Property tests for the batched statevector kernels.

Seeded randomized cross-validation of the three QAOA evaluation paths:

* single-state kernels (the seed implementation),
* the batched ``(B, 2**n)`` kernels / :class:`repro.qaoa.engine.SweepEngine`,
* the circuit-level simulator via :mod:`repro.synth`.

Agreement assertions use atol 1e-10 (the batched path only reorders
floating-point reductions), except that the numpy backend's batched state
must equal its per-point state exactly.
"""

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.qaoa import MaxCutEnergy, SweepEngine
from repro.quantum import StatevectorSimulator
from repro.quantum.backend import NumpyBackend
from repro.quantum.statevector import (
    expectation_diagonal_batch,
    n_qubits_for_dim,
    plus_state,
    plus_state_batch,
)

from repro.synth import CombinatorialModel, qaoa_ansatz

# The raw layer kernels are only importable inside repro.quantum.backend;
# tests exercise them through the bit-identical reference backend.
BACKEND = NumpyBackend()

ATOL = 1e-10


def random_cases(n_cases: int, seed: int = 2024):
    """(graph, params) instances: n ≤ 10, p ≤ 3, mixed weighting."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 4))
        weighted = bool(rng.integers(0, 2))
        graph = erdos_renyi(
            n, float(rng.uniform(0.2, 0.8)), weighted=weighted,
            rng=int(rng.integers(2**31)),
        )
        params = rng.uniform(-np.pi, np.pi, size=2 * p)
        cases.append((graph, params))
    return cases


class TestKernels:
    def test_plus_state_batch_rows(self):
        batch = plus_state_batch(4, 3)
        assert batch.shape == (3, 16)
        for row in batch:
            assert np.array_equal(row, plus_state(4))

    def test_plus_state_batch_out_reuse(self):
        buf = np.empty((2, 8), dtype=np.complex128)
        out = plus_state_batch(3, 2, out=buf)
        assert out is buf
        with pytest.raises(ValueError, match="out buffer"):
            plus_state_batch(3, 4, out=buf)

    def test_plus_state_batch_invalid_batch(self):
        with pytest.raises(ValueError, match="batch"):
            plus_state_batch(3, 0)

    def test_rx_layer_batched_matches_single(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 5):
            dim = 1 << n
            states = rng.standard_normal((6, dim)) + 1j * rng.standard_normal((6, dim))
            betas = rng.uniform(-np.pi, np.pi, size=6)
            batched = BACKEND.apply_mixer_layer(states.copy(), betas)
            for row, (state, beta) in enumerate(zip(states, betas, strict=True)):
                single = BACKEND.apply_mixer_layer(state.copy(), beta)
                np.testing.assert_allclose(batched[row], single, atol=ATOL)

    def test_rx_layer_batched_scalar_beta(self):
        rng = np.random.default_rng(8)
        states = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        batched = BACKEND.apply_mixer_layer(states.copy(), 0.37)
        for row, state in enumerate(states):
            np.testing.assert_allclose(
                batched[row], BACKEND.apply_mixer_layer(state.copy(), 0.37), atol=ATOL
            )

    def test_rx_layer_beta_shape_mismatch(self):
        states = np.zeros((3, 8), dtype=np.complex128)
        with pytest.raises(ValueError, match="batch"):
            BACKEND.apply_mixer_layer(states, np.zeros(4))
        with pytest.raises(ValueError, match="batched"):
            BACKEND.apply_mixer_layer(np.zeros(8, dtype=np.complex128), np.zeros(2))

    def test_apply_phases_batch_matches_single(self):
        rng = np.random.default_rng(9)
        diag = rng.uniform(0, 5, size=16)
        states = plus_state_batch(4, 5)
        gammas = rng.uniform(-np.pi, np.pi, size=5)
        BACKEND.apply_cost_layer(states, diag, gammas)
        for row, gamma in enumerate(gammas):
            expected = plus_state(4) * np.exp(-1j * gamma * diag)
            np.testing.assert_allclose(states[row], expected, atol=ATOL)

    def test_apply_phases_batch_validation(self):
        states = plus_state_batch(3, 2)
        with pytest.raises(ValueError, match="gammas"):
            BACKEND.apply_cost_layer(states, np.zeros(8), np.zeros(3))
        with pytest.raises(ValueError, match="diagonal"):
            BACKEND.apply_cost_layer(states, np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError, match="scratch"):
            BACKEND.apply_cost_layer(
                states, np.zeros(8), np.zeros(2), scratch=np.zeros((1, 8), complex)
            )

    def test_expectation_diagonal_batch(self):
        rng = np.random.default_rng(10)
        diag = rng.uniform(0, 3, size=8)
        states = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        values = expectation_diagonal_batch(states, diag)
        for row, state in enumerate(states):
            expected = float(np.dot(np.abs(state) ** 2, diag))
            assert values[row] == pytest.approx(expected, abs=ATOL)

    def test_walsh_hadamard_matches_matrix(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4):
            dim = 1 << n
            hadamard = np.ones((1, 1))
            for _ in range(n):
                hadamard = np.kron(hadamard, np.array([[1, 1], [1, -1]], float))
            states = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
            out = BACKEND.walsh_transform(states.copy())
            np.testing.assert_allclose(out, states @ hadamard.T, atol=ATOL)

    def test_walsh_hadamard_involution(self):
        rng = np.random.default_rng(12)
        states = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
        roundtrip = BACKEND.walsh_transform(BACKEND.walsh_transform(states.copy()))
        np.testing.assert_allclose(roundtrip, 32 * states, atol=1e-9)

    def test_walsh_hadamard_rejects_strided(self):
        big = np.zeros((2, 4, 8), dtype=np.complex128)
        with pytest.raises(ValueError, match="contiguous"):
            BACKEND.walsh_transform(big[:, 1, :])

    def test_n_qubits_for_dim_rejects_non_power_of_two(self):
        for bad in (0, 3, 6, 12, 100):
            with pytest.raises(ValueError, match="power of 2"):
                n_qubits_for_dim(bad)
        assert n_qubits_for_dim(1) == 0
        assert n_qubits_for_dim(1024) == 10


class TestAgainstSinglePath:
    """≥ 50 seeded random (graph, params) cases: batch == single."""

    CASES = random_cases(50)

    @pytest.mark.parametrize("case", range(0, 50, 5))
    def test_statevectors_blockwise(self, case):
        # Each parametrized block checks 5 cases (keeps collection light
        # while still covering all 50).
        for graph, params in self.CASES[case : case + 5]:
            energy = MaxCutEnergy(graph)
            batched = energy.engine.statevectors(params[None, :])[0]
            single = energy.statevector(params)
            np.testing.assert_allclose(batched, single, atol=ATOL)

    def test_statevectors_bit_identical_on_numpy(self):
        # QAOASolver takes its final state from a given engine's
        # statevectors; on numpy that must be the per-point evolve exactly.
        larger = [
            (erdos_renyi(n, 0.3, weighted=weighted, rng=n), params)
            for (n, weighted), (_, params) in zip(
                [(12, True), (13, False), (15, True), (16, False)],
                self.CASES,
                strict=False,
            )
        ]
        for graph, params in self.CASES + larger:
            energy = MaxCutEnergy(graph, backend="numpy")
            np.testing.assert_array_equal(
                energy.engine.statevectors(params[None, :])[0],
                energy.statevector(params),
            )

    def test_energies_batch_all_cases(self):
        rng = np.random.default_rng(5)
        for graph, params in self.CASES:
            energy = MaxCutEnergy(graph)
            extra = rng.uniform(-np.pi, np.pi, size=(3, len(params)))
            matrix = np.vstack([params[None, :], extra])
            batched = energy.engine.energies(matrix)
            singles = np.array([energy.expectation(row) for row in matrix])
            np.testing.assert_allclose(batched, singles, atol=ATOL)

    def test_engine_chunking_agrees(self):
        graph, params = self.CASES[0]
        rng = np.random.default_rng(6)
        matrix = rng.uniform(-np.pi, np.pi, size=(11, len(params)))
        reference = SweepEngine(graph).energies(matrix)
        for chunk_size in (1, 3, 4, 64):
            chunked = SweepEngine(graph, chunk_size=chunk_size).energies(matrix)
            np.testing.assert_allclose(chunked, reference, atol=ATOL)


class TestAgainstCircuitSimulator:
    """Batched path vs the repro.synth circuit-level simulator."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_synthesized_circuit(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 4))
        graph = erdos_renyi(
            n, 0.5, weighted=bool(seed % 2), rng=int(rng.integers(2**31))
        )
        params = rng.uniform(-np.pi, np.pi, size=2 * p)
        batched = MaxCutEnergy(graph).engine.statevectors(params[None, :])[0]
        model = CombinatorialModel.maxcut(graph, layers=p)
        circuit_state = StatevectorSimulator().statevector(
            qaoa_ansatz(model).bind(params)
        )
        # Global phase is physical-equivalence only; compare probabilities
        # and the overlap magnitude.
        np.testing.assert_allclose(
            np.abs(batched) ** 2, np.abs(circuit_state) ** 2, atol=ATOL
        )
        overlap = np.abs(np.vdot(batched, circuit_state))
        assert overlap == pytest.approx(1.0, abs=1e-9)
