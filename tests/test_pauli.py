"""Unit + property tests for repro.quantum.pauli."""

import numpy as np
import pytest

from repro.graphs import cut_diagonal, cut_value
from repro.graphs.maxcut import bitstring_to_assignment
from repro.quantum.pauli import IsingHamiltonian, zz_correlations_batch
from repro.quantum.statevector import basis_state, plus_state


class TestConstruction:
    def test_quadratic_canonicalised(self):
        h = IsingHamiltonian(3, quadratic={(2, 0): 1.0, (0, 2): 0.5})
        assert h.quadratic == {(0, 2): 1.5}

    def test_diagonal_zz_term_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            IsingHamiltonian(2, quadratic={(1, 1): 1.0})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            IsingHamiltonian(2, linear={5: 1.0})

    def test_from_maxcut_constant(self, er_small):
        h = IsingHamiltonian.from_maxcut(er_small)
        assert h.constant == pytest.approx(er_small.total_weight / 2)
        assert len(h.quadratic) == er_small.n_edges


class TestDiagonal:
    def test_maxcut_diagonal_equals_cut_diagonal(self, er_small):
        h = IsingHamiltonian.from_maxcut(er_small)
        assert np.allclose(h.diagonal(), cut_diagonal(er_small))

    def test_linear_term_diagonal(self):
        h = IsingHamiltonian(2, linear={0: 1.0})
        # Z_0 eigenvalues: +1 for bit0=0, -1 for bit0=1 -> [1, -1, 1, -1]
        assert h.diagonal().tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_value_matches_diagonal(self, er_small):
        h = IsingHamiltonian.from_maxcut(er_small)
        diag = h.diagonal()
        for idx in (0, 3, 17, 200):
            bits = bitstring_to_assignment(idx, er_small.n_nodes)
            assert h.value(bits) == pytest.approx(diag[idx])

    def test_diagonal_too_large(self):
        with pytest.raises(ValueError, match="infeasible"):
            IsingHamiltonian(29).diagonal()


class TestExpectations:
    def test_basis_state_expectation(self, er_small):
        h = IsingHamiltonian.from_maxcut(er_small)
        idx = 19
        state = basis_state(er_small.n_nodes, idx)
        expected = cut_value(er_small, bitstring_to_assignment(idx, er_small.n_nodes))
        assert h.expectation(state) == pytest.approx(expected)

    def test_plus_state_expectation_half_weight(self, er_small):
        # <+|H_C|+> = W/2: every edge cut with probability 1/2.
        h = IsingHamiltonian.from_maxcut(er_small)
        state = plus_state(er_small.n_nodes)
        assert h.expectation(state) == pytest.approx(er_small.total_weight / 2)

    def test_expectation_from_counts_exact_on_point_mass(self, er_small):
        h = IsingHamiltonian.from_maxcut(er_small)
        idx = 7
        expected = cut_value(er_small, bitstring_to_assignment(idx, er_small.n_nodes))
        assert h.expectation_from_counts({idx: 100}) == pytest.approx(expected)

    def test_expectation_from_counts_empty(self):
        h = IsingHamiltonian(2)
        with pytest.raises(ValueError, match="empty"):
            h.expectation_from_counts({})

    def test_sampled_expectation_converges(self, er_small, rng):
        from repro.quantum.statevector import sample_counts

        h = IsingHamiltonian.from_maxcut(er_small)
        state = plus_state(er_small.n_nodes)
        counts = sample_counts(state, 20000, rng=rng)
        estimate = h.expectation_from_counts(counts)
        exact = h.expectation(state)
        assert estimate == pytest.approx(exact, rel=0.05)


class TestAlgebra:
    def test_addition(self):
        a = IsingHamiltonian(2, constant=1.0, linear={0: 1.0})
        b = IsingHamiltonian(2, constant=2.0, linear={0: -1.0}, quadratic={(0, 1): 3.0})
        c = a + b
        assert c.constant == 3.0
        assert c.linear[0] == 0.0
        assert c.quadratic[(0, 1)] == 3.0

    def test_addition_qubit_mismatch(self):
        with pytest.raises(ValueError):
            IsingHamiltonian(2) + IsingHamiltonian(3)

    def test_scalar_multiplication(self, er_small):
        h = IsingHamiltonian.from_maxcut(er_small)
        assert np.allclose((2.0 * h).diagonal(), 2.0 * h.diagonal())

    def test_n_terms(self):
        h = IsingHamiltonian(3, linear={0: 1.0}, quadratic={(0, 1): 1.0, (1, 2): 1.0})
        assert h.n_terms() == 3


def _zz_per_pair_reference(state, pairs):
    """The pre-vectorisation implementation: one parity mask per pair."""
    probs = np.abs(np.asarray(state)) ** 2
    idx = np.arange(len(state), dtype=np.uint64)
    out = np.empty(len(pairs))
    for k, (i, j) in enumerate(pairs):
        parity = ((idx >> np.uint64(i)) ^ (idx >> np.uint64(j))) & np.uint64(1)
        out[k] = float(np.dot(probs, 1.0 - 2.0 * parity.astype(np.float64)))
    return out


def _random_state(n, seed):
    gen = np.random.default_rng(seed)
    state = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
    return state / np.linalg.norm(state)


class TestZZCorrelations:
    def test_product_state_correlations(self):
        # |00>: <Z0 Z1> = +1 ; |01>: -1
        zz_00 = zz_correlations_batch(basis_state(2, 0), [(0, 1)])[0]
        zz_01 = zz_correlations_batch(basis_state(2, 1), [(0, 1)])[0]
        assert zz_00 == pytest.approx(1.0)
        assert zz_01 == pytest.approx(-1.0)

    def test_bell_state_correlated(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert zz_correlations_batch(bell, [(0, 1)])[0] == pytest.approx(1.0)

    def test_plus_state_uncorrelated(self):
        zz = zz_correlations_batch(plus_state(3), [(0, 1), (1, 2)])
        assert zz == pytest.approx(np.zeros(2), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_per_pair_reference(self, n):
        # The vectorised kernel must agree with the old per-pair loop on
        # random states over every qubit pair.
        state = _random_state(n, seed=n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        np.testing.assert_allclose(
            zz_correlations_batch(state, pairs),
            _zz_per_pair_reference(state, pairs),
            atol=1e-12,
        )

    def test_sparse_pair_subset(self):
        # Qubits absent from ``pairs`` must not affect the result.
        state = _random_state(7, seed=3)
        pairs = [(0, 6), (2, 5), (6, 0)]
        np.testing.assert_allclose(
            zz_correlations_batch(state, pairs),
            _zz_per_pair_reference(state, pairs),
            atol=1e-12,
        )

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            zz_correlations_batch(plus_state(3), [(0, 3)])


class TestZZCorrelationsBatch:
    def test_batch_matches_per_row(self):
        states = np.stack([_random_state(4, seed=s) for s in range(5)])
        pairs = [(0, 1), (1, 3), (0, 2)]
        batch = zz_correlations_batch(states, pairs)
        assert batch.shape == (5, 3)
        for row, state in zip(batch, states, strict=True):
            np.testing.assert_allclose(
                row, _zz_per_pair_reference(state, pairs), atol=1e-12
            )

    def test_single_state_returns_flat(self):
        state = _random_state(3, seed=1)
        out = zz_correlations_batch(state, [(0, 2)])
        assert out.shape == (1,)

    def test_empty_pairs(self):
        assert zz_correlations_batch(plus_state(2), []).shape == (0,)
        assert zz_correlations_batch(
            np.stack([plus_state(2)] * 3), []
        ).shape == (3, 0)

    def test_chunked_basis_axis_matches(self, monkeypatch):
        # Force multiple basis-axis chunks and check nothing changes.
        import repro.quantum.pauli as pauli

        state = _random_state(6, seed=2)
        pairs = [(i, (i + 1) % 6) for i in range(6)]
        full = zz_correlations_batch(state, pairs)
        monkeypatch.setattr(pauli, "_ZZ_TABLE_BUDGET", 64)
        chunked = zz_correlations_batch(state, pairs)
        np.testing.assert_allclose(chunked, full, atol=1e-12)
