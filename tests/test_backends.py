"""Cross-backend property suite for :mod:`repro.quantum.backend`.

Three layers of guarantees:

* **parity** — for random weighted graphs and p ∈ {1, 2, 3}, pointwise,
  batched and per-backend statevectors/energies agree to ≤1e-12;
* **golden** — the re-routed evolve paths (``MaxCutEnergy.statevector``,
  ``run_qaoa_reference``, the noise-trajectory loop) reproduce the
  pre-refactor implementations *bit-exactly* on the ``numpy`` backend
  (the old loops are inlined here as the golden reference);
* **registry** — the two singletons, auto policy and error behaviour;
* **chunk policy** — backend chunk advice is pure and strictly
  advisory: sweep results are bit-identical for every chunk width.
"""

import gc

import numpy as np
import pytest

from repro.graphs import cut_diagonal, erdos_renyi
from repro.qaoa import MaxCutEnergy, SweepEngine
from repro.quantum.backend import (
    DEFAULT_CHUNK_SIZE,
    FUSED_MIN_QUBITS,
    FusedBackend,
    NumpyBackend,
    RaggedLayout,
    ScratchPool,
    StatevectorBackend,
    auto_backend_name,
    available_backends,
    cache_resident_chunk_size,
    get_backend,
    resolve_backend,
)
from repro.quantum.noise import DepolarizingChannel, NoiseModel, noisy_qaoa_statevector
from repro.quantum.simulator import run_qaoa_reference
from repro.quantum.statevector import plus_state, probabilities

PARITY_ATOL = 1e-12


# ---------------------------------------------------------------------------
# Pre-refactor golden implementations (inlined from the seed kernels)
# ---------------------------------------------------------------------------
def _golden_rx_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """The seed single-state mixer loop, verbatim."""
    n = int(np.log2(len(state)))
    beta_arr = np.asarray(beta, dtype=np.float64)
    c = np.cos(beta_arr)
    s = -1j * np.sin(beta_arr)
    out = state
    for q in range(n):
        view = out.reshape(1 << (n - 1 - q), 2, 1 << q)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = c * a + s * b
        view[:, 1, :] = s * a + c * b
        out = view.reshape(-1)
    return out


def _golden_statevector(diagonal: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The seed ``MaxCutEnergy.statevector`` loop, verbatim."""
    n = int(np.log2(len(diagonal)))
    params = np.asarray(params, dtype=np.float64)
    p = len(params) // 2
    state = plus_state(n)
    for gamma, beta in zip(params[:p], params[p:], strict=True):
        state *= np.exp(-1j * gamma * diagonal)
        state = _golden_rx_layer(state, beta)
    return state


def _weight_kinds(n, seed):
    """ER(n, 0.5) unweighted, weighted (w in [0, 1]) and with mixed-sign
    weights, as QAOA² merge graphs carry."""
    weighted = erdos_renyi(n, 0.5, weighted=True, rng=seed)
    return {
        "unweighted": erdos_renyi(n, 0.5, rng=seed),
        "weighted": weighted,
        "negative": weighted.with_weights(weighted.w - 0.5),
    }


def _random_cases(n_cases, seed=7, n_lo=2, n_hi=11):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        n = int(rng.integers(n_lo, n_hi))
        p = int(rng.integers(1, 4))
        graph = erdos_renyi(
            n,
            float(rng.uniform(0.3, 0.8)),
            weighted=bool(rng.integers(0, 2)),
            rng=int(rng.integers(2**31)),
        )
        params = rng.uniform(-np.pi, np.pi, size=2 * p)
        cases.append((graph, params))
    return cases


# ---------------------------------------------------------------------------
# Cross-backend parity
# ---------------------------------------------------------------------------
class TestCrossBackendParity:
    CASES = _random_cases(24)

    @pytest.mark.parametrize("name", ["numpy", "fused"])
    def test_statevectors_and_energies_all_paths(self, name):
        backend = get_backend(name)
        rng = np.random.default_rng(11)
        for graph, params in self.CASES:
            if graph.n_edges == 0:
                continue
            reference = MaxCutEnergy(graph)  # numpy pointwise oracle
            energy = MaxCutEnergy(graph, backend=backend)
            engine = SweepEngine(graph, backend=backend)
            matrix = np.vstack(
                [params[None, :], rng.uniform(-np.pi, np.pi, (3, len(params)))]
            )
            # pointwise vs batched vs per-backend statevectors
            ref_state = reference.statevector(params)
            np.testing.assert_allclose(
                energy.statevector(params), ref_state, atol=PARITY_ATOL
            )
            np.testing.assert_allclose(
                engine.statevectors(params[None, :])[0], ref_state, atol=PARITY_ATOL
            )
            # energies: pointwise loop vs backend batch
            singles = np.array([reference.expectation(row) for row in matrix])
            np.testing.assert_allclose(
                engine.energies(matrix), singles, atol=PARITY_ATOL
            )

    @pytest.mark.parametrize("n", range(19))
    def test_mixer_stage_parity_every_width(self, n):
        # Every n from the dim-1 state up to the 18-qubit leaf cap walks
        # a different split into ⌈n/MAX_STAGE_QUBITS⌉ GEMM stages.
        fused, ref = FusedBackend(), NumpyBackend()
        rng = np.random.default_rng(100 + n)
        dim = 1 << n
        single = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        batch = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        betas = rng.uniform(-np.pi, np.pi, 3)
        for states, beta in ((single, 0.7), (batch, betas)):
            expected = ref.apply_mixer_layer(states.copy(), beta)
            for scale in (None, 0.25):
                got = fused.apply_mixer_layer(states.copy(), beta, scale=scale)
                factor = 1.0 if scale is None else scale
                assert got.shape == states.shape
                np.testing.assert_allclose(got, factor * expected, atol=PARITY_ATOL)
        if n == 0:
            # A width-0 stage is still one stage: the dim-1 state comes
            # back unchanged (the mixer is the identity on zero qubits).
            np.testing.assert_array_equal(
                fused.apply_mixer_layer(single.copy(), 0.7), single
            )

    def test_weighted_and_unweighted_cost_paths_agree(self):
        # Unweighted diagonals take the fused exact-gather path; weighted
        # ones at this size (dim < COST_BUCKET_MIN_DIM) the dense
        # exponential — both must match numpy to ≤1e-12 after the mixer.
        # (Weighted diagonals whose evolved half has ≥ 1024 entries take
        # the bucketed-residual path, covered by
        # test_weighted_bucket_residual_parity below.)
        fused = FusedBackend()
        numpy_backend = NumpyBackend()
        rng = np.random.default_rng(3)
        for weighted in (False, True):
            graph = erdos_renyi(9, 0.5, weighted=weighted, rng=5)
            diag = cut_diagonal(graph)
            mat = rng.uniform(-np.pi, np.pi, (6, 6))
            a = numpy_backend.evolve_batch(diag, mat).copy()
            b = fused.evolve_batch(diag, mat).copy()
            np.testing.assert_allclose(a, b, atol=PARITY_ATOL)

    def test_fused_cost_gather_is_bit_identical(self):
        # values[inverse] reconstructs the diagonal exactly, so the
        # quantised cost layer is bit-identical, not just close.
        fused, ref = FusedBackend(), NumpyBackend()
        graph = erdos_renyi(8, 0.5, weighted=False, rng=2)
        diag = cut_diagonal(graph)
        states_a = ref.plus_state_batch(8, 3)
        states_b = fused.plus_state_batch(8, 3)
        gammas = np.array([0.3, -1.2, 2.5])
        ref.apply_cost_layer(states_a, diag, gammas)
        fused.apply_cost_layer(states_b, diag, gammas)
        np.testing.assert_array_equal(states_a, states_b)

    def test_weighted_bucket_residual_parity(self):
        # dim ≥ COST_BUCKET_MIN_DIM puts weighted diagonals on the
        # bucketed quantisation + Taylor-residual-GEMM path; parity must
        # hold through full evolutions, and the cost table must really be
        # the bucketed one (not a silent dense fallback).
        from repro.quantum.backend.fused import COST_BUCKET_MIN_DIM

        # Evolutions build the table on the top-bit-0 half they evolve,
        # so n=11 is the smallest size that reaches the bucket path.
        n = 11
        assert (1 << (n - 1)) >= COST_BUCKET_MIN_DIM
        fused, ref = FusedBackend(), NumpyBackend()
        graph = erdos_renyi(n, 0.4, weighted=True, rng=12)
        diag = cut_diagonal(graph)
        table = fused._cost_table(diag[: 1 << (n - 1)])
        assert table is not None and table[0] == "bucket"
        rng = np.random.default_rng(5)
        mat = rng.uniform(-np.pi, np.pi, (7, 6))
        a = ref.evolve_batch(diag, mat).copy()
        b = fused.evolve_batch(diag, mat).copy()
        np.testing.assert_allclose(a, b, atol=PARITY_ATOL)

    def test_bucket_residual_large_gamma_falls_back_dense(self):
        # Past the Taylor validity bound (|γ|·rmax > COST_RESIDUAL_X_MAX)
        # the bucket path must defer to the dense exponential —
        # bit-identical to numpy — rather than degrade in accuracy.
        from repro.quantum.backend.fused import COST_RESIDUAL_X_MAX

        n = 11
        fused, ref = FusedBackend(), NumpyBackend()
        graph = erdos_renyi(n, 0.4, weighted=True, rng=12)
        diag = cut_diagonal(graph)
        table = fused._cost_table(diag)
        assert table is not None and table[0] == "bucket"
        rmax = table[4]
        big = np.full(3, 2.0 * COST_RESIDUAL_X_MAX / rmax)
        states_a = ref.plus_state_batch(n, 3)
        states_b = fused.plus_state_batch(n, 3)
        ref.apply_cost_layer(states_a, diag, big)
        fused.apply_cost_layer(states_b, diag, big)
        np.testing.assert_array_equal(states_a, states_b)

    @pytest.mark.parametrize("n", range(10, 19))
    def test_fused_half_space_parity(self, n):
        # Up to the 18-qubit leaf cap, for every weight kind: the fused
        # batched and pointwise evolutions against the numpy reference
        # (itself golden-pinned), with γ small enough for the bucketed
        # residual path, just either side of its |γ|·rmax cutoff (the
        # order-7 Taylor residual at its validity bound, then the dense
        # fallback), and far past it.
        from repro.quantum.backend.fused import COST_RESIDUAL_X_MAX

        fused, ref = FusedBackend(), NumpyBackend()
        rng = np.random.default_rng(200 + n)
        for kind, graph in _weight_kinds(n, seed=n).items():
            diag = cut_diagonal(graph)
            table = fused._cost_table(diag[: 1 << (n - 1)])
            if kind != "unweighted" and n >= 11:
                assert table[0] == "bucket"
            mats = [rng.uniform(-np.pi, np.pi, (3, 4))]
            if table is not None and table[0] == "bucket":
                cutoff = COST_RESIDUAL_X_MAX / table[4]
                # One matrix per side: the cutoff applies to each cost
                # layer's largest |γ| over the batch.
                for g in (0.999 * cutoff, 1.001 * cutoff, 2.0 * cutoff):
                    mats.append(np.array([[g, -g, 0.4, 0.9], [-g, g, 0.1, -0.3]]))
            for mat in mats:
                a = ref.evolve_batch(diag, mat).copy()
                b = fused.evolve_batch(diag, mat).copy()
                # rtol=0: the bound is absolute (the default rtol=1e-7
                # would excuse 1e-9 errors on 2^(-n/2)-sized amplitudes).
                np.testing.assert_allclose(b, a, rtol=0, atol=PARITY_ATOL)
                np.testing.assert_allclose(
                    fused.evolve_state(diag, mat[0]), a[0], rtol=0, atol=PARITY_ATOL
                )

    def test_fused_cost_table_keyed_on_owner_not_view(self):
        # Each evolution passes a fresh half view of the diagonal: the
        # table must be built once per diagonal, and must not keep the
        # diagonal alive once its caller drops it.
        fused = FusedBackend()
        diag = cut_diagonal(erdos_renyi(12, 0.5, rng=4))
        params = np.array([0.3, -0.7, 0.5, 0.2])
        fused.evolve_state(diag, params)
        ((_, table),) = fused._cost_cache.values()
        fused.evolve_state(diag, params)
        ((_, again),) = fused._cost_cache.values()
        assert again is table
        del diag
        gc.collect()
        assert fused._cost_cache == {}

    def test_mixer_shapes_and_validation(self):
        for backend in (NumpyBackend(), FusedBackend()):
            rng = np.random.default_rng(0)
            states = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
            with pytest.raises(ValueError, match="batch"):
                backend.apply_mixer_layer(states.copy(), np.zeros(4))
            with pytest.raises(ValueError, match="batched"):
                backend.apply_mixer_layer(
                    np.zeros(32, dtype=np.complex128), np.zeros(3)
                )
            # scalar β broadcast over rows == per-row duplicate βs
            shared = backend.apply_mixer_layer(states.copy(), 0.41)
            perrow = backend.apply_mixer_layer(states.copy(), np.full(3, 0.41))
            np.testing.assert_allclose(shared, perrow, atol=PARITY_ATOL)

    def test_evolve_batch_uses_pool_buffer(self):
        pool = ScratchPool()
        graph = erdos_renyi(6, 0.5, weighted=True, rng=1)
        diag = cut_diagonal(graph)
        mat = np.random.default_rng(0).uniform(-1, 1, (4, 4))
        for backend in (NumpyBackend(), FusedBackend()):
            out1 = backend.evolve_batch(diag, mat, pool=pool)
            out2 = backend.evolve_batch(diag, mat, pool=pool)
            assert out1 is out2  # pooled buffer reuse

    def test_evolve_validation(self):
        diag = cut_diagonal(erdos_renyi(4, 0.5, rng=0))
        for backend in (NumpyBackend(), FusedBackend()):
            with pytest.raises(ValueError, match="even"):
                backend.evolve_batch(diag, np.zeros((2, 3)))
            with pytest.raises(ValueError, match="even"):
                backend.evolve_state(diag, np.zeros(3))
            # A 0-qubit diagonal has no half to evolve.
            with pytest.raises(ValueError, match="one qubit"):
                backend.evolve_batch(np.zeros(1), np.zeros((2, 2)))
            with pytest.raises(ValueError, match="one qubit"):
                backend.evolve_state(np.zeros(1), np.zeros(2))
            # Both evolutions take one diagonal.
            stack = np.stack([diag, diag])
            with pytest.raises(ValueError, match="1-D"):
                backend.evolve_batch(stack, np.zeros((2, 2)))
            with pytest.raises(ValueError, match="1-D"):
                backend.evolve_state(stack, np.zeros(2))

    def test_ragged_validation(self):
        backend = NumpyBackend()
        big, small = (cut_diagonal(erdos_renyi(n, 0.5, rng=0)) for n in (5, 3))
        with pytest.raises(ValueError, match="non-increasing"):
            RaggedLayout([small, big])
        with pytest.raises(ValueError, match="one qubit"):
            RaggedLayout([big, np.zeros(1)])
        with pytest.raises(ValueError, match="power of 2"):
            RaggedLayout([big[:12]])
        with pytest.raises(ValueError, match="at least one row"):
            RaggedLayout([])
        layout = RaggedLayout([big, small])
        with pytest.raises(ValueError, match="parameter rows"):
            backend.evolve_ragged(layout, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="even"):
            backend.evolve_ragged(layout, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# The fused mixer's real upper stages
# ---------------------------------------------------------------------------
def _kron_power(one_qubit: np.ndarray, s: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=one_qubit.dtype)
    for _ in range(s):
        out = np.kron(out, one_qubit)
    return out


class TestRealStages:
    """Above its lowest stage the fused mixer runs R(β)^{⊗s} =
    S·RX(2β)^{⊗s}·S⁻¹ (S = diag(1, i) per qubit) as real GEMMs, between
    two exact multiplications by i^popcount and (−i)^popcount."""

    S = np.diag([1.0, 1j])
    S_INV = np.diag([1.0, -1j])

    @staticmethod
    def rx(beta):
        c, s = np.cos(beta), np.sin(beta)
        return np.array([[c, -1j * s], [-1j * s, c]])

    @pytest.mark.parametrize("s", range(7))
    @pytest.mark.parametrize("betas", [0.7, np.array([0.3, -1.1, 2.9])])
    def test_stage_matrices_match_kron(self, s, betas):
        fused = FusedBackend()
        beta_arr = np.asarray(betas, dtype=np.float64)
        real = fused._stage_matrix(s, beta_arr, 1.0, real=True)
        cplx = fused._stage_matrix(s, beta_arr, 1.0, real=False)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert real.shape == cplx.shape == beta_arr.shape + (1 << s, 1 << s)
        stacks = zip(
            np.atleast_1d(beta_arr),
            real.reshape(-1, 1 << s, 1 << s),
            cplx.reshape(-1, 1 << s, 1 << s),
            strict=True,
        )
        for beta, got_real, got_cplx in stacks:
            rotated = _kron_power(self.S @ self.rx(beta) @ self.S_INV, s)
            np.testing.assert_array_equal(rotated.imag, 0.0)
            np.testing.assert_allclose(got_real, rotated.real, rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                got_cplx, _kron_power(self.rx(beta), s), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("bits", [0, 1, 4, 13])
    def test_basis_change_round_trip_is_exact(self, bits):
        to_real, from_real = FusedBackend()._phase_tables(bits)
        rng = np.random.default_rng(bits)
        state = rng.standard_normal((2, 1 << bits, 3)) + 1j * rng.standard_normal(
            (2, 1 << bits, 3)
        )
        state[..., 1] *= 1e300
        state[..., 2] *= 1e-310  # subnormal components
        rotated = state * to_real[:, None]
        # i^k only swaps and negates components: k = popcount mod 4.
        k = np.array([bin(h).count("1") % 4 for h in range(1 << bits)])[:, None]
        re, im = state.real, state.imag
        want_re = np.choose(k, [re, -im, -re, im])
        want_im = np.choose(k, [im, re, -im, -re])
        np.testing.assert_array_equal(rotated.real, want_re)
        np.testing.assert_array_equal(rotated.imag, want_im)
        np.testing.assert_array_equal(rotated * from_real[:, None], state)


# ---------------------------------------------------------------------------
# Golden (pre-refactor) regressions
# ---------------------------------------------------------------------------
class TestGoldenEvolvePaths:
    CASES = _random_cases(10, seed=2024)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_numpy_half_space_evolution_bit_identical(self, n):
        # The composed evolutions run on the top-bit-0 half of the state;
        # pointwise, one-row and multi-row batched, they must reproduce the
        # seed full-space loop bit for bit on every weight kind.
        backend = NumpyBackend()
        rng = np.random.default_rng(300 + n)
        diags = [cut_diagonal(graph) for graph in _weight_kinds(n, seed=n).values()]
        for diag in diags:
            mat = rng.uniform(-np.pi, np.pi, (3, 2 * int(rng.integers(1, 4))))
            batch = backend.evolve_batch(diag, mat).copy()
            for row, state in zip(mat, batch, strict=True):
                golden = _golden_statevector(diag, row)
                np.testing.assert_array_equal(state, golden)
                np.testing.assert_array_equal(backend.evolve_state(diag, row), golden)
                np.testing.assert_array_equal(
                    backend.evolve_batch(diag, row[None, :])[0], golden
                )

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_numpy_ragged_evolution_bit_identical(self, p):
        # One ragged batch of 1 to 13 qubits, every weight kind at each
        # size, largest first, each row with its own parameters: row b is
        # the pointwise evolution on diagonal b, and its energy is the
        # pointwise energy np.dot(|ψ|², d), bit for bit.
        backend = NumpyBackend()
        rng = np.random.default_rng(400 + p)
        diags = [
            cut_diagonal(graph)
            for n in range(13, 0, -1)
            for graph in _weight_kinds(n, seed=n).values()
        ]

        def check(layout, rows, mat):
            half = backend.evolve_ragged(layout, mat)
            energies = layout.expectations(half)
            start = 0
            for b, row in enumerate(rows):
                state = backend.evolve_state(diags[row], mat[b])
                phi = half[start : start + len(state) // 2]
                np.testing.assert_array_equal(np.concatenate((phi, phi[::-1])), state)
                assert energies[b] == float(np.dot(probabilities(state), diags[row]))
                start += len(phi)
            assert start == len(half)

        everyone = list(range(len(diags)))
        layout = RaggedLayout(diags)
        check(layout, everyone, rng.uniform(-np.pi, np.pi, (len(diags), 2 * p)))
        # The members change between rounds: a new layout over some rows,
        # then the first layout again, whose buffers the other left alone.
        some = everyone[1::3] + everyone[-1:]
        check(
            RaggedLayout([diags[row] for row in some]),
            some,
            rng.uniform(-np.pi, np.pi, (len(some), 2 * p)),
        )
        check(layout, everyone, rng.uniform(-np.pi, np.pi, (len(diags), 2 * p)))

    def test_energy_statevector_bit_identical_on_numpy(self):
        for graph, params in self.CASES:
            energy = MaxCutEnergy(graph)  # default backend: numpy reference
            assert energy.backend.name == "numpy"
            np.testing.assert_array_equal(
                energy.statevector(params),
                _golden_statevector(energy.diagonal, params),
            )

    def test_run_qaoa_reference_bit_identical(self):
        for graph, params in self.CASES[:5]:
            diag = cut_diagonal(graph)
            p = len(params) // 2
            np.testing.assert_array_equal(
                run_qaoa_reference(diag, params[:p], params[p:]),
                _golden_statevector(diag, params),
            )

    def test_noise_trajectory_bit_identical(self):
        graph = erdos_renyi(6, 0.5, weighted=True, rng=9)
        energy = MaxCutEnergy(graph)
        params = np.array([0.4, 0.8, 0.3, 0.6])
        noise = NoiseModel(
            one_qubit=DepolarizingChannel(0.05),
            two_qubit=DepolarizingChannel(0.02),
        )
        new = noisy_qaoa_statevector(energy, params, noise, rng=123)
        # Pre-refactor loop: same channel sampling order, seed and kernels.
        from repro.util.rng import ensure_rng

        gen = ensure_rng(123)
        state = plus_state(6)
        for gamma, beta in zip(params[:2], params[2:], strict=True):
            state = state * np.exp(-1j * gamma * energy.diagonal)
            for a, b in zip(graph.u.tolist(), graph.v.tolist(), strict=True):
                state = noise.two_qubit.apply(state, a, rng=gen)
                state = noise.two_qubit.apply(state, b, rng=gen)
            state = _golden_rx_layer(state, beta)
            for q in range(6):
                state = noise.one_qubit.apply(state, q, rng=gen)
        np.testing.assert_array_equal(new, state)


# ---------------------------------------------------------------------------
# Registry / auto policy
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_available_and_singletons(self):
        names = available_backends()
        assert "numpy" in names and "fused" in names
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("fused") is get_backend("fused")

    def test_auto_policy_by_qubits(self):
        assert auto_backend_name(FUSED_MIN_QUBITS - 1) == "numpy"
        assert auto_backend_name(FUSED_MIN_QUBITS) == "fused"
        assert auto_backend_name(None) == "numpy"
        assert resolve_backend("auto", n_qubits=FUSED_MIN_QUBITS).name == "fused"
        assert resolve_backend(None, n_qubits=4).name == "numpy"

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_and_invalid_specs(self):
        with pytest.raises(ValueError, match="unknown statevector backend"):
            resolve_backend("quantum-annealer")
        with pytest.raises(TypeError, match="backend spec"):
            resolve_backend(42)

    def test_engine_and_solver_record_backend(self):
        from repro.qaoa import QAOASolver

        graph = erdos_renyi(8, 0.5, weighted=True, rng=4)
        engine = SweepEngine(graph, backend="fused")
        assert engine.backend_name == "fused"
        result = QAOASolver(layers=1, maxiter=5, backend="fused", rng=0).solve(graph)
        assert result.extra["backend"] == "fused"
        default = QAOASolver(layers=1, maxiter=5, rng=0).solve(graph)
        assert default.extra["backend"] == "numpy"  # auto, n < FUSED_MIN_QUBITS

    def test_subclass_contract(self):
        assert isinstance(get_backend("fused"), StatevectorBackend)

    def test_auto_policy_is_pure(self):
        # Referenced from the registry module docstring: a given qubit
        # count always resolves identically — no hidden state.
        for n in (None, 0, 8, FUSED_MIN_QUBITS - 1, FUSED_MIN_QUBITS, 18, 20):
            first = auto_backend_name(n)
            for _ in range(3):
                assert auto_backend_name(n) == first
            assert resolve_backend("auto", n_qubits=n).name == first


# ---------------------------------------------------------------------------
# Chunk policy: advice is pure, engine-consulted, and strictly advisory
# ---------------------------------------------------------------------------
class TestChunkPolicy:
    """Results must be bit-identical no matter how a sweep is chunked
    (referenced from the ``preferred_chunk_size`` protocol docstring)."""

    def test_numpy_advice_is_cache_resident(self):
        backend = get_backend("numpy")
        for n in (4, 10, 14, 16, 20):
            assert backend.preferred_chunk_size(n) == cache_resident_chunk_size(n)
        assert backend.preferred_chunk_size(16) == 1  # past the cache budget
        assert backend.preferred_chunk_size(4) == DEFAULT_CHUNK_SIZE

    def test_fused_advice_wants_blas_width(self):
        from repro.quantum.backend.fused import FUSED_CHUNK_BUDGET_BYTES

        backend = get_backend("fused")
        for n in (12, 14, 16, 18):
            expected = max(
                1,
                min(
                    DEFAULT_CHUNK_SIZE,
                    FUSED_CHUNK_BUDGET_BYTES // (2 * (1 << n) * 16),
                ),
            )
            assert backend.preferred_chunk_size(n) == expected
        # The point of the advice seam: at 16 qubits the cache-resident
        # default starves the GEMM stages down to one-row chunks.
        assert backend.preferred_chunk_size(16) > cache_resident_chunk_size(16)
        assert backend.preferred_chunk_size(16, batch=4) == 4  # clamped

    def test_advice_is_pure_and_positive(self):
        for name in available_backends():
            backend = get_backend(name)
            for n in (4, 12, 16):
                for batch in (None, 1, 24, 4096):
                    advice = backend.preferred_chunk_size(n, batch=batch)
                    assert isinstance(advice, int) and advice >= 1
                    assert advice == backend.preferred_chunk_size(n, batch=batch)

    def test_engine_consults_backend_advice(self):
        graph = erdos_renyi(10, 0.4, rng=2)
        engine = SweepEngine(graph, backend="fused")  # chunk_size=None
        assert engine.chunk_rows(40) == get_backend(
            "fused"
        ).preferred_chunk_size(10, batch=40)
        # An explicit chunk_size pins the width regardless of advice.
        assert SweepEngine(graph, backend="fused", chunk_size=7).chunk_rows(40) == 7
        # The numpy default is exactly the historical cache-resident
        # formula — the advice seam changed nothing for the reference.
        engine_np = SweepEngine(graph, backend="numpy")
        assert engine_np.chunk_rows(40) == min(40, cache_resident_chunk_size(10))
        # Clamping: advice never exceeds the batch, floor of one row.
        assert engine.chunk_rows(1) == 1
        assert engine.chunk_rows(0) == 1

    def test_energies_bit_identical_across_chunk_widths(self):
        # chunk_size ∈ {1, awkward split, preferred, full batch, advised}:
        # identical bits, not just ≤1e-12.  Weighted n ≥ 10 cases put the
        # fused backend on the bucketed-residual path (dim ≥ 1024).
        rng = np.random.default_rng(21)
        cases = [
            (get_backend("numpy"), 11, True),
            (get_backend("fused"), 10, True),
            (get_backend("fused"), 11, False),
            # n=16 splits into four 4-qubit stages, two of them middle
            # stages whose GEMMs run per (row, outer block).
            (get_backend("fused"), 16, False),
        ]
        for backend, n, weighted in cases:
            graph = erdos_renyi(n, 0.4, weighted=weighted, rng=17)
            mat = rng.uniform(-np.pi, np.pi, size=(13, 4))
            reference = SweepEngine(graph, backend=backend, chunk_size=13).energies(mat)
            preferred = backend.preferred_chunk_size(n, batch=13)
            for width in {1, 3, preferred, 13, None}:
                engine = SweepEngine(graph, backend=backend, chunk_size=width)
                np.testing.assert_array_equal(engine.energies(mat), reference)

    def test_statevectors_bit_identical_across_chunk_widths(self):
        rng = np.random.default_rng(23)
        for backend in ("numpy", "fused"):
            graph = erdos_renyi(11, 0.4, weighted=True, rng=19)
            mat = rng.uniform(-np.pi, np.pi, size=(9, 4))
            reference = SweepEngine(graph, backend=backend, chunk_size=9).statevectors(
                mat
            )
            for width in (1, 2, 4, None):
                engine = SweepEngine(graph, backend=backend, chunk_size=width)
                np.testing.assert_array_equal(engine.statevectors(mat), reference)


# ---------------------------------------------------------------------------
# Solver-level equivalence across backends
# ---------------------------------------------------------------------------
class TestSolverAcrossBackends:
    def test_solver_same_cut_any_backend(self):
        from repro.qaoa import QAOASolver

        graph = erdos_renyi(9, 0.4, weighted=True, rng=6)
        results = {
            name: QAOASolver(
                layers=2, optimizer="spsa", maxiter=25, backend=name, rng=0
            ).solve(graph)
            for name in ("numpy", "fused")
        }
        # Identical RNG stream; energies differ only at reduction-order
        # noise, far below any SPSA decision threshold at these scales.
        assert results["numpy"].cut == results["fused"].cut
        np.testing.assert_allclose(
            results["numpy"].params, results["fused"].params, atol=1e-9
        )

    def test_rqaoa_backend_threading(self):
        from repro.qaoa.rqaoa import rqaoa_solve

        graph = erdos_renyi(10, 0.5, rng=3)
        a = rqaoa_solve(
            graph, n_cutoff=6, layers=1, rng=0, solver_options={"backend": "numpy"}
        )
        b = rqaoa_solve(
            graph, n_cutoff=6, layers=1, rng=0, solver_options={"backend": "fused"}
        )
        assert a.cut == b.cut


class TestDefaultBackendContract:
    def test_bare_energy_pins_numpy_on_both_paths(self):
        # The documented backend=None contract: pointwise AND batched
        # paths of a bare MaxCutEnergy stay on the numpy reference, even
        # past FUSED_MIN_QUBITS where auto would pick fused.
        graph = erdos_renyi(FUSED_MIN_QUBITS + 1, 0.3, rng=8)
        energy = MaxCutEnergy(graph)
        assert energy.backend.name == "numpy"
        assert energy.engine.backend_name == "numpy"
        engine_auto = SweepEngine(graph)
        assert engine_auto.backend_name == "fused"  # engines default to auto
