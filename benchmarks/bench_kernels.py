"""Micro-benchmarks of the numerical kernels (true pytest-benchmark use).

These are the hot loops the guides say to profile: statevector gate
application, the diagonal QAOA layer (single and batched), cut-diagonal
construction, SDP sweeps and GW rounding.  Regressions here slow every
experiment above.

``python benchmarks/bench_kernels.py --quick`` runs a JSON smoke mode
comparing single-vs-batched QAOA evaluation without pytest-benchmark.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import best_of

from repro.classical.gw import hyperplane_rounding
from repro.classical.sdp import solve_sdp_mixing
from repro.graphs import cut_diagonal, erdos_renyi
from repro.qaoa import MaxCutEnergy, SweepEngine
from repro.quantum.backend import NumpyBackend
from repro.quantum.gates import rx
from repro.quantum.statevector import (
    apply_one_qubit,
    plus_state,
    plus_state_batch,
)

N_QUBITS = 16
BATCH = 32
# Layer kernels are benched through the reference backend — the thin
# bit-identical wrapper, so these stay kernel micro-benchmarks.
KERNELS = NumpyBackend()


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(N_QUBITS, 0.3, rng=0)


@pytest.fixture(scope="module")
def state():
    return plus_state(N_QUBITS)


def test_kernel_single_qubit_gate(benchmark, state):
    matrix = rx(0.3)
    benchmark(apply_one_qubit, state, matrix, N_QUBITS // 2)


def test_kernel_rx_layer(benchmark, state):
    benchmark(lambda: KERNELS.apply_mixer_layer(state.copy(), 0.3))


def test_kernel_diagonal_phase(benchmark, graph, state):
    diag = cut_diagonal(graph)
    benchmark(lambda: state * np.exp(-0.4j * diag))


def test_kernel_cut_diagonal(benchmark, graph):
    benchmark(cut_diagonal, graph)


def test_kernel_qaoa_expectation(benchmark, graph):
    energy = MaxCutEnergy(graph)
    params = np.array([0.3, 0.5, 0.2, 0.4])
    result = benchmark(energy.expectation, params)
    assert 0 <= result <= graph.total_weight


def test_kernel_rx_layer_batched(benchmark):
    # Batched mixer over a (BATCH, 2^12) block with per-row angles.
    states = plus_state_batch(12, BATCH)
    betas = np.linspace(0.1, 1.0, BATCH)
    benchmark(lambda: KERNELS.apply_mixer_layer(states, betas))


def test_kernel_phases_batched(benchmark, graph):
    diag = cut_diagonal(erdos_renyi(12, 0.3, rng=0))
    states = plus_state_batch(12, BATCH)
    scratch = np.empty_like(states)
    gammas = np.linspace(0.1, 1.0, BATCH)
    benchmark(lambda: KERNELS.apply_cost_layer(states, diag, gammas, scratch=scratch))


def test_kernel_walsh_hadamard_batched(benchmark):
    states = plus_state_batch(12, BATCH)
    scratch = np.empty_like(states)
    benchmark(lambda: KERNELS.walsh_transform(states, scratch=scratch))


def test_kernel_qaoa_energies_batch(benchmark):
    graph = erdos_renyi(12, 0.3, rng=0)
    engine = SweepEngine(graph)
    params = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(BATCH, 4))
    result = benchmark(engine.energies, params)
    assert result.shape == (BATCH,)


def test_kernel_sdp_mixing(benchmark):
    graph = erdos_renyi(200, 0.1, rng=1)
    result = benchmark.pedantic(
        lambda: solve_sdp_mixing(graph, rng=0), rounds=3, iterations=1
    )
    assert result.objective > 0


def test_kernel_gw_rounding(benchmark):
    graph = erdos_renyi(200, 0.1, rng=1)
    sdp = solve_sdp_mixing(graph, rng=0)
    benchmark(hyperplane_rounding, sdp.vectors, 0)


# ---------------------------------------------------------------------------
# JSON smoke mode (no pytest-benchmark): python bench_kernels.py --quick
# ---------------------------------------------------------------------------
def quick_report(n_qubits: int = 10, batch: int = 64, layers: int = 2) -> dict:
    """Single-vs-batched QAOA evaluation timing on one seeded graph."""
    graph = erdos_renyi(n_qubits, 0.4, weighted=True, rng=0)
    energy = MaxCutEnergy(graph)
    engine = SweepEngine(graph)
    params = np.random.default_rng(1).uniform(
        -np.pi, np.pi, size=(batch, 2 * layers)
    )
    single_s = best_of(lambda: [energy.expectation(row) for row in params])
    batched_s = best_of(lambda: engine.energies(params))
    single_vals = np.array([energy.expectation(row) for row in params])
    batched_vals = engine.energies(params)
    max_dev = float(np.abs(batched_vals - single_vals).max())
    return {
        "bench": "kernels_quick",
        "n_qubits": n_qubits,
        "batch": batch,
        "layers": layers,
        "single_s": single_s,
        "batched_s": batched_s,
        "speedup": single_s / batched_s,
        "max_abs_deviation": max_dev,
        "best_energy": float(batched_vals.max()),
        "mean_energy": float(batched_vals.mean()),
    }


def main() -> None:
    import argparse

    from conftest import REPORTS_DIR, bench_checksum, write_bench_record

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="emit a small single-vs-batched timing JSON instead of "
        "running pytest-benchmark",
    )
    args = parser.parse_args()
    if not args.quick:
        parser.error("run under pytest for full benchmarks, or pass --quick")
    report = quick_report()
    text = json.dumps(report, indent=2)
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "bench_kernels_quick.json").write_text(text + "\n")
    write_bench_record(
        "kernels",
        n=report["n_qubits"],
        p=report["layers"],
        seconds=report["batched_s"],
        checksum=bench_checksum(
            {
                "best_energy": report["best_energy"],
                "mean_energy": report["mean_energy"],
                "max_abs_deviation": report["max_abs_deviation"],
            }
        ),
    )


if __name__ == "__main__":
    main()
