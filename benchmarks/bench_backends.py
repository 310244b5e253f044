"""Statevector-backend comparison: reference vs fused vs compiled.

Times the same seeded batched p=2 QAOA evolution through
:class:`repro.qaoa.engine.SweepEngine` with each registered backend at
n ∈ {12, 16}:

* **numpy** — the bit-identical reference over the seed kernels
  (per-qubit mixer passes, dense cost exponential),
* **fused** — the Walsh–Hadamard-diagonalised mixer as ``⌈n/5⌉`` GEMM
  stages (every qubit in a stage; matrices from cached
  popcount-eigenphase tables) plus the quantised cost-phase gather;
  weighted diagonals go through the bucketed-quantisation +
  Taylor-residual-GEMM path (:mod:`repro.quantum.backend.fused`),
* **compiled** — the Numba-JIT'd cache-resident evolve kernels
  (:mod:`repro.quantum.backend.compiled`).  numba is optional: where it
  is absent every compiled entry carries an explicit ``"skipped"``
  marker instead of silently narrowing the comparison.

Acceptance bars, enforced on every ``--quick`` run:

* fused ≥1.3× over numpy on unweighted batched p≥2 evolution at n=16
  (ISSUE 5), parity ≤1e-12;
* fused ≥1.6× on the *weighted* n=16 case (ISSUE 10 — the bucketed
  gather closes the old ~1.28× weighted gap), parity ≤1e-12;
* compiled ≥1.5× over numpy at n=16 when numba is present (ISSUE 10),
  parity ≤1e-12; skipped (never failed) without numba.

``--quick`` emits the JSON report, enforces the bars, and writes the
shared-schema ``BENCH_backends.json`` regression record (checksum over
the computed energies; compiled timings stay out of the checksum so the
record is identical with and without numba).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.qaoa import SweepEngine
from repro.quantum.backend import numba_available

EDGE_PROB = 0.3
GRAPH_SEED = 0
PARAM_SEED = 1
BATCH = 24
LAYERS = 2
QUBIT_COUNTS = (12, 16)
GATE_QUBITS = 16
MIN_SPEEDUP = 1.3
MIN_WEIGHTED_SPEEDUP = 1.6
MIN_COMPILED_SPEEDUP = 1.5
MAX_DEV = 1e-12
SKIPPED = "skipped"


def _instance(n_qubits: int, weighted: bool = False):
    graph = erdos_renyi(n_qubits, EDGE_PROB, weighted=weighted, rng=GRAPH_SEED)
    params = np.random.default_rng(PARAM_SEED).uniform(
        -np.pi, np.pi, size=(BATCH, 2 * LAYERS)
    )
    return graph, params


@pytest.fixture(scope="module", params=QUBIT_COUNTS)
def instance(request):
    return _instance(request.param)


@pytest.mark.parametrize("backend", ["numpy", "fused", "compiled"])
def test_backend_energies(benchmark, instance, backend):
    if backend == "compiled" and not numba_available():
        pytest.skip("numba not installed")
    graph, params = instance
    engine = SweepEngine(graph, backend=backend)
    result = benchmark(engine.energies, params)
    assert result.shape == (BATCH,)


@pytest.mark.parametrize("backend", ["fused", "compiled"])
def test_backend_parity(instance, backend):
    if backend == "compiled" and not numba_available():
        pytest.skip("numba not installed")
    graph, params = instance
    reference = SweepEngine(graph, backend="numpy").energies(params)
    other = SweepEngine(graph, backend=backend).energies(params)
    assert float(np.abs(other - reference).max()) <= MAX_DEV


# ---------------------------------------------------------------------------
# JSON smoke mode: python bench_backends.py --quick
# ---------------------------------------------------------------------------
def _best_of(fn, repeats: int = 3) -> float:
    fn()  # warm-up (pooled buffers, cached stage/cost tables, JIT compile)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _measure(n_qubits: int, weighted: bool) -> dict:
    graph, params = _instance(n_qubits, weighted=weighted)
    names = ["numpy", "fused"] + (["compiled"] if numba_available() else [])
    engines = {name: SweepEngine(graph, backend=name) for name in names}
    seconds = {
        name: _best_of(lambda e=engine: e.energies(params))
        for name, engine in engines.items()
    }
    energies = {name: engine.energies(params) for name, engine in engines.items()}
    run = {
        "n_qubits": n_qubits,
        "weighted": weighted,
        "batch": BATCH,
        "layers": LAYERS,
        "numpy_s": seconds["numpy"],
        "fused_s": seconds["fused"],
        "speedup": seconds["numpy"] / seconds["fused"],
        "max_abs_dev": float(np.abs(energies["fused"] - energies["numpy"]).max()),
        "best_energy": float(energies["numpy"].max()),
        "mean_energy": float(energies["numpy"].mean()),
    }
    if "compiled" in engines:
        run["compiled_s"] = seconds["compiled"]
        run["compiled_speedup"] = seconds["numpy"] / seconds["compiled"]
        run["compiled_max_abs_dev"] = float(
            np.abs(energies["compiled"] - energies["numpy"]).max()
        )
    else:
        # Explicit marker: a numba-less environment must be visible in
        # the report, not look like a backend that was never measured.
        run["compiled_s"] = SKIPPED
        run["compiled_speedup"] = SKIPPED
        run["compiled_max_abs_dev"] = SKIPPED
    return run


def quick_report() -> dict:
    runs = [_measure(n, weighted=False) for n in QUBIT_COUNTS]
    # The weighted n=16 case exercises the bucketed-residual gather (its
    # own gate: MIN_WEIGHTED_SPEEDUP — the path ISSUE 10 closed).
    runs.append(_measure(GATE_QUBITS, weighted=True))
    return {
        "bench": "backends_quick",
        "edge_prob": EDGE_PROB,
        "graph_seed": GRAPH_SEED,
        "numba_available": numba_available(),
        "runs": runs,
    }


def main() -> None:
    import argparse

    from conftest import REPORTS_DIR, bench_checksum, write_bench_record

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="emit a backend timing JSON instead of running pytest-benchmark",
    )
    args = parser.parse_args()
    if not args.quick:
        parser.error("run under pytest for full benchmarks, or pass --quick")
    report = quick_report()
    gate = next(
        run for run in report["runs"]
        if run["n_qubits"] == GATE_QUBITS and not run["weighted"]
    )
    weighted_gate = next(
        run for run in report["runs"]
        if run["n_qubits"] == GATE_QUBITS and run["weighted"]
    )
    # Acceptance bars (ISSUE 5 + ISSUE 10), enforced on every CI run.
    for run in report["runs"]:
        assert run["max_abs_dev"] <= MAX_DEV, (
            f"fused deviates from numpy by {run['max_abs_dev']:.2e} "
            f"at n={run['n_qubits']}"
        )
        if run["compiled_max_abs_dev"] != SKIPPED:
            assert run["compiled_max_abs_dev"] <= MAX_DEV, (
                f"compiled deviates from numpy by "
                f"{run['compiled_max_abs_dev']:.2e} at n={run['n_qubits']}"
            )
    assert gate["speedup"] >= MIN_SPEEDUP, (
        f"fused only {gate['speedup']:.2f}x over numpy at n={GATE_QUBITS} "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert weighted_gate["speedup"] >= MIN_WEIGHTED_SPEEDUP, (
        f"weighted fused only {weighted_gate['speedup']:.2f}x over numpy at "
        f"n={GATE_QUBITS} (need >= {MIN_WEIGHTED_SPEEDUP}x)"
    )
    if gate["compiled_speedup"] != SKIPPED:
        assert gate["compiled_speedup"] >= MIN_COMPILED_SPEEDUP, (
            f"compiled only {gate['compiled_speedup']:.2f}x over numpy at "
            f"n={GATE_QUBITS} (need >= {MIN_COMPILED_SPEEDUP}x)"
        )
    text = json.dumps(report, indent=2)
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "bench_backends_quick.json").write_text(text + "\n")
    write_bench_record(
        "backends",
        n=GATE_QUBITS,
        p=LAYERS,
        seconds=gate["fused_s"],
        # Energies only — numba-dependent fields stay out so the record
        # is identical whether or not the compiled backend ran.
        checksum=bench_checksum(
            {
                "best_energy": gate["best_energy"],
                "mean_energy": gate["mean_energy"],
                "max_abs_dev": gate["max_abs_dev"],
                "weighted_best_energy": weighted_gate["best_energy"],
                "weighted_mean_energy": weighted_gate["mean_energy"],
                "weighted_max_abs_dev": weighted_gate["max_abs_dev"],
            }
        ),
    )


if __name__ == "__main__":
    main()
