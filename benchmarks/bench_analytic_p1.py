"""Analytic p=1 fast path vs the statevector angle-grid tiers.

Times the same seeded 16-qubit (γ, β) landscape through the three
:meth:`repro.qaoa.engine.SweepEngine.angle_grid` tiers:

* **analytic** — the closed-form O(E·n) evaluation of
  :mod:`repro.qaoa.analytic` (no statevector at all),
* **spectral** — the mixer-eigenbasis statevector path (one WHT per γ
  chunk, β axis closed-form),
* **loop** — the per-point ``MaxCutEnergy.expectation`` double loop (the
  seed implementation).

Acceptance bar (ISSUE 3): analytic matches the spectral grid to ≤1e-9 max
abs deviation and is ≥10× faster at n=16.  ``--quick`` emits the JSON
report and the shared-schema ``BENCH_analytic_p1.json`` regression record.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import best_of

from repro.experiments import run_angle_grid
from repro.graphs import erdos_renyi
from repro.qaoa import SweepEngine

N_NODES = 16
EDGE_PROB = 0.3
GRAPH_SEED = 0
RESOLUTION = 16


def _graph():
    return erdos_renyi(N_NODES, EDGE_PROB, weighted=True, rng=GRAPH_SEED)


@pytest.fixture(scope="module")
def graph():
    return _graph()


def test_angle_grid_analytic(benchmark, graph):
    result = benchmark(
        lambda: run_angle_grid(graph, resolution=RESOLUTION, method="analytic")
    )
    assert result.energies.shape == (RESOLUTION, RESOLUTION)


def test_angle_grid_spectral(benchmark, graph):
    result = benchmark(
        lambda: run_angle_grid(graph, resolution=RESOLUTION, method="spectral")
    )
    assert result.energies.shape == (RESOLUTION, RESOLUTION)


def test_analytic_matches_spectral(graph):
    analytic = run_angle_grid(graph, resolution=RESOLUTION, method="analytic")
    spectral = run_angle_grid(graph, resolution=RESOLUTION, method="spectral")
    deviation = float(np.abs(analytic.energies - spectral.energies).max())
    assert deviation <= 1e-9
    assert analytic.best_index == spectral.best_index


# ---------------------------------------------------------------------------
# JSON smoke mode: python bench_analytic_p1.py --quick
# ---------------------------------------------------------------------------
def quick_report(n_nodes: int = N_NODES, resolution: int = RESOLUTION) -> dict:
    """Analytic vs spectral vs per-point loop on one seeded graph."""
    graph = erdos_renyi(n_nodes, EDGE_PROB, weighted=True, rng=GRAPH_SEED)
    engine = SweepEngine(graph)

    analytic_s = best_of(
        lambda: run_angle_grid(
            graph, resolution=resolution, engine=engine, method="analytic"
        )
    )
    spectral_s = best_of(
        lambda: run_angle_grid(
            graph, resolution=resolution, engine=engine, method="spectral"
        )
    )
    # The loop is the slow reference: time a single pass.
    loop = run_angle_grid(graph, resolution=resolution, method="loop")
    loop_s = loop.elapsed

    analytic = run_angle_grid(
        graph, resolution=resolution, engine=engine, method="analytic"
    )
    spectral = run_angle_grid(
        graph, resolution=resolution, engine=engine, method="spectral"
    )
    dev_spectral = float(np.abs(analytic.energies - spectral.energies).max())
    dev_loop = float(np.abs(analytic.energies - loop.energies).max())
    return {
        "bench": "analytic_p1_quick",
        "n_nodes": n_nodes,
        "edge_prob": EDGE_PROB,
        "graph_seed": GRAPH_SEED,
        "grid": [resolution, resolution],
        "analytic_s": analytic_s,
        "spectral_s": spectral_s,
        "loop_s": loop_s,
        "speedup_vs_spectral": spectral_s / analytic_s,
        "speedup_vs_loop": loop_s / analytic_s,
        "max_abs_dev_vs_spectral": dev_spectral,
        "max_abs_dev_vs_loop": dev_loop,
        "best_index": list(analytic.best_index),
        "best_energy": analytic.best_energy,
        "best_index_identical": bool(
            analytic.best_index == spectral.best_index == loop.best_index
        ),
    }


def main() -> None:
    import argparse

    from conftest import REPORTS_DIR, bench_checksum, write_bench_record

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="emit an analytic-vs-spectral-vs-loop angle-grid timing JSON "
        "instead of running pytest-benchmark",
    )
    args = parser.parse_args()
    if not args.quick:
        parser.error("run under pytest for full benchmarks, or pass --quick")
    report = quick_report()
    # ISSUE 3 acceptance bar, enforced on every CI run.
    assert report["max_abs_dev_vs_spectral"] <= 1e-9, (
        f"analytic deviates from spectral by {report['max_abs_dev_vs_spectral']:.2e}"
    )
    assert report["best_index_identical"], "tiers disagree on the best grid point"
    assert report["speedup_vs_spectral"] >= 10.0, (
        f"analytic only {report['speedup_vs_spectral']:.1f}x faster than spectral"
    )
    text = json.dumps(report, indent=2)
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "bench_analytic_p1_quick.json").write_text(text + "\n")
    write_bench_record(
        "analytic_p1",
        n=report["n_nodes"],
        p=1,
        seconds=report["analytic_s"],
        checksum=bench_checksum(
            {
                "best_index": report["best_index"],
                "best_energy": report["best_energy"],
                "max_abs_dev_vs_spectral": report["max_abs_dev_vs_spectral"],
            }
        ),
    )


if __name__ == "__main__":
    main()
