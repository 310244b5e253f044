"""Fig. 4: QAOA² on large graphs with different sub-graph method mixes.

For each node count the paper reports five series (relative to the QAOA
series): Random partition, Classic (all sub-graphs solved with GW), QAOA
(all sub-graphs QAOA, best over the parameter grid), Best (better of
QAOA/GW per sub-graph) and GW applied to the whole graph.  The paper's
published shape: full-graph GW dominates up to its abnormal termination at
2000 nodes, all QAOA² variants sit within a few percent of each other,
"Best" is marginally ahead of the pure mixes, and everything beats Random.

``gw_fail_above`` reproduces the termination: the GW-full series becomes
``None`` beyond the threshold (paper: >2000 nodes, cvxpy/Eigen triplets).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


from repro.classical.gw import GWAbnormalTermination, goemans_williamson
from repro.graphs.generators import erdos_renyi
from repro.graphs.maxcut import randomized_partitioning
from repro.hpc.executor import ExecutorConfig
from repro.qaoa2.solver import QAOA2Solver
from repro.util.rng import RngLike, ensure_rng

SERIES_NAMES = ("Random", "Classic", "QAOA", "Best", "GW")


@dataclass
class ScalingConfig:
    """Fig. 4 sweep definition (defaults: laptop scale).

    Paper scale: ``node_counts=(500, 1000, 1500, 2000, 2500)``,
    ``n_max_qubits`` up to 33, ``qaoa_grid`` = the full (p, rhobeg) grid,
    ``gw_fail_above=2000``.

    All QAOA sub-graph solves are engine-backed: each sub-graph gets a
    :class:`repro.qaoa.engine.SweepEngine` whose pooled buffers are shared
    across the many equal-sized partitions a sweep produces (one working
    set per sub-graph size, not per solve), and the whole option grid of a
    sub-graph reuses that engine's cached cut diagonal.  ``n_starts > 1``
    additionally runs every variational loop as lock-step multi-start —
    with ``"optimizer": "spsa"`` in ``qaoa_options`` each iteration is one
    batched ``(2·n_starts, 2p)`` engine evaluation.  With
    ``{"layers": 1}`` in ``qaoa_options`` (or in a ``qaoa_grid`` entry)
    the sub-graph objectives drop to the closed-form analytic tier
    (:mod:`repro.qaoa.analytic`) — exact energies with no statevector, so
    the per-solve cost no longer scales with 2**n_max_qubits.

    ``service`` routes every QAOA² leaf solve of the sweep through a
    shared :class:`repro.service.MaxCutService` with the solver's own
    per-leaf seeds, so cut values stay identical to the direct path and
    bit-exact repeats (re-running a sweep, or several sweeps sharing one
    service) are answered from its cache.
    """

    node_counts: Sequence[int] = (60, 120, 180)
    edge_prob: float = 0.1
    n_max_qubits: int = 10
    qaoa_options: dict = field(
        default_factory=lambda: {"layers": 3, "maxiter": 40}
    )
    qaoa_grid: Optional[Sequence[dict]] = None
    n_starts: int = 1
    gw_options: dict = field(default_factory=dict)
    gw_fail_above: Optional[int] = None
    partition_method: str = "greedy_modularity"
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    service: Optional[object] = None  # repro.service.MaxCutService
    rng: RngLike = 0


def paper_scale_scaling_config(**overrides) -> ScalingConfig:
    """The published Fig. 4 sweep (long-running)."""
    params = dict(
        node_counts=(500, 1000, 1500, 2000, 2500),
        edge_prob=0.1,
        n_max_qubits=16,
        qaoa_grid=[
            {"layers": layers, "rhobeg": rhobeg}
            for layers in (3, 4, 5, 6)
            for rhobeg in (0.3, 0.5)
        ],
        gw_fail_above=2000,
    )
    params.update(overrides)
    return ScalingConfig(**params)


@dataclass
class ScalingResult:
    config: ScalingConfig
    cuts: Dict[str, List[Optional[float]]]
    elapsed: Dict[str, List[float]]
    subproblems: List[int]

    def relative_to_qaoa(self) -> Dict[str, List[Optional[float]]]:
        """The paper's normalisation: every series divided by the QAOA series."""
        out: Dict[str, List[Optional[float]]] = {}
        base = self.cuts["QAOA"]
        for name, values in self.cuts.items():
            rel: List[Optional[float]] = []
            for value, q in zip(values, base, strict=True):
                rel.append(None if (value is None or not q) else value / q)
            out[name] = rel
        return out

    def format_table(self) -> str:
        from repro.experiments.report import format_series_table

        absolute = format_series_table(
            "nodes",
            list(self.config.node_counts),
            self.cuts,
            title="Fig4 absolute MaxCut values",
            fmt="{:.1f}",
        )
        relative = format_series_table(
            "nodes",
            list(self.config.node_counts),
            self.relative_to_qaoa(),
            title="Fig4 MaxCut relative to QAOA (paper normalisation)",
        )
        return absolute + "\n\n" + relative


def run_scaling_experiment(config: Optional[ScalingConfig] = None) -> ScalingResult:
    config = config or ScalingConfig()
    gen = ensure_rng(config.rng)
    cuts: Dict[str, List[Optional[float]]] = {name: [] for name in SERIES_NAMES}
    elapsed: Dict[str, List[float]] = {name: [] for name in SERIES_NAMES}
    subproblem_counts: List[int] = []

    # ``n_starts`` rides along with the per-sub-graph QAOA options (it is a
    # QAOASolver knob), unless the caller pinned it there explicitly.
    qaoa_options = dict(config.qaoa_options)
    qaoa_options.setdefault("n_starts", config.n_starts)

    def qaoa2(method: str, graph, seed: int):
        return QAOA2Solver(
            n_max_qubits=config.n_max_qubits,
            subgraph_method=method,
            qaoa_options=dict(qaoa_options),
            qaoa_grid=config.qaoa_grid,
            gw_options=dict(config.gw_options),
            partition_method=config.partition_method,
            executor=config.executor,
            service=config.service,
            rng=seed,
        ).solve(graph)

    for n in config.node_counts:
        graph = erdos_renyi(int(n), config.edge_prob, rng=gen)
        seeds = gen.integers(2**31, size=5)

        t0 = time.perf_counter()
        random_result = randomized_partitioning(graph, trials=1, rng=int(seeds[0]))
        cuts["Random"].append(random_result.cut)
        elapsed["Random"].append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        classic = qaoa2("gw", graph, int(seeds[1]))
        cuts["Classic"].append(classic.cut)
        elapsed["Classic"].append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        qaoa = qaoa2("qaoa", graph, int(seeds[2]))
        cuts["QAOA"].append(qaoa.cut)
        elapsed["QAOA"].append(time.perf_counter() - t0)
        subproblem_counts.append(qaoa.n_subproblems)

        t0 = time.perf_counter()
        best = qaoa2("best", graph, int(seeds[3]))
        cuts["Best"].append(best.cut)
        elapsed["Best"].append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        try:
            gw_full = goemans_williamson(
                graph,
                rng=int(seeds[4]),
                fail_above_nodes=config.gw_fail_above,
                **config.gw_options,
            )
            cuts["GW"].append(gw_full.average_cut)
        except GWAbnormalTermination:
            cuts["GW"].append(None)  # the paper's truncated black curve
        elapsed["GW"].append(time.perf_counter() - t0)

    return ScalingResult(config, cuts, elapsed, subproblem_counts)


__all__ = [
    "SERIES_NAMES",
    "ScalingConfig",
    "ScalingResult",
    "paper_scale_scaling_config",
    "run_scaling_experiment",
]
