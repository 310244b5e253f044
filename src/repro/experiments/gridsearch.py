"""The Fig. 3 grid-search experiment (paper §4).

For every (node count, edge probability) cell, one unweighted and one
weighted Erdős–Rényi instance are generated.  A grid over circuit layers
p and COBYLA ``rhobeg`` is swept; for each grid point the QAOA MaxCut value
(highest-amplitude bitstring) is compared against the GW 30-slice average
for the same graph.  Reported aggregations match the paper's three panels:

* Fig. 3(a): per-(N, p_edge) proportion of grid points where QAOA is
  *strictly better* than GW — split by weighting.
* Fig. 3(b): same, for QAOA reaching [95, 100)% of the GW value.
* Fig. 3(c): per-(rhobeg, layers) proportion of *graphs* where that grid
  point made QAOA strictly better — split by weighting.

The paper's iteration budget ("linearly dependent on p, 30 to 100") is the
default.  ``paper_scale_config()`` reproduces the full published sweep
(N ∈ [15, 25], p_edge ∈ {0.1..0.5}, p ∈ {3..8}, rhobeg ∈ {0.1..0.5});
``laptop_scale_config()`` is the CI-friendly default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.classical.gw import goemans_williamson
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.hpc.executor import ExecutorConfig, map_jobs
from repro.ml.knowledge import GridRecord, KnowledgeBase
from repro.qaoa.analytic import angle_axes
from repro.qaoa.energy import MaxCutEnergy
from repro.qaoa.engine import SweepEngine
from repro.qaoa.params import default_iterations
from repro.qaoa.solver import QAOASolver
from repro.util.rng import RngLike, ensure_rng


@dataclass
class GridSearchConfig:
    """Sweep definition.  Defaults are laptop scale; see factory functions."""

    node_counts: Sequence[int] = (8, 10, 12)
    edge_probs: Sequence[float] = (0.2, 0.4)
    layers_grid: Sequence[int] = (2, 3)
    rhobeg_grid: Sequence[float] = (0.2, 0.4)
    weightings: Sequence[bool] = (False, True)
    # Paper methodology: shot-based objective (4096 shots), no warm start —
    # the rhobeg sweep only matters from a naive starting point.
    objective: str = "sampled"
    selection: str = "top1"
    init: str = "fixed"
    shots: int = 4096
    gw_slices: int = 30
    maxiter: Optional[int] = None  # None -> paper's p-linear budget
    store_params: bool = True
    rng: RngLike = 0
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)


def laptop_scale_config(**overrides) -> GridSearchConfig:
    """Small sweep that runs in seconds (default for tests/benches)."""
    return GridSearchConfig(**overrides)


def paper_scale_config(**overrides) -> GridSearchConfig:
    """The published Fig. 3 sweep (minutes-to-hours of runtime)."""
    params = dict(
        node_counts=tuple(range(15, 26)),
        edge_probs=(0.1, 0.2, 0.3, 0.4, 0.5),
        layers_grid=(3, 4, 5, 6, 7, 8),
        rhobeg_grid=(0.1, 0.2, 0.3, 0.4, 0.5),
    )
    params.update(overrides)
    return GridSearchConfig(**params)


# ---------------------------------------------------------------------------
# Per-cell job (module level for the process backend)
# ---------------------------------------------------------------------------
def _grid_cell_job(payload: dict) -> List[GridRecord]:
    n: int = payload["n"]
    p_edge: float = payload["p_edge"]
    weighted: bool = payload["weighted"]
    seed: int = payload["seed"]
    config_fields: dict = payload["config"]

    gen = ensure_rng(seed)
    graph = erdos_renyi(n, p_edge, weighted=weighted, rng=gen)
    gw = goemans_williamson(
        graph, n_slices=config_fields["gw_slices"], rng=gen
    )
    gw_value = gw.average_cut  # §3.4: average over slices vs unrepeated QAOA
    records: List[GridRecord] = []
    for layers in config_fields["layers_grid"]:
        maxiter = (
            config_fields["maxiter"]
            if config_fields["maxiter"] is not None
            else default_iterations(layers)
        )
        for rhobeg in config_fields["rhobeg_grid"]:
            solver = QAOASolver(
                layers=layers,
                rhobeg=rhobeg,
                maxiter=maxiter,
                objective=config_fields["objective"],
                selection=config_fields["selection"],
                init=config_fields["init"],
                shots=config_fields["shots"],
                rng=int(gen.integers(2**31)),
            )
            result = solver.solve(graph)
            records.append(
                GridRecord(
                    n_nodes=n,
                    edge_probability=p_edge,
                    weighted=weighted,
                    layers=layers,
                    rhobeg=rhobeg,
                    qaoa_cut=result.cut,
                    gw_cut=gw_value,
                    qaoa_params=(
                        result.params.tolist() if config_fields["store_params"] else None
                    ),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Result container + the paper's aggregations
# ---------------------------------------------------------------------------
@dataclass
class GridSearchResult:
    config: GridSearchConfig
    records: List[GridRecord]
    elapsed: float = 0.0

    # -- Fig. 3(a) / 3(b): (node count × edge prob) proportions ----------
    def proportions_by_graph(
        self, *, weighted: bool, mode: str = "strict"
    ) -> np.ndarray:
        """Matrix (node_counts × edge_probs) of per-graph proportions.

        ``strict``: QAOA > GW.  ``band95``: GW·0.95 ≤ QAOA < GW.
        """
        rows = list(self.config.node_counts)
        cols = list(self.config.edge_probs)
        out = np.full((len(rows), len(cols)), np.nan)
        for i, n in enumerate(rows):
            for j, p in enumerate(cols):
                hits = [
                    rec
                    for rec in self.records
                    if rec.n_nodes == n
                    and rec.edge_probability == p
                    and rec.weighted == weighted
                ]
                if not hits:
                    continue
                if mode == "strict":
                    wins = [rec.qaoa_cut > rec.gw_cut for rec in hits]
                elif mode == "band95":
                    wins = [
                        0.95 * rec.gw_cut <= rec.qaoa_cut < rec.gw_cut for rec in hits
                    ]
                else:
                    raise ValueError(f"unknown mode {mode!r}")
                out[i, j] = float(np.mean(wins))
        return out

    # -- Fig. 3(c): (rhobeg × layers) proportions -------------------------
    def proportions_by_gridpoint(self, *, weighted: bool) -> np.ndarray:
        """Matrix (rhobeg × layers): fraction of graphs where the grid point
        made QAOA strictly better (the paper's normalised scores)."""
        rhos = list(self.config.rhobeg_grid)
        lays = list(self.config.layers_grid)
        out = np.full((len(rhos), len(lays)), np.nan)
        for i, rho in enumerate(rhos):
            for j, lay in enumerate(lays):
                hits = [
                    rec
                    for rec in self.records
                    if rec.rhobeg == rho and rec.layers == lay and rec.weighted == weighted
                ]
                if not hits:
                    continue
                out[i, j] = float(np.mean([rec.qaoa_cut > rec.gw_cut for rec in hits]))
        return out

    def best_gridpoint(self, *, weighted: Optional[bool] = None) -> Tuple[float, int]:
        """(rhobeg, layers) with the highest strict-win proportion — the
        paper identifies (0.5, 6) at its scale."""
        best: Tuple[float, int] = (0.0, 0)
        best_score = -1.0
        for rho in self.config.rhobeg_grid:
            for lay in self.config.layers_grid:
                hits = [
                    rec
                    for rec in self.records
                    if rec.rhobeg == rho
                    and rec.layers == lay
                    and (weighted is None or rec.weighted == weighted)
                ]
                if not hits:
                    continue
                score = float(np.mean([rec.qaoa_cut > rec.gw_cut for rec in hits]))
                if score > best_score:
                    best_score = score
                    best = (rho, lay)
        return best

    def to_knowledge_base(self, **kb_kwargs) -> KnowledgeBase:
        kb = KnowledgeBase(**kb_kwargs)
        kb.extend(self.records)
        return kb

    # -- formatted output --------------------------------------------------
    def format_fig3(self) -> str:
        from repro.experiments.report import format_heat_table

        blocks = []
        for mode, label in (("strict", "QAOA strictly better than GW"),
                            ("band95", "QAOA within [95,100)% of GW")):
            for weighted in (False, True):
                tag = "weighted" if weighted else "unweighted"
                blocks.append(
                    format_heat_table(
                        list(self.config.node_counts),
                        list(self.config.edge_probs),
                        self.proportions_by_graph(weighted=weighted, mode=mode),
                        title=f"Fig3 {label} ({tag})",
                    )
                )
        for weighted in (False, True):
            tag = "weighted" if weighted else "unweighted"
            blocks.append(
                format_heat_table(
                    list(self.config.rhobeg_grid),
                    list(self.config.layers_grid),
                    self.proportions_by_gridpoint(weighted=weighted),
                    title=f"Fig3c strict-win proportion per grid point ({tag})",
                    row_header="rhobeg",
                    col_header="layers",
                )
            )
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# The (γ, β) angle-grid sweep (energy landscapes, any depth)
# ---------------------------------------------------------------------------
@dataclass
class AngleGridResult:
    """A full (γ, β) energy landscape over one graph.

    ``energies[i, j] = F_p(γ=gammas[i], β=betas[j])`` — 1-D axes are the
    classic p=1 landscape, ``(rows, p)`` axes pair per-layer schedules.
    The best point is the flat-argmax (first occurrence), so loop and
    batched evaluations of the same grid resolve ties identically.
    """

    gammas: np.ndarray
    betas: np.ndarray
    energies: np.ndarray
    elapsed: float = 0.0
    method: str = "batched"

    @property
    def best_index(self) -> Tuple[int, int]:
        flat = int(np.argmax(self.energies))
        return flat // self.energies.shape[1], flat % self.energies.shape[1]

    @property
    def best_energy(self) -> float:
        i, j = self.best_index
        return float(self.energies[i, j])

    @property
    def best_params(self) -> np.ndarray:
        """Winning ``[γ_1..γ_p, β_1..β_p]`` vector (gammas-first packing)."""
        i, j = self.best_index
        return np.concatenate(
            [np.atleast_1d(self.gammas[i]), np.atleast_1d(self.betas[j])]
        ).astype(np.float64)


def run_angle_grid(
    graph: Graph,
    gammas: Optional[np.ndarray] = None,
    betas: Optional[np.ndarray] = None,
    *,
    resolution: int = 24,
    chunk_size: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
    method: str = "batched",
) -> AngleGridResult:
    """Evaluate the QAOA energy over a full (γ, β) grid.

    Axes may be 1-D (p=1, the default landscape) or ``(rows, p)`` per-layer
    schedules (p ≥ 2).  ``method="batched"`` (default) routes through
    :meth:`SweepEngine.angle_grid` with automatic tier selection — the
    closed-form analytic path for p=1, chunked generic batches for deeper
    grids.  ``"analytic"`` and ``"spectral"`` force the p=1 tiers
    explicitly; ``method="loop"`` is the original per-point double Python
    loop over :meth:`~repro.qaoa.energy.MaxCutEnergy.expectation`, kept as
    the cross-validation reference and benchmark baseline.
    """
    if gammas is None or betas is None:
        default_g, default_b = angle_axes(resolution)
        gammas = default_g if gammas is None else gammas
        betas = default_b if betas is None else betas
    gammas = np.asarray(gammas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if engine is not None and engine.graph is not graph:
        raise ValueError("engine was built for a different graph")
    start = time.perf_counter()
    if method in ("batched", "analytic", "spectral"):
        engine = engine or SweepEngine(graph, chunk_size=chunk_size)
        tier = "auto" if method == "batched" else method
        energies = engine.angle_grid(gammas, betas, method=tier)
    elif method == "loop":
        energy = MaxCutEnergy(graph)
        g2d = gammas[:, None] if gammas.ndim == 1 else gammas
        b2d = betas[:, None] if betas.ndim == 1 else betas
        energies = np.empty((g2d.shape[0], b2d.shape[0]), dtype=np.float64)
        for i, gamma_row in enumerate(g2d):
            for j, beta_row in enumerate(b2d):
                energies[i, j] = energy.expectation(
                    np.concatenate([gamma_row, beta_row])
                )
    else:
        raise ValueError(f"unknown angle-grid method {method!r}")
    return AngleGridResult(
        gammas=gammas,
        betas=betas,
        energies=energies,
        elapsed=time.perf_counter() - start,
        method=method,
    )


def run_grid_search(config: Optional[GridSearchConfig] = None) -> GridSearchResult:
    """Execute the sweep (cells fan out over the configured executor)."""
    config = config or GridSearchConfig()
    gen = ensure_rng(config.rng)
    config_fields = {
        "layers_grid": list(config.layers_grid),
        "rhobeg_grid": list(config.rhobeg_grid),
        "objective": config.objective,
        "selection": config.selection,
        "init": config.init,
        "shots": config.shots,
        "gw_slices": config.gw_slices,
        "maxiter": config.maxiter,
        "store_params": config.store_params,
    }
    payloads = []
    for n in config.node_counts:
        for p_edge in config.edge_probs:
            for weighted in config.weightings:
                payloads.append(
                    {
                        "n": int(n),
                        "p_edge": float(p_edge),
                        "weighted": bool(weighted),
                        "seed": int(gen.integers(2**31)),
                        "config": config_fields,
                    }
                )
    start = time.perf_counter()
    batches = map_jobs(_grid_cell_job, payloads, config=config.executor)
    records = [rec for batch in batches for rec in batch]
    return GridSearchResult(config, records, time.perf_counter() - start)


__all__ = [
    "AngleGridResult",
    "GridSearchConfig",
    "GridSearchResult",
    "laptop_scale_config",
    "paper_scale_config",
    "run_angle_grid",
    "run_grid_search",
]
