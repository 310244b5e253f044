"""QAOA-in-QAOA driver (paper §3.3) — the core contribution.

Steps, matching the paper's enumeration:

1. Fix the qubit budget ``n_max_qubits``, ansatz depth and iteration count.
2. Partition the graph with greedy modularity, recursively re-partitioning
   any community exceeding the budget (:mod:`repro.graphs.partition`).
3. Solve all sub-graphs *in parallel* (configurable executor backend) with
   QAOA, GW, the better of the two, or a run-time selection policy —
   the hybrid resource-mix idea of §3.6.  Under the ``serial`` executor,
   a level with at least ``LOCKSTEP_MIN_LEAVES`` sub-graphs below
   ``FUSED_MIN_QUBITS`` nodes advances them together instead: their
   COBYLA runs step as one array program, and each round evolves all
   their pending points on the numpy backend as one ragged batch, every
   leaf's half state in one flat buffer whatever its qubit count, with
   the same values a solve of each alone computes.
4. Build the merged graph with sign-flipped cut edges
   (:mod:`repro.qaoa2.merge`).
5. Solve the merged graph (recursively if it still exceeds the budget;
   classical by default at deeper levels, as in the paper) and flip the
   sub-graphs selected by its solution.

The method distinction (QAOA / GW / best / policy) applies to the first
partitioning level only, exactly as in the paper's preliminary setup; all
deeper levels use ``merged_method``.

One leaf solve is one :class:`SolveRequest`, from the level loop
(:meth:`QAOA2Solver.steps`) through the executor job
(:func:`_solve_subgraph_job`) to the solver service, its HTTP wire and
its cache digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Generator, List, Optional, Sequence, Union

import numpy as np

from repro.classical.gw import goemans_williamson
from repro.graphs.graph import Graph
from repro.graphs.maxcut import CutResult, cut_value
from repro.graphs.partition import partition_with_cap
from repro.hpc.executor import ExecutorConfig, map_jobs
from repro.optim import OptimizationResult, cobyla_batch_steps, drive
from repro.qaoa.engine import SweepEngine
from repro.qaoa.solver import QAOASolver
from repro.qaoa2.merge import (
    apply_flips,
    assemble_global_assignment,
    build_merge_problem,
)
from repro.quantum.backend import FUSED_MIN_QUBITS, RaggedLayout
from repro.util.rng import RngLike, ensure_rng
from repro.util.tracing import NO_TRACE, NullTraceContext, TraceContext

MethodPolicy = Union[str, Callable[[Graph], str]]

# The fewest small leaves a level lock-steps under the serial executor.  A
# batched COBYLA round costs about as much for one run as for several, so
# below this one job per leaf is faster.  Measured break-even: the whole
# job's time over one _solve_subgraph_job per leaf, median of 9 alternating
# repetitions, K ER(6-12, 0.35) leaves at p=2, maxiter=40, with each round
# one ragged evolution (two runs of the protocol, 2-core Intel Xeon VM):
# 1.31–1.38 at K=2, 1.02–1.06 at 3, 0.80–0.82 at 4, 0.70–0.75 at 5, 0.65
# at 6, 0.63 at 8, 0.48 at 12 and 0.50 at 16.  With one evolve_batch per
# qubit count the same protocol read 1.35–1.44 at 3, 1.07–1.16 at 4 and
# 1.02–1.04 at 5.
LOCKSTEP_MIN_LEAVES = 4


@dataclass
class SolveRequest:
    """One leaf solve: a graph plus a full solver configuration.

    :meth:`QAOA2Solver.steps` yields these, :func:`_solve_subgraph_job`
    solves one, and the solver service (:mod:`repro.service`) answers
    them.  ``options`` are :class:`repro.qaoa.solver.QAOASolver` knobs,
    ``qaoa_grid`` a list of option overrides whose best cut wins, and
    ``gw_options`` go to :func:`goemans_williamson`.  A job needs an
    integer ``seed``; ``seed=None`` asks the service for a derived
    content-addressed one."""

    graph: Graph
    method: str = "qaoa"
    options: dict = field(default_factory=dict)
    qaoa_grid: Optional[Sequence[dict]] = None
    gw_options: dict = field(default_factory=dict)
    seed: Optional[int] = None
    # Observability carrier, NOT identity: excluded from equality and from
    # request_digest (which hashes explicit fields only), so tracing can
    # never change what a request computes or where it caches.
    trace: "TraceContext | NullTraceContext" = field(
        default=NO_TRACE, repr=False, compare=False
    )


@dataclass
class SubgraphRecord:
    """Per-sub-problem trace entry (feeds the ML testbed and Fig. 4 stats)."""

    level: int
    part_id: int
    n_nodes: int
    n_edges: int
    method: str
    cut: float
    qaoa_cut: Optional[float] = None
    gw_cut: Optional[float] = None
    gw_average: Optional[float] = None
    # Wall seconds of the leaf's solve; a lock-stepped leaf gets its
    # job's wall time divided by the job's leaves.
    elapsed: float = 0.0


@dataclass
class LevelRecord:
    """Per-recursion-level accounting (validates the ~log_n N level count)."""

    level: int
    n_nodes: int
    n_parts: int
    merged_nodes: int
    merged_gain: float
    elapsed: float


@dataclass
class QAOA2Result:
    """Global solution plus the full divide/merge trace."""

    assignment: np.ndarray
    cut: float
    levels: List[LevelRecord] = field(default_factory=list)
    subgraphs: List[SubgraphRecord] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def n_subproblems(self) -> int:
        return len(self.subgraphs)

    def method_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.subgraphs:
            counts[rec.method] = counts.get(rec.method, 0) + 1
        return counts

    def as_cut_result(self) -> CutResult:
        return CutResult(self.assignment, self.cut, "qaoa2", dict(self.extra))


# ---------------------------------------------------------------------------
# Sub-graph jobs (module level so the process backend can pickle them)
# ---------------------------------------------------------------------------
def _solve_subgraph_job(
    request: SolveRequest, diagonal: Optional[np.ndarray] = None
) -> dict:
    """Solve one sub-graph with the requested method; returns a plain dict.

    ``diagonal`` is an optional precomputed cut diagonal of
    ``request.graph``: the solver service's batch scheduler shares one
    across all pending jobs on byte-identical graphs, skipping the
    dominant per-solve setup cost.  The values computed are bit-identical
    with or without it.  It rides beside the request, never in it, so a
    caller cannot hand the service a diagonal it would trust and cache.
    """
    return drive(_subgraph_steps(request, diagonal, lockstep=False))


def _solve_lockstep_job(
    requests: List[SolveRequest],
    diagonals: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[dict]:
    """Solve small sub-graphs together; equal, bit for bit, to solving each
    with :func:`_solve_subgraph_job` (``elapsed`` apart).

    Each leaf runs as :func:`_subgraph_steps`, which asks for its QAOA
    solves' COBYLA runs.  A wave takes every pending ask and runs them
    all to their results (:func:`_step_wave`); each leaf is then sent its
    result, and a leaf with an option grid asks for its next run in the
    next wave.  A leaf's result does not depend on which runs share its
    waves or rounds.
    """
    start = time.perf_counter()
    if diagonals is None:
        diagonals = [None] * len(requests)
    leaves = [
        _subgraph_steps(request, diagonal, lockstep=True)
        for request, diagonal in zip(requests, diagonals, strict=True)
    ]
    results: List[Optional[dict]] = [None] * len(leaves)
    asks: Dict[int, tuple] = {}  # leaf -> its (energy, x0, rhobeg, maxiter)

    def advance(leaf: int, reply: Optional[OptimizationResult]) -> None:
        try:
            asks[leaf] = leaves[leaf].send(reply)
        except StopIteration as stop:
            results[leaf] = stop.value

    for leaf in range(len(leaves)):
        advance(leaf, None)
    while asks:
        wave = dict(asks)
        asks.clear()
        for leaf, opt in _step_wave(wave).items():
            advance(leaf, opt)
    elapsed = (time.perf_counter() - start) / len(requests)
    for result in results:
        result["elapsed"] = elapsed
    return results


def _step_wave(wave: Dict[int, tuple]) -> Dict[int, OptimizationResult]:
    """Run each leaf's requested COBYLA run, minimising -F_p, to its result.

    One :func:`cobyla_batch_steps` steps the runs of each (dimension,
    rhobeg, maxiter).  Each round answers every point the steppers ask for
    with its leaf's pointwise objective, ``-energy.expectation``, bit for
    bit.  The points on the numpy backend are grouped by (backend, layers),
    and each group is one ragged batch: one
    :meth:`~repro.quantum.backend.NumpyBackend.evolve_ragged` over a
    :class:`~repro.quantum.backend.RaggedLayout` of the group's diagonals,
    largest first, whose ``expectations`` reduce each row as
    ``energy.expectation`` does.  A point on any other backend is answered
    with ``-energy.expectation`` itself.  A group's layout, buffers
    included, is rebuilt only when the group's members change.
    """
    by_options: Dict[tuple, List[int]] = {}
    for leaf, (_, x0, rhobeg, maxiter) in wave.items():
        by_options.setdefault((len(x0), rhobeg, maxiter), []).append(leaf)
    runs = []  # (its leaves, a stepper)
    for (_, rhobeg, maxiter), members in by_options.items():
        x0s = np.stack([wave[leaf][1] for leaf in members])
        runs.append((members, cobyla_batch_steps(x0s, rhobeg=rhobeg, maxiter=maxiter)))
    replies: Dict[int, Optional[list]] = dict.fromkeys(range(len(runs)))
    done: Dict[int, OptimizationResult] = {}
    layouts: Dict[tuple, tuple] = {}  # group -> (members, RaggedLayout)
    while replies:
        groups: Dict[tuple, list] = {}  # group -> [(stepper, position, leaf, point)]
        for stepper in list(replies):
            members, steps = runs[stepper]
            try:
                rows, points = steps.send(replies[stepper])
            except StopIteration as stop:
                done.update(zip(members, stop.value, strict=True))
                del replies[stepper]
                continue
            replies[stepper] = [None] * len(rows)
            for position, (row, point) in enumerate(zip(rows, points, strict=True)):
                energy = wave[members[row]][0]
                if energy.backend.name != "numpy":
                    replies[stepper][position] = -energy.expectation(point)
                    continue
                key = (energy.backend, len(point) // 2)
                groups.setdefault(key, []).append((stepper, position, members[row], point))
        for key, asked in groups.items():
            asked.sort(key=lambda ask: -wave[ask[2]][0].n_qubits)
            members = [leaf for _, _, leaf, _ in asked]
            cached = layouts.get(key)
            if cached is None or cached[0] != members:
                diagonals = [wave[leaf][0].diagonal for leaf in members]
                cached = layouts[key] = (members, RaggedLayout(diagonals))
            layout = cached[1]
            half = key[0].evolve_ragged(layout, np.stack([point for *_, point in asked]))
            for (stepper, position, _, _), value in zip(
                asked, layout.expectations(half), strict=True
            ):
                replies[stepper][position] = -value
    return done


def leaf_jobs(
    requests: Sequence[SolveRequest], executor: ExecutorConfig
) -> List[List[int]]:
    """Split a batch of leaf requests into executor jobs, each a list of
    indices into ``requests``.

    Under the ``serial`` executor, when at least ``LOCKSTEP_MIN_LEAVES``
    requests are below ``FUSED_MIN_QUBITS`` nodes, those form the first
    job, one :func:`_solve_lockstep_job`; every other request, and every
    request under ``thread``/``process`` (whose workers share the leaves),
    is a job of its own, one :func:`_solve_subgraph_job`.  The direct
    solve (:meth:`QAOA2Solver._solve_leaves`) and the service's scheduler
    both dispatch by this rule.
    """
    small = [i for i, r in enumerate(requests) if r.graph.n_nodes < FUSED_MIN_QUBITS]
    if executor.backend != "serial" or len(small) < LOCKSTEP_MIN_LEAVES:
        return [[i] for i in range(len(requests))]
    large = [[i] for i, r in enumerate(requests) if r.graph.n_nodes >= FUSED_MIN_QUBITS]
    return [small, *large]


def in_request_order(jobs: List[List[int]], solved: List[List[dict]]) -> List[dict]:
    """The results of :func:`leaf_jobs`' jobs, in the order of their requests."""
    by_index = dict(zip(chain.from_iterable(jobs), chain.from_iterable(solved), strict=True))
    return [by_index[i] for i in range(len(by_index))]


def _solve_leaf_job(job: List[SolveRequest]) -> List[dict]:
    """One job of :func:`leaf_jobs`: a request solved alone, or several
    lock-stepped."""
    if len(job) == 1:
        return [_solve_subgraph_job(job[0])]
    return _solve_lockstep_job(job)


def _subgraph_steps(
    request: SolveRequest, diagonal: Optional[np.ndarray], *, lockstep: bool
) -> Generator:
    """:func:`_solve_subgraph_job` as a generator: with ``lockstep``, its
    QAOA solves run as :meth:`QAOASolver.steps`, yielding their COBYLA
    runs' ``(energy, x0, rhobeg, maxiter)`` asks; otherwise nothing is
    yielded."""
    if request.seed is None:
        raise ValueError(
            "a leaf job needs an integer seed; this SolveRequest has seed=None "
            "(MaxCutService resolves one)"
        )
    graph, method, seed = request.graph, request.method, request.seed
    qaoa_options, gw_options = request.options, request.gw_options

    start = time.perf_counter()
    out: dict = {"method": method, "qaoa_cut": None, "gw_cut": None, "gw_average": None,
                 "params": None, "layers": None, "rhobeg": None}

    def run_qaoa() -> Generator:
        # One engine per sub-graph: the cut diagonal is built once and every
        # config in the option grid (and every optimizer iteration) reuses
        # it; the engine's pooled buffers are additionally shared across
        # equal-sized partitions solved by the same worker.  Grid entries
        # with layers=1 automatically drop to the solver's closed-form
        # analytic objective (no statevector until solution selection).
        # The engine resolves the statevector backend once per sub-graph
        # from the job's options (grid overrides inherit it).
        engine = SweepEngine(
            graph, diagonal=diagonal, backend=qaoa_options.get("backend", "auto")
        )
        configs = request.qaoa_grid if request.qaoa_grid else [{}]
        best: Optional[CutResult] = None
        for offset, overrides in enumerate(configs):
            options = {**qaoa_options, **overrides}
            solver = QAOASolver(rng=seed + offset, engine=engine, **options)
            if lockstep:
                qaoa_result = yield from solver.steps(graph, lockstep=True)
            else:
                qaoa_result = solver.solve(graph)
            result = qaoa_result.as_cut_result()
            if best is None or result.cut > best.cut:
                best = result
                # Winning parameterisation, exported so the result cache
                # can feed the knowledge base's warm starts.
                out["params"] = [float(x) for x in qaoa_result.params]
                out["layers"] = int(solver.layers)
                out["rhobeg"] = float(solver.rhobeg)
                out["backend"] = qaoa_result.extra.get("backend")
        return best

    def run_gw() -> CutResult:
        gw = goemans_williamson(graph, rng=seed + 7919, **gw_options)
        out["gw_average"] = gw.average_cut
        return gw.as_cut_result()

    if method == "qaoa":
        chosen = yield from run_qaoa()
        out["qaoa_cut"] = chosen.cut
    elif method == "gw":
        chosen = run_gw()
        out["gw_cut"] = chosen.cut
    elif method == "best":
        q = yield from run_qaoa()
        g = run_gw()
        out["qaoa_cut"] = q.cut
        out["gw_cut"] = g.cut
        chosen = q if q.cut >= g.cut else g
        out["method"] = f"best:{chosen.method}"
    elif method == "rqaoa":
        # The paper (§3.2): RQAOA "can also be leveraged using QAOA² to get
        # a good global solution for very large problems".
        from repro.qaoa.rqaoa import rqaoa_solve

        layers = int(qaoa_options.get("layers", 2))
        chosen = rqaoa_solve(
            graph,
            layers=layers,
            rng=seed,
            solver_options=dict(qaoa_options),
        ).as_cut_result()
        out["qaoa_cut"] = chosen.cut
    elif method == "anneal":
        # QUBO/annealer path (§1's "conversely formulated as QUBO" remark).
        from repro.classical.qubo import SimulatedAnnealerSampler

        chosen = SimulatedAnnealerSampler().sample_maxcut(
            graph, num_reads=8, rng=seed
        )
    else:
        raise ValueError(f"unknown sub-graph method {method!r}")

    out["assignment"] = chosen.assignment
    out["cut"] = chosen.cut
    out["elapsed"] = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
@dataclass
class QAOA2Solver:
    """Divide-and-conquer MaxCut solver.

    Parameters
    ----------
    n_max_qubits:
        Qubit budget per sub-problem (paper step 1).
    subgraph_method:
        ``"qaoa"`` | ``"gw"`` | ``"best"`` | ``"rqaoa"`` | ``"anneal"`` or a
        callable ``Graph -> method`` (run-time selection policy, §3.6) —
        applied at the first level only.  ``rqaoa`` and ``anneal`` are the
        extension solvers the paper mentions (refs. [47], [29]).
    merged_method:
        Solver for merged graphs and deeper levels (paper: classical,
        default ``"gw"``; ``"qaoa"`` allowed for ablations).
    qaoa_options / qaoa_grid / gw_options:
        Forwarded to the leaf solvers; ``qaoa_grid`` is a list of option
        overrides, the best cut over the grid is kept (the Fig. 4 setup runs
        the full (p, rhobeg) grid per sub-graph).  Any
        :class:`repro.qaoa.solver.QAOASolver` knob is accepted — in
        particular ``{"n_starts": S, "optimizer": "spsa"}`` runs every
        sub-graph's variational loop as lock-step multi-start, one
        ``(2S, 2p)`` batched engine evaluation per iteration on the
        sub-graph's shared engine.
    partition_method:
        Community detector (see :func:`repro.graphs.partition.partition_with_cap`).
    executor:
        Parallel backend for the per-level sub-graph batch.
    service:
        Optional :class:`repro.service.MaxCutService`.  When set, every
        leaf solve (sub-graph batches *and* small merged graphs) is routed
        through the service instead of a direct executor fan-out, with
        the seeds the direct path draws, so both give the same cuts; its
        scheduler dispatches the jobs of :func:`leaf_jobs` under
        ``executor``, as the direct path does.  Duplicate in-flight
        leaves coalesce and same-shape batches share cut diagonals.
        Since each leaf's seed is unique, cache hits come from bit-exact
        repeats: re-running the same solve, or several solvers sharing
        one service.  A leaf that a ``error_mode="capture"`` service
        answers with an error raises ``RuntimeError`` with its error
        text.

        A service with a ``disk_dir`` is the solve's checkpoint: with an
        integer ``rng`` and the service's default ``cache_cost_floor=None``,
        the same solve on a fresh service over the same directory answers
        every leaf of each finished batch from disk and solves the rest.
        The restart unit is one batch (one level), because the service
        stores a ``solve_many`` batch's results after the batch; a resumed
        leaf's ``elapsed`` is its cache-hit time.
    """

    n_max_qubits: int = 10
    subgraph_method: MethodPolicy = "qaoa"
    merged_method: str = "gw"
    qaoa_options: dict = field(default_factory=dict)
    qaoa_grid: Optional[Sequence[dict]] = None
    gw_options: dict = field(default_factory=dict)
    partition_method: str = "greedy_modularity"
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    service: Optional[object] = None  # repro.service.MaxCutService
    rng: RngLike = None
    max_levels: int = 32

    def solve(self, graph: Graph) -> QAOA2Result:
        return drive(self.steps(graph), self._solve_leaves)

    def steps(
        self, graph: Graph
    ) -> Generator[List[SolveRequest], List[dict], QAOA2Result]:
        """The solve as a generator: yields each batch of leaf requests (the
        input of :func:`_solve_subgraph_job`), level 0's parts first, then
        each merged graph or its parts, and is sent their result dicts in
        order.

        :meth:`solve` answers a batch with :meth:`_solve_leaves`, in
        process or through ``service`` (one ``solve_many`` per batch, so a
        disk-backed service stores and resumes whole batches); the Fig. 2
        coordinator (:func:`repro.hpc.coordinator.run_coordinated_qaoa2`)
        with its worker ranks.  Every draw from ``rng`` happens here, so
        both get the same partitions, seeds, merges and flips.
        """
        gen = ensure_rng(self.rng)
        records: List[SubgraphRecord] = []
        levels: List[LevelRecord] = []
        assignment = yield from self._recurse(graph, 0, gen, records, levels)
        cut = cut_value(graph, assignment)
        return QAOA2Result(
            assignment=assignment,
            cut=cut,
            levels=levels,
            subgraphs=records,
            extra={
                "n_max_qubits": self.n_max_qubits,
                "partition_method": self.partition_method,
            },
        )

    # ------------------------------------------------------------------
    def _method_for(self, subgraph: Graph, level: int) -> str:
        if level > 0:
            return self.merged_method
        if callable(self.subgraph_method):
            method = self.subgraph_method(subgraph)
            if method not in ("qaoa", "gw", "best", "rqaoa", "anneal"):
                raise ValueError(f"policy returned unknown method {method!r}")
            return method
        return self.subgraph_method

    def _leaf_request(self, subgraph: Graph, level: int, seed: int) -> SolveRequest:
        return SolveRequest(
            graph=subgraph,
            method=self._method_for(subgraph, level),
            options=dict(self.qaoa_options),
            qaoa_grid=self.qaoa_grid if level == 0 else None,
            gw_options=dict(self.gw_options),
            seed=seed,
        )

    def _solve_leaves(self, requests: List[SolveRequest]) -> List[dict]:
        """Solve a batch of leaf requests, in submission order, as the jobs
        of :func:`leaf_jobs`: directly, or through the service, which runs
        the same jobs on the same requests, so only caching, coalescing
        and diagonal sharing differ."""
        if self.service is None:
            jobs = leaf_jobs(requests, self.executor)
            solved = map_jobs(
                _solve_leaf_job,
                [[requests[i] for i in job] for job in jobs],
                config=self.executor,
            )
            return in_request_order(jobs, solved)
        results = self.service.solve_many(requests, executor=self.executor)
        for part_id, res in enumerate(results):
            if res.failed:
                raise RuntimeError(
                    f"QAOA² leaf {part_id} ({res.assignment.size} nodes) failed: "
                    f"{res.extra['error']}"
                )
        return [
            {
                "method": res.method,
                "cut": res.cut,
                "assignment": res.assignment,
                "qaoa_cut": res.extra.get("qaoa_cut"),
                "gw_cut": res.extra.get("gw_cut"),
                "gw_average": res.extra.get("gw_average"),
                "elapsed": res.elapsed,
            }
            for res in results
        ]

    def _recurse(
        self,
        graph: Graph,
        level: int,
        gen: np.random.Generator,
        records: List[SubgraphRecord],
        levels: List[LevelRecord],
    ) -> Generator[List[SolveRequest], List[dict], np.ndarray]:
        if level >= self.max_levels:
            raise RuntimeError("QAOA2 recursion exceeded max_levels")
        start = time.perf_counter()
        if graph.n_nodes <= self.n_max_qubits:
            partition = None
            subgraphs = [graph]
        else:
            partition = partition_with_cap(
                graph, self.n_max_qubits, method=self.partition_method, rng=gen
            )
            subgraphs = [graph.subgraph(part)[0] for part in partition.parts]
        requests = [
            self._leaf_request(sub, level, int(gen.integers(2**31)))
            for sub in subgraphs
        ]
        results = yield requests
        for part_id, (sub, result) in enumerate(zip(subgraphs, results, strict=True)):
            records.append(
                SubgraphRecord(
                    level=level,
                    part_id=part_id,
                    n_nodes=sub.n_nodes,
                    n_edges=sub.n_edges,
                    method=result["method"],
                    cut=result["cut"],
                    qaoa_cut=result["qaoa_cut"],
                    gw_cut=result["gw_cut"],
                    gw_average=result["gw_average"],
                    elapsed=result["elapsed"],
                )
            )
        if partition is None:
            return results[0]["assignment"]

        x = assemble_global_assignment(
            graph.n_nodes, partition.parts, [result["assignment"] for result in results]
        )
        merge = build_merge_problem(graph, partition.parts, partition.membership, x)
        merged_assignment = yield from self._recurse(
            merge.merged_graph, level + 1, gen, records, levels
        )
        # Never regress below the unflipped configuration: a merged solution
        # with negative cut is worse than flipping nothing.
        merged_cut = cut_value(merge.merged_graph, merged_assignment)
        if merged_cut < 0.0:
            merged_assignment = np.zeros(merge.merged_graph.n_nodes, dtype=np.uint8)
        final = apply_flips(x, partition.parts, merged_assignment)
        levels.append(
            LevelRecord(
                level=level,
                n_nodes=graph.n_nodes,
                n_parts=partition.n_parts,
                merged_nodes=merge.merged_graph.n_nodes,
                merged_gain=max(merged_cut, 0.0),
                elapsed=time.perf_counter() - start,
            )
        )
        return final


def expected_subproblem_count(n_nodes: int, n_qubits: int) -> float:
    """The paper's estimate: ~N(nᵃ − 1)/(nᵃ(n − 1)) sub-graphs over
    a ≈ ⌈log_n N⌉ − 1 levels."""
    if n_qubits < 2 or n_nodes <= n_qubits:
        return 1.0
    a = max(1, int(np.ceil(np.log(n_nodes) / np.log(n_qubits))) - 1)
    return n_nodes * (n_qubits**a - 1) / (n_qubits**a * (n_qubits - 1))


__all__ = [
    "SolveRequest",
    "SubgraphRecord",
    "LevelRecord",
    "QAOA2Result",
    "QAOA2Solver",
    "expected_subproblem_count",
]
