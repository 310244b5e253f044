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
   their pending points as one batch per (backend, qubits, layers), with
   the same values a solve of each alone computes.
4. Build the merged graph with sign-flipped cut edges
   (:mod:`repro.qaoa2.merge`).
5. Solve the merged graph (recursively if it still exceeds the budget;
   classical by default at deeper levels, as in the paper) and flip the
   sub-graphs selected by its solution.

The method distinction (QAOA / GW / best / policy) applies to the first
partitioning level only, exactly as in the paper's preliminary setup; all
deeper levels use ``merged_method``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
from repro.quantum.backend import FUSED_MIN_QUBITS
from repro.util.rng import RngLike, ensure_rng

MethodPolicy = Union[str, Callable[[Graph], str]]

# The fewest small leaves a level lock-steps under the serial executor.  A
# batched COBYLA round costs about as much for one run as for several, so
# below this one job per leaf is faster.  Measured break-even: the whole
# job's time over one _solve_subgraph_job per leaf, median of 5 alternating
# repetitions, K ER(6-12, 0.35) leaves at p=2, maxiter=40: 1.58 at K=2,
# 1.32 at 3, 1.15 at 4, 0.96 at 6, 0.86 at 8, 0.73 at 12, 0.73 at 16 and
# 0.44 at 48; with 9 repetitions, 1.01 at 5 and 0.94 at 6 and 7.
LOCKSTEP_MIN_LEAVES = 6


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
def _solve_subgraph_job(payload: dict) -> dict:
    """Solve one sub-graph with the requested method; returns a plain dict.

    Optional payload keys beyond the required six:

    ``diagonal``
        A precomputed cut diagonal for ``graph`` — the solver service's
        batch scheduler shares one diagonal across all pending jobs on
        byte-identical graphs, skipping the dominant per-solve setup cost.
        The values computed are bit-identical with or without it.
    """
    return drive(_subgraph_steps(payload, lockstep=False))


def _solve_lockstep_job(payloads: List[dict]) -> List[dict]:
    """Solve small sub-graphs together; equal, bit for bit, to solving each
    with :func:`_solve_subgraph_job` (``elapsed`` apart).

    Each leaf runs as :func:`_subgraph_steps`, which requests its QAOA
    solves' COBYLA runs.  A wave takes every pending request and runs them
    all to their results (:func:`_step_wave`); each leaf is then sent its
    result, and a leaf with an option grid requests its next run for the
    next wave.  A leaf's result does not depend on which runs share its
    waves or rounds.
    """
    start = time.perf_counter()
    leaves = [_subgraph_steps(payload, lockstep=True) for payload in payloads]
    results: List[Optional[dict]] = [None] * len(leaves)
    requests: Dict[int, tuple] = {}  # leaf -> its (energy, x0, rhobeg, maxiter)
    stacks: Dict[tuple, tuple] = {}  # group -> (members, diagonal stack)

    def advance(leaf: int, reply: Optional[OptimizationResult]) -> None:
        try:
            requests[leaf] = leaves[leaf].send(reply)
        except StopIteration as stop:
            results[leaf] = stop.value

    for leaf in range(len(leaves)):
        advance(leaf, None)
    while requests:
        wave = dict(requests)
        requests.clear()
        for leaf, opt in _step_wave(wave, stacks).items():
            advance(leaf, opt)
    elapsed = (time.perf_counter() - start) / len(payloads)
    for result in results:
        result["elapsed"] = elapsed
    return results


def _step_wave(
    wave: Dict[int, tuple], stacks: Dict[tuple, tuple]
) -> Dict[int, OptimizationResult]:
    """Run each leaf's requested COBYLA run, minimising -F_p, to its result.

    One :func:`cobyla_batch_steps` steps the runs of each (dimension,
    rhobeg, maxiter).  Each round takes the points all steppers ask for,
    evolves each (backend, qubits, layers) group as one ``evolve_batch``
    over the stack of its members' diagonals, and answers each point with
    ``-energy.expectation_from_state`` of its own row: the pointwise
    objective on a bit-identical state.  A group's stack is built once and
    re-indexed only when its members change.
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
                key = (energy.backend, energy.n_qubits, len(point) // 2)
                groups.setdefault(key, []).append((stepper, position, members[row], point))
        for key, asked in groups.items():
            members = [leaf for _, _, leaf, _ in asked]
            old_members, stack = stacks.get(key, ((), None))
            if members != old_members:
                if set(members) <= set(old_members):
                    where = {leaf: row for row, leaf in enumerate(old_members)}
                    stack = stack[[where[leaf] for leaf in members]]
                else:
                    stack = np.stack([wave[leaf][0].diagonal for leaf in members])
                stacks[key] = (members, stack)
            states = key[0].evolve_batch(stack, np.stack([point for *_, point in asked]))
            for (stepper, position, leaf, _), state in zip(asked, states, strict=True):
                replies[stepper][position] = -wave[leaf][0].expectation_from_state(state)
    return done


def _solve_leaf_job(job: Union[dict, List[dict]]) -> List[dict]:
    """A ``serial`` executor job: a list of small payloads, lock-stepped, or
    one payload, solved alone."""
    if isinstance(job, dict):
        return [_solve_subgraph_job(job)]
    return _solve_lockstep_job(job)


def _subgraph_steps(payload: dict, *, lockstep: bool) -> Generator:
    """:func:`_solve_subgraph_job` as a generator: with ``lockstep``, its
    QAOA solves run as :meth:`QAOASolver.steps`, yielding their COBYLA
    runs' ``(energy, x0, rhobeg, maxiter)`` requests; otherwise nothing is
    yielded."""
    graph: Graph = payload["graph"]
    method: str = payload["method"]
    seed: int = payload["seed"]
    qaoa_options: dict = payload["qaoa_options"]
    qaoa_grid: Optional[Sequence[dict]] = payload["qaoa_grid"]
    gw_options: dict = payload["gw_options"]
    diagonal = payload.get("diagonal")

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
        configs = qaoa_grid if qaoa_grid else [{}]
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
        ``executor`` still governing the dispatch backend.  Duplicate
        in-flight leaves coalesce and same-shape batches share cut
        diagonals; whether *distinct-but-isomorphic* leaves share work is
        the ``service_seeds`` trade-off below.
    service_seeds:
        ``"request"`` (default): leaves carry the exact sequentially-drawn
        seeds the direct path would use, so the service path produces cut
        values identical to the direct path at fixed seeds (pinned in
        ``tests/test_service.py``).  Since each leaf's seed is unique,
        cache hits then only occur for bit-exact repeats — re-running the
        same solve, or several solvers sharing one service.
        ``"canonical"``: leaves are submitted seedless and the service
        derives content-addressed seeds, so identical/isomorphic
        sub-graphs *within one run* share a single solve via the cache —
        the deeper-level QAOA² reuse the paper's knowledge base motivates
        — at the cost of a different (still deterministic) seed stream
        than the direct path.
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
    service_seeds: str = "request"  # "request" | "canonical"
    rng: RngLike = None
    max_levels: int = 32

    def solve(self, graph: Graph) -> QAOA2Result:
        gen = ensure_rng(self.rng)
        records: List[SubgraphRecord] = []
        levels: List[LevelRecord] = []
        assignment = self._recurse(graph, 0, gen, records, levels)
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

    def _leaf_payload(self, subgraph: Graph, level: int, seed: int) -> dict:
        return {
            "graph": subgraph,
            "method": self._method_for(subgraph, level),
            "seed": seed,
            "qaoa_options": dict(self.qaoa_options),
            "qaoa_grid": self.qaoa_grid if level == 0 else None,
            "gw_options": dict(self.gw_options),
        }

    def _solve_leaf_payloads(self, payloads: List[dict]) -> List[dict]:
        """Solve a batch of leaf payloads, directly or through the service.

        The service path submits the *same* payloads (same graphs, same
        sequentially-drawn seeds), and its cold solves run the reference
        :func:`_solve_subgraph_job` computation bit-for-bit; only
        caching/coalescing/diagonal-sharing differ.

        Under the ``serial`` executor, when at least
        ``LOCKSTEP_MIN_LEAVES`` payloads are below ``FUSED_MIN_QUBITS``
        nodes, those form one :func:`_solve_lockstep_job`; the rest, and
        every payload under ``thread``/``process`` (whose workers share the
        leaves), are one :func:`_solve_subgraph_job` each.  Results come
        back in submission order either way.
        """
        if self.service is None:
            small = [i for i, p in enumerate(payloads)
                     if p["graph"].n_nodes < FUSED_MIN_QUBITS]
            if self.executor.backend != "serial" or len(small) < LOCKSTEP_MIN_LEAVES:
                return map_jobs(_solve_subgraph_job, payloads, config=self.executor)
            large = [i for i, p in enumerate(payloads)
                     if p["graph"].n_nodes >= FUSED_MIN_QUBITS]
            jobs = [[payloads[i] for i in small]]
            jobs += [payloads[i] for i in large]
            solved = map_jobs(_solve_leaf_job, jobs, config=self.executor)
            flat = (result for job in solved for result in job)
            by_index = dict(zip(small + large, flat, strict=True))
            return [by_index[i] for i in range(len(payloads))]
        if self.service_seeds not in ("request", "canonical"):
            raise ValueError(
                f"unknown service_seeds mode {self.service_seeds!r}; "
                "expected 'request' or 'canonical'"
            )
        from repro.service import SolveRequest

        canonical = self.service_seeds == "canonical"
        requests = [
            SolveRequest(
                graph=payload["graph"],
                method=payload["method"],
                options=dict(payload["qaoa_options"]),
                qaoa_grid=payload["qaoa_grid"],
                gw_options=dict(payload["gw_options"]),
                seed=None if canonical else payload["seed"],
            )
            for payload in payloads
        ]
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
            for res in self.service.solve_many(requests, executor=self.executor)
        ]

    def _recurse(
        self,
        graph: Graph,
        level: int,
        gen: np.random.Generator,
        records: List[SubgraphRecord],
        levels: List[LevelRecord],
    ) -> np.ndarray:
        if level >= self.max_levels:
            raise RuntimeError("QAOA2 recursion exceeded max_levels")
        start = time.perf_counter()
        if graph.n_nodes <= self.n_max_qubits:
            payload = self._leaf_payload(graph, level, int(gen.integers(2**31)))
            result = self._solve_leaf_payloads([payload])[0]
            records.append(
                SubgraphRecord(
                    level=level,
                    part_id=0,
                    n_nodes=graph.n_nodes,
                    n_edges=graph.n_edges,
                    method=result["method"],
                    cut=result["cut"],
                    qaoa_cut=result["qaoa_cut"],
                    gw_cut=result["gw_cut"],
                    gw_average=result["gw_average"],
                    elapsed=result["elapsed"],
                )
            )
            return result["assignment"]

        partition = partition_with_cap(
            graph, self.n_max_qubits, method=self.partition_method, rng=gen
        )
        payloads = []
        for part_id, part in enumerate(partition.parts):
            subgraph, _ = graph.subgraph(part)
            payloads.append(
                (part_id, self._leaf_payload(subgraph, level, int(gen.integers(2**31))))
            )
        results = self._solve_leaf_payloads([p for _, p in payloads])
        local_assignments: List[np.ndarray] = []
        for (part_id, payload), result in zip(payloads, results, strict=True):
            sub = payload["graph"]
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
            local_assignments.append(result["assignment"])

        x = assemble_global_assignment(
            graph.n_nodes, partition.parts, local_assignments
        )
        merge = build_merge_problem(graph, partition.parts, partition.membership, x)
        merged_assignment = self._recurse(
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
    "SubgraphRecord",
    "LevelRecord",
    "QAOA2Result",
    "QAOA2Solver",
    "expected_subproblem_count",
]
