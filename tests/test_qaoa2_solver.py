"""Unit tests for the QAOA² driver."""

import dataclasses

import numpy as np
import pytest

from repro.graphs import Graph, cut_value, erdos_renyi, planted_partition, random_cut
from repro.hpc.executor import ExecutorConfig
from repro.qaoa import MaxCutEnergy
from repro.qaoa2 import (
    QAOA2Solver,
    expected_subproblem_count,
)
from repro.qaoa2 import solver as solver_module
from repro.qaoa2.solver import (
    LOCKSTEP_MIN_LEAVES,
    _solve_lockstep_job,
    _solve_subgraph_job,
)
from repro.quantum.backend import FUSED_MIN_QUBITS, available_backends, get_backend

FAST_QAOA = {"layers": 2, "maxiter": 20}


class TestBasics:
    def test_cut_consistency(self, er_medium):
        result = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=0).solve(
            er_medium
        )
        assert result.cut == pytest.approx(cut_value(er_medium, result.assignment))

    def test_small_graph_single_leaf(self, er_small):
        result = QAOA2Solver(n_max_qubits=20, subgraph_method="gw", rng=0).solve(
            er_small
        )
        assert result.n_subproblems == 1
        assert len(result.levels) == 0

    def test_beats_random_cut(self, er_medium):
        result = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=0).solve(
            er_medium
        )
        rnd = random_cut(er_medium, rng=0)
        assert result.cut > rnd.cut

    def test_beats_half_weight_bound(self, er_medium):
        # Any sensible MaxCut heuristic beats E[random] = W/2 here.
        result = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=1).solve(
            er_medium
        )
        assert result.cut > er_medium.total_weight / 2

    @pytest.mark.parametrize("method", ["qaoa", "gw", "best"])
    def test_all_methods_run(self, er_medium, method):
        result = QAOA2Solver(
            n_max_qubits=10,
            subgraph_method=method,
            qaoa_options=FAST_QAOA,
            rng=0,
        ).solve(er_medium)
        assert result.cut > 0
        assert result.n_subproblems >= 2

    def test_best_picks_max_per_subgraph(self, er_medium):
        result = QAOA2Solver(
            n_max_qubits=10,
            subgraph_method="best",
            qaoa_options=FAST_QAOA,
            rng=0,
        ).solve(er_medium)
        for rec in result.subgraphs:
            if rec.method.startswith("best:"):
                assert rec.cut == pytest.approx(max(rec.qaoa_cut, rec.gw_cut))

    def test_policy_callable(self, er_medium):
        calls = []

        def policy(subgraph):
            calls.append(subgraph.n_nodes)
            return "gw"

        result = QAOA2Solver(
            n_max_qubits=10, subgraph_method=policy, rng=0
        ).solve(er_medium)
        level0 = [rec for rec in result.subgraphs if rec.level == 0]
        # The policy is consulted once per first-level sub-graph.
        assert len(calls) == len(level0) > 0
        assert all(rec.method == "gw" for rec in level0)

    def test_invalid_policy_return(self, er_medium):
        result_solver = QAOA2Solver(
            n_max_qubits=10, subgraph_method=lambda g: "magic", rng=0
        )
        with pytest.raises(ValueError, match="unknown method"):
            result_solver.solve(er_medium)

    def test_unknown_static_method(self, er_medium):
        with pytest.raises(ValueError, match="unknown sub-graph method"):
            QAOA2Solver(n_max_qubits=10, subgraph_method="oracle", rng=0).solve(
                er_medium
            )

    def test_deterministic_with_seed(self, er_medium):
        a = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=3).solve(er_medium)
        b = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=3).solve(er_medium)
        assert a.cut == b.cut
        assert np.array_equal(a.assignment, b.assignment)


class TestRecursion:
    def test_multi_level_recursion(self):
        # 80 nodes, cap 6 -> ~14 parts -> merged graph 14 > 6 -> level 2.
        g = erdos_renyi(80, 0.08, rng=4)
        result = QAOA2Solver(n_max_qubits=6, subgraph_method="gw", rng=0).solve(g)
        assert len(result.levels) >= 2
        max_level = max(rec.level for rec in result.subgraphs)
        assert max_level >= 1

    def test_deeper_levels_use_merged_method(self):
        g = erdos_renyi(80, 0.08, rng=4)
        result = QAOA2Solver(
            n_max_qubits=6,
            subgraph_method="qaoa",
            merged_method="gw",
            qaoa_options=FAST_QAOA,
            rng=0,
        ).solve(g)
        for rec in result.subgraphs:
            if rec.level > 0:
                assert rec.method == "gw"

    def test_level_accounting(self, er_medium):
        result = QAOA2Solver(n_max_qubits=8, subgraph_method="gw", rng=0).solve(
            er_medium
        )
        for level in result.levels:
            assert level.n_parts >= 2
            assert level.merged_nodes == level.n_parts
            assert level.merged_gain >= 0.0

    def test_subgraph_records_sizes(self, er_medium):
        result = QAOA2Solver(n_max_qubits=8, subgraph_method="gw", rng=0).solve(
            er_medium
        )
        level0 = [rec for rec in result.subgraphs if rec.level == 0]
        assert sum(rec.n_nodes for rec in level0) == er_medium.n_nodes
        assert all(rec.n_nodes <= 8 for rec in level0)

    def test_expected_subproblem_formula(self):
        assert expected_subproblem_count(100, 10) == pytest.approx(
            100 * (10 - 1) / (10 * 9)
        )
        assert expected_subproblem_count(5, 10) == 1.0
        # a=1 for N=100, n=10 -> N/n = 10 subproblems
        assert expected_subproblem_count(100, 10) == pytest.approx(10.0)

    def test_planted_partition_high_quality(self):
        # Graph with clean communities: QAOA² should get near the bipartite
        # structure quality of a global method.
        g = planted_partition(48, 6, 0.7, 0.05, rng=5)
        result = QAOA2Solver(n_max_qubits=8, subgraph_method="gw", rng=0).solve(g)
        from repro.classical import goemans_williamson

        gw_full = goemans_williamson(g, rng=0)
        assert result.cut >= 0.8 * gw_full.best_cut


class TestParallelBackends:
    def test_thread_backend_matches_serial(self, er_medium):
        serial = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=7).solve(
            er_medium
        )
        threaded = QAOA2Solver(
            n_max_qubits=10,
            subgraph_method="gw",
            rng=7,
            executor=ExecutorConfig(backend="thread", max_workers=4),
        ).solve(er_medium)
        assert serial.cut == threaded.cut
        assert np.array_equal(serial.assignment, threaded.assignment)

    @pytest.mark.slow
    def test_process_backend_matches_serial(self, er_medium):
        serial = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=7).solve(
            er_medium
        )
        procs = QAOA2Solver(
            n_max_qubits=10,
            subgraph_method="gw",
            rng=7,
            executor=ExecutorConfig(backend="process", max_workers=2),
        ).solve(er_medium)
        assert serial.cut == procs.cut


class TestQaoaGrid:
    def test_grid_improves_or_matches_single(self, er_medium):
        single = QAOA2Solver(
            n_max_qubits=8, subgraph_method="qaoa", qaoa_options=FAST_QAOA, rng=5
        ).solve(er_medium)
        grid = QAOA2Solver(
            n_max_qubits=8,
            subgraph_method="qaoa",
            qaoa_options=FAST_QAOA,
            qaoa_grid=[{"rhobeg": 0.3}, {"rhobeg": 0.5}, {"layers": 3}],
            rng=5,
        ).solve(er_medium)
        # Per-subgraph best-over-grid can only help on the subgraph level;
        # allow small global slack from different merged problems.
        assert grid.cut >= single.cut - 2.0


def _disjoint_union(*graphs, isolated=0):
    """The graphs side by side, plus ``isolated`` nodes without edges."""
    edges, offset = [], 0
    for g in graphs:
        edges += [
            (u + offset, v + offset, w)
            for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist(), strict=True)
        ]
        offset += g.n_nodes
    return Graph.from_edges(offset + isolated, edges)


# name -> (graph, QAOA2Solver options); level-0 leaves are QAOA leaves, at
# least LOCKSTEP_MIN_LEAVES of them below FUSED_MIN_QUBITS nodes.  From
# rhobeg 0.01, COBYLA converges after a leaf-dependent number of
# evaluations: groups lose members mid-run, and in the grid case leaves of
# one size run p=2 and p=3 in the same round.
LOCKSTEP_CASES = {
    "unweighted": (
        erdos_renyi(40, 0.15, rng=1),
        {"n_max_qubits": 8,
         "qaoa_options": {"layers": 2, "maxiter": 200, "rhobeg": 0.01}},
    ),
    "weighted-best": (
        erdos_renyi(40, 0.15, weighted=True, rng=1),
        {"n_max_qubits": 8, "subgraph_method": "best",
         "qaoa_options": {"layers": 2, "maxiter": 200, "rhobeg": 0.01}},
    ),
    "grid-of-layers-2-and-3": (
        erdos_renyi(40, 0.15, weighted=True, rng=2),
        {"n_max_qubits": 8, "qaoa_options": {"layers": 2, "maxiter": 20},
         "qaoa_grid": [{"rhobeg": 0.01, "maxiter": 200}, {"layers": 3}]},
    ),
    "edgeless-leaves": (
        _disjoint_union(
            erdos_renyi(12, 0.4, rng=5),
            erdos_renyi(9, 0.5, weighted=True, rng=6),
            isolated=2,
        ),
        {"n_max_qubits": 8, "qaoa_options": {"layers": 2, "maxiter": 20}},
    ),
    "layers-1": (
        erdos_renyi(30, 0.2, rng=3),
        {"n_max_qubits": 8, "qaoa_options": {"layers": 1, "maxiter": 20}},
    ),
    "spsa": (
        erdos_renyi(30, 0.2, rng=3),
        {"n_max_qubits": 8,
         "qaoa_options": {"layers": 2, "maxiter": 20, "optimizer": "spsa"}},
    ),
    "straddles-fused-min-qubits": (
        _disjoint_union(
            erdos_renyi(15, 0.5, rng=7),
            erdos_renyi(7, 0.6, rng=8),
            erdos_renyi(7, 0.5, rng=9),
            *(erdos_renyi(7, 0.5, rng=seed) for seed in range(10, 14)),
        ),
        {"n_max_qubits": 16, "qaoa_options": {"layers": 2, "maxiter": 10}},
    ),
}


@pytest.fixture
def stacked_evolutions(monkeypatch):
    """(rows, qubits) of every ``evolve_batch`` call on a per-row diagonal
    stack, on every registered backend."""
    calls = []
    for name in available_backends():
        backend = get_backend(name)

        def spy(diagonal, params_matrix, *, pool=None, original=backend.evolve_batch):
            if np.ndim(diagonal) == 2:
                calls.append((len(diagonal), int(diagonal.shape[1]).bit_length() - 1))
            return original(diagonal, params_matrix, pool=pool)

        monkeypatch.setattr(backend, "evolve_batch", spy)
    return calls


@pytest.fixture
def lockstep_jobs(monkeypatch):
    """The payload count of every lock-step job run."""
    jobs = []

    def spy(payloads, original=solver_module._solve_lockstep_job):
        jobs.append(len(payloads))
        return original(payloads)

    monkeypatch.setattr(solver_module, "_solve_lockstep_job", spy)
    return jobs


def _same_solution(result, reference):
    np.testing.assert_array_equal(result.assignment, reference.assignment)
    assert result.cut == reference.cut

    def fields(result):
        return [
            {**dataclasses.asdict(rec), "elapsed": None} for rec in result.subgraphs
        ]

    assert fields(result) == fields(reference)


class TestLockstepLeaves:
    """Under the serial executor, a level's small QAOA leaves step together
    when there are at least LOCKSTEP_MIN_LEAVES of them; that must equal
    solving each leaf alone, which the thread executor still does."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_lockstep_equals_per_leaf(self, name, stacked_evolutions, lockstep_jobs):
        graph, options = LOCKSTEP_CASES[name]
        lockstep = QAOA2Solver(rng=3, **options).solve(graph)
        stepped = list(stacked_evolutions)
        stacked_evolutions.clear()
        assert lockstep_jobs and min(lockstep_jobs) >= LOCKSTEP_MIN_LEAVES
        lockstep_jobs.clear()
        per_leaf = QAOA2Solver(
            rng=3, executor=ExecutorConfig("thread", 2), **options
        ).solve(graph)
        assert stacked_evolutions == [] and lockstep_jobs == []

        _same_solution(lockstep, per_leaf)
        leaves = [rec for rec in lockstep.subgraphs if rec.level == 0]
        if name in ("layers-1", "spsa"):
            assert stepped == []  # neither objective is asked for
        else:
            assert max(rows for rows, _ in stepped) > 1
            assert all(n < FUSED_MIN_QUBITS for _, n in stepped)
        if name == "edgeless-leaves":
            assert any(rec.n_edges == 0 for rec in leaves)
        if name == "straddles-fused-min-qubits":
            sizes = {rec.n_nodes >= FUSED_MIN_QUBITS for rec in leaves}
            assert sizes == {False, True}

    def test_too_few_small_leaves_run_alone(self, stacked_evolutions, lockstep_jobs):
        graph = _disjoint_union(
            erdos_renyi(15, 0.5, rng=7),
            erdos_renyi(7, 0.6, rng=8),
            erdos_renyi(7, 0.5, rng=9),
        )
        options = {"n_max_qubits": 16, "qaoa_options": {"layers": 2, "maxiter": 10}}
        serial = QAOA2Solver(rng=3, **options).solve(graph)
        small = [
            rec for rec in serial.subgraphs
            if rec.level == 0 and rec.n_nodes < FUSED_MIN_QUBITS
        ]
        assert 1 < len(small) < LOCKSTEP_MIN_LEAVES
        assert lockstep_jobs == [] and stacked_evolutions == []
        per_leaf = QAOA2Solver(
            rng=3, executor=ExecutorConfig("thread", 2), **options
        ).solve(graph)
        _same_solution(serial, per_leaf)

    @pytest.mark.parametrize(
        "grid", [None, [{}, {"layers": 3}]], ids=["single", "layers-2-and-3"]
    )
    def test_job_equals_per_leaf_jobs(self, grid):
        # Every output of the job, the best parameters included, equals the
        # per-leaf job's: a row answered from another leaf's diagonal
        # moves them even where the cut stays.
        graphs = [
            erdos_renyi(n, 0.6, weighted=True, rng=seed)
            for seed, n in enumerate([7, 7, 7, 7, 5, 5, 3, 2])
        ]
        payloads = [
            {"graph": g, "method": "qaoa", "seed": 11 + k, "qaoa_grid": grid,
             "qaoa_options": {"layers": 2, "maxiter": 200, "rhobeg": 0.01},
             "gw_options": {}}
            for k, g in enumerate(graphs)
        ]
        for together, alone in zip(
            _solve_lockstep_job(payloads),
            [_solve_subgraph_job(payload) for payload in payloads],
            strict=True,
        ):
            np.testing.assert_array_equal(together.pop("assignment"), alone.pop("assignment"))
            assert {**together, "elapsed": None} == {**alone, "elapsed": None}


@pytest.fixture
def evaluator_builds(monkeypatch):
    """Cut diagonals built, per module that builds them, and every
    MaxCutEnergy constructed."""
    import repro.qaoa.energy as energy_module
    import repro.qaoa.engine as engine_module

    diagonals = {"engine": 0, "energy": 0}
    energies = []
    for name, module in (("engine", engine_module), ("energy", energy_module)):

        def counted(graph, name=name, original=module.cut_diagonal):
            diagonals[name] += 1
            return original(graph)

        monkeypatch.setattr(module, "cut_diagonal", counted)

    def spy(self, *args, original=MaxCutEnergy.__init__, **kwargs):
        original(self, *args, **kwargs)
        energies.append(self)

    monkeypatch.setattr(MaxCutEnergy, "__init__", spy)
    return diagonals, energies


class TestOneDiagonalPerLeaf:
    """A leaf job builds its sub-graph's cut diagonal once, in the engine,
    and every objective of its option grid evaluates over that engine."""

    @staticmethod
    def payload(graph, seed):
        return {"graph": graph, "method": "qaoa", "seed": seed,
                "qaoa_grid": [{}, {"layers": 1}, {"layers": 3}],
                "qaoa_options": {"layers": 2, "maxiter": 20}, "gw_options": {}}

    def test_subgraph_job(self, evaluator_builds):
        diagonals, energies = evaluator_builds
        graph = erdos_renyi(8, 0.5, rng=4)
        _solve_subgraph_job(self.payload(graph, 1))
        assert diagonals == {"engine": 1, "energy": 0}
        assert len(energies) == 3
        assert energies[0].engine.graph is graph
        assert all(energy.engine is energies[0].engine for energy in energies)

    def test_lockstep_job(self, evaluator_builds):
        diagonals, energies = evaluator_builds
        graphs = [erdos_renyi(8, 0.5, rng=4), erdos_renyi(7, 0.5, rng=5)]
        _solve_lockstep_job([self.payload(g, k) for k, g in enumerate(graphs)])
        assert diagonals == {"engine": 2, "energy": 0}
        assert len(energies) == 6
        engines = []
        for graph in graphs:
            own = [energy for energy in energies if energy.graph is graph]
            assert len(own) == 3
            assert own[0].engine.graph is graph
            assert all(energy.engine is own[0].engine for energy in own)
            engines.append(own[0].engine)
        assert engines[0] is not engines[1]
