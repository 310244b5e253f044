"""Unit tests for the Fig. 2 coordinator/worker scheme."""

import time

import numpy as np
import pytest

from repro.graphs import cut_value, erdos_renyi
from repro.hpc.coordinator import run_coordinated_qaoa2
from repro.qaoa2 import QAOA2Solver
from repro.qaoa2 import solver as solver_module

FAST_QAOA = {"layers": 2, "maxiter": 20}


def _by_size(graph):
    return "qaoa" if graph.n_nodes >= 6 else "gw"


# id -> (method, qaoa_options)
METHODS = {
    "gw": ("gw", {}),
    "qaoa": ("qaoa", FAST_QAOA),
    "size-policy": (_by_size, FAST_QAOA),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(45, 0.12, rng=19)


@pytest.fixture
def solved_leaves(monkeypatch):
    """Every request a worker solves."""
    requests = []

    def spy(request, original=solver_module._solve_subgraph_job):
        requests.append(request)
        return original(request)

    monkeypatch.setattr(solver_module, "_solve_subgraph_job", spy)
    return requests


class TestCoordinator:
    def test_solution_consistent(self, graph):
        result = run_coordinated_qaoa2(graph, n_workers=2, method="gw", rng=0)
        assert result.cut == pytest.approx(cut_value(graph, result.assignment))

    def test_all_jobs_dispatched(self, graph):
        result = run_coordinated_qaoa2(graph, n_workers=3, method="gw", rng=0)
        assert sum(w.jobs for w in result.worker_stats) == result.n_jobs
        assert result.n_jobs >= 2

    def test_workers_share_load(self, graph):
        result = run_coordinated_qaoa2(graph, n_workers=3, method="gw", rng=0)
        busy = [w.jobs for w in result.worker_stats]
        assert all(jobs >= 1 for jobs in busy)  # dynamic dispatch reaches all

    def test_quality_matches_inprocess_solver(self, graph):
        coordinated = run_coordinated_qaoa2(graph, n_workers=2, method="gw", rng=5)
        inprocess = QAOA2Solver(n_max_qubits=10, subgraph_method="gw", rng=5).solve(
            graph
        )
        assert coordinated.cut == inprocess.cut
        np.testing.assert_array_equal(coordinated.assignment, inprocess.assignment)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_equals_inprocess_solver(self, graph, name, n_workers, solved_leaves):
        method, qaoa_options = METHODS[name]
        coordinated = run_coordinated_qaoa2(
            graph,
            n_workers=n_workers,
            n_max_qubits=8,
            method=method,
            qaoa_options=qaoa_options,
            rng=3,
        )
        # Every level's leaves, the merged graphs' included, went to workers.
        assert len(solved_leaves) == coordinated.n_jobs
        inprocess = QAOA2Solver(
            n_max_qubits=8,
            subgraph_method=method,
            qaoa_options=qaoa_options,
            rng=3,
        ).solve(graph)
        assert coordinated.cut == inprocess.cut
        np.testing.assert_array_equal(coordinated.assignment, inprocess.assignment)
        assert coordinated.n_jobs == inprocess.n_subproblems
        assert sum(w.jobs for w in coordinated.worker_stats) == coordinated.n_jobs
        assert len(inprocess.levels) >= 1
        if name == "size-policy":
            level0 = {rec.method for rec in inprocess.subgraphs if rec.level == 0}
            assert level0 == {"qaoa", "gw"}

    def test_qaoa_method(self, graph):
        result = run_coordinated_qaoa2(
            graph,
            n_workers=2,
            method="qaoa",
            qaoa_options={"layers": 2, "maxiter": 20},
            rng=0,
        )
        assert result.cut > graph.total_weight / 2

    def test_policy_method(self, graph):
        result = run_coordinated_qaoa2(
            graph,
            n_workers=2,
            method=lambda g: "gw",
            rng=0,
        )
        assert result.cut > 0

    def test_unknown_policy_method_raises_before_any_job(self, graph, solved_leaves):
        with pytest.raises(ValueError, match="bogus"):
            run_coordinated_qaoa2(graph, n_workers=2, method=lambda g: "bogus", rng=0)
        assert solved_leaves == []

    def test_worker_failure_raises_its_error(self, graph):
        # The worker's ValueError reaches the caller at once, and every
        # worker rank is stopped (the run returns instead of timing out).
        start = time.perf_counter()
        with pytest.raises(ValueError, match="optimizer"):
            run_coordinated_qaoa2(
                graph,
                n_workers=2,
                method="qaoa",
                qaoa_options={"optimizer": "bogus"},
                rng=0,
            )
        assert time.perf_counter() - start < 10.0

    def test_metrics_populated(self, graph):
        result = run_coordinated_qaoa2(graph, n_workers=2, method="gw", rng=0)
        assert result.wall_time > 0
        assert result.coordinator_time > 0
        assert 0 <= result.coordination_overhead <= 1
        assert result.total_work > 0
        assert sum(w.jobs for w in result.worker_stats) == result.n_jobs

    def test_invalid_worker_count(self, graph):
        with pytest.raises(ValueError, match="worker"):
            run_coordinated_qaoa2(graph, n_workers=0)

    def test_single_worker(self, graph):
        result = run_coordinated_qaoa2(graph, n_workers=1, method="gw", rng=0)
        assert result.worker_stats[0].jobs == result.n_jobs
