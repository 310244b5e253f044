"""Unit tests for checkpoint/restart of QAOA² solves."""

import dataclasses

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.hpc.checkpoint import (
    CheckpointStore,
    checkpointed_qaoa2,
    run_with_checkpoints,
)
from repro.qaoa2 import QAOA2Solver
from repro.qaoa2 import solver as solver_module


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "journal.jsonl")


class TestStore:
    def test_empty_store(self, store):
        assert store.load() == {}

    def test_append_and_load(self, store):
        store.append("a", {"assignment": [0, 1], "cut": 2.0})
        store.append("b", {"assignment": [1, 1], "cut": 0.0})
        loaded = store.load()
        assert set(loaded) == {"a", "b"}
        assert loaded["a"]["cut"] == 2.0

    def test_later_duplicate_wins(self, store):
        store.append("a", {"assignment": [0], "cut": 1.0})
        store.append("a", {"assignment": [1], "cut": 5.0})
        assert store.load()["a"]["cut"] == 5.0

    def test_truncated_record_skipped(self, store):
        store.append("good", {"assignment": [0], "cut": 1.0})
        with store.path.open("a") as fh:
            fh.write('{"key": "bad", "val')  # simulated crash mid-write
        loaded = store.load()
        assert set(loaded) == {"good"}

    def test_clear(self, store):
        store.append("a", {"assignment": [0], "cut": 1.0})
        store.clear()
        assert store.load() == {}
        store.clear()  # idempotent


class TestRunWithCheckpoints:
    def test_all_computed_first_run(self, store):
        calls = []

        def solve(job):
            calls.append(job)
            return {"assignment": np.array([job], dtype=np.uint8), "cut": float(job)}

        results = run_with_checkpoints([1, 0, 1], ["k1", "k2", "k3"], solve, store)
        assert len(calls) == 3
        assert [r["cut"] for r in results] == [1.0, 0.0, 1.0]

    def test_restart_skips_done_work(self, store):
        def solve(job):
            return {"assignment": np.array([0], dtype=np.uint8), "cut": float(job)}

        run_with_checkpoints([10, 20], ["a", "b"], solve, store)

        calls = []

        def solve2(job):
            calls.append(job)
            return {"assignment": np.array([0], dtype=np.uint8), "cut": float(job)}

        results = run_with_checkpoints([10, 20, 30], ["a", "b", "c"], solve2, store)
        assert calls == [30]  # only the new job ran
        assert [r["cut"] for r in results] == [10.0, 20.0, 30.0]

    def test_assignments_roundtrip_as_arrays(self, store):
        def solve(job):
            return {"assignment": np.array([1, 0, 1], dtype=np.uint8), "cut": 2.0}

        run_with_checkpoints([0], ["k"], solve, store)
        results = run_with_checkpoints([0], ["k"], lambda j: None, store)
        assert isinstance(results[0]["assignment"], np.ndarray)
        assert results[0]["assignment"].tolist() == [1, 0, 1]

    def test_record_after_torn_tail_survives(self, store):
        def solve(job):
            return {"assignment": np.array([0], dtype=np.uint8), "cut": float(job)}

        run_with_checkpoints([1], ["a"], solve, store)
        with store.path.open("a") as fh:
            fh.write('{"key": "b", "val')  # crash while journaling b
        run_with_checkpoints([1, 2, 3], ["a", "b", "c"], solve, store)

        calls = []

        def solve_again(job):
            calls.append(job)
            return solve(job)

        results = run_with_checkpoints([1, 2, 3], ["a", "b", "c"], solve_again, store)
        assert calls == []
        assert [r["cut"] for r in results] == [1.0, 2.0, 3.0]

    def test_key_job_mismatch(self, store):
        with pytest.raises(ValueError, match="align"):
            run_with_checkpoints([1, 2], ["only-one"], lambda j: {}, store)


@pytest.fixture
def solved_leaves(monkeypatch):
    """Every leaf payload solved (rather than read from the journal)."""
    payloads = []

    def spy(payload, original=solver_module._solve_subgraph_job):
        payloads.append(payload)
        return original(payload)

    monkeypatch.setattr(solver_module, "_solve_subgraph_job", spy)
    return payloads


def _same_solution(result, reference):
    np.testing.assert_array_equal(result.assignment, reference.assignment)
    assert result.cut == reference.cut

    def fields(result):
        return [
            {**dataclasses.asdict(rec), "elapsed": None} for rec in result.subgraphs
        ]

    assert fields(result) == fields(reference)


class TestQAOA2LevelCheckpointing:
    """``checkpointed_qaoa2`` journals every leaf of every level, keyed by
    everything the leaf's solve reads."""

    GRAPH = erdos_renyi(60, 0.1, rng=8)

    @staticmethod
    def solver(**changes):
        options = {
            "n_max_qubits": 8,
            "qaoa_options": {"layers": 2, "maxiter": 20},
            "rng": 3,
        }
        return QAOA2Solver(**{**options, **changes})

    def test_resume_identical_results(self, store, solved_leaves):
        reference = self.solver().solve(self.GRAPH)
        assert len(reference.levels) >= 2  # leaves at levels 0, 1 and 2
        n_leaves = reference.n_subproblems
        level0 = sum(rec.level == 0 for rec in reference.subgraphs)
        for stop_after in (1, level0 - 1, level0 + 1, n_leaves - 1):
            store.clear()

            def crash(
                payload, stop_after=stop_after, original=solver_module._solve_subgraph_job
            ):
                if len(solved_leaves) == stop_after:
                    raise KeyboardInterrupt  # the node fails
                return original(payload)

            solved_leaves.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver_module, "_solve_subgraph_job", crash)
                with pytest.raises(KeyboardInterrupt):
                    checkpointed_qaoa2(self.solver(), self.GRAPH, store)
            assert len(store.load()) == stop_after

            solved_leaves.clear()
            resumed = checkpointed_qaoa2(self.solver(), self.GRAPH, store)
            assert len(solved_leaves) == n_leaves - stop_after
            _same_solution(resumed, reference)

        solved_leaves.clear()
        again = checkpointed_qaoa2(self.solver(), self.GRAPH, store)
        assert solved_leaves == []
        _same_solution(again, reference)

    def test_changed_seed_recomputes(self, store, solved_leaves):
        checkpointed_qaoa2(self.solver(), self.GRAPH, store)
        n_before = len(store.load())
        solved_leaves.clear()
        reseeded = checkpointed_qaoa2(self.solver(rng=4), self.GRAPH, store)
        assert len(solved_leaves) == reseeded.n_subproblems
        assert len(store.load()) == n_before + reseeded.n_subproblems

    def test_changed_options_recompute(self, store, solved_leaves):
        checkpointed_qaoa2(self.solver(), self.GRAPH, store)
        solved_leaves.clear()
        deeper = self.solver(qaoa_options={"layers": 3, "maxiter": 20})
        result = checkpointed_qaoa2(deeper, self.GRAPH, store)
        assert len(solved_leaves) == result.n_subproblems
        _same_solution(result, deeper.solve(self.GRAPH))
