"""MaxCutService: cache correctness, coalescing, batching, QAOA² parity."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.service.scheduler as scheduler_module
from repro.graphs import erdos_renyi
from repro.graphs.maxcut import cut_value
from repro.hpc.executor import ExecutorConfig
from repro.qaoa2 import QAOA2Solver
from repro.qaoa2.solver import LOCKSTEP_MIN_LEAVES, _solve_subgraph_job
from repro.service import MaxCutService, SolveRequest, TraceRecorder, zipf_requests
from repro.util.tracing import NO_TRACE, TraceContext

from test_qaoa2_solver import _same_solution

OPTIONS = {"layers": 2, "maxiter": 25}


@pytest.fixture
def graph():
    return erdos_renyi(12, 0.35, weighted=True, rng=7)


# ---------------------------------------------------------------------------
# Cache correctness (ISSUE 4 satellite: property-style tests a/b/c)
# ---------------------------------------------------------------------------
class TestCacheCorrectness:
    def test_hit_is_bit_identical_to_cold_solve(self, graph):
        """(a) A cache hit returns a bit-identical CutResult."""
        service = MaxCutService(seed=0)
        cold = service.solve(graph, seed=3, **OPTIONS)
        hit = service.solve(graph, seed=3, **OPTIONS)
        assert cold.status == "solved" and hit.status == "hit-memory"
        assert hit.cut == cold.cut
        assert np.array_equal(hit.assignment, cold.assignment)
        assert hit.assignment.dtype == cold.assignment.dtype
        # And the cold solve itself is the reference computation.
        request = SolveRequest(graph=graph, options=dict(OPTIONS), seed=3)
        solo = _solve_subgraph_job(request)
        assert cold.cut == solo["cut"]
        assert np.array_equal(cold.assignment, solo["assignment"])

    @pytest.mark.parametrize("seed", range(3))
    def test_isomorphic_relabeling_hits_and_unrelabels(self, seed):
        """(b) A relabeled-isomorphic graph hits the same entry and the
        returned assignment is correctly un-relabeled."""
        graph = erdos_renyi(13, 0.3, weighted=True, rng=seed)
        perm = np.random.default_rng(100 + seed).permutation(13)
        relabeled = graph.relabel(perm)
        service = MaxCutService(seed=0)
        cold = service.solve(graph, seed=5, **OPTIONS)
        hit = service.solve(relabeled, seed=5, **OPTIONS)
        assert hit.status == "hit-memory"
        assert service.metrics.count("misses") == 1
        # Same cut value, and the un-relabeled assignment actually
        # achieves it on the relabeled graph.
        assert hit.cut == cold.cut
        assert cut_value(relabeled, hit.assignment) == pytest.approx(
            hit.cut, abs=1e-9
        )

    def test_coalesced_submissions_share_one_result(self, graph):
        """(c) Coalesced concurrent submissions all receive the same
        result."""
        service = MaxCutService(seed=0)
        results = service.solve_many(
            [SolveRequest(graph=graph, options=dict(OPTIONS), seed=9) for _ in range(4)]
        )
        assert service.metrics.count("misses") == 1
        assert service.metrics.count("coalesced") == 3
        owner, rest = results[0], results[1:]
        assert owner.status == "solved"
        for res in rest:
            assert res.status == "coalesced"
            assert res.cut == owner.cut
            assert res.assignment is owner.assignment  # same object, by design

    def test_derived_seeds_are_order_independent(self, graph):
        """seed=None derives from content: order/concurrency irrelevant."""
        other = erdos_renyi(12, 0.35, weighted=True, rng=8)
        a = MaxCutService(seed=42)
        fwd = a.solve_many(
            [SolveRequest(graph=graph, options=OPTIONS),
             SolveRequest(graph=other, options=OPTIONS)]
        )
        b = MaxCutService(seed=42)
        rev = b.solve_many(
            [SolveRequest(graph=other, options=OPTIONS),
             SolveRequest(graph=graph, options=OPTIONS)]
        )
        assert fwd[0].cut == rev[1].cut and fwd[0].seed == rev[1].seed
        assert fwd[1].cut == rev[0].cut and fwd[1].seed == rev[0].seed
        assert np.array_equal(fwd[0].assignment, rev[1].assignment)

    def test_derived_seeds_shared_across_isomorphs(self, graph):
        service = MaxCutService(seed=0)
        relabeled = graph.relabel(
            np.random.default_rng(4).permutation(graph.n_nodes)
        )
        first = service.solve(graph, **OPTIONS)
        second = service.solve(relabeled, **OPTIONS)
        assert second.status == "hit-memory"
        assert second.seed == first.seed

    def test_thread_executor_matches_serial(self, graph):
        requests = [
            SolveRequest(graph=erdos_renyi(11, 0.35, weighted=True, rng=k),
                         options=OPTIONS, seed=k)
            for k in range(4)
        ]
        serial = MaxCutService(seed=0).solve_many(requests)
        threaded = MaxCutService(
            seed=0, executor=ExecutorConfig(backend="thread", max_workers=3)
        ).solve_many(requests)
        for a, b in zip(serial, threaded, strict=True):
            assert a.cut == b.cut
            assert np.array_equal(a.assignment, b.assignment)

    def test_process_executor_matches_serial(self):
        """Requests pickled into worker processes give the serial answers,
        and each request keeps its own trace: the service traces copies of
        its callers' requests, and the scheduler sends the workers copies
        without traces."""
        requests = [
            SolveRequest(graph=erdos_renyi(11, 0.35, weighted=True, rng=k),
                         options=OPTIONS, seed=k)
            for k in range(3)
        ]
        serial = MaxCutService(seed=0).solve_many(requests)
        service = MaxCutService(
            seed=0, executor=ExecutorConfig("process", 2), traces=TraceRecorder()
        )
        pooled = service.solve_many(requests)
        assert service.metrics.count("executor_retries") == 0
        for a, b in zip(serial, pooled, strict=True):
            assert b.status == "solved"
            assert a.cut == b.cut and a.params == b.params
            assert np.array_equal(a.assignment, b.assignment)
        assert service.traces.recorded_total == len(requests)
        assert all(request.trace is NO_TRACE for request in requests)
        # The scheduler itself strips traces on copies, never on the
        # requests it is handed.
        traced = [replace(request, trace=TraceContext()) for request in requests]
        traces = [request.trace for request in traced]
        service.scheduler.run(traced)
        assert all(r.trace is t for r, t in zip(traced, traces, strict=True))

    def test_seedless_request_needs_the_service(self, graph):
        """A leaf job needs an explicit seed; the service derives one."""
        request = SolveRequest(graph=graph, options=dict(OPTIONS))
        with pytest.raises(ValueError, match="seed"):
            _solve_subgraph_job(request)
        result = MaxCutService(seed=0).solve(request=request)
        assert result.status == "solved" and request.seed is None
        solo = _solve_subgraph_job(replace(request, seed=result.seed))
        assert result.cut == solo["cut"]
        assert np.array_equal(result.assignment, solo["assignment"])

    def test_disk_tier_survives_restart(self, graph, tmp_path):
        first = MaxCutService(seed=0, disk_dir=tmp_path)
        cold = first.solve(graph, seed=2, **OPTIONS)
        second = MaxCutService(seed=0, disk_dir=tmp_path)
        warm = second.solve(graph, seed=2, **OPTIONS)
        assert warm.status == "hit-disk"
        assert warm.cut == cold.cut
        assert np.array_equal(warm.assignment, cold.assignment)

    def test_use_cache_false_always_solves(self, graph):
        service = MaxCutService(seed=0, use_cache=False)
        service.solve(graph, seed=1, **OPTIONS)
        again = service.solve(graph, seed=1, **OPTIONS)
        assert again.status == "solved"
        assert service.metrics.count("hits_memory") == 0


# ---------------------------------------------------------------------------
# Batching: a service cold solve is the reference job
# ---------------------------------------------------------------------------
SPSA = {"layers": 2, "maxiter": 40, "optimizer": "spsa"}


class TestBatching:
    @pytest.mark.parametrize(
        "executor",
        [ExecutorConfig("serial"), ExecutorConfig("thread", 2)],
        ids=["serial", "thread"],
    )
    @pytest.mark.parametrize(
        ("method", "options", "grid"),
        [
            pytest.param("qaoa", SPSA, None, id="spsa"),
            pytest.param("qaoa", OPTIONS, None, id="cobyla-p2"),
            pytest.param("qaoa", {"layers": 1, "maxiter": 25}, None,
                         id="p1-analytic"),
            pytest.param("qaoa", {**SPSA, "n_starts": 2}, None,
                         id="spsa-2-starts"),
            pytest.param("qaoa", OPTIONS, [{"rhobeg": 0.3}, {"rhobeg": 0.8}],
                         id="grid"),
            pytest.param("best", OPTIONS, None, id="best"),
        ],
    )
    def test_batched_solves_equal_solo_bit_for_bit(
        self, graph, method, options, grid, executor
    ):
        """Same-graph requests solved in one batch (sharing a diagonal)
        each equal the unshared reference job, parameters included."""
        service = MaxCutService(seed=0, executor=executor)
        requests = [
            SolveRequest(graph=graph, method=method, options=options,
                         qaoa_grid=grid, seed=s)
            for s in (1, 2, 3)
        ]
        batched = service.solve_many(requests)
        assert service.metrics.count("solves") == 3
        assert service.metrics.count("shared_diagonals") == 3
        for req, res in zip(requests, batched, strict=True):
            solo = _solve_subgraph_job(req)
            assert res.status == "solved"
            assert res.method == solo["method"]
            assert res.cut == solo["cut"]
            assert np.array_equal(res.assignment, solo["assignment"])
            assert res.params == solo["params"]

    def test_mixed_batch_routes_correctly(self, graph):
        """SPSA and COBYLA jobs in one batch each get their own solve."""
        service = MaxCutService(seed=0)
        requests = [
            SolveRequest(graph=graph, options=SPSA, seed=1),
            SolveRequest(graph=graph, options=SPSA, seed=2),
            SolveRequest(graph=graph, options=OPTIONS, seed=3),
        ]
        out = service.solve_many(requests)
        assert service.metrics.count("solves") == 3
        for req, res in zip(requests, out, strict=True):
            solo = _solve_subgraph_job(req)
            assert res.cut == solo["cut"]
            assert res.params == solo["params"]

    def test_shared_diagonal_jobs_bit_identical(self, graph):
        """Same-graph generic jobs share one cut diagonal; results match
        the unshared reference exactly."""
        service = MaxCutService(seed=0)
        requests = [
            SolveRequest(graph=graph, options=OPTIONS, seed=s) for s in (1, 2)
        ]
        out = service.solve_many(requests)
        assert service.metrics.count("shared_diagonals") == 2
        for req, res in zip(requests, out, strict=True):
            solo = _solve_subgraph_job(req)
            assert res.cut == solo["cut"]
            assert np.array_equal(res.assignment, solo["assignment"])


@pytest.fixture
def scheduler_jobs(monkeypatch):
    """The size of every job the service's scheduler dispatches, per batch."""
    batches = []

    def spy(fn, jobs, config=None, original=scheduler_module.map_jobs):
        batches.append([len(job) for job in jobs])
        return original(fn, jobs, config=config)

    monkeypatch.setattr(scheduler_module, "map_jobs", spy)
    return batches


class TestSchedulerLockstep:
    """Under the serial executor the scheduler dispatches the direct QAOA²
    solve's jobs: at least LOCKSTEP_MIN_LEAVES small cold requests form one
    lock-step job, which must equal the reference job per request."""

    GRAPHS = [
        erdos_renyi(n, 0.5, weighted=True, rng=40 + n) for n in range(5, 12)
    ]

    @staticmethod
    def requests(graphs, **changes):
        return [
            SolveRequest(graph=g, options=dict(OPTIONS), seed=k, **changes)
            for k, g in enumerate(graphs)
        ]

    @staticmethod
    def assert_reference(request, result):
        solo = _solve_subgraph_job(request)
        assert result.status == "solved"
        assert result.cut == solo["cut"]
        assert np.array_equal(result.assignment, solo["assignment"])
        assert result.params == solo["params"]

    @pytest.mark.parametrize("n_requests", [LOCKSTEP_MIN_LEAVES, 7])
    def test_lockstep_job_equals_reference(self, n_requests, scheduler_jobs):
        requests = self.requests(self.GRAPHS[:n_requests])
        service = MaxCutService(seed=0)
        results = service.solve_many(requests)
        assert scheduler_jobs == [[n_requests]]
        # A failing lock-step job is retried one request at a time, which
        # also equals the reference: only this counter shows the fallback.
        assert service.metrics.count("executor_retries") == 0
        for request, result in zip(requests, results, strict=True):
            self.assert_reference(request, result)

    @pytest.mark.parametrize(
        ("n_requests", "executor"),
        [(LOCKSTEP_MIN_LEAVES - 1, ExecutorConfig("serial")),
         (LOCKSTEP_MIN_LEAVES, ExecutorConfig("thread", 2))],
        ids=["too-few", "thread"],
    )
    def test_one_job_per_request(self, n_requests, executor, scheduler_jobs):
        requests = self.requests(self.GRAPHS[:n_requests])
        results = MaxCutService(seed=0, executor=executor).solve_many(requests)
        assert scheduler_jobs == [[1] * n_requests]
        for request, result in zip(requests, results, strict=True):
            self.assert_reference(request, result)

    def test_each_member_traces_one_solve_span(self):
        requests = self.requests(self.GRAPHS)
        service = MaxCutService(seed=0, traces=TraceRecorder())
        service.solve_many(requests)
        for trace in service.traces.last(len(requests)):
            solves = [s for s in trace.iter_spans() if s.name == "solve"]
            assert len(solves) == 1
            assert solves[0].attrs["leaves"] == len(self.GRAPHS)

    def test_poisoned_request_errors_alone(self, scheduler_jobs):
        requests = self.requests(self.GRAPHS)
        requests[2] = SolveRequest(
            graph=requests[2].graph, options={**OPTIONS, "optimizer": "bogus"}, seed=2
        )
        service = MaxCutService(
            seed=0, error_mode="capture", traces=TraceRecorder()
        )
        results = service.solve_many(requests)
        assert scheduler_jobs == [[len(requests)]]  # then one request at a time
        assert service.metrics.count("executor_retries") == 1
        assert [r.failed for r in results] == [k == 2 for k in range(len(requests))]
        assert "unknown optimizer 'bogus'" in results[2].extra["error"]
        traces = service.traces.last(len(requests))
        for k, (request, result) in enumerate(zip(requests, results, strict=True)):
            if k != 2:
                self.assert_reference(request, result)
                solves = [s for s in traces[k].iter_spans() if s.name == "solve"]
                assert len(solves) == 1


# ---------------------------------------------------------------------------
# QAOA² through the service (acceptance criterion: identical cut values)
# ---------------------------------------------------------------------------
class TestQAOA2ServicePath:
    @pytest.mark.parametrize(
        "qaoa_options",
        [
            {"layers": 2, "maxiter": 20},
            {"layers": 1, "maxiter": 25, "optimizer": "spsa"},
        ],
    )
    def test_service_path_identical_to_direct(self, er_medium, qaoa_options):
        direct = QAOA2Solver(
            n_max_qubits=8, qaoa_options=dict(qaoa_options), rng=11
        ).solve(er_medium)
        service = MaxCutService(seed=0)
        served = QAOA2Solver(
            n_max_qubits=8, qaoa_options=dict(qaoa_options),
            service=service, rng=11,
        ).solve(er_medium)
        assert served.cut == direct.cut
        assert np.array_equal(served.assignment, direct.assignment)
        assert served.n_subproblems == direct.n_subproblems
        assert service.metrics.count("requests") == served.n_subproblems

    def test_qaoa2_executor_passes_through_service(self, er_medium):
        """--backend thread keeps its meaning on the service path."""
        direct = QAOA2Solver(
            n_max_qubits=8, qaoa_options={"layers": 2, "maxiter": 20}, rng=11,
        ).solve(er_medium)
        served = QAOA2Solver(
            n_max_qubits=8, qaoa_options={"layers": 2, "maxiter": 20},
            executor=ExecutorConfig(backend="thread", max_workers=3),
            service=MaxCutService(seed=0), rng=11,
        ).solve(er_medium)
        assert served.cut == direct.cut
        assert np.array_equal(served.assignment, direct.assignment)

    def test_repeat_runs_hit_cache(self, er_medium):
        service = MaxCutService(seed=0)
        solver = QAOA2Solver(
            n_max_qubits=8, qaoa_options={"layers": 2, "maxiter": 20},
            service=service, rng=11,
        )
        first = solver.solve(er_medium)
        misses = service.metrics.count("misses")
        second = solver.solve(er_medium)
        assert second.cut == first.cut
        assert service.metrics.count("misses") == misses  # all hits
        assert service.metrics.count("hits_memory") >= first.n_subproblems

    def test_capture_mode_leaf_error_raises(self):
        """A leaf the service answers with an error is not merged as if
        solved: the solve raises with the leaf's error text."""
        graph = erdos_renyi(40, 0.15, rng=1)
        options = {"n_max_qubits": 8, "qaoa_options": {"optimizer": "bogus"}, "rng": 0}
        with pytest.raises(ValueError, match="unknown optimizer 'bogus'"):
            QAOA2Solver(**options).solve(graph)
        service = MaxCutService(seed=0, error_mode="capture")
        with pytest.raises(RuntimeError, match="unknown optimizer 'bogus'"):
            QAOA2Solver(service=service, **options).solve(graph)
        assert service.metrics.count("errors") > 0


class TestQAOA2Restart:
    """A disk-backed service is a QAOA² solve's checkpoint: the same solve
    on a fresh service over the same directory answers each finished batch
    (one level) from disk, solves the rest, and equals the direct solve."""

    GRAPH = erdos_renyi(60, 0.1, rng=8)

    @staticmethod
    def solver(service, **changes):
        options = {
            "n_max_qubits": 8,
            "qaoa_options": {"layers": 2, "maxiter": 20},
            "rng": 3,
        }
        return QAOA2Solver(service=service, **{**options, **changes})

    def test_resume_identical_results(self, tmp_path):
        reference = self.solver(None).solve(self.GRAPH)
        batches = [
            sum(rec.level == level for rec in reference.subgraphs)
            for level in range(len(reference.levels) + 1)
        ]
        assert batches == [18, 3, 1]
        for stop_before in range(len(batches)):
            directory = tmp_path / f"stop-before-{stop_before}"
            started = []  # batches dispatched before the crash

            def crash(
                fn, jobs, config=None, started=started, stop_before=stop_before,
                original=scheduler_module.map_jobs,
            ):
                if len(started) == stop_before:
                    raise KeyboardInterrupt  # the node fails
                started.append(len(jobs))
                return original(fn, jobs, config=config)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scheduler_module, "map_jobs", crash)
                with pytest.raises(KeyboardInterrupt):
                    self.solver(MaxCutService(disk_dir=directory)).solve(self.GRAPH)

            service = MaxCutService(disk_dir=directory)
            resumed = self.solver(service).solve(self.GRAPH)
            _same_solution(resumed, reference)
            assert service.metrics.count("hits_disk") == sum(batches[:stop_before])
            assert service.metrics.count("misses") == sum(batches[stop_before:])

        service = MaxCutService(disk_dir=directory)
        again = self.solver(service).solve(self.GRAPH)
        _same_solution(again, reference)
        assert service.metrics.count("hits_disk") == sum(batches)
        assert service.metrics.count("misses") == 0

    @pytest.mark.parametrize(
        "changes",
        [{"rng": 4}, {"qaoa_options": {"layers": 3, "maxiter": 20}}],
        ids=["seed", "options"],
    )
    def test_changed_solve_recomputes(self, tmp_path, changes):
        self.solver(MaxCutService(disk_dir=tmp_path)).solve(self.GRAPH)
        service = MaxCutService(disk_dir=tmp_path)
        result = self.solver(service, **changes).solve(self.GRAPH)
        assert service.metrics.count("hits_disk") == 0
        assert service.metrics.count("misses") == result.n_subproblems
        _same_solution(result, self.solver(None, **changes).solve(self.GRAPH))


# ---------------------------------------------------------------------------
# Facade / metrics / workload helpers
# ---------------------------------------------------------------------------
class TestFacade:
    def test_submit_requires_graph_or_request(self):
        service = MaxCutService(seed=0)
        with pytest.raises(ValueError, match="graph or a request"):
            service.solve()

    def test_submit_rejects_both(self, graph):
        service = MaxCutService(seed=0)
        with pytest.raises(ValueError, match="not both"):
            service.solve(graph, request=SolveRequest(graph=graph))

    def test_gw_requests_cacheable(self, graph):
        service = MaxCutService(seed=0)
        cold = service.solve(graph, method="gw", seed=4)
        hit = service.solve(graph, method="gw", seed=4)
        assert cold.method == "gw" and hit.status == "hit-memory"
        assert hit.cut == cold.cut

    def test_stats_report_renders(self, graph):
        service = MaxCutService(seed=0)
        service.solve(graph, seed=1, **OPTIONS)
        service.solve(graph, seed=1, **OPTIONS)
        report = service.stats_report()
        assert "hits_memory" in report and "cache:" in report
        assert "p95" in report

    def test_export_knowledge_roundtrip(self, graph):
        service = MaxCutService(seed=0)
        service.solve(graph, seed=1, layers=1, maxiter=25)
        kb = service.export_knowledge()
        assert len(kb) == 1
        assert kb.records[0].layers == 1
        assert kb.records[0].qaoa_params is not None

    def test_zipf_requests_shape(self):
        requests = zipf_requests(
            n_requests=30, universe=5, n_nodes=8, rng=0,
            options={"layers": 1, "maxiter": 10},
        )
        assert len(requests) == 30
        digests = {id(r.graph) for r in requests}
        assert len(digests) <= 5
        # Rank-1 graph must dominate a Zipf stream.
        from collections import Counter

        counts = Counter(id(r.graph) for r in requests)
        assert max(counts.values()) >= 30 // 3

    def test_cli_service_stats(self, capsys):
        from repro.cli import main

        code = main([
            "service-stats", "--requests", "8", "--universe", "2",
            "--nodes", "8", "--layers", "1", "--maxiter", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "MaxCutService stats" in out and "hit_rate" in out


class TestSchedulerGuards:
    def test_lockstep_respects_max_qubits(self):
        """Oversized same-graph SPSA batches raise the solver's clean
        error, never attempting a 2**n evolution."""
        graph = erdos_renyi(30, 0.1, rng=0)
        service = MaxCutService(seed=0)
        options = {"layers": 1, "maxiter": 10, "optimizer": "spsa",
                   "max_qubits": 26}
        requests = [
            SolveRequest(graph=graph, options=options, seed=s) for s in (1, 2)
        ]
        with pytest.raises(ValueError, match="max_qubits"):
            service.solve_many(requests)

    def test_fingerprint_memoised_on_graph(self):
        from repro.service import canonical_fingerprint

        graph = erdos_renyi(12, 0.3, rng=0)
        first = canonical_fingerprint(graph)
        assert canonical_fingerprint(graph) is first
        # Non-default budgets bypass (and do not poison) the memo.
        other = canonical_fingerprint(graph, max_leaves=2)
        assert canonical_fingerprint(graph) is first
        assert other.digest == first.digest or not other.exact


class TestReviewRegressions:
    """Pins for review findings: result immutability, bounded ticket
    retention."""

    def test_result_mutation_does_not_corrupt_cache(self, graph):
        service = MaxCutService(seed=0)
        cold = service.solve(graph, seed=3, layers=1, maxiter=15)
        cold.params[0] = 999.0
        cold.extra["injected"] = True
        hit = service.solve(graph, seed=3, layers=1, maxiter=15)
        assert hit.status == "hit-memory"
        assert hit.params[0] != 999.0
        assert "injected" not in hit.extra
