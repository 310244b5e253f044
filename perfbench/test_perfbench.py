"""Tests for the benchmark's own code: span arithmetic, transparent
wrappers, deterministic input generators and the speed scaling."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import probes
import spans
import workloads
from instrument import instrumented
from spans import Span, Tracer

from repro.graphs.generators import erdos_renyi
from repro.hpc.executor import ExecutorConfig
from repro.qaoa.solver import QAOASolver
from repro.qaoa2.solver import QAOA2Solver
from repro.service import MaxCutService, SolveRequest
from repro.service.cache import ResultCache


def span(sid, name, start, end, parent=None, thread=0, **attrs):
    return Span(sid=sid, name=name, parent=parent, thread=thread,
                start=start, end=end, attrs=dict(attrs))


class TestIntervals:
    def test_union_merges_overlaps_and_drops_empty(self):
        assert spans.union([(3, 4), (0, 2), (1, 2.5), (5, 5)]) == [(0, 2.5), (3, 4)]

    def test_intersect(self):
        a = spans.union([(0, 2), (3, 6)])
        b = spans.union([(1, 4), (5, 7)])
        assert spans.intersect(a, b) == [(1, 2), (3, 4), (5, 6)]
        assert spans.measure(spans.intersect(a, b)) == 3


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        trace = [
            span(1, "root", 0.0, 10.0),
            span(2, "a", 1.0, 4.0, parent=1),
            span(3, "b", 2.0, 3.0, parent=2),  # grandchild: not subtracted from root
        ]
        own = spans.self_times(trace)
        assert own == {1: pytest.approx(7.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0)}

    def test_concurrent_children_count_their_union(self):
        trace = [
            span(1, "executor", 0.0, 10.0),
            span(2, "leaf", 1.0, 6.0, parent=1, thread=1),
            span(3, "leaf", 2.0, 8.0, parent=1, thread=2),
        ]
        assert spans.self_times(trace)[1] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        trace = [span(1, "p", 2.0, 4.0), span(2, "c", 1.0, 3.0, parent=1)]
        assert spans.self_times(trace)[1] == pytest.approx(1.0)

    def test_unattributed_is_root_time_with_no_layer_open(self):
        trace = [
            span(1, "client.request", 0.0, 4.0, thread=1),
            span(2, "client.request", 3.0, 9.0, thread=2),
            span(3, "wire.decode", 1.0, 2.0, thread=3),
            span(4, "scheduler", 5.0, 11.0, thread=4),  # partly outside every root
        ]
        # roots cover [0, 9]; layers cover [1, 2] and [5, 9] inside them.
        assert spans.unattributed(trace, ["client.request"]) == pytest.approx(4.0)

    def test_layer_table_sums_busy_and_self(self):
        trace = [
            span(1, "root", 0.0, 10.0),
            span(2, "optim", 0.0, 6.0, parent=1),
            span(3, "engine.eval", 1.0, 3.0, parent=2),
            span(4, "engine.eval", 4.0, 5.0, parent=2),
        ]
        rows = {row.name: row for row in spans.layer_table(trace)}
        assert rows["engine.eval"].calls == 2
        assert rows["engine.eval"].busy_s == pytest.approx(3.0)
        assert rows["optim"].self_s == pytest.approx(3.0)
        assert rows["root"].self_s == pytest.approx(4.0)


class TestTracer:
    def test_parents_follow_the_thread_stack_and_explicit_handoff(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        seen = {}

        def worker():
            handed = tracer.open("leaf", parent=outer.sid, cpu=True)
            own = tracer.open("qaoa")
            tracer.close(own)
            tracer.close(handed)
            seen["leaf"], seen["qaoa"] = handed, own

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        tracer.close(outer)
        assert inner.parent == outer.sid
        assert seen["leaf"].parent == outer.sid
        assert seen["qaoa"].parent == seen["leaf"].sid
        assert seen["leaf"].thread != outer.thread
        assert seen["leaf"].cpu is not None and seen["leaf"].cpu >= 0
        assert outer.parent is None

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        first = tracer.open("a")
        tracer.open("b")
        with pytest.raises(RuntimeError):
            tracer.close(first)


class TestLayerMetrics:
    def test_metrics_from_a_synthetic_trace(self):
        trace = [
            span(1, "qaoa2.solve", 0.0, 10.0),
            span(2, "executor", 1.0, 9.0, parent=1, jobs=2.0, width=2.0),
            span(3, "optim", 1.0, 5.0, parent=2, evals=2.0),
            span(4, "engine.eval", 2.0, 3.0, parent=3, rows=1.0),
            span(5, "engine.eval", 3.0, 4.0, parent=3, rows=4.0),
            span(6, "backend.mixer", 2.0, 2.5, parent=4, bytes=1e9),
        ]
        metrics = workloads.layer_metrics(trace, ["qaoa2.solve"])
        assert metrics["optim.self_s"] == pytest.approx(2.0)
        assert metrics["optim.evals"] == 2.0
        assert metrics["engine.rows"] == 5.0
        assert metrics["backend.mixer_gbps"] == pytest.approx(2.0)
        assert metrics["executor.jobs"] == 2.0
        assert metrics["unattributed_s"] == pytest.approx(2.0)
        assert metrics["wire.decode_s"] == 0.0


class TestWrappersAreTransparent:
    def test_qaoa2_solve_identical_and_layers_recorded(self):
        graph = erdos_renyi(30, 0.2, rng=3)

        def solve():
            return QAOA2Solver(
                n_max_qubits=8, qaoa_options={"layers": 2, "maxiter": 10},
                executor=ExecutorConfig("thread", 2), rng=5,
            ).solve(graph)

        plain = solve()
        tracer = Tracer()
        with instrumented(tracer):
            traced = solve()
        np.testing.assert_array_equal(plain.assignment, traced.assignment)
        assert plain.cut == traced.cut
        names = {s.name for s in tracer.spans}
        assert {"partition", "executor", "leaf", "qaoa", "optim", "engine.eval",
                "engine.diagonal", "backend.mixer", "backend.cost", "merge", "gw"} <= names
        leaves = [s for s in tracer.spans if s.name == "leaf"]
        executors = {s.sid for s in tracer.spans if s.name == "executor"}
        assert leaves and all(s.parent in executors for s in leaves)

    def test_service_solve_identical_and_layers_recorded(self):
        graphs = [erdos_renyi(8, 0.4, weighted=True, rng=k) for k in range(3)]

        def solve():
            service = MaxCutService(seed=1)
            requests = [SolveRequest(graph=g, options={"layers": 2, "maxiter": 10})
                        for g in graphs + graphs[:1]]
            return [(r.status, r.cut, r.assignment.tolist()) for r in service.solve_many(requests)]

        plain = solve()
        tracer = Tracer()
        with instrumented(tracer):
            traced = solve()
        assert plain == traced
        names = {s.name for s in tracer.spans}
        assert {"fingerprint", "cache.lookup", "cache.store", "scheduler", "qaoa"} <= names

    def test_patches_are_removed(self):
        import repro.qaoa.solver as qaoa_mod
        import repro.qaoa2.solver as qaoa2_mod
        from repro.quantum.backend import get_backend

        before = (qaoa2_mod.map_jobs, qaoa_mod.minimize, QAOASolver.solve, ResultCache.put)
        with instrumented(Tracer()):
            assert qaoa2_mod.map_jobs is not before[0]
            assert "apply_mixer_layer" in vars(get_backend("numpy"))
        after = (qaoa2_mod.map_jobs, qaoa_mod.minimize, QAOASolver.solve, ResultCache.put)
        assert after == before
        assert "apply_mixer_layer" not in vars(get_backend("numpy"))


class TestGeneratorsAreDeterministic:
    @pytest.mark.parametrize("name", sorted(workloads.QAOA2_WORKLOADS))
    def test_qaoa2_inputs(self, name):
        spec = workloads.QAOA2_WORKLOADS[name]
        seconds = spec.nominal_solve_s  # one graph
        first = workloads.qaoa2_inputs(spec, 7, seconds)
        again = workloads.qaoa2_inputs(spec, 7, seconds)
        other = workloads.qaoa2_inputs(spec, 8, seconds)
        assert first.key() == again.key() and first.gw_cuts == again.gw_cuts
        assert first.key() != other.key()

    def test_http_inputs(self):
        first, again, other = (workloads.http_inputs(s) for s in (7, 7, 8))
        assert first.key() == again.key() and first.gw_cuts == again.gw_cuts
        assert first.key() != other.key()
        assert len(first.picks) == workloads.PASS_REQUESTS
        assert sorted(first.perms[0]) == list(range(workloads.UNIVERSE_NODES))

    def test_setup_clock_rejects_nondeterminism(self):
        counter = iter(range(10))
        clock = workloads.SetupClock(lambda: next(counter), str)
        clock.build()
        with pytest.raises(RuntimeError):
            clock.build()


class TestSpeedScale:
    def test_arithmetic(self):
        raw = {"solve_s": 2.0, "latency_p99_ms": 3000.0, "throughput_rps": 10.0,
               "cut_ratio_gw": 0.9}
        off = workloads.SpeedScale(enabled=False)
        off.sample()
        assert off.samples == [] and off.scaled(raw) == raw
        on = workloads.SpeedScale(enabled=True)
        on.samples = [2 * probes.REFERENCE_LOOP_S, 4 * probes.REFERENCE_LOOP_S,
                      2 * probes.REFERENCE_LOOP_S]
        assert on.factor == 0.5
        assert on.scaled(raw) == {"solve_s": 1.0, "latency_p99_ms": 1500.0,
                                  "throughput_rps": 20.0, "cut_ratio_gw": 0.9}
