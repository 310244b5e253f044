"""Unit tests for the experiment drivers (laptop-scale runs)."""

import numpy as np
import pytest

from repro.experiments import (
    CoordinatorScalingResult,
    GridSearchConfig,
    ScalingConfig,
    Table1Config,
    fmt_proportion,
    format_heat_table,
    format_kv_block,
    format_series_table,
    paper_scale_config,
    paper_scale_scaling_config,
    paper_scale_table1_config,
    run_coordinator_scaling,
    run_grid_search,
    run_hetjob_experiment,
    run_scaling_experiment,
    run_table1,
)
from repro.hpc import CoordinatorResult, WorkerStats

TINY_GRID = GridSearchConfig(
    node_counts=(8,),
    edge_probs=(0.2, 0.5),
    layers_grid=(2,),
    rhobeg_grid=(0.3, 0.5),
    rng=3,
)


@pytest.fixture(scope="module")
def grid_result():
    return run_grid_search(TINY_GRID)


class TestGridSearch:
    def test_record_count(self, grid_result):
        # cells = 1 node count × 2 probs × 2 weightings; grid = 1×2
        assert len(grid_result.records) == 1 * 2 * 2 * 1 * 2

    def test_records_fields(self, grid_result):
        for rec in grid_result.records:
            assert rec.qaoa_cut >= 0
            assert rec.gw_cut > 0
            assert rec.qaoa_params is not None

    def test_proportions_shape_and_range(self, grid_result):
        for mode in ("strict", "band95"):
            for weighted in (False, True):
                m = grid_result.proportions_by_graph(weighted=weighted, mode=mode)
                assert m.shape == (1, 2)
                valid = m[~np.isnan(m)]
                assert np.all((0 <= valid) & (valid <= 1))

    def test_gridpoint_proportions(self, grid_result):
        m = grid_result.proportions_by_gridpoint(weighted=False)
        assert m.shape == (2, 1)  # rhobeg × layers

    def test_unknown_mode_rejected(self, grid_result):
        with pytest.raises(ValueError, match="unknown mode"):
            grid_result.proportions_by_graph(weighted=False, mode="banana")

    def test_best_gridpoint_valid(self, grid_result):
        rho, layers = grid_result.best_gridpoint()
        assert rho in TINY_GRID.rhobeg_grid
        assert layers in TINY_GRID.layers_grid

    def test_to_knowledge_base(self, grid_result):
        kb = grid_result.to_knowledge_base()
        assert len(kb) == len(grid_result.records)
        assert kb.win_rate(8, 0.2, False) is not None

    def test_format_fig3_contains_panels(self, grid_result):
        text = grid_result.format_fig3()
        assert "strictly better" in text
        assert "[95,100)" in text
        assert "grid point" in text

    def test_paper_scale_config_matches_paper(self):
        cfg = paper_scale_config()
        assert list(cfg.node_counts) == list(range(15, 26))
        assert cfg.edge_probs == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert cfg.layers_grid == (3, 4, 5, 6, 7, 8)
        assert cfg.rhobeg_grid == (0.1, 0.2, 0.3, 0.4, 0.5)

    @pytest.mark.slow
    def test_deterministic_given_seed(self):
        a = run_grid_search(TINY_GRID)
        b = run_grid_search(TINY_GRID)
        assert [r.qaoa_cut for r in a.records] == [r.qaoa_cut for r in b.records]


class TestTable1:
    def test_runs_and_formats(self):
        result = run_table1(
            Table1Config(
                node_counts=(10,), edge_probs=(0.2,), layers_grid=(2,),
                rhobeg_grid=(0.4,), rng=0,
            )
        )
        props = result.proportions("strict")
        assert (10, True, 0.2) in props
        assert (10, False, 0.2) in props
        text = result.format_table()
        assert "strictly better" in text and "yes" in text and "no" in text

    def test_paper_scale_config(self):
        cfg = paper_scale_table1_config()
        assert cfg.node_counts == (30, 31, 32, 33)
        assert cfg.edge_probs == (0.1, 0.2)


class TestScaling:
    @pytest.fixture(scope="class")
    def scaling(self):
        return run_scaling_experiment(
            ScalingConfig(
                node_counts=(40, 60),
                qaoa_options={"layers": 2, "maxiter": 20},
                rng=1,
            )
        )

    def test_all_series_present(self, scaling):
        for name in ("Random", "Classic", "QAOA", "Best", "GW"):
            assert len(scaling.cuts[name]) == 2

    def test_relative_normalisation(self, scaling):
        rel = scaling.relative_to_qaoa()
        assert all(v == pytest.approx(1.0) for v in rel["QAOA"])

    def test_random_is_worst(self, scaling):
        rel = scaling.relative_to_qaoa()
        for name in ("Classic", "Best", "GW"):
            for rnd, other in zip(rel["Random"], rel[name], strict=True):
                assert rnd < other

    def test_best_at_least_pure_methods(self, scaling):
        for best, classic, qaoa in zip(
            scaling.cuts["Best"], scaling.cuts["Classic"], scaling.cuts["QAOA"]
        , strict=True):
            # "Best" picks per sub-graph; merged randomness allows tiny slack.
            assert best >= min(classic, qaoa) - 2.0

    def test_gw_failure_injection_truncates_series(self):
        result = run_scaling_experiment(
            ScalingConfig(
                node_counts=(30, 50),
                qaoa_options={"layers": 2, "maxiter": 15},
                gw_fail_above=40,
                rng=0,
            )
        )
        assert result.cuts["GW"][0] is not None
        assert result.cuts["GW"][1] is None

    def test_format_table(self, scaling):
        text = scaling.format_table()
        assert "relative to QAOA" in text

    def test_paper_scale_config(self):
        cfg = paper_scale_scaling_config()
        assert cfg.node_counts == (500, 1000, 1500, 2000, 2500)
        assert cfg.gw_fail_above == 2000

    def test_matches_direct_qaoa2_replication(self):
        # Parity pin: the engine-routed driver must produce exactly the
        # cuts of a by-hand replication of its per-method solver calls.
        from repro.graphs.generators import erdos_renyi
        from repro.qaoa2.solver import QAOA2Solver
        from repro.util.rng import ensure_rng

        config = ScalingConfig(
            node_counts=(36,),
            qaoa_options={"layers": 2, "maxiter": 15},
            rng=7,
        )
        result = run_scaling_experiment(config)

        gen = ensure_rng(7)
        graph = erdos_renyi(36, config.edge_prob, rng=gen)
        seeds = gen.integers(2**31, size=5)
        expected = {}
        for name, method, seed in (
            ("Classic", "gw", seeds[1]),
            ("QAOA", "qaoa", seeds[2]),
            ("Best", "best", seeds[3]),
        ):
            expected[name] = QAOA2Solver(
                n_max_qubits=config.n_max_qubits,
                subgraph_method=method,
                qaoa_options={**config.qaoa_options, "n_starts": 1},
                partition_method=config.partition_method,
                rng=int(seed),
            ).solve(graph).cut
        for name, cut in expected.items():
            assert result.cuts[name][0] == cut

    def test_n_starts_knob_runs_batched_multi_start(self):
        result = run_scaling_experiment(
            ScalingConfig(
                node_counts=(30,),
                qaoa_options={"layers": 2, "maxiter": 20, "optimizer": "spsa"},
                n_starts=2,
                rng=3,
            )
        )
        for name in ("Random", "Classic", "QAOA", "Best", "GW"):
            assert len(result.cuts[name]) == 1
        assert result.cuts["QAOA"][0] > 0

    def test_explicit_qaoa_option_wins_over_knob(self):
        # A caller-pinned n_starts inside qaoa_options is not overridden.
        a = run_scaling_experiment(
            ScalingConfig(
                node_counts=(24,),
                qaoa_options={"layers": 2, "maxiter": 15, "n_starts": 1},
                n_starts=3,
                rng=0,
            )
        )
        b = run_scaling_experiment(
            ScalingConfig(
                node_counts=(24,),
                qaoa_options={"layers": 2, "maxiter": 15, "n_starts": 1},
                rng=0,
            )
        )
        assert a.cuts["QAOA"] == b.cuts["QAOA"]


class TestWorkflowExperiments:
    def test_hetjob_experiment_reduces_idle(self):
        result = run_hetjob_experiment(n_jobs=3)
        assert result.qpu_idle_reduction > 0
        assert result.makespan_speedup > 1.0
        assert "monolithic" in result.format_report()

    def test_coordinator_scaling_rows(self):
        result = run_coordinator_scaling(
            worker_counts=(1, 2), n_nodes=36,
            qaoa_options={"layers": 2, "maxiter": 15}, rng=0,
        )
        assert len(result.results) == 2
        assert all(s > 0 for s in result.speedups())
        assert "coordinator" in result.format_table()

    def test_coordinator_speedups_from_wall_time(self):
        """Speedup is the first run's wall time over each run's, however long
        the worker ranks were busy."""

        def run(wall_time, busy):
            stats = [WorkerStats(rank, 1, b) for rank, b in enumerate(busy, start=1)]
            return CoordinatorResult(np.zeros(4), 3.0, wall_time, stats, 0.01, len(busy))

        # Ranks contending for the interpreter lock: their busy time adds up
        # past the wall time while the wall time rises with the worker count.
        runs = [run(0.26, [0.25]), run(0.28, [0.24] * 2), run(0.32, [0.25] * 4)]
        result = CoordinatorScalingResult([1, 2, 4], runs)
        speedups = result.speedups()
        assert speedups[0] == 1.0
        assert speedups == [0.26 / r.wall_time for r in runs]
        assert result.efficiencies() == [
            s / w for s, w in zip(speedups, (1, 2, 4), strict=True)
        ]


class TestReportHelpers:
    def test_fmt_proportion_paper_style(self):
        assert fmt_proportion(0.0666) == "0.067"
        assert fmt_proportion(0.53) == "0.53"
        assert fmt_proportion(0) == "0"
        assert fmt_proportion(None) == "  -  "

    def test_heat_table_layout(self):
        text = format_heat_table([15, 16], [0.1, 0.2], np.array([[0.1, 0.2], [0.3, np.nan]]))
        assert "15" in text and "0.2" in text and "-" in text

    def test_series_table(self):
        text = format_series_table("n", [1, 2], {"a": [1.0, None], "b": [2.0, 3.0]})
        assert "a" in text and "-" in text

    def test_kv_block(self):
        text = format_kv_block("[x]", {"k": 1.5, "s": "v"})
        assert "k" in text and "1.5" in text
