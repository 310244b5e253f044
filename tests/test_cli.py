"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.service import ResultCache


class TestSolve:
    def test_qaoa2_default(self, capsys):
        assert main(["solve", "--nodes", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "QAOA² cut" in out

    def test_qaoa_method(self, capsys):
        assert main(["solve", "--method", "qaoa", "--nodes", "10",
                     "--layers", "2"]) == 0
        assert "QAOA cut" in capsys.readouterr().out

    def test_gw_method(self, capsys):
        assert main(["solve", "--method", "gw", "--nodes", "12"]) == 0
        out = capsys.readouterr().out
        assert "GW best" in out and "SDP bound" in out

    def test_exact_method(self, capsys):
        assert main(["solve", "--method", "exact", "--nodes", "10"]) == 0
        assert "exact cut" in capsys.readouterr().out

    def test_anneal_method(self, capsys):
        assert main(["solve", "--method", "anneal", "--nodes", "10"]) == 0
        assert "annealer" in capsys.readouterr().out

    def test_graph_file_input(self, capsys, tmp_path):
        from repro.graphs import erdos_renyi, write_edgelist

        path = tmp_path / "g.txt"
        write_edgelist(erdos_renyi(10, 0.4, rng=0), path)
        assert main(["solve", "--method", "exact", "--graph-file", str(path)]) == 0
        assert "exact cut" in capsys.readouterr().out

    def test_qaoa_backend_flag(self, capsys):
        assert main(["solve", "--method", "qaoa", "--nodes", "10",
                     "--layers", "2", "--backend", "fused"]) == 0
        assert "backend fused" in capsys.readouterr().out

    def test_qaoa_backend_auto_recorded(self, capsys):
        assert main(["solve", "--method", "qaoa", "--nodes", "10",
                     "--layers", "2"]) == 0
        assert "backend numpy" in capsys.readouterr().out  # auto at n=10

    def test_invalid_backend_exits(self):
        with pytest.raises(SystemExit):
            main(["solve", "--method", "qaoa", "--backend", "magic"])


class TestExperiments:
    def test_gridsearch_and_kb(self, capsys, tmp_path):
        kb_path = tmp_path / "kb.json"
        code = main([
            "gridsearch", "--node-counts", "8", "--edge-probs", "0.3",
            "--layers-grid", "2", "--rhobeg-grid", "0.4",
            "--backend", "serial", "--save-kb", str(kb_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "most successful grid point" in out
        assert kb_path.exists()
        from repro.ml import KnowledgeBase

        assert len(KnowledgeBase.load(kb_path)) == 2  # 2 weightings x 1 point

    def test_scaling_defaults_to_the_serial_executor(self):
        # serial lock-steps each QAOA² level's small leaves, which makes it
        # the fastest executor for the Fig4 experiment.
        args = build_parser().parse_args(["scaling"])
        assert args.backend == "serial"

    def test_scaling(self, capsys):
        code = main([
            "scaling", "--node-counts", "30", "--qubits", "8",
            "--layers", "2", "--maxiter", "15", "--backend", "serial",
            "--sv-backend", "numpy",
        ])
        assert code == 0
        assert "relative to QAOA" in capsys.readouterr().out

    def test_service_stats_with_compaction(self, capsys, tmp_path):
        disk = tmp_path / "tier"
        code = main([
            "service-stats", "--requests", "6", "--universe", "2",
            "--nodes", "8", "--layers", "1", "--maxiter", "10",
            "--disk-dir", str(disk), "--compact", "--backend", "numpy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "compacted disk tier" in out
        assert "backend_numpy" in out
        assert [p.name for p in disk.iterdir()] == ["cache.log"]

    def test_service_stats_compact_without_disk(self, capsys):
        code = main([
            "service-stats", "--requests", "4", "--universe", "2",
            "--nodes", "8", "--layers", "1", "--maxiter", "10", "--compact",
        ])
        assert code == 0
        assert "--compact ignored" in capsys.readouterr().out

    def test_hetjobs(self, capsys):
        assert main(["hetjobs", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "monolithic" in out and "heterogeneous" in out

    def test_coordinator(self, capsys):
        code = main([
            "coordinator", "--workers", "1", "2", "--nodes", "30",
            "--qubits", "8", "--layers", "2", "--maxiter", "15",
        ])
        assert code == 0
        assert "coordinator/worker scaling" in capsys.readouterr().out


class TestServe:
    def test_serve_stream(self, capsys):
        code = main([
            "serve", "--requests", "12", "--universe", "3", "--nodes", "8",
            "--layers", "1", "--maxiter", "10", "--clients", "3",
            "--shards", "2", "--backend", "numpy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 12/12 requests" in out
        assert "2 shard(s)" in out
        assert "AsyncMaxCutServer stats (2 shards)" in out
        assert "shards: 2" in out  # router load report

    def test_serve_with_disk_tier_and_compaction(self, capsys, tmp_path):
        disk = tmp_path / "tier"
        code = main([
            "serve", "--requests", "8", "--universe", "2", "--nodes", "8",
            "--layers", "1", "--maxiter", "10", "--clients", "2",
            "--shards", "1",
            "--disk-dir", str(disk), "--backend", "numpy",
        ])
        assert code == 0
        assert "served 8/8 requests" in capsys.readouterr().out
        # One solve per digest: the shard's log has nothing to compact away.
        stats = ResultCache(disk_dir=disk / "shard-00").compact()
        assert stats["entries"] >= 1 and stats["dropped"] == 0
        assert [p.name for p in (disk / "shard-00").iterdir()] == ["cache.log"]

    def test_serve_rejects_bad_admission(self):
        with pytest.raises(SystemExit):
            main(["serve", "--admission", "drop-newest"])


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_method_exits(self):
        with pytest.raises(SystemExit):
            main(["solve", "--method", "magic"])
