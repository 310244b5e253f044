"""Tests for repro.analysis: framework, rules, CLI and the CI contract.

Three layers of coverage:

* **Fixture corpus** — every rule has at least one violating and one
  clean fixture under ``tests/analysis_fixtures/``; the corpus
  self-check (the same one CI runs via ``--quick``) must pass.
* **Mutation tests** — seed a violation into a *copy of a real module*
  (cache lock dropped, await inside submit's atomic block, kernel import
  in a core module, global RNG in the scheduler) and assert the analyzer
  catches it.  This pins the rules to the real annotations, not just to
  hand-built fixtures.
* **The repo gate** — ``python -m repro.analysis src/repro`` must be
  clean; that is the acceptance criterion CI enforces.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ImportGraph, all_rule_names, analyze_paths
from repro.analysis.__main__ import (
    expected_findings,
    fixture_corpus_dir,
    main as cli_main,
    run_quick,
)
from repro.analysis.core import SourceFile, parse_directives

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"


def write_module(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def findings_for(path: Path, rule: str | None = None):
    report = analyze_paths([path])
    if rule is None:
        return report.findings
    return [f for f in report.findings if f.rule == rule]


# ----------------------------------------------------------------------
# Framework: directives, suppressions, module naming
# ----------------------------------------------------------------------
class TestDirectives:
    def test_parse_disable_with_justification(self):
        directives, errors = parse_directives(
            "x = 1  # repro: disable=rng-discipline -- demo reason\n"
        )
        assert not errors
        (directive,) = directives
        assert directive.verb == "disable"
        assert directive.names == ["rng-discipline"]
        assert directive.justification == "demo reason"
        assert not directive.standalone

    def test_directive_in_string_is_ignored(self):
        directives, errors = parse_directives(
            'text = "# repro: disable=layering"\n'
        )
        assert directives == [] and errors == []

    def test_prose_mention_is_not_a_directive(self):
        directives, errors = parse_directives(
            "# the `# repro: holds-lock` marker is documented here\n"
        )
        assert directives == [] and errors == []

    def test_unknown_verb_is_reported(self):
        _directives, errors = parse_directives("# repro: frobnicate=yes\n")
        assert len(errors) == 1 and "frobnicate" in errors[0]

    def test_standalone_disable_applies_to_next_line(self, tmp_path):
        path = write_module(
            tmp_path,
            "mod.py",
            "import numpy as np\n"
            "# repro: disable=rng-discipline -- fixture\n"
            "np.random.seed(0)\n",
        )
        assert findings_for(path, "rng-discipline") == []

    def test_disable_file_suppresses_everywhere(self, tmp_path):
        path = write_module(
            tmp_path,
            "mod.py",
            "# repro: disable-file=rng-discipline -- fixture\n"
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "np.random.seed(1)\n",
        )
        assert findings_for(path, "rng-discipline") == []

    def test_module_override(self, tmp_path):
        path = write_module(
            tmp_path, "mod.py", "# repro: module=repro.quantum.fake\n"
        )
        file = SourceFile.parse(path)
        assert file.module == "repro.quantum.fake"

    def test_real_module_name_resolution(self):
        file = SourceFile.parse(SRC / "service" / "cache.py")
        assert file.module == "repro.service.cache"
        package = SourceFile.parse(SRC / "service" / "__init__.py")
        assert package.module == "repro.service"


# ----------------------------------------------------------------------
# Import graph
# ----------------------------------------------------------------------
class TestImportGraph:
    def _graph(self, tmp_path, specs):
        files = []
        for name, module, body in specs:
            path = write_module(
                tmp_path, name, f"# repro: module={module}\n{body}"
            )
            files.append(SourceFile.parse(path))
        return ImportGraph.from_files(files)

    def test_edges_and_reachability(self, tmp_path):
        graph = self._graph(
            tmp_path,
            [
                ("a.py", "repro.a", "from repro.b import thing\n"),
                ("b.py", "repro.b", "import repro.c\n"),
                ("c.py", "repro.c", "x = 1\n"),
            ],
        )
        reach = graph.reachable("repro.a")
        assert set(reach) == {"repro.a", "repro.b", "repro.c"}
        assert graph.chain("repro.a", "repro.c") == [
            "repro.a",
            "repro.b",
            "repro.c",
        ]

    def test_deferred_imports_excluded_from_toplevel_walks(self, tmp_path):
        graph = self._graph(
            tmp_path,
            [
                (
                    "a.py",
                    "repro.a",
                    "def late():\n    from repro.b import thing\n",
                ),
                ("b.py", "repro.b", "x = 1\n"),
            ],
        )
        assert "repro.b" not in graph.reachable("repro.a", top_level_only=True)
        assert "repro.b" in graph.reachable("repro.a")

    def test_cycle_detection_toplevel_only(self, tmp_path):
        graph = self._graph(
            tmp_path,
            [
                ("a.py", "repro.a", "from repro.b import t\n"),
                ("b.py", "repro.b", "from repro.a import u\n"),
                (
                    "c.py",
                    "repro.c",
                    "def late():\n    from repro.d import t\n",
                ),
                ("d.py", "repro.d", "from repro.c import u\n"),
            ],
        )
        assert graph.cycles() == [["repro.a", "repro.b"]]

    def test_real_tree_has_no_toplevel_cycles(self):
        report = analyze_paths([SRC])
        graph = ImportGraph.from_files(report.files)
        assert graph.cycles() == []


# ----------------------------------------------------------------------
# Fixture corpus (the same check CI runs via --quick)
# ----------------------------------------------------------------------
class TestFixtureCorpus:
    def test_corpus_self_check_passes(self, capsys):
        assert run_quick(fixture_corpus_dir()) == 0
        assert "self-check ok" in capsys.readouterr().out

    def test_every_rule_has_violating_and_clean_fixture(self):
        for rule in all_rule_names():
            stem = rule.replace("-", "_")
            violating = FIXTURES / f"{stem}_violation.py"
            clean = FIXTURES / f"{stem}_clean.py"
            assert violating.is_file(), f"no violating fixture for {rule}"
            assert clean.is_file(), f"no clean fixture for {rule}"
            # Violating fixtures declare what they violate; clean ones
            # must declare nothing (--quick asserts they analyze clean).
            assert any(
                found == rule for _line, found in expected_findings(violating)
            ), f"{violating.name} never expects [{rule}]"
            assert expected_findings(clean) == set()

    def test_violating_fixture_fails_cli(self):
        code = cli_main(
            [str(FIXTURES / "rng_discipline_violation.py"), "--format", "text"]
        )
        assert code == 1

    def test_clean_fixture_passes_cli(self):
        code = cli_main([str(FIXTURES / "rng_discipline_clean.py")])
        assert code == 0


# ----------------------------------------------------------------------
# Mutation tests: seed violations into copies of real modules
# ----------------------------------------------------------------------
class TestMutations:
    def _mutate(self, tmp_path, source: Path, old: str, new: str, module: str):
        text = source.read_text()
        assert old in text, f"mutation anchor vanished from {source}"
        mutated = f"# repro: module={module}\n" + text.replace(old, new)
        return write_module(tmp_path, f"mutated_{source.name}", mutated)

    def test_cache_without_lock_is_caught(self, tmp_path):
        path = self._mutate(
            tmp_path,
            SRC / "service" / "cache.py",
            "    def clear(self) -> None:\n"
            "        with self._lock:\n"
            "            self._entries.clear()\n"
            "            self._nbytes = 0\n",
            "    def clear(self) -> None:\n"
            "        self._entries.clear()\n"
            "        self._nbytes = 0\n",
            "repro.service.cache",
        )
        found = findings_for(path, "guarded-by")
        assert len(found) == 2
        assert any("_entries" in f.message for f in found)
        assert any("_nbytes" in f.message for f in found)

    def test_await_in_submit_atomic_block_is_caught(self, tmp_path):
        source = SRC / "service" / "server.py"
        text = source.read_text()
        assert "    def submit(" in text
        assert "        hit = service.lookup(key, trace=trace)" in text
        mutated = text.replace("    def submit(", "    async def submit(")
        mutated = mutated.replace(
            "        hit = service.lookup(key, trace=trace)",
            "        hit = await asyncio.to_thread(service.lookup, key)",
        )
        path = write_module(
            tmp_path,
            "mutated_server.py",
            "# repro: module=repro.service.server\n" + mutated,
        )
        found = findings_for(path, "atomic-section")
        assert len(found) == 1 and "await" in found[0].message

    def test_kernel_import_in_core_module_is_caught(self, tmp_path):
        path = self._mutate(
            tmp_path,
            SRC / "graphs" / "maxcut.py",
            "import numpy as np",
            "import numpy as np\n"
            "from repro.quantum.statevector import apply_rx_layer",
            "repro.graphs.maxcut",
        )
        assert findings_for(path, "backend-seam")

    def test_global_rng_in_service_is_caught(self, tmp_path):
        path = self._mutate(
            tmp_path,
            SRC / "service" / "service.py",
            "        self.master_seed = int(ensure_rng(seed).integers(2**63 - 1))",
            "        np.random.seed(0)\n"
            "        self.master_seed = int(ensure_rng(seed).integers(2**63 - 1))",
            "repro.service.service",
        )
        found = findings_for(path, "rng-discipline")
        assert len(found) == 1 and "seed" in found[0].message

    def test_layering_break_in_core_module_is_caught(self, tmp_path):
        path = self._mutate(
            tmp_path,
            SRC / "quantum" / "pauli.py",
            "import numpy as np",
            "import numpy as np\nfrom repro.service.metrics import ServiceMetrics",
            "repro.quantum.pauli",
        )
        found = findings_for(path, "layering")
        assert found and "upper layer" in found[0].message

    def test_swallowed_error_in_worker_is_caught(self, tmp_path):
        path = self._mutate(
            tmp_path,
            SRC / "service" / "server.py",
            "            except Exception as exc:\n"
            "                # Whole-batch failure below the per-request capture layer\n"
            "                # (should be rare): fail these futures, keep serving.\n"
            "                self._fail_batch(batch, exc)",
            "            except Exception:\n"
            "                pass\n"
            "            except RuntimeError as exc:\n"
            "                self._fail_batch(batch, exc)",
            "repro.service.server",
        )
        assert findings_for(path, "swallowed-error")


# ----------------------------------------------------------------------
# The repo gate (CI acceptance criterion)
# ----------------------------------------------------------------------
class TestRepoGate:
    def test_src_repro_is_clean(self):
        report = analyze_paths([SRC])
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )
        assert len(report.files) > 80

    def test_every_suppression_in_tree_is_justified(self):
        report = analyze_paths([SRC])
        for file in report.files:
            for directive in file.directives:
                if directive.verb in ("disable", "disable-file"):
                    assert directive.justification, (
                        f"{file.display_path}:{directive.line} suppression "
                        "without justification"
                    )

    def test_cli_json_output_and_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC), "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["files"] > 80

    def test_cli_nonzero_on_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad), "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["findings"][0]["rule"] == "rng-discipline"

    def test_unknown_rule_selection_errors(self):
        with pytest.raises(ValueError, match="unknown rule"):
            analyze_paths([SRC / "util"], rules=["no-such-rule"])

    def test_rules_subset_selection(self, tmp_path):
        bad = write_module(
            tmp_path, "bad.py", "import numpy as np\nnp.random.seed(0)\n"
        )
        report = analyze_paths([bad], rules=["swallowed-error"])
        assert report.findings == []
        report = analyze_paths([bad], rules=["rng-discipline"])
        assert len(report.findings) == 1
