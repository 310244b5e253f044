"""Docs cannot drift: the error table in docs/http-api.md must equal
ERROR_CONTRACT, every endpoint must be documented, the README package
map must cover the tree, and the docs-check tool must pass (ISSUE 8)."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.http import ERROR_CONTRACT, RETRY_AFTER_S, ROUTES

pytestmark = pytest.mark.timeout(120)

REPO_ROOT = Path(__file__).resolve().parent.parent
HTTP_API_MD = REPO_ROOT / "docs" / "http-api.md"
ARCHITECTURE_MD = REPO_ROOT / "docs" / "architecture.md"
README_MD = REPO_ROOT / "README.md"

# Rows of the error-contract table: | `code` | 400 | meaning |
ERROR_ROW_RE = re.compile(r"^\|\s*`([a-z-]+)`\s*\|\s*(\d{3})\s*\|", re.MULTILINE)


class TestHttpApiDoc:
    def test_error_table_matches_error_contract_exactly(self):
        documented = {
            code: int(status)
            for code, status in ERROR_ROW_RE.findall(HTTP_API_MD.read_text())
        }
        assert documented == ERROR_CONTRACT, (
            "docs/http-api.md error table drifted from "
            "repro.service.http.ERROR_CONTRACT — update both together"
        )

    def test_every_route_is_documented(self):
        text = HTTP_API_MD.read_text()
        for path, method in ROUTES.items():
            assert f"`{path}`" in text, f"{path} missing from docs/http-api.md"
            assert method in text

    def test_retry_after_value_is_documented(self):
        assert f"`Retry-After: {RETRY_AFTER_S}`" in HTTP_API_MD.read_text()

    def test_solve_schema_fields_are_documented(self):
        text = HTTP_API_MD.read_text()
        for field in (
            "graph",
            "method",
            "options",
            "qaoa_grid",
            "gw_options",
            "seed",
            "deadline_s",
        ):
            assert f"`{field}`" in text, f"request field {field} undocumented"


class TestArchitectureDoc:
    def test_lifecycle_stages_are_described(self):
        text = ARCHITECTURE_MD.read_text()
        for stage in (
            "repro.service.http",
            "repro.service.server",
            "repro.service.service",
            "fingerprint",
            "admission",
            "SweepEngine",
            "backend",
        ):
            assert stage in text, f"architecture.md missing stage {stage!r}"


class TestObservabilityDoc:
    """docs/observability.md mirrors the code's vocabularies (ISSUE 9)."""

    OBSERVABILITY_MD = REPO_ROOT / "docs" / "observability.md"

    # Counter entries in the repro.service.metrics module docstring:
    # ``name``  description  (one per line, flush left).
    DOCSTRING_TOKEN_RE = re.compile(r"^``([a-z_<>]+)``", re.MULTILINE)
    # Rows of the observability.md counter table: | `name` | meaning |
    TABLE_TOKEN_RE = re.compile(r"^\|\s*`([a-z_<>]+)`\s*\|", re.MULTILINE)

    def counter_section(self) -> str:
        text = self.OBSERVABILITY_MD.read_text()
        _, _, section = text.partition("## Counter vocabulary")
        assert section, "observability.md lost its '## Counter vocabulary' section"
        return section.split("\n## ", 1)[0]

    def test_counter_table_matches_metrics_docstring(self):
        from repro.service import metrics

        assert metrics.__doc__ is not None
        code_tokens = set(self.DOCSTRING_TOKEN_RE.findall(metrics.__doc__))
        doc_tokens = set(self.TABLE_TOKEN_RE.findall(self.counter_section()))
        assert doc_tokens and code_tokens
        assert doc_tokens == code_tokens, (
            "docs/observability.md counter table drifted from the "
            "repro.service.metrics docstring — update both together; "
            f"docs-only={sorted(doc_tokens - code_tokens)}, "
            f"code-only={sorted(code_tokens - doc_tokens)}"
        )

    def test_span_vocabulary_is_documented(self):
        text = self.OBSERVABILITY_MD.read_text()
        for span in (
            "request",
            "wire-parse",
            "await",
            "shard-queue",
            "coalesced-inflight",
            "fingerprint",
            "lookup",
            "solve",
            "store",
            "cut_diagonal",
            "evolve_chunk",
            "walsh_stage",
            "backend-evolve",
        ):
            assert f"`{span}`" in text, f"span {span!r} missing from observability.md"

    def test_trace_header_and_endpoints_are_documented(self):
        from repro.service.http import TRACE_HEADER, TRACE_ROUTE_PREFIX

        for text in (self.OBSERVABILITY_MD.read_text(), HTTP_API_MD.read_text()):
            assert TRACE_HEADER in text
            assert f"{TRACE_ROUTE_PREFIX}<id>" in text
            assert "/metrics" in text


class TestReadme:
    def test_package_map_covers_every_subpackage(self):
        readme = README_MD.read_text()
        packages = sorted(
            child.name
            for child in (REPO_ROOT / "src" / "repro").iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        )
        assert packages, "no subpackages found under src/repro"
        missing = [n for n in packages if f"repro.{n}" not in readme]
        assert not missing, f"README package map missing {missing}"

    def test_readme_links_the_sub_readmes_and_tier1(self):
        readme = README_MD.read_text()
        for link in (
            "src/repro/service/README.md",
            "src/repro/quantum/README.md",
            "src/repro/analysis/README.md",
            "benchmarks/README.md",
            "docs/architecture.md",
            "docs/http-api.md",
            "docs/observability.md",
        ):
            assert link in readme, f"README missing link to {link}"
        assert "python -m pytest -x -q" in readme


class TestDocsCheckTool:
    def test_check_docs_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=60,
            check=False,
        )
        assert result.returncode == 0, result.stdout + result.stderr
