"""Guardrails for the shipped examples and documentation."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


class TestExamples:
    def test_at_least_three_examples(self):
        assert len(EXAMPLES) >= 3

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text())
        functions = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions, f"{path.name} must define main()"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_has_module_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} needs a docstring"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_only_imports_public_api(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                top = node.module.split(".")[0]
                assert top in {"repro", "numpy", "dataclasses"}, (
                    f"{path.name} imports {node.module}"
                )


class TestDocs:
    def test_design_doc_covers_every_experiment(self):
        text = (ROOT / "DESIGN.md").read_text()
        for token in (
            "Fig. 1a",
            "Fig. 2",
            "Fig. 3",
            "Fig. 4",
            "Fig. 5a",
            "Fig. 5b",
            "Table I",
            "Fig. 6",
        ):
            assert token in text, f"DESIGN.md missing {token}"

    def test_design_inventory_names_only_code_that_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        table = text[text.index("## 3. System inventory"):text.index("## 4.")]
        named = {
            token
            for line in table.splitlines()
            if line.startswith("|")
            for token in re.findall(r"`([^`]+)`", line)
            if token.isidentifier()
        }
        defined = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    defined.add(node.id)
        assert named, "DESIGN.md §3 names no identifiers"
        assert sorted(named - defined) == []

    def test_experiments_doc_records_paper_vs_measured(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "paper" in text.lower()
        assert "measured" in text.lower()
        for token in ("Fig. 1", "Fig. 5a", "Table I", "Fig. 6"):
            assert token in text

    def test_readme_quickstart_names_real_api(self):
        text = (ROOT / "README.md").read_text()
        # The README's code block must reference the actual entry points.
        from repro.core import OriginPolicy  # noqa: F401
        from repro.sim import HARExperiment  # noqa: F401

        assert "HARExperiment.standard_mhealth" in text
        assert "OriginPolicy.with_rr" in text

    def test_design_doc_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "matches the stated title" in text
