"""The package's public surface, and its modules' imports.

The package root exports what the CLI, the benchmark harness and the
README's Python API call, and the types those calls return or raise. The
list below pins it, so a name added to or dropped from the root shows up
as an edit here. Every module of the library, and the tests' shared
helpers, uses each name it imports (no linter runs in CI, so this test
stands in for that one rule)."""

import ast
import types
from pathlib import Path

import pytest

import branchgen

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "ADTUniverse", "AdtError", "BudgetExhausted", "CDG", "CdgEdge", "ConstraintError",
    "ConstructorDecl", "ConstructorExpectation", "CostFunction", "Field", "GenSpec",
    "ParseError", "PredictionReport", "STRATEGIES", "STRATEGY_DERIVE", "STRATEGY_DRAGEN",
    "STRATEGY_MEGADETH", "SampleStats", "SearchConfig", "SearchTrace", "TypeDecl", "Value",
    "adhoc_genspec", "build_cdg", "chi_square", "derive_generator_with_trace",
    "empirical_stats", "extinction_probability", "histogram_csv", "load_probmap",
    "neighbors", "only_cost", "only_types_cost", "optimize", "parse_cost_expression",
    "parse_universe", "predict_constructors", "predict_foreign", "prediction_report_json",
    "print_universe", "probmap_to_json", "renormalize_probmap", "resolve_constructor",
    "sample_derive", "sample_dragen", "sample_megadeth", "sample_values", "star_probs",
    "terminal_constructors", "uniform_cost", "uniform_probmap", "universe_hash",
    "validate_probmap", "value_to_json", "value_to_sexp", "weighted_cost", "without_cost",
    "without_types_cost",
]


def test_public_names():
    names = sorted(n for n, v in vars(branchgen).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert len(PUBLIC_NAMES) == 58
    assert names == sorted(PUBLIC_NAMES)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order. A
    name counts as read wherever it appears as an identifier, annotations
    included; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(source) == ["os", "osp", "d"]


# the package root only re-exports, which the public-name test pins
MODULES = sorted(p for p in (ROOT / "src" / "branchgen").glob("*.py")
                 if p.name != "__init__.py") + [ROOT / "tests" / "helpers.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
