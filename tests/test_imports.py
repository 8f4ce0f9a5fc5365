"""Import hygiene: every name a module imports is used in that module, every
name a colwave module exports in __all__ exists, and the scenario layer that
`colwave validate` and `colwave list` load imports only the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "colwave").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are re-exports, which count as a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom a.b import c, d as e\nimport x.y\nx.y.f(e)\n") == [
        "c (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "colwave").glob("*.py")), ids=lambda p: p.name)
def test_every_name_in_all_exists(path):
    module = importlib.import_module("colwave" if path.stem == "__init__" else f"colwave.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


# the modules `colwave validate` and `colwave list` load; they may import each other
SCENARIO_LAYER = ("cli", "spec")


def _outside_stdlib(source: str) -> list:
    """Module-level imports of SOURCE other than the standard library and SCENARIO_LAYER."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                inside = node.module in SCENARIO_LAYER
            else:
                inside = node.module.split(".")[0] in sys.stdlib_module_names
            out += [] if inside else ["." * node.level + (node.module or "")]
    return out


def test_import_outside_stdlib_is_found():
    source = "import math, numpy.linalg\nfrom . import solvers\nfrom .spec import A\nfrom scipy import special\n" \
             "def f():\n    import numpy\n"
    assert _outside_stdlib(source) == ["numpy.linalg", ".", "scipy"]


@pytest.mark.parametrize("name", SCENARIO_LAYER)
def test_scenario_layer_imports_only_the_standard_library(name):
    assert _outside_stdlib((ROOT / "src" / "colwave" / f"{name}.py").read_text()) == []
