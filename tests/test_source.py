"""Source-tree guards that the test suite enforces in place of CI."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "clusterkit").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so input checks must raise typed errors
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("name", ["lattice.py", "seeds.py"])
def test_integer_kernels_import_no_fractions(name):
    # the linear algebra and the symmetrizer run fraction-free
    path = SOURCES[0].parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "fractions" not in modules, f"{name} imports fractions"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    # indented JSON text goes through cli._json_text, which writes it in one
    # pass; json.dump(s) with indent runs the pure-Python encoder
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert lines == [], f"{path.name} calls json.dump(s) with indent on lines {lines}"
