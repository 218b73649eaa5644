"""Source-tree guards that the test suite enforces in place of CI."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "clusterkit").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so input checks must raise typed errors
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    return modules + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_integer_kernels_import_no_fractions(path):
    # all arithmetic is on ints: the linear algebra and the symmetrizer run
    # fraction-free, and nothing substitutes rational values
    assert "fractions" not in _imported_modules(path), f"{path.name} imports fractions"


def test_cli_enumerates_no_cases():
    # case enumeration lives with the mathematics in the modules; the
    # command line renders what their check suites return
    assert "itertools" not in _imported_modules(TESTS.parent / "src" / "clusterkit" / "cli.py")


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


def _definitions(tree):
    """Top-level functions, classes and assigned names (not dunders)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        out[name.id] = node
    return out


def _imports(tree):
    """Local name -> (module, None) for an imported clusterkit module, or
    (module, name) for a name imported from one."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("clusterkit.") and alias.asname:
                    out[alias.asname] = (alias.name.rsplit(".", 1)[1], None)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("clusterkit")
        ):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                if module in ("", "clusterkit"):
                    out[local] = (alias.name, None)
                else:
                    out[local] = (module, alias.name)
    return out


def _references(node, module, defined, imports):
    """(module, name) of every clusterkit definition the node names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            target = imports.get(sub.id)
            if target and target[1]:
                yield target
            elif sub.id in defined.get(module, ()):
                yield module, sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = imports.get(sub.value.id)
            if target and target[1] is None:
                yield target[0], sub.attr


def test_every_definition_is_reached():
    # the contract is the CLI, the acceptance criteria and the sympy oracles;
    # a top-level definition none of them reaches is surface nobody asked
    # for, so delete it or call it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    for name in ("test_acceptance", "test_oracles"):
        trees[name] = ast.parse((TESTS / f"{name}.py").read_text(encoding="utf-8"))
    defined = {module: _definitions(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree) for module, tree in trees.items()}
    # roots: all of cli and of the two test files, and every module-level
    # statement that defines nothing, since it runs on import
    roots = {"cli", "test_acceptance", "test_oracles"}
    reached = {(module, name) for module in roots for name in defined[module]}
    todo = [(node, module) for module, tree in trees.items() for node in tree.body
            if module in roots or node not in defined[module].values()]
    while todo:
        node, module = todo.pop()
        for key in _references(node, module, defined, imports[module]):
            if key not in reached and key[1] in defined.get(key[0], {}):
                reached.add(key)
                todo.append((defined[key[0]][key[1]], key[0]))
    unreached = sorted(
        f"{module}.{name}" for module, names in defined.items() for name in names
        if (module, name) not in reached
    )
    assert unreached == [], f"unreached top-level definitions: {unreached}"
