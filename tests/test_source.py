"""Source-tree guards that the test suite enforces in place of CI."""

import ast
import os
import subprocess
import sys
import textwrap
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_records_import_no_dataclasses(path):
    # records are NamedTuples: dataclasses imports inspect and runs a
    # generated class body per record on every start
    assert "dataclasses" not in _imported_modules(path), f"{path.name} imports dataclasses"


def test_import_compiles_no_annotation_strings():
    # a class-syntax NamedTuple in a module with `from __future__ import
    # annotations` has string annotations, which typing compiles into a
    # ForwardRef each on every start; the records name real types instead
    code = textwrap.dedent("""
        import typing
        made = []
        init = typing.ForwardRef.__init__
        typing.ForwardRef.__init__ = lambda self, *a, **kw: made.append(a) or init(self, *a, **kw)
        import clusterkit.cli
        print(len(made), made)
    """)
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"


def test_cli_enumerates_no_cases():
    # case enumeration lives with the mathematics in the modules; the
    # command line renders what their check suites return
    assert "itertools" not in _imported_modules(TESTS.parent / "src" / "clusterkit" / "cli.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    # indented JSON text is yielded in pieces by cli._json, or, for the
    # exchange graph, by patterns' graph_json_chunks, and written by
    # cli._write; json.dump(s) with indent runs the pure-Python encoder
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


def test_one_division_loop():
    # the division loop and its heap of remainder keys live in
    # laurent.div_packed alone: every exact division, the packed exchanges
    # of seeds and patterns included, runs through it
    heap = {"heappush", "heappop"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        users = {
            func.name
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Name) and node.id in heap
        }
        if path.name == "laurent.py":
            assert users == {"div_packed"}
        else:
            assert not named & heap, f"{path.name} uses {sorted(named & heap)}"


def test_one_relabeling_search():
    # relabelings that keep a principal part are found by
    # patterns.relabelings alone, which prunes each prefix: no loop over
    # all n! permutations is left in patterns or in the annulus suites
    # (surfaces.signed_permutation_group enumerates the signed group itself)
    src = TESTS.parent / "src" / "clusterkit"
    patterns = ast.parse((src / "patterns.py").read_text(encoding="utf-8"))
    surfaces = ast.parse((src / "surfaces.py").read_text(encoding="utf-8"))
    suites = next(node for node in ast.walk(surfaces)
                  if isinstance(node, ast.FunctionDef) and node.name == "check_suites")
    for name, tree in (("patterns.py", patterns), ("surfaces.check_suites", suites)):
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
        assert "permutations" not in named, f"{name} uses permutations"
    assert "relabelings" in {node.attr for node in ast.walk(suites)
                             if isinstance(node, ast.Attribute)}


def test_explore_mutates_matrices_only_for_new_nodes():
    # patterns keys nodes by cluster and divides through seeds.exchange_packed:
    # it packs, unpacks and divides nothing itself, and divides and mutates a
    # matrix only in the branch that adds a node, a direction that no facet
    # closed (after the test `k in adjacency[idx]` continues)
    path = TESTS.parent / "src" / "clusterkit" / "patterns.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    guarded = ("lp.unpack", "lp.exact_div", "sd.mutate_matrix", "sd.exchange_packed")
    new_node = {
        id(sub)
        for loop in ast.walk(tree) if isinstance(loop, ast.For)
        for pos, node in enumerate(loop.body)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "k in adjacency[idx]"
        and isinstance(node.body[0], ast.Continue)
        for stmt in loop.body[pos + 1:] for sub in ast.walk(stmt)
    }
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in guarded]
    assert sorted(ast.unparse(node.func) for node in calls) == ["sd.exchange_packed",
                                                                "sd.mutate_matrix"]
    assert all(id(node) in new_node for node in calls)


def test_one_packed_form():
    # laurent.Operand is the one packer and laurent.unpack the one decoder:
    # every packed polynomial sits on nonnegative lanes, the band side of
    # grassmann stays packed through its factorization, and no flat-to-band
    # case expands the g_star minors of its rows
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}

    def defined(name):
        return {node.name for node in trees[name].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    assert not defined("laurent.py") & {"pack", "max_abs_exponent", "unpack_shifted"}
    assert not defined("grassmann.py") & {"poly_det", "_g_row_minors", "_run_product_fast", "_fast_minors"}
    called = {ast.unparse(node.func) for node in ast.walk(trees["grassmann.py"])
              if isinstance(node, ast.Call)}
    assert not called & {"lp.exact_div", "lp.shift", "lp.max_abs_exponent"}
    for name, tree in trees.items():
        used = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)
                if isinstance(node, (ast.Attribute, ast.Name))}
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        assert name == "laurent.py" or "_weights" not in used, f"{name} uses _weights"


def test_one_exchange_relation():
    # mutation, orbit mutation, hatted variables and exploration all build
    # their exchange terms in seeds.packed_terms, which takes each power
    # from its operand (`x.power`), so that a mutation walk may keep them:
    # no other loop multiplies cluster variables into terms, seeds raises
    # nothing packed itself, and no module outside laurent divides
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}

    def calls(tree):
        return {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    for name, tree in trees.items():
        assert not calls(tree) & {"lp.exact_div", "exact_div"}, f"{name} calls exact_div"
    products = {"mul", "power", "mul_packed", "power_packed"}
    kinds = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    loops = {
        func.name
        for func in ast.walk(trees["seeds.py"]) if isinstance(func, ast.FunctionDef)
        for loop in ast.walk(func) if isinstance(loop, kinds)
        if products & {node.attr for node in ast.walk(loop) if isinstance(node, ast.Attribute)}
    }
    assert loops == {"packed_terms"}
    packed_terms = next(func for func in ast.walk(trees["seeds.py"])
                        if isinstance(func, ast.FunctionDef) and func.name == "packed_terms")
    assert "x.power" in calls(packed_terms)
    assert not calls(trees["seeds.py"]) & {"lp.power_packed", "lp.mul_packed"}
    for name in ("orbits.py", "quasihom.py"):
        assert not calls(trees[name]) & {"lp.mul", "lp.power", "lp.exact_div"}, name


def test_factorization_divides_nothing():
    # band images factor by reading the blocks of their zero pattern, which
    # are proved irreducible, so grassmann never calls a division
    tree = ast.parse((TESTS.parent / "src" / "clusterkit" / "grassmann.py").read_text(
        encoding="utf-8"))
    used = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert not used & {"div_packed", "exact_div"}


def _term_loops(tree):
    """Lines that rebuild a dict term by term from another dict's items: a
    comprehension whose key or value computes, or a loop that stores under
    its own key."""

    def over_items(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "items"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp) and any(over_items(g.iter) for g in node.generators):
            if any(isinstance(sub, (ast.BinOp, ast.UnaryOp))
                   for part in (node.key, node.value) for sub in ast.walk(part)):
                lines.append(node.lineno)
        elif isinstance(node, ast.For) and over_items(node.iter) and isinstance(node.target, ast.Tuple):
            key = ast.unparse(node.target.elts[0])
            stores = [target for sub in ast.walk(node)
                      for target in (sub.targets if isinstance(sub, ast.Assign) else
                                     [sub.target] if isinstance(sub, ast.AugAssign) else [])]
            lines += [target.lineno for target in stores
                      if isinstance(target, ast.Subscript) and ast.unparse(target.slice) == key]
    return lines


def test_one_signed_sum():
    # laurent._add_product is the one product loop and laurent.signed_sum the
    # one evaluator of signed products: exchange relations, hatted pairs,
    # determinants and Plücker identities reach them, and no other module
    # multiplies packed values or sums their terms itself
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    for name, tree in trees.items():
        used = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)
                if isinstance(node, (ast.Attribute, ast.Name))}
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        if name != "laurent.py":
            assert not used & {"mul_packed", "_add_product"}, f"{name} multiplies packed values"
            assert _term_loops(tree) == [], f"{name} sums terms itself"
    assert "_signed_sum" not in {node.name for node in trees["grassmann.py"].body
                                 if isinstance(node, ast.FunctionDef)}


def test_cli_writes_seeds_through_one_writer():
    # every seed the command line prints or writes goes through the seed
    # branch of cli._json, the one function that tells a seed apart;
    # seeds.seed_to_json is left to the Python API and to the writer's
    # reference test
    tree = ast.parse((TESTS.parent / "src" / "clusterkit" / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert "seed_to_json" not in names
    writers = {
        func.name
        for func in tree.body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and "sd.Seed" in map(ast.unparse, [node.left, *node.comparators])
    }
    assert writers == {"_json"}


def test_no_second_copies():
    # explore's node list is its queue, one reader checks a typed JSON list,
    # a packed operand keeps the packing it is made with at any width, and
    # orbit mutation leaves its direction check to seeds.mutate_matrix
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}

    def names(tree):
        return {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)
                if isinstance(node, (ast.Attribute, ast.Name, ast.FunctionDef))} | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}

    assert "deque" not in names(trees["patterns.py"])
    for name, tree in trees.items():
        assert not names(tree) & {"json_ints", "json_names"}, name
    packed_form = next(node for node in ast.walk(trees["laurent.py"])
                       if isinstance(node, ast.FunctionDef) and node.name == "packed_form")
    assert "unpack" not in {ast.unparse(node.func) for node in ast.walk(packed_form)
                            if isinstance(node, ast.Call)}
    texts = [node.value for node in ast.walk(trees["orbits.py"])
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not [text for text in texts if "out of range" in text]


def test_one_pass_verifiers():
    # verify_report decides both orientations in one pass over the direct
    # data, the hatted check propagates in the closed form of
    # seeds.rp_propagated, and a mutation walk leaves its direction check
    # to seeds.mutate_matrix
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    for name, tree in trees.items():
        assert not set(_definitions(tree)) & {"rp_mul", "rp_power", "rp_plus_one",
                                              "opposite_seed"}, name

    def function(module, name):
        return next(node for node in ast.walk(trees[module])
                    if isinstance(node, ast.FunctionDef) and node.name == name)

    def called(func):
        return {ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)}

    assert "verify_report" not in called(function("quasihom.py", "verify_report"))
    assert "_check_direction" not in called(function("seeds.py", "mutation_walk"))
