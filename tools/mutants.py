"""The mutant catalogue: recorded mutants of src/ and the tests that kill them.

Each row of `MUTANTS` names a module under src/clusterkit, an exact text
of it, the text that replaces it, the pytest arguments expected to kill
the mutant, and the start of the title of the CHANGES.md entry that
recorded it.  A known survivor is listed with `survives=True`, not left
out.  `typed` rows make one `raise` of a typed error raise RuntimeError
instead, each killed by the tests/test_errors.py rows that name its
message, and `unchecked` rows make one call of the shape check
`laurent.shape` check nothing.  For each row the tool copies src/ and
tests/ into a temporary directory, checks that the old text occurs
exactly once in the copy, applies the edit and runs pytest with -x on
the target, one row per CPU at a time.  It prints "killed" or
"survived" per row, in table order, and exits 1 when an anchor text
does not occur exactly once, a mutant expected to be killed survives, a
known survivor is killed or a target names no test, and 0 otherwise.
Run from the root of a checkout, with no options:

    python3 tools/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    target: Tuple[str, ...]
    recorded: str
    survives: bool = False


ONE_PASS = "One pass per verdict"
SECOND_COPIES = "Second copies go"
ONE_IMPLEMENTATION = "One implementation per concept"
ONE_SHAPE = "One shape check"


def errors(words: str) -> Tuple[str, ...]:
    # the tests/test_errors.py rows that `-k words` selects
    return ("tests/test_errors.py", "-k", words)


def typed(module: str, raising: str, words: str) -> Mutant:
    """The row that makes the `raise` in `raising` raise RuntimeError, to be
    killed by the tests/test_errors.py rows that `-k words` selects."""
    return Mutant(module, raising, re.sub(r"raise [\w.]+\(", "raise RuntimeError(", raising),
                  errors(words), ONE_IMPLEMENTATION)


def unchecked(module: str, call: str, target: Tuple[str, ...]) -> Mutant:
    """The row that makes the one call of `laurent.shape` that `call`
    starts with check nothing and return 0, to be killed by `target`."""
    return Mutant(module, call, re.sub(r"\b(lp\.)?shape\(", "(lambda *args, **kw: 0)(", call,
                                       count=1), target, ONE_SHAPE)


# every call of the one shape check, each killed by the rows it guards
SHAPES = [
    unchecked("laurent.py", '    shape((a, b), "exponents")\n    return tuple(map(_iadd',
              errors("exponents")),
    unchecked("laurent.py", '    shape((a, b), "exponents")\n    return tuple(map(_isub',
              errors("exponents")),
    unchecked("laurent.py", '    shape((u, v), "tropical operands")', errors("tropical")),
    unchecked("laurent.py", '        shape([e], "exponents"', errors("exponents")),
    unchecked("lattice.py", '    out = [0] * shape(a, "matrix"', errors("shape and matrix")),
    unchecked("lattice.py", '    shape(a, "matrix", width=len(v))', errors("shape and matrix")),
    unchecked("lattice.py", '    m, n = len(a), shape(a, "matrix")', errors("shape and matrix")),
    unchecked("lattice.py", '    shape(bs, "right-hand sides"', errors("right")),
    unchecked("seeds.py", '    n = lp.shape(b, "matrix"', errors("shape and matrix")),
    unchecked("seeds.py", '        lp.shape(self.btilde, "btilde"', errors("btilde")),
    unchecked("seeds.py", '        lp.shape([e for x in self.cluster',
              errors("cluster and exponents")),
    unchecked("orbits.py", '        lp.shape((c, d), "rescaling")', errors("rescaling")),
    unchecked("orbits.py", '        lp.shape(self.b + [self.cluster, self.pairs]', errors("pairs")),
    unchecked("orbits.py", '        lp.shape(list(chain(*self.pairs, *self.cluster))',
              ("tests/test_orbits.py", "-k", "seedlike_rejects_exponents")),
    unchecked("orbits.py", '    lp.shape(r, "rescaling", width=n)', errors("rescaling")),
    unchecked("quasihom.py", '        lp.shape(self.matrix, "matrix"', errors("shape and matrix")),
    unchecked("patterns.py",
              '    lp.shape(btilde, "btilde", width=n, count=max(len(btilde), n))\n    out',
              errors("btilde")),
    unchecked("patterns.py", '    n = lp.shape(principal, "principal part"', errors("principal")),
    unchecked("patterns.py", '        lp.shape(btilde, "btilde"', errors("btilde")),
    unchecked("surfaces.py", '        r = lp.shape(matrix, "signed permutation"', errors("signed")),
    unchecked("surfaces.py", '    lp.shape(vecs, "vectors"', errors("vectors")),
    unchecked("surfaces.py", '    lp.shape(boundary_matrix, "boundary matrix"', errors("boundary")),
    unchecked("surfaces.py", '        lp.shape(rows, "pairing table"', errors("pairing and table")),
    unchecked("surfaces.py", '    lp.shape([shear], "shear vector"', errors("shear and vector")),
    unchecked("surfaces.py", '    lp.shape(b, "matrix", width=n, count=n',
              errors("shape and matrix")),
]

TYPED = [
    typed("laurent.py", 'raise ValueError(f"shift exponent', "shift"),
    typed("laurent.py", 'raise ValueError(f"zero polynomial to the power', "zero and power"),
    typed("laurent.py", 'raise NotDivisible(f"negative power of coefficient', "coefficient"),
    typed("laurent.py", 'raise NotDivisible(f"negative power {k}', "monomial"),
    typed("laurent.py", 'raise ValueError("zero polynomial has no leading', "leading"),
    typed("laurent.py", 'raise ValueError("zero polynomial has no minimal', "minimal"),
    typed("laurent.py", 'raise ValueError("the zero polynomial has no tropical', "tropical"),
    typed("laurent.py", 'raise ValueError(f"num_mutable', "num_mutable"),
    typed("laurent.py", 'raise error(f"shape of {what}', "shape"),
    typed("laurent.py", 'raise ValueError(f"{len(names)} variable names', "variable and names"),
    typed("laurent.py", 'raise ValueError(f"operands have different arities', "arities"),
    typed("seeds.py", 'raise ValueError(f"direction {k} out of range', "direction"),
    typed("seeds.py", 'raise InvalidSeed(\n                f"{len(self.var_names)} variable names',
          "generators"),
    typed("orbits.py", 'raise sd.InvalidSeed("zero cluster variable', "zero and cluster"),
    typed("quasihom.py", 'raise InvalidMap("mutable counts out of range', "mutable and counts"),
    typed("quasihom.py", 'raise InvalidMap("maps differ in variables', "maps and differ"),
    typed("quasihom.py", 'raise PrincipalMismatch("principal ranks must agree', "ranks and agree"),
    typed("quasihom.py", 'raise InvalidNerve("empty edge set', "empty"),
    typed("quasihom.py", 'raise InvalidNerve(f"label out of range', "label"),
    typed("patterns.py", 'raise ValueError("need max_depth', "max_depth or max_nodes"),
    typed("patterns.py", 'raise ValueError(f"node {node} out of range', "node and range"),
    typed("patterns.py", 'raise qh.PrincipalMismatch(f"base of rank', "base and rank"),
    typed("grassmann.py", 'raise InvalidIndex(f"substitution needs one image', "image"),
    typed("grassmann.py", 'raise InvalidIndex(f"base needs', "base and needs"),
    typed("surfaces.py", 'raise InvalidSurfaceData(f"unknown component kind', "unknown"),
    typed("surfaces.py", 'raise InvalidSurfaceData("puncture carries no cilia', "carries"),
    typed("surfaces.py", 'raise InvalidSurfaceData("even boundary component', "even"),
    typed("surfaces.py", 'raise InvalidSurfaceData(\n            f"component {comp} out of range',
          "component and range"),
]

# the two NotDivisible tests of laurent.div_packed, in their order there
MONOMIAL_TEST = ('        if d & guard:\n'
                 '            raise NotDivisible("leading monomial not divisible")\n')
COEFFICIENT_TEST = ('        q, r = divmod(c, cg)\n        if r:\n'
                    '            raise NotDivisible("leading coefficient not divisible over Z")\n')

MUTANTS = [
    Mutant("seeds.py", "(num, plus_one) if b >= 0 else (plus_one, den)",
           "(num, plus_one) if b >= 0 else (den, plus_one)",
           ("tests/test_seeds.py::TestHatted::test_propagation_along_walks",), ONE_PASS),
    Mutant("seeds.py", "plus_one = lp.add(num, den)", "plus_one = lp.add(num, num)",
           ("tests/test_oracles.py", "-k", "rp_propagated"), ONE_PASS),
    Mutant("quasihom.py", "if allow_opposite and not matched:", "if False:",
           ("tests/test_quasihom.py::test_verify_report_keeps_direct_witnesses_under_opposite",),
           ONE_PASS),
    Mutant("quasihom.py", "if allow_opposite and not matched:", "if allow_opposite:",
           ("tests/test_quasihom.py::test_opposite_verdict_is_direct_verdict_on_either_target",),
           ONE_PASS),
    Mutant("quasihom.py", "if not sd.is_indecomposable(dst_at[vertices[0]].principal):",
           "if False:", ("tests/test_quasihom.py::test_nerve_decomposable_target",), ONE_PASS),
    Mutant("seeds.py", "btilde = mutate_matrix(seed.btilde, k)", "btilde = seed.btilde",
           ("tests/test_seeds.py::TestSeedMutation::test_gr35_mutation_at_d245",), ONE_PASS),
    Mutant("seeds.py", "btilde = mutate_matrix(seed.btilde, k)",
           "_check_direction(k, seed.n)\n        btilde = mutate_matrix(seed.btilde, k)",
           ("tests/test_source.py::test_one_pass_verifiers",), ONE_PASS),
    Mutant("patterns.py", "    if base.m != frozen:", "    if False:",
           ("tests/test_errors.py", "-k", "frozen and counts"), ONE_PASS),
    Mutant("patterns.py", "    if sorted(perm) != list(range(n)):", "    if False:",
           ("tests/test_errors.py", "-k", "permutation"), ONE_PASS),
    Mutant("laurent.py", "    if coef == 0:\n        return {}\n    return {e: c * coef",
           "    return {e: c * coef",
           ("tests/test_laurent.py::TestRingAxioms::test_scaling_by_zero_leaves_no_terms",),
           SECOND_COPIES),
    Mutant("laurent.py", "power {k}\")\n        return {}\n", "power {k}\")\n",
           ("tests/test_laurent.py::TestRingAxioms::test_positive_power_of_zero_is_zero",),
           SECOND_COPIES),
    Mutant("laurent.py", "        if name != \"poly\":\n            raise AttributeError(name)\n", "",
           ("tests/test_laurent.py::TestPackedKernel::test_operand_has_no_attribute_but_its_fields",),
           SECOND_COPIES),
    Mutant("seeds.py", "    if any(len(row) != n for row in b):\n        return None\n", "",
           ("tests/test_seeds.py::TestMatrixMutation::test_symmetrizer_rejects_a_non_square_matrix",),
           SECOND_COPIES),
    Mutant("seeds.py", "    if n == 0:\n        return True\n", "",
           ("tests/test_seeds.py::TestIndecomposable::test_empty_matrix_is_indecomposable",),
           SECOND_COPIES),
    Mutant("quasihom.py", "    if any(any(row) for row in diff[: m1.dst_mutable]):\n        return None\n",
           "", ("tests/test_quasihom.py::test_proportional_rejects_mutable_difference",),
           "One power cache per operand"),
    Mutant("grassmann.py", " or j_set[t] > p + t - 1 + ctx.k]", "]",
           ("tests/test_grassmann.py::test_every_factor_is_irreducible_by_sympy",),
           "Cut `src/` to its contract"),
    Mutant("seeds.py", "row = [x - bik * y if y < 0 else x", "row = [x - bik * y if y > 0 else x",
           ("tests/test_seeds.py::TestMatrixMutation",), "Integer row arithmetic"),
    Mutant("lattice.py", "        if x:\n            out = [s + x * y",
           "        if x > 0:\n            out = [s + x * y", ("tests/test_lattice.py",),
           "Integer row arithmetic"),
    Mutant("seeds.py", "min(len(btilde[0]), total)", "len(btilde[0])", errors("btilde"), ONE_SHAPE),
    Mutant("seeds.py", "    if (seed.n, seed.m) != (n, m):", "    if False:",
           ("tests/test_cli.py", "-k", "shape_faults and declared"), ONE_SHAPE),
    Mutant("quasihom.py", " or (0,) * len(m.dst_vars)", "",
           ("tests/test_quasihom.py::test_apply_map_arity_mismatch",), ONE_SHAPE),
    Mutant("patterns.py", "(sorted(row[:n]), sorted(column))", "sorted(row[:n])",
           ("tests/test_patterns.py::test_relabelings_compare_sorted_columns",), ONE_IMPLEMENTATION),
    Mutant("grassmann.py", "(sum(units) + p * (p + 1) // 2) % 2", "sum(units) % 2",
           ("tests/test_grassmann.py::test_chart_minors_match_point_oracle",),
           "Grassmann determinants by their structure"),
    Mutant("cli.py", '    except KeyError as exc:\n        reason = f"missing field {exc}"\n', "",
           ("tests/test_cli.py::test_boundary_probe",), "One streamed writer for every command"),
    Mutant("laurent.py", "out = {key: scale * c for key, c in last.items()}",
           "out = last if scale == 1 else {key: scale * c for key, c in last.items()}",
           ("tests/test_laurent.py", "-k", "signed_sum_matches_ring_operations"),
           "One signed-sum evaluator in `laurent`"),
    Mutant("laurent.py", "        cg *= scale\n", "",
           ("tests/test_laurent.py", "-k", "signed_sum_matches_ring_operations"),
           "One signed-sum evaluator in `laurent`"),
    Mutant("laurent.py", MONOMIAL_TEST + COEFFICIENT_TEST, COEFFICIENT_TEST + MONOMIAL_TEST,
           ("tests/test_laurent.py", "-k", "division_fails_as_johnson_does"),
           "Mutation words at product speed"),
] + SHAPES + TYPED


def run(mutant: Mutant) -> str:
    """"killed", "survived", "anchor missing" or "bad target" for one row."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = work / "src" / "clusterkit" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "anchor missing"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.target], cwd=work, env=env, capture_output=True)
        # pytest exits 1 on a failed test and 2 on a failed collection; 4
        # on a node id that names no test and 5 when -k selects none
        return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, "bad target")


def main() -> int:
    bad = 0
    # one row per CPU at a time, each in its own copy; printed in table order
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for mutant, verdict in zip(MUTANTS, pool.map(run, MUTANTS)):
            bad += verdict != ("survived" if mutant.survives else "killed")
            known = " (known)" if mutant.survives else ""
            print(f"{verdict + known:17} {mutant.module:12} {mutant.old.strip()[:48]!r:52} "
                  f"{mutant.recorded}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} rows as recorded")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
