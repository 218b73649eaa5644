"""The mutant catalogue: recorded mutants of src/ and the tests that kill them.

Each row of `MUTANTS` names a module under src/clusterkit, an exact text
of it, the text that replaces it, the pytest arguments expected to kill
the mutant, and the start of the title of the CHANGES.md entry that
recorded it.  A known survivor is listed with `survives=True`, not left
out.  For each row the tool copies src/ and tests/ into a temporary
directory, checks that the old text occurs exactly once in the copy,
applies the edit and runs pytest with -x on the target.  It prints
"killed" or "survived" per row, and exits 1 when an anchor text does not
occur exactly once, a mutant expected to be killed survives, a known
survivor is killed or a target names no test, and 0 otherwise.  Run from
the root of a checkout, with no options:

    python3 tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
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
    Mutant("lattice.py", "    if a and len(a[0]) != len(v):", "    if False:",
           ("tests/test_errors.py", "-k", "inner and dimensions"), ONE_PASS),
    Mutant("patterns.py", "    if base.m != frozen:", "    if False:",
           ("tests/test_errors.py", "-k", "frozen and counts"), ONE_PASS),
    Mutant("patterns.py", "    if n != rank:", "    if False:",
           ("tests/test_errors.py", "-k", "principal and part"), ONE_PASS),
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
    Mutant("patterns.py", "btilde[v][q] == row[i] and btilde[q][v] == principal[i][k]",
           "btilde[v][q] == row[i]", ("tests/test_patterns.py::test_relabelings_match_brute_force",),
           # killed before the images were filtered by sorted row and column;
           # since then no input is known where the column half decides
           "One relabeling search", survives=True),
    Mutant("grassmann.py", " or j_set[t] > p + t - 1 + ctx.k]", "]",
           ("tests/test_grassmann.py::test_every_factor_is_irreducible_by_sympy",),
           "Cut `src/` to its contract"),
    Mutant("seeds.py", "row = [x - bik * y if y < 0 else x", "row = [x - bik * y if y > 0 else x",
           ("tests/test_seeds.py::TestMatrixMutation",), "Integer row arithmetic"),
    Mutant("lattice.py", "        if x:\n            out = [s + x * y", "        if x > 0:\n            out = [s + x * y",
           ("tests/test_lattice.py",), "Integer row arithmetic"),
]


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
    for mutant in MUTANTS:
        verdict = run(mutant)
        bad += verdict != ("survived" if mutant.survives else "killed")
        known = " (known)" if mutant.survives else ""
        print(f"{verdict + known:17} {mutant.module:12} {mutant.old.strip()[:48]!r:52} "
              f"{mutant.recorded}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} rows as recorded")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
