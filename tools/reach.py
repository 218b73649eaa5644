"""Functions under src/ that no contract path reaches.

Runs the tier-1 test suite in this process under `sys.setprofile`, and
tags every call into `src/clusterkit` as a contract call when `cli.main`
or the import of a module under `src/` is on the stack, or when the test
being collected or run is in `tests/test_acceptance.py`.  It then prints
each function, method or nested function defined under `src/` that no
contract call reached, with the test files that do call it ("none" when
no test does).  Lambdas and
comprehensions are left out, and so is code run in a child process.
It takes about three times as long as the plain suite.  Run from the root
of a checkout, with no options:

    python3 tools/reach.py

It exits 1 when the suite fails or when it lists a function outside
`KEPT`, the writers kept for the Python API, and 0 otherwise.
"""

import inspect
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ACCEPTANCE = "test_acceptance.py"
ROOTS = {("cli", "main")}
# writers the command line reaches through its own streaming writer, kept
# as the Python API's reference form of its output
KEPT = {("laurent", "to_json"), ("seeds", "seed_to_json")}

sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

Key = Tuple[str, str]


def _qualname(code) -> str:
    return getattr(code, "co_qualname", code.co_name)


def _functions(code, module: str) -> Iterator[Key]:
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield module, _qualname(const)
            yield from _functions(const, module)


def defined() -> List[Key]:
    """Every function under src/ as (module, qualified name), in source
    order."""
    keys: List[Key] = []
    for path in sorted((SRC / "clusterkit").glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        keys += _functions(code, path.stem)
    return list(dict.fromkeys(keys))


class Reach:
    """The pytest plugin that names the running test file, and the profile
    hook that records each call into src/ under it."""

    def __init__(self) -> None:
        self.contract: Set[Key] = set()
        self.callers: Dict[Key, Set[str]] = {}
        self.current = ""
        self._depth = 0
        self._src = str(SRC / "clusterkit")
        self._keys: Dict[object, Key] = {}

    def profile(self, frame, event, arg) -> None:
        code = frame.f_code
        if event not in ("call", "return") or not code.co_filename.startswith(self._src):
            return
        key = self._keys.get(code)
        if key is None:
            key = self._keys[code] = (Path(code.co_filename).stem, _qualname(code))
        # a root counts as reached, and so does all it calls
        root = key in ROOTS or code.co_name == "<module>"
        if event == "return":
            self._depth -= root
        else:
            self._depth += root
            if self._depth or self.current == ACCEPTANCE:
                self.contract.add(key)
            else:
                self.callers.setdefault(key, set()).add(self.current)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_make_collect_report(self, collector):
        self.current = getattr(collector, "path", Path("")).name
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.current = item.path.name
        yield


def main() -> int:
    reach = Reach()
    sys.setprofile(reach.profile)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"], plugins=[reach])
    finally:
        sys.setprofile(None)
    missed = [key for key in defined() if key not in reach.contract]
    print(f"\n{len(missed)} functions under src/ that neither cli.main nor {ACCEPTANCE} reaches:")
    for module, name in missed:
        tests = ", ".join(sorted(reach.callers.get((module, name), ()))) or "none"
        print(f"  {module}.{name}  <-  {tests}")
    return int(status != 0 or not KEPT.issuperset(missed))


if __name__ == "__main__":
    sys.exit(main())
