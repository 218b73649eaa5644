"""Net lines and code lines of every module under src/, and their totals.

Code lines leave out blank lines, comments (found with `tokenize`) and
docstrings (found with `ast`), so a proof in a docstring is not counted
as code.  Run from the root of a checkout:

    python3 tools/src_lines.py
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(path: Path) -> tuple:
    """(net lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    total_net = total_code = 0
    print(f"{'module':<32} {'net':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        net, code = counts(path)
        total_net, total_code = total_net + net, total_code + code
        print(f"{path.relative_to(root).as_posix():<32} {net:>6} {code:>6}")
    print(f"{'total':<32} {total_net:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
