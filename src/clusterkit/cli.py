"""Command line drivers tying the workbench modules together.

Every subcommand reads and writes JSON; the exchange graph can also be
rendered as DOT, and --format text switches any report to a terse
human-readable summary.  Exit status is 0 when every requested check
passes, 1 when some check fails (the failure payload still goes to
stdout), and 2 for unreadable or malformed input, which includes seed
files that are not seeds of any pattern.

JSON text on stdout, in --out files and in exit-2 stderr payloads is exactly
`json.dumps(obj, indent=2)`, written by `_json_text`, since CPython's C
encoder ignores `indent` before 3.14 and the pure-Python one costs about as
much as the mutations it reports.  With a 3.14 floor the writer can go.

The front end is one `argparse` parser, built once at import with one
sub-parser per command, so the runtime needs nothing beyond the standard
library and a command line costs one parse before its command body runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, TypeVar

from . import grassmann as gx
from . import laurent as lp
from . import orbits as ob
from . import patterns as pt
from . import quasihom as qh
from . import seeds as sd
from . import surfaces as sf

Payload = Dict[str, object]
T = TypeVar("T")


class InputFault(Exception):
    """Unreadable or malformed input: `main` writes `Error: ` and the payload
    as JSON to stderr and exits 2."""

    def __init__(self, payload: Payload):
        super().__init__(payload)
        self.payload = payload


def _json_text(obj: object, nl: str = "\n") -> str:
    """`json.dumps(obj, indent=2)` for dicts with str keys, lists, tuples,
    str, int, bool and None, by exact type; others raise TypeError.  `nl` is
    the line prefix.  Scalar dict values and all-int or all-str lists are
    written inline, without a call per item."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = nl + "  "
    if kind is dict:
        if not obj:
            return "{}"
        # a key that is not a str raises TypeError in the encoder
        pairs = [
            _encode_str(key) + ": " + (
                _encode_str(value) if type(value) is str
                else int.__repr__(value) if type(value) is int
                else _json_text(value, inner)
            )
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(pairs) + nl + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        elif all(type(x) is str for x in obj):
            items = map(_encode_str, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFault({"error": "unreadable file", "path": path, "reason": str(exc)})
    except json.JSONDecodeError as exc:
        raise InputFault({"error": "invalid JSON", "path": path, "reason": str(exc)})


def _load(path: str, what: str, read: Callable[..., T], *counts: int) -> T:
    """`read(obj, *counts)` on the JSON in the file; any fault in its shape
    exits 2 as `invalid <what>`, and a missing key is named in the reason."""
    obj = _load_json(path)
    try:
        return read(obj, *counts)
    except KeyError as exc:
        reason = f"missing field {exc}"
    except (sd.InvalidSeed, qh.InvalidMap, TypeError, ValueError) as exc:
        reason = str(exc)
    raise InputFault({"error": f"invalid {what}", "path": path, "reason": reason})


def _write_json(path: str, obj: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_json_text(obj) + "\n")
    except OSError as exc:
        raise InputFault({"error": "unwritable file", "path": path, "reason": str(exc)})


def _emit(payload: Payload, fmt: str, lines: Callable[[Payload], List[str]]) -> None:
    _echo("\n".join(lines(payload)) if fmt == "text" else _json_text(payload))


def _echo(text: str) -> None:
    # flushed at once, so that a closed stdout pipe surfaces inside `main`
    print(text, flush=True)


def _finish(ok: bool) -> None:
    raise SystemExit(0 if ok else 1)


_parser = argparse.ArgumentParser(
    prog="clusterkit",
    description="Exact-arithmetic workbench for cluster patterns of geometric type.",
    allow_abbrev=False,
)
_commands = _parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

Argument = Tuple[Tuple[str, ...], Dict[str, object]]


def _arg(*flags: str, **options: object) -> Argument:
    """One `add_argument` call, kept for `_command`."""
    return flags, options


def _command(
    name: str, *arguments: Argument, formats: Sequence[str] = ("json", "text")
) -> Callable[[T], T]:
    """Register the decorated function as the sub-parser `name`, with these
    arguments and `--format`; its docstring is the help text, and its
    parameters are the arguments' destinations."""

    def register(run: T) -> T:
        sub = _commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.add_argument("--format", dest="fmt", choices=formats, default="json")
        sub.set_defaults(run=run)
        return run

    return register


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def main(
    args: Optional[Sequence[str]] = None,
    prog_name: str = "clusterkit",
    standalone_mode: bool = True,
) -> NoReturn:
    """Run one command line, `sys.argv[1:]` by default, and raise SystemExit
    with its exit status.  Usage errors exit 2 with argparse's message.

    `main.main` is `main`, and `main.name` is the program name, so callers
    written against click's `Command.main` (the benchmark runner,
    `click.testing.CliRunner`) call it unchanged; `prog_name` and
    `standalone_mode` change nothing."""
    # exact integers are read and printed in full, however many digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    options = vars(_parser.parse_args(args))
    run = options.pop("run")
    try:
        run(**options)
    except InputFault as exc:
        sys.stderr.write("Error: " + _json_text(exc.payload) + "\n")
        raise SystemExit(2)
    except BrokenPipeError:
        # the reader of stdout went away: exit 1 without a message, with
        # stdout on the null device so that the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(0)


main.main = main  # type: ignore[attr-defined]
main.name = _parser.prog  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# seed plumbing


def _parse_word(word: str, n: int) -> List[int]:
    if not word.strip():
        return []
    labels = []
    for piece in word.split(","):
        try:
            k = int(piece.strip())
        except ValueError:
            raise InputFault({"error": "invalid word", "piece": piece.strip()})
        if not 0 <= k < n:
            raise InputFault({"error": "label out of range", "label": k, "n": n})
        labels.append(k)
    return labels


def _mutate_lines(payload: Payload) -> List[str]:
    out = []
    for step in payload["steps"]:
        out.append(
            f"step {step['step']}: mu_{step['label']} exchanged "
            f"{step['removed']} for {step['introduced']}"
        )
    if not out:
        out.append("empty word: seed unchanged")
    if "written" in payload:
        out.append(f"seed written to {payload['written']}")
    return out


@_command(
    "mutate",
    _arg("seed_file"),
    _arg("--word", default="", help="Comma-separated mutation labels, left to right."),
    _arg("--out", help="Write the resulting seed here instead of embedding it."),
)
def mutate(seed_file: str, word: str, out: Optional[str], fmt: str) -> None:
    """Apply a mutation word to a seed and report each exchange."""
    seed = _load(seed_file, "seed", sd.seed_from_json)
    steps: List[Payload] = []
    current = seed
    # label -> rendering of the variable it holds, so each is rendered once
    rendered: Dict[int, str] = {}
    for pos, k in enumerate(_parse_word(word, seed.n)):
        removed = rendered.get(k) or lp.to_str(current.cluster[k], current.var_names)
        try:
            current = sd.mutate_seed(current, k)
        except (lp.NotDivisible, sd.InvalidSeed) as exc:
            raise InputFault(
                {"error": "mutation failed", "step": pos, "label": k, "reason": str(exc)}
            )
        rendered[k] = lp.to_str(current.cluster[k], current.var_names)
        steps.append({"step": pos, "label": k, "removed": removed, "introduced": rendered[k]})
    payload: Payload = {"word": [s["label"] for s in steps], "steps": steps}
    if out is None:
        payload["seed"] = sd.seed_to_json(current)
    else:
        _write_json(out, sd.seed_to_json(current))
        payload["written"] = out
    _emit(payload, fmt, _mutate_lines)


def _explore_lines(payload: Payload) -> List[str]:
    return [
        f"nodes: {len(payload['nodes'])}",
        f"edges: {len(payload['edges'])}",
        f"complete: {payload['complete']}",
    ]


@_command(
    "explore",
    _arg("seed_file"),
    _arg("--max-depth", type=_positive, default=16,
         help="Longest mutation word followed (default: %(default)s)."),
    _arg("--max-nodes", type=_positive, default=500,
         help="Most seeds kept (default: %(default)s)."),
    formats=("json", "dot", "text"),
)
def explore(seed_file: str, max_depth: int, max_nodes: int, fmt: str) -> None:
    """Breadth-first exchange-graph closure up to relabeling."""
    seed = _load(seed_file, "seed", sd.seed_from_json)
    try:
        graph = pt.explore(seed, max_depth=max_depth, max_nodes=max_nodes)
    except (lp.NotDivisible, sd.InvalidSeed) as exc:
        raise InputFault(
            {"error": "not a seed of any pattern", "path": seed_file, "reason": str(exc)}
        )
    if fmt == "dot":
        _echo(pt.graph_to_dot(graph))
        return
    _emit(pt.graph_to_json(graph), fmt, _explore_lines)


# ---------------------------------------------------------------------------
# monomial map plumbing


def _verify_lines(payload: Payload) -> List[str]:
    out = [
        f"principal parts equal: {payload['principal_equal']}",
        f"matrix carries the extended matrix: {payload['matrix_identity']}",
    ]
    for entry in payload["variables"]:
        out.append(f"variable {entry['name']}: ok={entry['ok']}")
    if "quasi_inverse" in payload:
        out.append(f"quasi-inverse star check: {payload['quasi_inverse']}")
    out.append(f"verdict: {'PASS' if payload['verdict'] else 'FAIL'}")
    return out


def _check_fit(label: str, m: qh.MonomialMap, fits: List[Tuple[str, sd.Seed]]) -> None:
    for own, names, (side, seed) in zip(("source", "target"), (m.src_vars, m.dst_vars), fits):
        if len(names) != seed.n + seed.m:
            reason = f"{len(names)} {own} variables, the seed has {seed.n + seed.m}"
            raise InputFault({"error": f"{label} does not fit the {side} seed", "reason": reason})


@_command(
    "verify-qh",
    _arg("map_file"),
    _arg("src_file"),
    _arg("dst_file"),
    _arg("--inverse", dest="inverse_file",
         help="Reverse map; adds the quasi-inverse star check."),
    _arg("--opposite", action=argparse.BooleanOptionalAction, default=False,
         help="Accept the opposite target pattern as well."),
)
def verify_qh(map_file: str, src_file: str, dst_file: str,
              inverse_file: Optional[str], opposite: bool, fmt: str) -> None:
    """Check a monomial map between two seed files, with witnesses."""
    src = _load(src_file, "seed", sd.seed_from_json)
    dst = _load(dst_file, "seed", sd.seed_from_json)
    if src.n != dst.n:
        raise InputFault({"error": "principal ranks differ", "src": src.n, "dst": dst.n})
    m = _load(map_file, "map", qh.map_from_json, src.n, dst.n)
    _check_fit("map", m, [("source", src), ("target", dst)])
    payload: Payload = qh.verify_report(m, src, dst, allow_opposite=opposite)
    if inverse_file is not None:
        w = _load(inverse_file, "map", qh.map_from_json, dst.n, src.n)
        _check_fit("inverse map", w, [("target", dst), ("source", src)])
        try:
            payload["quasi_inverse"] = qh.quasi_inverse_check(m, w, src)
        except qh.InvalidMap as exc:
            raise InputFault({"error": "maps do not chain", "reason": str(exc)})
        except (lp.NotDivisible, sd.InvalidSeed) as exc:
            raise InputFault(
                {"error": "not a seed of any pattern", "path": src_file, "reason": str(exc)}
            )
        payload["verdict"] = bool(payload["verdict"]) and bool(payload["quasi_inverse"])
    _emit(payload, fmt, _verify_lines)
    _finish(bool(payload["verdict"]))


def _construct_lines(payload: Payload) -> List[str]:
    out = [f"principal parts equal: {payload['principal_equal']}"]
    for entry in payload["rows"]:
        line = f"coefficient row {entry['row']}: integer={entry['integer']}"
        if "rational" in entry:
            line += f" rational={entry['rational']}"
        out.append(line)
    out.append("map found" if payload["map"] is not None else "no map exists")
    return out


@_command(
    "construct-qh",
    _arg("src_file"),
    _arg("dst_file"),
    _arg("--out", help="Write the constructed map here."),
)
def construct_qh(src_file: str, dst_file: str, out: Optional[str], fmt: str) -> None:
    """Solve for the canonical monomial map between two seed files."""
    src = _load(src_file, "seed", sd.seed_from_json)
    dst = _load(dst_file, "seed", sd.seed_from_json)
    payload: Payload = qh.construct_qh_diagnostics(
        src.btilde, dst.btilde, src.var_names, dst.var_names
    )
    if payload["map"] is not None and out is not None:
        built = qh.MonomialMap(
            payload["map"], src.var_names, dst.var_names, src.n, dst.n
        )
        _write_json(out, qh.map_to_json(built))
        payload["written"] = out
    _emit(payload, fmt, _construct_lines)
    _finish(payload["map"] is not None)


def _gradings_lines(payload: Payload) -> List[str]:
    out = [f"corank: {payload['corank']}"]
    for row in payload["basis"]:
        out.append("grading: " + " ".join(str(v) for v in row))
    return out


@_command("gradings", _arg("seed_file"))
def gradings(seed_file: str, fmt: str) -> None:
    """Basis of the integer gradings of a seed's extended matrix."""
    seed = _load(seed_file, "seed", sd.seed_from_json)
    basis = qh.grading_space(seed.btilde)
    _emit({"corank": len(basis), "basis": basis}, fmt, _gradings_lines)


def _orbit_lines(payload: Payload) -> List[str]:
    if payload["equivalent"]:
        return ["seeds are orbit-equivalent"]
    return ["seeds are not orbit-equivalent"]


@_command("orbit-eq", _arg("left_file"), _arg("right_file"))
def orbit_eq(left_file: str, right_file: str, fmt: str) -> None:
    """Decide rescaling-orbit equivalence of two seed files."""
    left = _load(left_file, "seed", sd.seed_from_json)
    right = _load(right_file, "seed", sd.seed_from_json)
    if left.n != right.n or left.m != right.m:
        raise InputFault(
            {
                "error": "shape mismatch",
                "left": [left.n, left.m],
                "right": [right.n, right.m],
            }
        )
    witness = ob.seeds_equivalent(
        ob.seedlike_from_seed(left), ob.seedlike_from_seed(right)
    )
    payload: Payload = {"equivalent": witness is not None}
    if witness is not None:
        payload["rescaling"] = {
            "c": [list(e) for e in witness.c],
            "d": [list(e) for e in witness.d],
        }
    _emit(payload, fmt, _orbit_lines)
    _finish(witness is not None)


# ---------------------------------------------------------------------------
# fixture reports


def _checks_lines(payload: Payload) -> List[str]:
    out = []
    for entry in payload["checks"]:
        mark = "PASS" if entry["ok"] else "FAIL"
        out.append(f"{mark} {entry['name']} ({entry['cases']} cases)")
        for failure in entry["failures"]:
            out.append(f"  {failure}")
    out.append(f"verdict: {'PASS' if payload['verdict'] else 'FAIL'}")
    return out


def _suite(name: str, cases: int, failures: List[str]) -> Payload:
    return {"name": name, "cases": cases, "failures": failures, "ok": not failures}


def _report(payload: Payload, suites: List[Tuple[str, int, List[str]]], fmt: str) -> None:
    """Print the payload with its suite records and verdict; exit 1 on a failure."""
    payload["checks"] = [_suite(*record) for record in suites]
    payload["verdict"] = all(entry["ok"] for entry in payload["checks"])
    _emit(payload, fmt, _checks_lines)
    _finish(bool(payload["verdict"]))


@_command("surface")
def surface(fmt: str) -> None:
    """Annulus fixture report: twist, subgroup indices, shear identities."""
    fx = sf.annulus_fixture()
    payload: Payload = {
        "seed": sd.seed_to_json(fx.seed),
        "twist_map": qh.map_to_json(fx.twist_map),
        "laminations": {
            name: sf.lamination_to_json(lam)
            for name, lam in sorted(fx.laminations.items())
        },
    }
    _report(payload, sf.check_suites(fx), fmt)


@_command(
    "grassmann",
    _arg("--kn", nargs=2, type=int, required=True, metavar=("K", "N"),
         help="Band width and column count, 2 <= K <= N-2."),
    _arg("--all-checks", action="store_true", help="Run every identity suite."),
)
def grassmann(kn: List[int], all_checks: bool, fmt: str) -> None:
    """Flat-to-band fixture data and identity checks."""
    k, n = kn
    try:
        ctx = gx.make_context(k, n)
        fx = gx.build_fixture(ctx)
    except (gx.InvalidIndex, gx.UnsupportedContext) as exc:
        raise InputFault({"error": "unsupported dimensions", "reason": str(exc)})
    factored = gx.factorizations(ctx)
    payload: Payload = {
        "k": k,
        "n": n,
        "plucker_seed": sd.seed_to_json(fx.gr_seed),
        "band_seed": sd.seed_to_json(fx.band_seed),
        "flat_to_band": qh.map_to_json(fx.fstar_map),
        "band_to_flat": (
            qh.map_to_json(fx.gstar_map) if fx.gstar_map is not None else None
        ),
        "factorizations": [
            {
                "coordinate": gx.plucker_name(cols),
                "content": dict(sorted(content.items())),
                "minor": gx.band_name(i_set, j_set),
            }
            for cols, content, i_set, j_set in factored
        ],
    }
    if (k, n) == (2, 5):
        payload["relations"] = gx.quintic_relation_checks(ctx)
    if not all_checks:
        _emit(payload, fmt, lambda p: [
            f"fixture k={p['k']} n={p['n']}",
            f"factorizations: {len(p['factorizations'])}",
        ])
        return
    _report(payload, gx.check_suites(fx, factored, payload.get("relations")), fmt)


if __name__ == "__main__":
    main()
