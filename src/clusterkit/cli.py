"""Command line drivers tying the workbench modules together.

Every subcommand reads and writes JSON; the exchange graph can also be
rendered as DOT, and --format text switches any report to a terse
human-readable summary.  Exit status is 0 when every requested check
passes, 1 when some check fails (the failure payload still goes to
stdout), and 2 for unreadable or malformed input, which includes seed
files that are not seeds of any pattern, and for a command that runs out
of memory.

JSON text on stdout, in --out files and in exit-2 stderr payloads is exactly
`json.dumps(obj, indent=2)`, yielded in pieces by `_json`, since CPython's C
encoder ignores `indent` before 3.14 and the pure-Python one costs about as
much as the mutations it reports.  With a 3.14 floor the generator can go.
Every byte the command line writes, the exchange graph's JSON and DOT from
`patterns` too, goes through `_write`, which joins pieces into blocks as they
come, so that no command holds its whole output text.  A command computes
every value that can raise a typed error before its first write, and a
payload's generators only format values that exist: an exit 2 leaves stdout
empty, and only running out of memory or a closed pipe cuts a stream short.

The front end is one table, `_COMMANDS`, filled by `_command` at import:
each command's function, its arguments and its `--format` choices.
`_parse` reads a command line in one walk over it, and help and usage
errors are rendered from it, so reading a command line imports no parsing
library and compiles no regex.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str
from types import GeneratorType
from typing import (Callable, Dict, Iterable, Iterator, List, NoReturn, Optional, Sequence,
                    TextIO, Tuple, TypeVar)

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


# the text of each JSON scalar type, which a dict writes inline
_SCALARS: Dict[type, Callable[..., str]] = {str: _encode_str, int: int.__repr__,
                                             bool: lambda x: "true" if x else "false",
                                             type(None): lambda _: "null"}


def _json(obj: object, nl: str = "\n") -> Iterator[str]:
    """The text of `json.dumps(obj, indent=2)` in pieces, for dicts with str
    keys, lists, tuples, str, int, bool and None, by exact type, for a
    generator as the list of what it yields, and for a seed as its
    `sd.seed_to_json` object; others raise TypeError.  `nl` is the line
    prefix.  Scalar dict values and all-int or all-str lists are written
    inline, without a piece per item.  A seed is written a term at a time,
    each term filling one template for the arity and indent, in the
    descending graded lex order of `laurent.to_json`."""
    kind = type(obj)
    inner = nl + "  "
    if kind is dict:
        if not obj:
            yield "{}"
            return
        run: List[str] = []  # the scalar pairs since the last nested value
        lead = "{"
        for key, value in obj.items():
            # a key that is not a str raises TypeError in the encoder
            pair = _encode_str(key) + ": "
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                run.append(pair + scalar(value))
                continue
            run.append(pair)
            yield lead + inner + ("," + inner).join(run)
            yield from _json(value, inner)
            run, lead = [], ","
        yield (lead + inner + ("," + inner).join(run) if run else "") + nl + "}"
    elif kind is list or kind is tuple or kind is GeneratorType:
        if kind is not GeneratorType and obj:
            if all(type(x) is int for x in obj):
                yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]"
                return
            if all(type(x) is str for x in obj):
                yield "[" + inner + ("," + inner).join(map(_encode_str, obj)) + nl + "]"
                return
        lead = "["
        for item in obj:
            yield lead + inner
            yield from _json(item, inner)
            lead = ","
        yield "[]" if lead == "[" else nl + "]"
    elif kind is sd.Seed:
        i1, i2, i3, i4, i5, i6 = (nl + "  " * depth for depth in range(1, 7))
        arity = len(obj.var_names)
        exp = "[" + i6 + ("," + i6).join(["%d"] * arity) + i5 + "]" if arity else "[]"
        term = "{" + i5 + '"exp": ' + exp + "," + i5 + '"coef": "%d"' + i4 + "}"
        names = "".join(_json(obj.var_names, i3))
        yield f'{{{i1}"n": {obj.n},{i1}"m": {obj.m},{i1}"btilde": '
        yield from _json(obj.btilde, i1)
        yield "," + i1 + '"cluster": '
        lead = "["
        for x in obj.cluster:
            yield lead + i2 + "{" + i3 + '"vars": ' + names + "," + i3 + '"terms": [' + i4
            form = term
            for e in sorted(x, key=lp.grlex_key, reverse=True):
                yield form % (*e, x[e])
                form = "," + i4 + term
            yield i3 + "]" + i2 + "}"
            lead = ","
        yield ("[]" if lead == "[" else i1 + "]") + "," + i1 + '"var_names": '
        yield from _json(obj.var_names, i1)
        yield nl + "}"
    elif kind in _SCALARS:
        yield _SCALARS[kind](obj)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFault({"error": "unreadable file", "path": path, "reason": str(exc)})
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level of arrays and objects
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


def _write(pieces: Iterable[str], stream: TextIO) -> None:
    """The one writer: the pieces joined into blocks of about 64 KiB, one
    write each, then a newline, then a flush, so that a closed stdout pipe
    surfaces inside `main`."""
    block: List[str] = []
    size = 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= 65536:
            stream.write("".join(block))
            block, size = [], 0
    stream.write("".join(block) + "\n")
    stream.flush()


def _write_json(path: str, obj: object) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            _write(_json(obj), handle)
    except OSError as exc:
        raise InputFault({"error": "unwritable file", "path": path, "reason": str(exc)})


def _emit(payload: Payload, fmt: str, lines: Callable[[Payload], List[str]]) -> None:
    _write(["\n".join(lines(payload))] if fmt == "text" else _json(payload), sys.stdout)


def _finish(ok: bool) -> None:
    raise SystemExit(0 if ok else 1)


Argument = Tuple[Tuple[str, ...], Dict[str, object]]
_HELP = ("-h", "--help")

# command name -> (function, arguments with `--format` last, positional
# destinations, flags, defaults); a flag maps to (dest, number of values,
# converter, choices, the value it stores when it takes none)
_COMMANDS: Dict[str, tuple] = {}


def _arg(*flags: str, **options: object) -> Argument:
    """One argument of a command: a positional name, or an option flag with
    any of `dest`, `type`, `nargs`, `choices`, `default`, `required`,
    `metavar`, `help` and `action="store_true"`, meant as the standard
    library's parser means them.  `--x/--no-x` is a switch pair."""
    return flags, options


def _dest(flag: str, options: Dict[str, object]) -> str:
    return str(options.get("dest") or flag.partition("/")[0].lstrip("-").replace("-", "_"))


def _command(
    name: str, *arguments: Argument, formats: Sequence[str] = ("json", "text")
) -> Callable[[T], T]:
    """Register the decorated function as the command `name`, with these
    arguments and `--format`; its docstring is the help text, and its
    parameters are the arguments' destinations."""
    arguments += (_arg("--format", dest="fmt", choices=formats, default="json"),)

    def register(run: T) -> T:
        positionals: List[str] = []
        flags: Dict[str, tuple] = {}
        defaults: Dict[str, object] = {}
        for (flag,), options in arguments:
            dest = _dest(flag, options)
            if not flag.startswith("-"):
                positionals.append(dest)
                continue
            on, _, off = flag.partition("/")
            switch = bool(off) or options.get("action") == "store_true"
            flags[on] = (dest, 0, None, None, True) if switch else (
                dest, options.get("nargs", 1), options.get("type"), options.get("choices"), None)
            if off:
                flags[off] = (dest, 0, None, None, False)
            if not options.get("required"):
                defaults[dest] = False if switch else options.get("default")
        _COMMANDS[name] = (run, arguments, positionals, flags, defaults)
        return run

    return register


def _positive(text: str) -> int:
    value = lp.plain_decimal(text, "counts")
    if value < 1:
        raise ValueError(text)
    return value


def _is_option(token: str, flags: Dict[str, tuple]) -> bool:
    """Whether a token is read as an option: it starts with `-` and is
    longer, and it names a flag (alone or before `=`), or it is neither a
    negative number nor holds a space.  This is the standard library
    parser's rule when no flag looks like a negative number."""
    if len(token) < 2 or token[0] != "-":
        return False
    if token.partition("=")[0] in flags:
        return True
    number = token[1:]
    negative = number.replace(".", "", 1).isdecimal() and not number.endswith(".")
    return not negative and " " not in token


def _synopsis(flag: str, options: Dict[str, object]) -> str:
    if "/" in flag or not flag.startswith("-") or "action" in options:
        return flag.replace("/", " | ")
    if "choices" in options:
        return flag + " {" + ",".join(options["choices"]) + "}"  # type: ignore[arg-type]
    return " ".join([flag, *(options.get("metavar") or [_dest(flag, options).upper()])])


def _usage(name: Optional[str]) -> str:
    if name is None:
        return "usage: clusterkit COMMAND ..."
    shown = [_synopsis(flag, options) if not flag.startswith("-") or options.get("required")
             else f"[{_synopsis(flag, options)}]" for (flag,), options in _COMMANDS[name][1]]
    return " ".join(["usage: clusterkit", name, *shown])


def _usage_error(name: Optional[str], reason: str) -> NoReturn:
    prog = "clusterkit" if name is None else f"clusterkit {name}"
    _write([f"{_usage(name)}\n{prog}: error: {reason}"], sys.stderr)
    raise SystemExit(2)


def _help(name: Optional[str]) -> NoReturn:
    """List every command, or every option of one, on stdout; exit 0."""
    if name is None:
        head = "Exact-arithmetic workbench for cluster patterns of geometric type."
        rows = [(command, row[0].__doc__ or "") for command, row in _COMMANDS.items()]
    else:
        head, rows = _COMMANDS[name][0].__doc__ or "", []
        for (flag,), options in _COMMANDS[name][1]:
            if flag.startswith("-"):
                default = options.get("default")
                note = f" (default: {default})" if default not in (None, "") else ""
                rows.append((_synopsis(flag, options), f"{options.get('help', '')}{note}".strip()))
    rows.append((", ".join(_HELP), "Show this help and exit."))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left:{width}}{text}".rstrip() for left, text in rows]
    _write(["\n".join([_usage(name), "", head, "", *lines])], sys.stdout)
    raise SystemExit(0)


def _parse(argv: Sequence[str]) -> Tuple[Callable[..., None], str, Dict[str, object]]:
    """Read one command line in one walk: (function, command name, options
    by destination).  Each value is converted and checked as it is read, and
    after `--` every token is positional.  A usage error exits 2."""
    name = argv[0] if argv else ""
    if name not in _COMMANDS:
        if name in _HELP:
            _help(None)
        _usage_error(None, f"unknown command {name!r} (choose from {', '.join(_COMMANDS)})"
                     if argv else "no command given")
    run, arguments, positionals, flags, defaults = _COMMANDS[name]
    options = defaults.copy()
    taken, i, plain = 0, 1, False
    while i < len(argv):
        token = argv[i]
        i += 1
        if plain or not _is_option(token, flags):
            if taken == len(positionals):
                _usage_error(name, f"unexpected argument {token!r}")
            options[positionals[taken]] = token
            taken += 1
            continue
        if token == "--":
            plain = True
            continue
        if token in _HELP:
            _help(name)
        flag, inline, text = token.partition("=")
        if flag not in flags:
            _usage_error(name, f"unknown option {token!r}")
        dest, count, convert, choices, stored = flags[flag]
        texts = [text] if inline else argv[i:i + count]
        if not inline:
            i += count
        values = []
        for text in texts:
            if not inline and _is_option(text, flags):
                break
            try:
                values.append(text if convert is None else convert(text))
            except ValueError:
                # `--kn` reads through a partial of `lp.plain_decimal`, unnamed
                kind = getattr(convert, "__name__", "int").strip("_")
                _usage_error(name, f"invalid {kind} value for {flag}: {text!r}")
            if choices is not None and values[-1] not in choices:
                _usage_error(name, f"invalid choice for {flag}: {text!r} "
                                   f"(choose from {', '.join(choices)})")
        if len(values) != count:
            _usage_error(name, f"{flag} takes {count} value{'s' * (count != 1)}")
        options[dest] = stored if count == 0 else values[0] if count == 1 else values
    if len(options) < len(arguments):
        missing = [flag for (flag,), spec in arguments if _dest(flag, spec) not in options]
        _usage_error(name, "missing " + ", ".join(missing))
    return run, name, options


def main(
    args: Optional[Sequence[str]] = None,
    prog_name: str = "clusterkit",
    standalone_mode: bool = True,
) -> NoReturn:
    """Run one command line, `sys.argv[1:]` by default, and raise SystemExit
    with its exit status.  A usage error exits 2 with the command's usage
    line and the reason on stderr, and `--help` lists every command, or
    every option of one, on stdout.

    `main.main` is `main`, and `prog_name` and `standalone_mode` change
    nothing: they keep the call `cli.main.main(args=..., prog_name=...,
    standalone_mode=True)` of the benchmark runner working."""
    # exact integers are read and printed in full, however many digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if args is None else args
    try:
        run, _, options = _parse(argv)
        run(**options)
    except InputFault as exc:
        payload = exc.payload
    except MemoryError:
        # exit 1 means a failed check, so running out of memory exits 2
        payload = {"error": "out of memory", "command": argv[0]}
    except BrokenPipeError:
        # the reader of stdout went away: exit 1 without a message, with
        # stdout on the null device so that the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    else:
        raise SystemExit(0)
    _write(["Error: ", *_json(payload)], sys.stderr)
    raise SystemExit(2)


main.main = main  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# seed plumbing


def _parse_word(word: str, n: int) -> List[int]:
    if not word.strip():
        return []
    labels = []
    for piece in word.split(","):
        try:
            k = lp.plain_decimal(piece.strip(), "labels")
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
    labels = _parse_word(word, seed.n)
    steps: List[Payload] = []
    current = seed
    # label -> rendering of the variable it holds, so each is rendered once
    rendered: Dict[int, str] = {}
    try:
        for after in sd.mutation_walk(seed, labels):
            k = labels[len(steps)]
            removed = rendered.get(k) or lp.to_str(current.cluster[k], current.var_names)
            rendered[k] = lp.to_str(after.cluster[k], after.var_names)
            steps.append({"step": len(steps), "label": k, "removed": removed,
                          "introduced": rendered[k]})
            current = after
    except (lp.NotDivisible, sd.InvalidSeed) as exc:
        pos = len(steps)
        raise InputFault(
            {"error": "mutation failed", "step": pos, "label": labels[pos], "reason": str(exc)}
        )
    payload: Payload = {"word": labels, "steps": steps}
    if out is None:
        payload["seed"] = current
    else:
        _write_json(out, current)
        payload["written"] = out
    _emit(payload, fmt, _mutate_lines)


@_command(
    "explore",
    _arg("seed_file"),
    _arg("--max-depth", type=_positive, default=16, help="Longest mutation word followed."),
    _arg("--max-nodes", type=_positive, default=500, help="Most seeds kept."),
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
    if fmt == "text":
        # the counts come off the graph: no cluster variable is rendered
        edges = sum(map(len, graph.adjacency))
        _write([f"nodes: {len(graph.nodes)}\nedges: {edges}\ncomplete: {graph.complete}"],
               sys.stdout)
        return
    _write((pt.graph_dot_chunks if fmt == "dot" else pt.graph_json_chunks)(graph), sys.stdout)


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
    _arg("--opposite/--no-opposite", help="Accept the opposite target pattern as well."),
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
        "seed": fx.seed,
        "twist_map": qh.map_to_json(fx.twist_map),
        "laminations": {
            name: sf.lamination_to_json(lam)
            for name, lam in sorted(fx.laminations.items())
        },
    }
    _report(payload, sf.check_suites(fx), fmt)


@_command(
    "grassmann",
    _arg("--kn", nargs=2, type=partial(lp.plain_decimal, what="K and N"), required=True,
         metavar=("K", "N"), help="Band width and column count, 2 <= K <= N-2."),
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
    if fmt == "text" and not all_checks:
        _write([f"fixture k={k} n={n}\nfactorizations: {len(factored)}"], sys.stdout)
        return
    payload: Payload = {
        "k": k,
        "n": n,
        "plucker_seed": fx.gr_seed,
        "band_seed": fx.band_seed,
        "flat_to_band": qh.map_to_json(fx.fstar_map),
        "band_to_flat": (
            qh.map_to_json(fx.gstar_map) if fx.gstar_map is not None else None
        ),
        # a record at a time, as the writer reaches it
        "factorizations": (
            {
                "coordinate": gx.plucker_name(cols),
                "content": content,
                "minor": gx.band_name(i_set, j_set),
            }
            for cols, content, i_set, j_set in factored
        ),
    }
    if (k, n) == (2, 5):
        payload["relations"] = gx.quintic_relation_checks(ctx)
    if not all_checks:
        _write(_json(payload), sys.stdout)
        return
    _report(payload, gx.check_suites(fx, factored, payload.get("relations")), fmt)


if __name__ == "__main__":
    main()
