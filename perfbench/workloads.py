"""Workload inputs and output checks.

Each workload turns the run seed into rounds of CLI jobs.  Every round has
the same strata (size classes, one or two jobs each) in a seeded order, so
a run of whole rounds always holds the same mix of job sizes; only the
inputs inside each stratum are drawn at random.  All input files are
written before any job runs, with the arithmetic in `exact`, never with
clusterkit.  A check looks
only at the exit code and stdout of its job and returns None when they are
right, else the reason they are wrong.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Optional, Sequence

import exact

Check = Callable[[int, bytes], Optional[str]]


@dataclass
class Job:
    stratum: str
    argv: List[str]
    check: Check


def _names(n: int, m: int) -> List[str]:
    return [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(m)]


def _seed_json(btilde: Sequence[Sequence[int]], cluster_exps) -> dict:
    """Seed file whose cluster variables are the given Laurent monomials."""
    n = len(btilde[0])
    names = _names(n, len(btilde) - n)
    return {
        "n": n,
        "m": len(btilde) - n,
        "btilde": [list(row) for row in btilde],
        "cluster": [
            {"vars": names, "terms": [{"exp": list(e), "coef": "1"}]}
            for e in cluster_exps
        ],
        "var_names": names,
    }


def _initial_seed_json(btilde: Sequence[Sequence[int]]) -> dict:
    n, total = len(btilde[0]), len(btilde)
    return _seed_json(btilde, [[int(i == j) for i in range(total)] for j in range(n)])


def _write(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


class CheckFailed(Exception):
    """A job's output is wrong; the message says how."""


def _payload(code: int, out: bytes, want_code: int = 0):
    if code != want_code:
        raise CheckFailed(f"exit code {code}, expected {want_code}")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}")


def _checked(fn: Callable[[int, bytes], None]) -> Check:
    def check(code: int, out: bytes) -> Optional[str]:
        try:
            fn(code, out)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None
    return check


def _shuffled(rng: random.Random, rounds: List[List[Job]]) -> List[List[Job]]:
    for jobs in rounds:
        rng.shuffle(jobs)
    return rounds


# ---------------------------------------------------------------------------
# explore-finite


def _dynkin(kind: str, n: int) -> List[List[int]]:
    """Skew-symmetric matrix of an A_n or D_n Dynkin diagram."""
    b = [[0] * n for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append((n - 2, n - 1) if kind == "A" else (n - 3, n - 1))
    for i, j in edges:
        b[i][j], b[j][i] = 1, -1
    return b


def _explore_check(kind: str, n: int) -> Check:
    nodes = exact.finite_type_clusters(kind, n)

    def check(code: int, out: bytes) -> None:
        graph = _payload(code, out)
        if graph["complete"] is not True:
            raise CheckFailed("exploration did not close")
        if len(graph["nodes"]) != nodes:
            raise CheckFailed(f"{len(graph['nodes'])} nodes, {kind}{n} has {nodes}")
        if len(graph["edges"]) != n * nodes:
            raise CheckFailed(f"{len(graph['edges'])} edges, expected {n * nodes}")
    return _checked(check)


# Strata (type, rank, frozen rows).  Rank 5 costs about fifteen times rank 4
# (5! relabelings per canonical form instead of 4!), and more frozen rows
# make longer polynomials.  Eight of the ten jobs are rank 4, so the median
# job sits inside the rank-4 sizes and the tail inside the rank-5 ones.
EXPLORE_STRATA = (
    ("A", 4, 0), ("A", 4, 2), ("A", 4, 4), ("D", 4, 0), ("D", 4, 1),
    ("D", 4, 2), ("D", 4, 3), ("D", 4, 4), ("A", 5, 2), ("D", 5, 1),
)


def build_explore(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    out = []
    for r in range(rounds):
        jobs = []
        for kind, n, m in EXPLORE_STRATA:
            b = _dynkin(kind, n)
            for _ in range(2 * n):
                b = exact.mutate_matrix(b, rng.randrange(n))
            b += [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
            path = _write(workdir, f"explore_{r}_{kind}{n}_{m}.json", _initial_seed_json(b))
            jobs.append(Job(f"{kind}{n}+{m}", ["explore", path], _explore_check(kind, n)))
        out.append(jobs)
    return _shuffled(rng, out)


# ---------------------------------------------------------------------------
# mutate-deep

MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def _mutate_check(btilde, word, rng: random.Random) -> Check:
    total = len(btilde)
    point = [rng.randrange(2, exact.PRIME) for _ in range(total)]
    want_b, want_x = exact.replay_word_mod(btilde, word, point)

    def check(code: int, out: bytes) -> None:
        payload = _payload(code, out)
        if payload["word"] != word or len(payload["steps"]) != len(word):
            raise CheckFailed("reported word differs from the requested one")
        seed = payload["seed"]
        if seed["btilde"] != want_b:
            raise CheckFailed("final exchange matrix differs from matrix mutation")
        for j, x in enumerate(seed["cluster"]):
            terms = [(t["exp"], int(t["coef"])) for t in x["terms"]]
            if any(len(e) != total for e, _ in terms):
                raise CheckFailed(f"cluster variable {j} has the wrong arity")
            if exact.eval_terms_mod(terms, point) != want_x[j]:
                raise CheckFailed(f"cluster variable {j} differs at the test point")
    return _checked(check)


# Strata (size band, frozen row).  A word's cost follows the largest
# exchange numerator along it at the all-ones point: its bit length predicts
# log job time with correlation 0.98 on the plain quiver, and the cost about
# doubles every eight bits.  Three strata of similar cost sit in the middle,
# so the median job has many neighbours, and the top two are close, so the
# tail job does too.
MUTATE_STRATA = (
    ((24, 28), True), ((32, 36), False), ((40, 44), True), ((44, 48), False),
    ((48, 52), True), ((60, 64), False), ((64, 68), False),
)


def _words(lengths: Sequence[int], n: int) -> List[List[int]]:
    """Every word with no immediate repeat, of the given lengths."""
    out: List[List[int]] = []
    partial = [[k] for k in range(n)]
    while partial:
        word = partial.pop()
        if len(word) in lengths:
            out.append(word)
        if len(word) < max(lengths):
            partial += [word + [k] for k in range(n) if k != word[-1]]
    return out


def _stratified_words(rng: random.Random, band, rounds: int) -> List[List[int]]:
    """One word per round from the band, drawn so that a run covers the
    band's size range evenly: the words are sorted by size, cut into one
    slice per round, and each round draws from a different slice."""
    words = sorted(
        (exact.exchange_bits(MARKOV, w), w) for w in _words((6, 7, 8), 3)
    )
    words = [w for bits, w in words if band[0] <= bits < band[1]]
    order = list(range(rounds))
    rng.shuffle(order)
    picks = []
    for r in order:
        lo = r * len(words) // rounds
        hi = max((r + 1) * len(words) // rounds, lo + 1)
        picks.append(rng.choice(words[lo:hi]))
    return picks


def build_mutate(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    plain = MARKOV
    framed = MARKOV + [[1, -1, 0]]
    files = {
        False: _write(workdir, "markov.json", _initial_seed_json(plain)),
        True: _write(workdir, "markov_frozen.json", _initial_seed_json(framed)),
    }
    words = [_stratified_words(rng, band, rounds) for band, _ in MUTATE_STRATA]
    out = []
    for r in range(rounds):
        jobs = []
        for (band, frozen), picks in zip(MUTATE_STRATA, words):
            word = picks[r]
            b = framed if frozen else plain
            argv = ["mutate", files[frozen], "--word", ",".join(map(str, word))]
            jobs.append(Job(f"bits{band[0]}{'+1' if frozen else ''}", argv,
                            _mutate_check(b, word, rng)))
        out.append(jobs)
    return _shuffled(rng, out)


# ---------------------------------------------------------------------------
# grassmann-fixtures

# Suite names and case counts of each fixture.  Factorization cases are the
# C(n, n-k) - n non-frozen Pluecker coordinates plus one catalog check, the
# composite identity has one case per coordinate, and the flat-to-band cases
# number sum over s of (n-k-s+1) * C(s+k, s).
GRASSMANN_SUITES: Dict[tuple, List[tuple]] = {
    (2, 5): [("relation_identities", 15), ("map_verification", 3),
             ("factorization", 6), ("flat_to_band_minors", 31),
             ("tropical_contents", 5), ("composite_identity", 10)],
    (3, 6): [("map_verification", 1), ("factorization", 15),
             ("flat_to_band_minors", 52), ("tropical_contents", 30),
             ("composite_identity", 20)],
    (2, 6): [("map_verification", 1), ("factorization", 10),
             ("flat_to_band_minors", 65), ("tropical_contents", 15)],
}

SURFACE_SUITES = [
    ("twist_realized", 2), ("half_turn_inequivalent", 24),
    ("doubled_pairing", 1), ("stabilizer_indices", 2), ("shear_relations", 3),
    ("kernel_basis", 2), ("residues_match_pairings", 6),
]


def _suites_check(payload: dict, suites: List[tuple]) -> None:
    if payload["verdict"] is not True:
        raise CheckFailed("verdict is not true")
    got = [(entry["name"], entry["cases"]) for entry in payload["checks"]]
    if got != suites:
        raise CheckFailed(f"suites {got}")
    if any(entry["failures"] or entry["ok"] is not True for entry in payload["checks"]):
        raise CheckFailed("a suite reports failures")


def _grassmann_check(k: int, n: int, all_checks: bool) -> Check:
    def check(code: int, out: bytes) -> None:
        payload = _payload(code, out)
        if (payload["k"], payload["n"]) != (k, n):
            raise CheckFailed("fixture dimensions differ")
        if len(payload["factorizations"]) != comb(n, n - k) - n:
            raise CheckFailed(f"{len(payload['factorizations'])} factorizations")
        if all_checks:
            _suites_check(payload, GRASSMANN_SUITES[(k, n)])
    return _checked(check)


def _surface_check(code: int, out: bytes) -> None:
    _suites_check(_payload(code, out), SURFACE_SUITES)


# Per round: every job but (2,6) --all-checks twice, that one once.  It
# alone is about three quarters of a round; doubling the others keeps the
# median among the quick fixture dumps and puts ten (3,6) --all-checks jobs
# around the tail in a five-round run.
def build_grassmann(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    out = []
    for _ in range(rounds):
        jobs = [Job("surface", ["surface"], _checked(_surface_check))] * 2
        for k, n in GRASSMANN_SUITES:
            for all_checks in (False, True):
                argv = ["grassmann", "--kn", str(k), str(n)]
                label = f"gr{k}{n}"
                if all_checks:
                    argv.append("--all-checks")
                    label += "-all"
                copies = 1 if label == "gr26-all" else 2
                jobs += [Job(label, argv, _grassmann_check(k, n, all_checks))] * copies
        out.append(jobs)
    return _shuffled(rng, out)


# ---------------------------------------------------------------------------
# lattice-maps


def _random_btilde(rng: random.Random, n: int, m: int) -> List[List[int]]:
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-3, 3)
            b[j][i] = -b[i][j]
    return b + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]


def _gradings_check(btilde) -> Check:
    corank = len(btilde) - exact.rank(btilde)

    def check(code: int, out: bytes) -> None:
        payload = _payload(code, out)
        basis = payload["basis"]
        if payload["corank"] != corank or len(basis) != corank:
            raise CheckFailed(f"{len(basis)} grading rows, corank is {corank}")
        if any(any(exact.vec_mat(row, btilde)) for row in basis):
            raise CheckFailed("a grading row does not annihilate btilde")
        if exact.rank(basis) != corank:
            raise CheckFailed("grading rows are dependent")
    return _checked(check)


def _construct_check(src, dst) -> Check:
    n = len(src[0])

    def check(code: int, out: bytes) -> None:
        matrix = _payload(code, out)["map"]
        if matrix is None:
            raise CheckFailed("no map found")
        top = [[int(i == j) for j in range(len(src))] for i in range(n)]
        if matrix[:n] != top:
            raise CheckFailed("mutable rows of the map are not (I | 0)")
        if exact.matmul(matrix, src) != dst:
            raise CheckFailed("map does not carry the source matrix to the target")
    return _checked(check)


def _verify_check(code: int, out: bytes) -> None:
    payload = _payload(code, out)
    if payload["verdict"] is not True or payload["quasi_inverse"] is not True:
        raise CheckFailed("map pair not verified")


def _orbit_check(want_equivalent: bool, witness=None) -> Check:
    def check(code: int, out: bytes) -> None:
        payload = _payload(code, out, 0 if want_equivalent else 1)
        if payload["equivalent"] is not want_equivalent:
            raise CheckFailed(f"equivalent is {payload['equivalent']}")
        if want_equivalent and payload["rescaling"]["c"] != witness:
            raise CheckFailed("rescaling witness differs from the one applied")
    return _checked(check)


# Strata by rank; frozen-row counts cover n/2..n evenly over a run, in
# seeded order, since construct-qh solves once per frozen row.  Multiplier
# entries grow with rank: past 4300 decimal digits the CLI cannot print
# them and exits with a traceback, which happens for about 1 % of rank-15
# matrices and none of 800 drawn at ranks 12 and 13.
LATTICE_RANKS = (10, 11, 12, 13)


def build_lattice(rng: random.Random, workdir: str, rounds: int) -> List[List[Job]]:
    frozen = {}
    for n in LATTICE_RANKS:
        frozen[n] = [n // 2 + r * (n - n // 2 + 1) // rounds for r in range(rounds)]
        rng.shuffle(frozen[n])
    out = []
    for r in range(rounds):
        jobs = []
        for n in LATTICE_RANKS:
            m = frozen[n][r]
            total = n + m
            src = _random_btilde(rng, n, m)
            names = _names(n, m)
            # target coefficient rows V * B + U * F, so M = [[I, 0], [V, U]]
            # carries src to dst and W = [[I, 0], [-U^-1 V, U^-1]] carries it back
            u, u_inv = exact.elementary_unimodular(m, 2 * m, rng)
            v = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
            fwd = [[int(i == j) for j in range(total)] for i in range(n)]
            fwd += [v[i] + u[i] for i in range(m)]
            back_v = exact.matmul(u_inv, v)
            back = [[int(i == j) for j in range(total)] for i in range(n)]
            back += [[-x for x in back_v[i]] + u_inv[i] for i in range(m)]
            dst = exact.matmul(fwd, src)
            if exact.matmul(back, dst) != src:
                raise RuntimeError("generated map pair is not inverse")
            # rescaled pair: frozen rows F + C B and cluster x_j / y^(C e_j); the
            # witness c_j is the cluster ratio y^(C e_j), as an exponent vector
            c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            cb = exact.matmul(c, src[:n])
            scaled = src[:n] + [[f + d for f, d in zip(src[n + i], cb[i])] for i in range(m)]
            witness = [[0] * n + [c[i][j] for i in range(m)] for j in range(n)]
            cluster = [[int(i == j) - witness[j][i] for i in range(total)] for j in range(n)]
            perturbed = [list(row) for row in scaled]
            perturbed[n + rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1))
            tag = f"lat_{r}_{n}"
            f_src = _write(workdir, f"{tag}_src.json", _initial_seed_json(src))
            f_dst = _write(workdir, f"{tag}_dst.json", _initial_seed_json(dst))
            f_fwd = _write(workdir, f"{tag}_fwd.json",
                           {"matrix": fwd, "src_vars": names, "dst_vars": names})
            f_back = _write(workdir, f"{tag}_back.json",
                            {"matrix": back, "src_vars": names, "dst_vars": names})
            f_scaled = _write(workdir, f"{tag}_scaled.json", _seed_json(scaled, cluster))
            f_pert = _write(workdir, f"{tag}_pert.json", _seed_json(perturbed, cluster))
            jobs += [
                Job(f"gradings{n}", ["gradings", f_src], _gradings_check(src)),
                Job(f"construct{n}", ["construct-qh", f_src, f_dst], _construct_check(src, dst)),
                Job(f"construct{n}-back", ["construct-qh", f_dst, f_src],
                    _construct_check(dst, src)),
                Job(f"verify{n}", ["verify-qh", f_fwd, f_src, f_dst, "--inverse", f_back],
                    _checked(_verify_check)),
                Job(f"orbit{n}", ["orbit-eq", f_src, f_scaled], _orbit_check(True, witness)),
                Job(f"orbit{n}-off", ["orbit-eq", f_src, f_pert], _orbit_check(False)),
            ]
        out.append(jobs)
    return _shuffled(rng, out)


WORKLOADS: Dict[str, Callable[[random.Random, str, int], List[List[Job]]]] = {
    "explore-finite": build_explore,
    "mutate-deep": build_mutate,
    "grassmann-fixtures": build_grassmann,
    "lattice-maps": build_lattice,
}
