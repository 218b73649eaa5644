"""Quasi-homomorphisms between geometric-type patterns.

A monomial map sends each source generator to a monomial in the target
generators; its matrix of exponents acts on exponent vectors.  Such a map is
a quasi-homomorphism when it carries the source extended matrix onto the
target one and each cluster variable to a frozen-monomial multiple of its
counterpart, which this module verifies at a seed, constructs from a pair of
extended matrices by integer row reduction, and compares up to
proportionality through grading matrices.  Quasi-inverses are certified on
the star neighborhood of a seed, and nerve-based verification classifies a
candidate map as landing in the target pattern or its opposite.

Everything is exact integer arithmetic; failures are reported, not
approximated.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import lattice as la
from . import laurent as lp
from . import orbits as ob
from . import seeds as sd
from .laurent import Exponent, Poly

NerveEdge = Tuple[Tuple[int, ...], int]


class InvalidMap(Exception):
    """Monomial map data violates shape or coefficient preservation."""


class PrincipalMismatch(Exception):
    """Extended matrices disagree on their principal parts."""


class DecomposableTarget(Exception):
    """Nerve verification needs an indecomposable target exchange matrix."""


class InvalidNerve(Exception):
    """Edge set is not a connected subtree covering every mutation label."""


class MonomialMap:
    """Exponent matrix of a coefficient-preserving monomial map.

    Rows index target generators, columns source generators; column k is the
    image of the k-th source variable (`columns` holds them).  Frozen source
    columns must have zero entries in mutable target rows, so frozen
    monomials stay frozen.
    """

    __slots__ = ("matrix", "columns", "src_vars", "dst_vars", "src_mutable", "dst_mutable")

    def __init__(
        self,
        matrix: Sequence[Sequence[int]],
        src_vars: Sequence[str],
        dst_vars: Sequence[str],
        src_mutable: int,
        dst_mutable: int,
    ):
        self.matrix = [list(row) for row in matrix]
        self.src_vars = list(src_vars)
        self.dst_vars = list(dst_vars)
        self.src_mutable = src_mutable
        self.dst_mutable = dst_mutable
        rows = len(self.matrix)
        if rows != len(self.dst_vars):
            raise InvalidMap("row count must match target variables")
        # a map onto no variables has no row to read its width from
        cols = len(self.matrix[0]) if rows else len(self.src_vars)
        if any(len(row) != cols for row in self.matrix):
            raise InvalidMap("ragged matrix")
        if cols != len(self.src_vars):
            raise InvalidMap("column count must match source variables")
        if not 0 <= src_mutable <= cols or not 0 <= dst_mutable <= rows:
            raise InvalidMap("mutable counts out of range")
        for k in range(src_mutable, cols):
            for i in range(dst_mutable):
                if self.matrix[i][k]:
                    raise InvalidMap(
                        f"frozen source column {k} hits mutable target row {i}"
                    )
        self.columns = list(zip(*self.matrix)) if rows else [()] * cols


def identity_map(seed: sd.Seed) -> MonomialMap:
    arity = seed.n + seed.m
    return MonomialMap(
        la.identity(arity), seed.var_names, seed.var_names, seed.n, seed.n
    )


def map_to_json(m: MonomialMap) -> dict:
    return {
        "matrix": [list(row) for row in m.matrix],
        "src_vars": list(m.src_vars),
        "dst_vars": list(m.dst_vars),
    }


def map_from_json(obj: dict, src_mutable: int, dst_mutable: int) -> MonomialMap:
    """Mutable counts are not part of the wire format; the caller supplies
    them from the seed context the map travels with."""
    obj = lp.json_object(obj, "the top level", InvalidMap)
    matrix = [
        lp.json_items(row, "map entries", int, InvalidMap)
        for row in lp.json_list(obj["matrix"], "matrix", InvalidMap)
    ]
    src_vars = lp.json_items(obj["src_vars"], "src_vars", str, InvalidMap)
    dst_vars = lp.json_items(obj["dst_vars"], "dst_vars", str, InvalidMap)
    return MonomialMap(matrix, src_vars, dst_vars, src_mutable, dst_mutable)


def apply_map(m: MonomialMap, f: Poly) -> Poly:
    """Term-by-term monomial substitution; exponents go through the matrix."""
    out: Poly = {}
    for e, c in f.items():
        image = map_exponent(m, e)
        got = out.get(image, 0) + c
        if got:
            out[image] = got
        else:
            del out[image]
    return out


def compose_maps(outer: MonomialMap, inner: MonomialMap) -> MonomialMap:
    if inner.dst_vars != outer.src_vars or inner.dst_mutable != outer.src_mutable:
        raise InvalidMap("maps do not chain")
    return MonomialMap(
        la.matmul(outer.matrix, inner.matrix),
        inner.src_vars,
        outer.dst_vars,
        inner.src_mutable,
        outer.dst_mutable,
    )


def map_exponent(m: MonomialMap, e: Exponent) -> Exponent:
    """The image exponent: the sum of e_j * column_j over nonzero e_j."""
    if len(e) != len(m.columns):
        raise ValueError(f"arity {len(e)} does not match {len(m.src_vars)} source variables")
    return tuple(la.vec_mat(e, m.columns)) if e else (0,) * len(m.dst_vars)


def map_seed(m: MonomialMap, seed: sd.Seed) -> ob.SeedLike:
    """Image of a seed: a non-normalized seed in the target ambient, with
    coefficient pairs pushed through the map."""
    pairs = [tuple(map_exponent(m, e) for e in sd.frozen_pair(column, seed.n))
             for column in zip(*seed.btilde)]
    cluster = [apply_map(m, x) for x in seed.cluster]
    return ob.SeedLike(seed.principal, cluster, pairs, m.dst_vars)


def verify_report(
    m: MonomialMap, src: sd.Seed, dst: sd.Seed, allow_opposite: bool = False
) -> dict:
    """Witness report of the quasi-homomorphism test at one seed pair.

    Records whether the principal parts agree, whether the matrix carries
    the source extended matrix to the target one, and the frozen monomial
    ratio of each source cluster variable's image to its target counterpart
    (None when there is none).  The verdict is their conjunction; with
    allow_opposite, a failed direct test is retried against the opposite
    target seed.  Seeds of different rank raise PrincipalMismatch, and a map
    that does not fit the seeds raises InvalidMap.
    """
    if src.n != dst.n:
        raise PrincipalMismatch("principal ranks must agree")
    if (len(m.src_vars), m.src_mutable, len(m.dst_vars), m.dst_mutable) != (
        src.n + src.m, src.n, dst.n + dst.m, dst.n
    ):
        raise InvalidMap("map does not fit the seeds")
    ratios = [
        ob.frozen_ratio(apply_map(m, x), y, dst.n)
        for x, y in zip(src.cluster, dst.cluster)
    ]
    report = {
        "principal_equal": src.principal == dst.principal,
        "matrix_identity": la.matmul(m.matrix, src.btilde) == dst.btilde,
        "variables": [
            {"name": name, "frozen_ratio": None if r is None else list(r), "ok": r is not None}
            for name, r in zip(src.var_names, ratios)
        ],
    }
    report["verdict"] = (
        report["principal_equal"] and report["matrix_identity"] and None not in ratios
    ) or (allow_opposite and verify_report(m, src, sd.opposite_seed(dst))["verdict"])
    return report


def verify_qh(m: MonomialMap, src: sd.Seed, dst: sd.Seed) -> bool:
    """The verdict of verify_report, and False for a map that does not fit
    the seeds.  Seeds of different rank raise PrincipalMismatch."""
    try:
        return verify_report(m, src, dst)["verdict"]
    except InvalidMap:
        return False


def construct_qh(
    src_btilde: Sequence[Sequence[int]],
    dst_btilde: Sequence[Sequence[int]],
    src_vars: Sequence[str],
    dst_vars: Sequence[str],
) -> Optional[MonomialMap]:
    """A monomial map between extended matrices, if one exists.

    The top block is fixed to (identity | 0), so all freedom sits in the
    frozen rows; each target coefficient row must be an integer combination
    of source rows, found through the Hermite transform and size-reduced
    against the gradings, which is all the freedom there is.  Absent when
    some row is not in the integer row span; PrincipalMismatch when the
    principal parts differ.
    """
    report = construct_qh_diagnostics(src_btilde, dst_btilde, src_vars, dst_vars)
    if not report["principal_equal"]:
        raise PrincipalMismatch(report["reason"])
    if report["map"] is None:
        return None
    n = _rank(src_btilde)
    return MonomialMap(report["map"], src_vars, dst_vars, n, n)


def construct_qh_diagnostics(
    src_btilde: Sequence[Sequence[int]],
    dst_btilde: Sequence[Sequence[int]],
    src_vars: Sequence[str],
    dst_vars: Sequence[str],
) -> dict:
    """Same search as construct_qh, reporting per-row solvability.

    Each failed coefficient row records whether a rational combination
    exists, separating lattice obstructions from genuine span mismatches.
    Every row is solved against one Hermite transform of the source matrix.
    Different principal parts give a report with principal_equal False, no
    rows and the reason.
    """
    n = _rank(src_btilde)
    equal = _rank(dst_btilde) == n and (
        [list(r) for r in src_btilde[:n]] == [list(r) for r in dst_btilde[:n]]
    )
    solved = la.solve_left_all(src_btilde, dst_btilde[n:]) if equal else []
    rows = [
        {"row": i, "integer": True} if z is not None
        else {"row": i, "integer": False, "rational": rational}
        for i, (z, rational) in enumerate(solved, n)
    ]
    matrix = None
    if equal and all(z is not None for z, _ in solved):
        matrix = la.identity(len(src_btilde))[:n] + [z for z, _ in solved]
    report: dict = {"principal_equal": equal, "rows": rows, "map": matrix}
    if not equal:
        report["reason"] = "extended matrices have different principal parts"
    return {**report, "src_vars": list(src_vars), "dst_vars": list(dst_vars)}


def _rank(btilde: Sequence[Sequence[int]]) -> int:
    # the column count, as `Seed` takes it: a rank-0 matrix may have no rows
    return len(btilde[0]) if btilde else 0


def normalization_map(m: MonomialMap) -> Callable[[Poly], Exponent]:
    """The semifield map onto frozen monomials: apply then tropicalize.

    Its value divides the image of a cluster variable down to the separated
    target variable.
    """

    def c(f: Poly) -> Exponent:
        return lp.tropicalize(apply_map(m, f), m.dst_mutable)

    return c


class Grading(NamedTuple("Grading", [("rows", Tuple[Tuple[int, ...], ...])])):
    """Integer grading rows annihilating an extended matrix on the left."""

    __slots__ = ()


def proportional(
    m1: MonomialMap, m2: MonomialMap, src_btilde: Sequence[Sequence[int]]
) -> Optional[Grading]:
    """Grading carrying one map to the other, absent when they differ in
    mutable rows or the difference fails to annihilate the source matrix."""
    if (m1.src_vars, m1.dst_vars, m1.src_mutable, m1.dst_mutable) != (
        m2.src_vars, m2.dst_vars, m2.src_mutable, m2.dst_mutable
    ):
        raise InvalidMap("maps differ in variables or mutable counts")
    diff = [
        [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(m1.matrix, m2.matrix)
    ]
    if any(any(row) for row in diff[: m1.dst_mutable]):
        return None
    bottom = diff[m1.dst_mutable :]
    if bottom and any(any(v) for v in la.matmul(bottom, src_btilde)):
        return None
    return Grading(tuple(tuple(row) for row in bottom))


def grading_space(btilde: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the integer left kernel: all gradings of the pattern."""
    return la.left_kernel_basis(btilde)


def quasi_inverse_check(m: MonomialMap, w: MonomialMap, src: sd.Seed) -> bool:
    """True when the composite fixes, up to frozen monomials, every cluster
    variable of the seed and of each of its mutation neighbors, which share
    all but their new x_k with the seed.  Checking this star certifies the
    pair as quasi-inverse."""
    composite = compose_maps(w, m)
    if composite.src_vars != composite.dst_vars:
        return False
    star = list(src.cluster) + [sd.exchanged(src, k) for k in range(src.n)]
    return all(ob.frozen_ratio(apply_map(composite, x), x, src.n) is not None for x in star)


def reduce_word(word: Sequence[int]) -> Tuple[int, ...]:
    """Cancel immediate repeats; mutation in one direction is an involution,
    so reduced words are the canonical vertex names of the labeled tree."""
    out: List[int] = []
    for k in word:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def nerve_vertices(nerve: Iterable[NerveEdge], n: int) -> List[Tuple[int, ...]]:
    """Sorted vertex words of a valid nerve.

    Raises InvalidNerve unless the edges are connected and every mutation
    label occurs on at least one of them.
    """
    edges = list(nerve)
    if not edges:
        raise InvalidNerve("empty edge set")
    seen_labels = set()
    adjacency: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for word, label in edges:
        if not 0 <= label < n or any(not 0 <= k < n for k in word):
            raise InvalidNerve(f"label out of range in edge {(word, label)}")
        a = reduce_word(word)
        b = reduce_word(list(word) + [label])
        seen_labels.add(label)
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if seen_labels != set(range(n)):
        raise InvalidNerve(f"labels {sorted(set(range(n)) - seen_labels)} missing")
    start = next(iter(adjacency))
    reached = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if reached != set(adjacency):
        raise InvalidNerve("edge set is not connected")
    return sorted(adjacency)


def check_on_nerve(
    m: MonomialMap,
    nerve: Iterable[NerveEdge],
    src_seed: sd.Seed,
    dst_seed: sd.Seed,
) -> str:
    """Classify a map by its behavior on a nerve: "direct", "opposite", or
    "fail".

    Nerve edges are (vertex word, label) pairs in the mutation tree.  At
    each edge the images of the exchanged variables must be frozen-monomial
    multiples of their counterparts, and the two terms of the image exchange
    relation must match the target's pair with one common ratio, either in
    order (target pattern) or crossed (its opposite).  Targets whose
    exchange matrix decomposes are rejected, since the two cases would not
    be mutually exclusive.
    """
    edges = list(nerve)
    vertices = nerve_vertices(edges, src_seed.n)
    src_at: Dict[Tuple[int, ...], sd.Seed] = {}
    dst_at: Dict[Tuple[int, ...], sd.Seed] = {}
    for v in vertices:
        src_at[v] = sd.mutate_word(src_seed, v)
        dst_at[v] = sd.mutate_word(dst_seed, v)
        if not sd.is_indecomposable(dst_at[v].principal):
            raise DecomposableTarget(f"target at vertex {v} decomposes")
    direct_all = opposite_all = True
    for word, label in edges:
        a = reduce_word(word)
        b = reduce_word(list(word) + [label])
        for v in (a, b):
            image = apply_map(m, src_at[v].cluster[label])
            if ob.frozen_ratio(image, dst_at[v].cluster[label], dst_seed.n) is None:
                return "fail"
        src_plus, src_minus = sd.hatted(src_at[a], label)
        dst_plus, dst_minus = sd.hatted(dst_at[a], label)
        ip, im = apply_map(m, src_plus), apply_map(m, src_minus)
        r_pp = ob.frozen_ratio(ip, dst_plus, dst_seed.n)
        r_mm = ob.frozen_ratio(im, dst_minus, dst_seed.n)
        r_pm = ob.frozen_ratio(ip, dst_minus, dst_seed.n)
        r_mp = ob.frozen_ratio(im, dst_plus, dst_seed.n)
        if not (r_pp is not None and r_pp == r_mm):
            direct_all = False
        if not (r_pm is not None and r_pm == r_mp):
            opposite_all = False
        if not direct_all and not opposite_all:
            return "fail"
    return "direct" if direct_all else "opposite"
