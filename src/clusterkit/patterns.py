"""Exchange-graph exploration and quasi-automorphism search.

Exploration walks the mutation tree breadth-first and merges vertices whose
seeds agree up to a simultaneous permutation of the mutable indices, which
is exactly the unlabeled exchange graph.

Interning.  One exploration holds each distinct cluster variable once, in a
`Variables` table, under a small integer id and as a packed operand
(`laurent.Operand`, which keeps its packings and powers); a node is its
mutation word, the id tuple of its cluster and its extended exchange
matrix.  A variable is keyed by its minimum exponent and its packing at
the lane width of its own degree, so a quotient of
`seeds.exchange_packed`, which nearly always arrives packed there (it
keeps the width it was divided at), is interned on ints and decoded only
once, for output or for `PatternNode.seed`.

Identity and adjacency are the cluster alone.  Theorem: for a seed of a
skew-symmetrizable pattern of geometric type, (1) a seed is determined by
its cluster, so two seeds whose clusters agree up to a permutation of the
mutable indices have exchange matrices that agree up to the same
permutation, and (2) two clusters are adjacent in the exchange graph
exactly when they share n-1 variables.  Both were conjectured by Fomin &
Zelevinsky (Cluster algebras IV, Compositio Math. 143, 2007, Conj. 4.14)
and proved by Gekhtman, Shapiro & Vainshtein (Math. Res. Lett. 15, 2008)
for full-rank B~ and by Cao & Li (Math. Ann., 2020) in general.
Hypothesis: the input is a seed, its cluster together with the frozen
variables algebraically independent.  Its entries are then pairwise
distinct, and data that repeats an entry is rejected as `InvalidSeed` by
`canonical_key`; other non-seed input that no division exposes may be
explored differently than its matrices would be.  Ids are assigned within
one exploration, so an id means nothing across explorations.

Facets.  A facet is a cluster less one variable: the bitmask of the
cluster's ids with one bit cleared.  By (2) a facet lies in at most two
clusters, the ends of the edge that exchanges its missing variable.  So
each new node pops every facet it shares with an explored node from a
table of open facets and records that edge both ways, and a direction
still open when its node is expanded leads to a cluster not explored yet,
by (1) a new seed.  Only there does exploration divide and mutate a
matrix: a complete run of N nodes takes N-1 matrix mutations, and an edge
between two explored seeds costs a dictionary lookup.  The new cluster
can repeat an entry only if its new id is one of the old ones, and only
then is it checked with `canonical_key`.  The new matrix allocates only
row k and the rows where column k is nonzero: `seeds.mutate_matrix`
returns every other row as the parent's own object, and each allocated
row is interned, so equal rows across all node matrices are one tuple.

The memo key.  The new variable of mutation at k is the exchange polynomial
p+ prod x_j^[b_jk]+ + p- prod x_j^[-b_jk]+, with p+ and p- read off the
frozen rows of column k, divided by x_k.  Its inputs are exactly

    (id of x_k, sorted (id_j, b_jk) over b_jk != 0, frozen column k),

so exploration divides at most once per key, in `seeds.exchange_packed`
over the packed operands.  A hit is exact: equal keys mean equal operands
(ids compare terms, not hashes), hence the same quotient.  A failed
division raises and ends the exploration, so every memo entry is a
success.

The writers render each interned variable once and stream the graph a
node at a time: `graph_json_chunks` is exactly `json.dumps(payload,
indent=2)` of the payload it documents, `graph_dot_chunks` the DOT text.

The quasi-automorphism search then takes, at each explored seed, the
relabelings whose principal part matches the base (or its negative, for
maps into the opposite pattern) and asks the integer row-span solver for a
monomial map; distinct solutions to one target are deduplicated up to
proportionality.  `relabelings` finds those relabelings without trying
all n!: it fixes the image of one index at a time, among the indices of
equal sorted row and column, and extends a prefix only while the new row
and column match, so on the complete Gr(3,8) (E8) graph it keeps 1.8
prefixes per seed on average and 8 at most, where n! is 40320.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Sequence, Tuple

from . import laurent as lp
from . import quasihom as qh
from . import seeds as sd
from .laurent import Exponent
from .quasihom import NerveEdge

Rows = Tuple[Tuple[int, ...], ...]


class IncompleteNode(Exception):
    """Requested data needs neighbors the exploration did not reach."""


def permute_btilde(
    btilde: Sequence[Sequence[int]], n: int, perm: Sequence[int]
) -> List[List[int]]:
    """Relabel mutable indices: principal rows and all columns move, frozen
    rows stay put.  A perm that is no permutation of range(n) raises
    ValueError."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{list(perm)} is not a permutation of range({n})")
    out = []
    for i in range(len(btilde)):
        src_row = btilde[perm[i]] if i < n else btilde[i]
        out.append([src_row[perm[j]] for j in range(n)])
    return out


def canonical_key(ids: Sequence[int]) -> Tuple[int, ...]:
    """The key of a cluster, its ids in increasing order: equal for two
    seeds of one exploration exactly when a relabeling carries one onto the
    other (module docstring).  Equal ids, impossible in a seed, raise
    `InvalidSeed` naming the first equal pair in the sorted order."""
    key = tuple(sorted(ids))
    if len(set(key)) < len(key):
        perm = sorted(range(len(ids)), key=ids.__getitem__)
        for a, b in zip(perm, perm[1:]):
            if ids[a] == ids[b]:
                raise sd.InvalidSeed(f"cluster entries {a} and {b} are equal")
    return key


class Variables:
    """The distinct cluster variables of one exploration: `operands[i]` is
    the variable with id i as a packed operand, over the ambient variables
    `names`; its `poly` is decoded once, when first asked for.

    A variable is interned on its minimum exponent and its packing at the
    lane width of its degree, a frozenset of int pairs, so no exponent tuple
    is hashed: equal polynomials have equal minima, degrees and hence
    packings, and a packing at one width and shift is injective."""

    __slots__ = ("operands", "names", "_ids")

    def __init__(self, names: List[str]):
        self.operands: List[lp.Operand] = []
        self.names = names
        self._ids: Dict[Tuple[Exponent, FrozenSet[Tuple[int, int]]], int] = {}

    def intern(self, x: lp.Operand) -> int:
        """The id of x, a new one if no equal variable has one yet."""
        key = (x.low, frozenset(x.packed(lp.lane_width(x.degree)).items()))
        found = self._ids.setdefault(key, len(self.operands))
        if found == len(self.operands):
            self.operands.append(x)
        return found


class PatternNode(NamedTuple("PatternNode", [
    ("word", Tuple[int, ...]), ("ids", Tuple[int, ...]), ("btilde", Rows), ("variables", Variables),
])):
    """One unlabeled seed: the first representative reached, as the ids of
    its cluster and its extended exchange matrix, and its mutation word.
    `seed` rebuilds it over the interned variable objects."""

    __slots__ = ()

    @property
    def seed(self) -> sd.Seed:
        operands = self.variables.operands
        return sd.Seed.trusted(
            [list(row) for row in self.btilde],
            [operands[i].poly for i in self.ids],
            self.variables.names,
        )


class ExplorationGraph(NamedTuple("ExplorationGraph", [
    ("nodes", List[PatternNode]), ("adjacency", List[Dict[int, int]]),
    ("hit_depth", bool), ("hit_nodes", bool),
])):
    __slots__ = ()

    @property
    def complete(self) -> bool:
        return not (self.hit_depth or self.hit_nodes)


def explore(
    initial: sd.Seed, max_depth: int = 16, max_nodes: int = 500
) -> ExplorationGraph:
    """Breadth-first mutation closure up to relabeling.  Nodes are
    appended in breadth-first order, so the node list is the queue: the
    loop expands them in turn while `add` appends.

    Each new node closes every open facet it shares with an explored node
    and records that edge both ways, so a direction still open when its
    node is expanded leads to a new seed: only there does exploration
    divide and mutate a matrix (module docstring).  A node at `max_depth`
    keeps no edges.  Hitting either limit flags the graph as truncated
    instead of failing, since infinite-type patterns never close.  Once
    `max_nodes` seeds are kept no direction is divided, since each open one
    leads to a new seed that the cap drops.  Input that is not a seed of
    any pattern raises `lp.NotDivisible` or `sd.InvalidSeed` from the first
    division or key that exposes it; when that division lies past either
    limit, the truncated graph is returned.
    """
    if max_depth < 0 or max_nodes < 1:
        raise ValueError("need max_depth >= 0 and max_nodes >= 1")
    n = initial.n
    variables = Variables(initial.var_names)
    # ids then order the initial cluster as sorting its terms does, so an
    # input with equal entries names the same pair as a term sort would
    cluster = list(map(lp.Operand, initial.cluster))
    for j in sorted(range(n), key=lambda j: sorted(initial.cluster[j].items())):
        variables.intern(cluster[j])
    ids = tuple(map(variables.intern, cluster))
    canonical_key(ids)
    nodes: List[PatternNode] = []
    adjacency: List[Dict[int, int]] = []
    # open facet (cluster id bitmask less one bit) -> (node, label); only a
    # node that keeps edges opens one
    facets: Dict[int, Tuple[int, int]] = {}

    def add(word: Tuple[int, ...], ids: Tuple[int, ...], btilde: Rows) -> None:
        new = len(nodes)
        nodes.append(PatternNode(word, ids, btilde, variables))
        adjacency.append({})
        keeps = len(word) < max_depth
        bits = [1 << i for i in ids]
        mask = sum(bits)
        for j, bit in enumerate(bits):
            facet = mask - bit
            other = facets.pop(facet, None)
            if other is not None:
                adjacency[other[0]][other[1]] = new
                if keeps:
                    adjacency[new][j] = other[0]
            elif keeps:
                facets[facet] = (new, j)

    # one tuple per distinct row, shared by every node matrix that holds it
    rows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    add((), ids, tuple(rows.setdefault(row, row) for row in map(tuple, initial.btilde)))
    quotients: Dict[tuple, int] = {}
    operands = variables.operands
    hit_depth = hit_nodes = False
    for idx, node in enumerate(nodes):
        if len(node.word) >= max_depth:
            hit_depth = True
            continue
        ids, btilde = node.ids, node.btilde
        for k in range(n):
            if k in adjacency[idx]:
                continue
            # a direction still open leads to a new seed, which the cap drops
            if len(nodes) >= max_nodes:
                hit_nodes = True
                continue
            column = [row[k] for row in btilde]
            exchange = (
                ids[k],
                tuple(sorted([(i, e) for i, e in zip(ids, column) if e])),
                tuple(column[n:]),
            )
            new = quotients.get(exchange)
            if new is None:
                new = variables.intern(sd.exchange_packed(
                    column, k, [operands[i] for i in ids], *sd.frozen_pair(column, n)
                ))
                quotients[exchange] = new
            new_ids = ids[:k] + (new,) + ids[k + 1:]
            if new in ids:
                # the one way the new cluster can repeat an entry
                canonical_key(new_ids)
            # mutation shares the rows with b_ik = 0, already interned here,
            # so only row k and the rows where the column is nonzero are new
            mutated = sd.mutate_matrix(btilde, k)
            for i, e in enumerate(column):
                if e or i == k:
                    row = tuple(mutated[i])
                    mutated[i] = rows.setdefault(row, row)
            add(node.word + (k,), new_ids, tuple(mutated))
    return ExplorationGraph(nodes, adjacency, hit_depth, hit_nodes)


def star_neighborhood(graph: ExplorationGraph, node: int) -> List[NerveEdge]:
    """The n tree edges at one vertex, as a nerve anchored at its word."""
    if not 0 <= node < len(graph.nodes):
        raise ValueError(f"node {node} out of range for {len(graph.nodes)} nodes")
    word = graph.nodes[node].word
    missing = [k for k in range(len(graph.nodes[node].ids)) if k not in graph.adjacency[node]]
    if missing:
        raise IncompleteNode(f"node {node} lacks neighbors at labels {missing}")
    return [(word, k) for k in sorted(graph.adjacency[node])]


class QuasiAutomorphism(NamedTuple("QuasiAutomorphism", [
    ("node", int), ("permutation", Tuple[int, ...]), ("matrix_map", qh.MonomialMap),
    ("direction", str),
])):
    """A relabeled explored seed the base pattern maps onto, with the
    witnessing monomial map in the rerooted coordinates."""

    __slots__ = ()


def relabelings(
    btilde: Sequence[Sequence[int]], principal: Sequence[Sequence[int]]
) -> List[Tuple[int, ...]]:
    """Every permutation p, in increasing order, with btilde[p[i]][p[j]] ==
    principal[i][j] for all mutable i and j: the relabelings under which
    `permute_btilde` carries btilde's principal part onto `principal`.
    The images of indices 0, 1, ... are fixed in turn, each among those
    with the sorted row and column of its index, which a relabeling
    keeps, and a prefix is extended only by an image whose new row and
    column match, diagonal included, so no relabeling that a mismatched
    prefix rules out is visited.  A principal part of another size than
    btilde's rank raises ValueError."""
    n = len(principal)
    rank = len(btilde[0]) if btilde else 0
    if n != rank:
        raise ValueError(f"principal part of size {n} for a matrix of rank {rank}")
    held, wanted = ([(sorted(m[i][:n]), sorted([row[i] for row in m[:n]])) for i in range(n)]
                    for m in (btilde, principal))
    images = [[v for v in range(n) if held[v] == target] for target in wanted]
    found: List[Tuple[int, ...]] = [()]
    for k, row in enumerate(principal):
        found = [p + (v,) for p in found for v in images[k] if v not in p and all(
            btilde[v][q] == row[i] and btilde[q][v] == principal[i][k]
            for i, q in enumerate(p + (v,)))]
    return found


def find_quasi_automorphisms(
    graph: ExplorationGraph, base: sd.Seed, include_opposite: bool = True
) -> List[QuasiAutomorphism]:
    """All ways the pattern maps onto a relabeling of an explored seed.

    For every node and every relabeling of it that `relabelings` finds to
    reproduce the base's principal part (or its negative), in order of
    permutation and then direct before opposite, the row-span solver is
    asked for a map; per target and orientation, solutions are kept one
    per proportionality class.  On a truncated graph the list is a lower
    bound, nothing more.  A base of another rank raises PrincipalMismatch,
    one with another number of frozen rows ValueError.
    """
    rank = len(graph.nodes[0].ids)
    if base.n != rank:
        raise qh.PrincipalMismatch(f"base of rank {base.n} for a graph of rank {rank}")
    frozen = len(graph.nodes[0].btilde) - rank
    if base.m != frozen:
        raise ValueError(f"frozen row counts differ: base {base.m}, graph {frozen}")
    out: List[QuasiAutomorphism] = []
    kept: Dict[Tuple[int, str], List[qh.MonomialMap]] = {}
    signs = {"direct": 1, "opposite": -1} if include_opposite else {"direct": 1}
    principals = [(direction, [[sign * v for v in row] for row in base.principal])
                  for direction, sign in signs.items()]
    for idx, node in enumerate(graph.nodes):
        found = [(perm, direction) for direction, principal in principals
                 for perm in relabelings(node.btilde, principal)]
        for perm, direction in sorted(found):
            target = [[signs[direction] * v for v in row]
                      for row in permute_btilde(node.btilde, base.n, perm)]
            m = qh.construct_qh(base.btilde, target, base.var_names, base.var_names)
            bucket = kept.setdefault((idx, direction), [])
            if m is None or any(
                    qh.proportional(m, seen, base.btilde) is not None for seen in bucket):
                continue
            bucket.append(m)
            out.append(QuasiAutomorphism(idx, perm, m, direction))
    return out


def _rendered(graph: ExplorationGraph, escape: Callable[[str], str]) -> List[str]:
    """The escaped rendering of every interned variable the graph's
    clusters hold, by id: each is rendered once."""
    variables = graph.nodes[0].variables
    out: List[str] = [""] * len(variables.operands)
    for node in graph.nodes:
        for i in node.ids:
            if not out[i]:
                out[i] = escape(lp.to_str(variables.operands[i].poly, variables.names))
    return out


def _json_list(items: List[str]) -> str:
    # a list of rendered scalars one level below a node object
    return "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"


def graph_json_chunks(graph: ExplorationGraph) -> Iterator[str]:
    """`json.dumps(payload, indent=2)` of the exchange graph, one chunk per
    node and one per node's edges, so that neither the payload nor its text
    is ever whole in memory.  The payload holds the nodes (id, word and
    cluster), the edges (from, label, to) in order of source and label,
    and the flags `complete`, `hit_depth` and `hit_nodes`."""
    rendered = _rendered(graph, json.dumps)
    head = '{\n  "nodes": ['
    for i, node in enumerate(graph.nodes):
        word = _json_list(list(map(str, node.word)))
        cluster = _json_list([rendered[j] for j in node.ids])
        yield (f'{head}\n    {{\n      "id": {i},\n      "word": {word},'
               f'\n      "cluster": {cluster}\n    }}')
        head = ","
    head = '\n  ],\n  "edges": ['
    edge = ',\n      "label": %d,\n      "to": %d\n    }'
    for i, nbrs in enumerate(graph.adjacency):
        if nbrs:
            # one format of the edge template, repeated, per node
            each = f'\n    {{\n      "from": {i}' + edge
            yield head + ",".join([each] * len(nbrs)) % tuple(
                chain.from_iterable(sorted(nbrs.items())))
            head = ","
    flags = {"complete": graph.complete, "hit_depth": graph.hit_depth,
             "hit_nodes": graph.hit_nodes}
    yield ("\n  ]" if head == "," else head + "]") + "".join(
        f',\n  "{name}": {json.dumps(flag)}' for name, flag in flags.items()) + "\n}"


def _dot_escape(x: str) -> str:
    return x.replace("\\", "\\\\").replace('"', '\\"')


def graph_dot_chunks(graph: ExplorationGraph) -> Iterator[str]:
    """The exchange graph in DOT, each node labeled by its cluster, one
    chunk per node and one per node's edges.  Each edge appears once, from
    its earlier node, which records every edge its later one does."""
    rendered = _rendered(graph, _dot_escape)
    yield "graph exchange {"
    for i, node in enumerate(graph.nodes):
        yield f'\n  n{i} [label="' + "\\n".join(rendered[j] for j in node.ids) + '"];'
    for i, nbrs in enumerate(graph.adjacency):
        # one line per later neighbour, under its least label
        later = {j: k for k, j in sorted(nbrs.items(), reverse=True) if j > i}
        if later:
            yield "".join(f'\n  n{i} -- n{j} [label="{k}"];' for j, k in sorted(later.items()))
    yield "\n}"
