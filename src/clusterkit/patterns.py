"""Exchange-graph exploration and quasi-automorphism search.

Exploration walks the mutation tree breadth-first and merges vertices whose
seeds agree up to a simultaneous permutation of the mutable indices, which
is exactly the unlabeled exchange graph.

Interning.  One exploration holds each distinct cluster variable once, in a
`Variables` table, under a small integer id; a node is its mutation word,
the id tuple of its cluster and its extended exchange matrix as a tuple of
row tuples.  Equal polynomials get equal ids, so comparing ids compares
variables.

Identity is decided by a canonical form: the ids in increasing order, then
the matrix with the mutable indices relabeled to that order.  The cluster of
a seed is algebraically independent (Fomin & Zelevinsky, "Cluster algebras
I", 2002), so its entries are pairwise distinct and the order leaves no
relabeling free; the form costs one sort, at any rank.  Ids are assigned
within one exploration, so the form is relabeling-invariant within it and
means nothing across explorations.  Data whose cluster repeats an entry is
not a seed of any pattern and is rejected as `InvalidSeed`.

The memo key.  The new variable of mutation at k is the exchange polynomial
p+ prod x_j^[b_jk]+ + p- prod x_j^[-b_jk]+, with the frozen monomials p+ and
p- read off column k below the mutable rows, divided by x_k.  Its inputs are
exactly

    (id of x_k, sorted (id_j, b_jk) over b_jk != 0, frozen column k),

so exploration keys each quotient by that tuple and divides once per key.
A hit is exact, not probable: equal keys mean equal dividend and divisor,
operand for operand, hence the very polynomial the division would return.
No theorem or modular shortcut is involved, and an id stands for its
polynomial exactly: `Variables` finds ids by a dict lookup that compares
the terms themselves, not their hash alone.  A failed division raises and
ends the exploration, so every memo entry is a success.

Each edge is mutated once, not from both ends.  Mutation is an involution,
as mu_k negates column k of the exchange matrix and keeps the exchange
polynomial at k, and it commutes with relabeling: if direction k from a node
reaches a representative holding the new variable at j, direction j leads
back.  N seeds of rank n thus take n*N/2 mutations in place of n*N.

The quasi-automorphism search then relabels each explored seed every
possible way, keeps the relabelings whose principal part matches the base
(or its negative, for maps into the opposite pattern), and asks the
integer row-span solver for a monomial map; distinct solutions to one
target are deduplicated up to proportionality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, FrozenSet, List, Sequence, Tuple

from . import laurent as lp
from . import quasihom as qh
from . import seeds as sd
from .laurent import Exponent, Poly
from .quasihom import NerveEdge

Rows = Tuple[Tuple[int, ...], ...]


class IncompleteNode(Exception):
    """Requested data needs neighbors the exploration did not reach."""


def permute_btilde(
    btilde: Sequence[Sequence[int]], n: int, perm: Sequence[int]
) -> List[List[int]]:
    """Relabel mutable indices: principal rows and all columns move, frozen
    rows stay put."""
    out = []
    for i in range(len(btilde)):
        src_row = btilde[perm[i]] if i < n else btilde[i]
        out.append([src_row[perm[j]] for j in range(n)])
    return out


def canonical_key(ids: Sequence[int], btilde: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The ids in increasing order, then the matrix relabeled to that order,
    row by row, as one flat tuple.

    Two seeds of one exploration get equal keys exactly when a permutation
    of the mutable indices carries one onto the other: a relabeling moves
    cluster entries and exchange-matrix rows and columns together, and with
    pairwise distinct ids the sorted order fixes it uniquely.  Equal ids
    would leave the order ambiguous and cannot occur in a seed, so they
    raise `InvalidSeed`.
    """
    n = len(ids)
    perm = sorted(range(n), key=ids.__getitem__)
    order = [ids[i] for i in perm]
    for pos in range(1, n):
        if order[pos - 1] == order[pos]:
            raise sd.InvalidSeed(f"cluster entries {perm[pos - 1]} and {perm[pos]} are equal")
    rows = [btilde[i] for i in perm]
    rows.extend(btilde[n:])
    return tuple(order + [row[j] for row in rows for j in perm])


class Variables:
    """The distinct cluster variables of one exploration: `polys[i]` is the
    variable with id i, over the ambient variables `names`."""

    __slots__ = ("polys", "names", "_ids")

    def __init__(self, names: List[str]):
        self.polys: List[Poly] = []
        self.names = names
        self._ids: Dict[FrozenSet[Tuple[Exponent, int]], int] = {}

    def intern(self, x: Poly) -> int:
        """The id of x, a new one if no equal polynomial has one yet."""
        found = self._ids.setdefault(frozenset(x.items()), len(self.polys))
        if found == len(self.polys):
            self.polys.append(x)
        return found


@dataclass(slots=True)
class PatternNode:
    """One unlabeled seed: the first representative reached, as the ids of
    its cluster and its extended exchange matrix, and its mutation word.
    `seed` rebuilds it over the interned variable objects."""

    word: Tuple[int, ...]
    ids: Tuple[int, ...]
    btilde: Rows
    variables: Variables = field(repr=False)

    @property
    def seed(self) -> sd.Seed:
        polys = self.variables.polys
        return sd.Seed.trusted(
            [list(row) for row in self.btilde],
            [polys[i] for i in self.ids],
            self.variables.names,
        )


@dataclass
class ExplorationGraph:
    nodes: List[PatternNode]
    adjacency: List[Dict[int, int]]
    hit_depth: bool
    hit_nodes: bool

    @property
    def complete(self) -> bool:
        return not (self.hit_depth or self.hit_nodes)


def explore(
    initial: sd.Seed, max_depth: int = 16, max_nodes: int = 500
) -> ExplorationGraph:
    """Breadth-first mutation closure up to relabeling.

    Nodes are deduplicated through the canonical form; hitting either limit
    flags the graph as truncated instead of failing, since infinite-type
    patterns never close.  Input that is not a seed of any pattern raises
    `lp.NotDivisible` or `sd.InvalidSeed` from the first division or
    canonical form that exposes it.

    By the involution (module docstring), an edge into a later node that is
    still to be expanded also records its reverse, which is not mutated
    again; a complete run of N nodes of rank n mutates n*N/2 matrices and
    divides once per distinct memo key.
    """
    if max_depth < 0 or max_nodes < 1:
        raise ValueError("need max_depth >= 0 and max_nodes >= 1")
    n = initial.n
    variables = Variables(initial.var_names)
    # ids then order the initial cluster as sorting its terms does, so an
    # input with equal entries names the same pair as a term sort would
    for x in sorted(initial.cluster, key=lambda x: sorted(x.items())):
        variables.intern(x)
    ids = tuple(map(variables.intern, initial.cluster))
    btilde = tuple(map(tuple, initial.btilde))
    nodes = [PatternNode((), ids, btilde, variables)]
    adjacency: List[Dict[int, int]] = [{}]
    index = {canonical_key(ids, btilde): 0}
    quotients: Dict[tuple, int] = {}
    # one tuple per distinct row, shared by every node matrix that holds it
    rows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    hit_depth = hit_nodes = False
    queue = deque([0])
    while queue:
        idx = queue.popleft()
        node = nodes[idx]
        if len(node.word) >= max_depth:
            hit_depth = True
            continue
        ids, btilde = node.ids, node.btilde
        for k in range(n):
            if k in adjacency[idx]:
                continue
            column = [row[k] for row in btilde]
            exchange = (
                ids[k],
                tuple(sorted((ids[j], column[j]) for j in range(n) if column[j])),
                tuple(column[n:]),
            )
            new = quotients.get(exchange)
            if new is None:
                new = variables.intern(sd.exchanged_variable(node.seed, k))
                quotients[exchange] = new
            new_ids = ids[:k] + (new,) + ids[k + 1:]
            mutated = sd.mutate_matrix(btilde, k)
            key = canonical_key(new_ids, mutated)
            found = index.get(key)
            if found is None:
                if len(nodes) >= max_nodes:
                    hit_nodes = True
                    continue
                found = len(nodes)
                frozen = tuple(rows.setdefault(row, row) for row in map(tuple, mutated))
                nodes.append(PatternNode(node.word + (k,), new_ids, frozen, variables))
                adjacency.append({})
                index[key] = found
                queue.append(found)
            adjacency[idx][k] = found
            if found > idx and len(nodes[found].word) < max_depth:
                adjacency[found][nodes[found].ids.index(new)] = idx
    return ExplorationGraph(nodes, adjacency, hit_depth, hit_nodes)


def star_neighborhood(graph: ExplorationGraph, node: int) -> List[NerveEdge]:
    """The n tree edges at one vertex, as a nerve anchored at its word."""
    word = graph.nodes[node].word
    missing = [k for k in range(len(graph.nodes[node].ids)) if k not in graph.adjacency[node]]
    if missing:
        raise IncompleteNode(f"node {node} lacks neighbors at labels {missing}")
    return [(word, k) for k in sorted(graph.adjacency[node])]


@dataclass
class QuasiAutomorphism:
    """A relabeled explored seed the base pattern maps onto, with the
    witnessing monomial map in the rerooted coordinates."""

    node: int
    permutation: Tuple[int, ...]
    matrix_map: qh.MonomialMap
    direction: str


def find_quasi_automorphisms(
    graph: ExplorationGraph, base: sd.Seed, include_opposite: bool = True
) -> List[QuasiAutomorphism]:
    """All ways the pattern maps onto a relabeling of an explored seed.

    For every node and permutation whose principal part reproduces the
    base's (or its negative), the row-span solver is asked for a map; per
    target and orientation, solutions are kept one per proportionality
    class.  On a truncated graph the list is a lower bound, nothing more.
    """
    out: List[QuasiAutomorphism] = []
    kept: Dict[Tuple[int, str], List[qh.MonomialMap]] = {}
    negated = [[-v for v in row] for row in base.principal]
    for idx, node in enumerate(graph.nodes):
        for perm in permutations(range(base.n)):
            permuted = permute_btilde(node.btilde, base.n, perm)
            candidates = []
            if permuted[: base.n] == base.principal:
                candidates.append(("direct", permuted))
            if include_opposite and permuted[: base.n] == negated:
                candidates.append(
                    ("opposite", [[-v for v in row] for row in permuted])
                )
            for direction, target in candidates:
                m = qh.construct_qh(
                    base.btilde, target, base.var_names, base.var_names
                )
                if m is None:
                    continue
                bucket = kept.setdefault((idx, direction), [])
                if any(
                    qh.proportional(m, seen, base.btilde) is not None
                    for seen in bucket
                ):
                    continue
                bucket.append(m)
                out.append(QuasiAutomorphism(idx, tuple(perm), m, direction))
    return out


def _rendered_clusters(graph: ExplorationGraph) -> List[List[str]]:
    """Every node's cluster as strings, each interned variable rendered once."""
    variables = graph.nodes[0].variables
    rendered: Dict[int, str] = {}
    for node in graph.nodes:
        for i in node.ids:
            if i not in rendered:
                rendered[i] = lp.to_str(variables.polys[i], variables.names)
    return [[rendered[i] for i in node.ids] for node in graph.nodes]


def graph_to_json(graph: ExplorationGraph) -> dict:
    nodes = [
        {"id": i, "word": list(node.word), "cluster": cluster}
        for i, (node, cluster) in enumerate(zip(graph.nodes, _rendered_clusters(graph)))
    ]
    edges = [
        {"from": i, "label": k, "to": j}
        for i, nbrs in enumerate(graph.adjacency)
        for k, j in sorted(nbrs.items())
    ]
    return {
        "nodes": nodes,
        "edges": edges,
        "complete": graph.complete,
        "hit_depth": graph.hit_depth,
        "hit_nodes": graph.hit_nodes,
    }


def graph_to_dot(graph: ExplorationGraph) -> str:
    """The exchange graph in DOT, each node labeled by its cluster."""
    lines = ["graph exchange {"]
    for i, cluster in enumerate(_rendered_clusters(graph)):
        label = "\\n".join(x.replace("\\", "\\\\").replace('"', '\\"') for x in cluster)
        lines.append(f'  n{i} [label="{label}"];')
    # endpoints may label one exchange differently; emit each edge once
    undirected: Dict[Tuple[int, int], int] = {}
    for i, nbrs in enumerate(graph.adjacency):
        for k, j in sorted(nbrs.items()):
            undirected.setdefault((min(i, j), max(i, j)), k)
    for (i, j), k in sorted(undirected.items()):
        lines.append(f'  n{i} -- n{j} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines)
