"""Exchange-graph exploration and quasi-automorphism search.

Exploration walks the mutation tree breadth-first and merges vertices whose
seeds agree up to a simultaneous permutation of the mutable indices, which
is exactly the unlabeled exchange graph.  Identity is decided by a
canonical form: the serialization with the mutable indices ordered by their
cluster variables.  The cluster of a seed is algebraically independent
(Fomin & Zelevinsky, "Cluster algebras I", 2002), so its entries are
pairwise distinct and that order leaves no relabeling free; the form costs
one sort, at any rank.  Data whose cluster repeats an entry is not a seed of
any pattern and is rejected as `InvalidSeed`.

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
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from . import laurent as lp
from . import orbits as ob
from . import quasihom as qh
from . import seeds as sd
from .laurent import Poly
from .quasihom import NerveEdge


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


def canonical_key(seed: sd.Seed):
    """Serialization of the seed relabeled so its cluster is sorted.

    Two seeds get equal keys exactly when a permutation of the mutable
    indices carries one onto the other: a relabeling moves cluster entries
    and exchange-matrix rows and columns together, and with pairwise
    distinct entries the sorted order fixes it uniquely.  Equal entries
    would leave the order ambiguous and cannot occur in a seed, so they
    raise `InvalidSeed`.
    """
    terms = [tuple(sorted(x.items())) for x in seed.cluster]
    perm = sorted(range(seed.n), key=terms.__getitem__)
    for a, b in zip(perm, perm[1:]):
        if terms[a] == terms[b]:
            raise sd.InvalidSeed(f"cluster entries {a} and {b} are equal")
    return (
        tuple(tuple(row) for row in permute_btilde(seed.btilde, seed.n, perm)),
        tuple(terms[i] for i in perm),
    )


@dataclass
class PatternNode:
    """One unlabeled seed: the first representative reached and its mutation
    word.  `normalized_cluster`, the cluster with frozen content divided out
    for comparisons across coefficient choices, is computed on access."""

    seed: sd.Seed
    word: Tuple[int, ...]

    @property
    def normalized_cluster(self) -> List[Poly]:
        n = self.seed.n
        return [lp.shift(x, lp.exp_neg(ob.frozen_content(x, n))) for x in self.seed.cluster]


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
    `lp.NotDivisible` or `sd.InvalidSeed` from the first mutation or
    canonical form that exposes it.

    By the involution (module docstring), an edge into a later node that is
    still to be expanded also records its reverse, which is not mutated
    again; a complete run of N nodes of rank n mutates n*N/2 times.
    """
    if max_depth < 0 or max_nodes < 1:
        raise ValueError("need max_depth >= 0 and max_nodes >= 1")
    nodes = [PatternNode(initial, ())]
    adjacency: List[Dict[int, int]] = [{}]
    index = {canonical_key(initial): 0}
    hit_depth = hit_nodes = False
    queue = deque([0])
    while queue:
        idx = queue.popleft()
        node = nodes[idx]
        if len(node.word) >= max_depth:
            hit_depth = True
            continue
        for k in range(initial.n):
            if k in adjacency[idx]:
                continue
            neighbor = sd.mutate_seed(node.seed, k)
            key = canonical_key(neighbor)
            found = index.get(key)
            if found is None:
                if len(nodes) >= max_nodes:
                    hit_nodes = True
                    continue
                found = len(nodes)
                nodes.append(PatternNode(neighbor, node.word + (k,)))
                adjacency.append({})
                index[key] = found
                queue.append(found)
            adjacency[idx][k] = found
            if found > idx and len(nodes[found].word) < max_depth:
                adjacency[found][nodes[found].seed.cluster.index(neighbor.cluster[k])] = idx
    return ExplorationGraph(nodes, adjacency, hit_depth, hit_nodes)


def star_neighborhood(graph: ExplorationGraph, node: int) -> List[NerveEdge]:
    """The n tree edges at one vertex, as a nerve anchored at its word."""
    word = graph.nodes[node].word
    missing = [k for k in range(graph.nodes[node].seed.n) if k not in graph.adjacency[node]]
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
            permuted = permute_btilde(node.seed.btilde, base.n, perm)
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
    """Every node's cluster as strings, each variable object rendered once.

    Mutation shares a cluster's untouched entries with the seed it came
    from, so one dict sits in many nodes.  Keying renderings by `id` is
    sound: `graph.nodes` keeps every keyed dict alive for the whole call, so
    no id is reused, and cluster polynomials are never changed in place.
    """
    names = graph.nodes[0].seed.var_names
    rendered: Dict[int, str] = {}
    for node in graph.nodes:
        for x in node.seed.cluster:
            if id(x) not in rendered:
                rendered[id(x)] = lp.to_str(x, names)
    return [[rendered[id(x)] for x in node.seed.cluster] for node in graph.nodes]


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
