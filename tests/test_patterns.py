"""Exchange-graph exploration, nerves, and quasi-automorphism search."""

import json
import math
import random
import textwrap
from collections import deque
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import clusterkit.grassmann as gx
import clusterkit.laurent as lp
import clusterkit.patterns as pt
import clusterkit.quasihom as qh
import clusterkit.seeds as sd

from point_oracle import P61, exchange_value, value_at

GR35_BTILDE = [
    [0, 1],
    [-1, 0],
    [-1, 0],
    [1, 0],
    [0, -1],
    [0, 1],
    [1, -1],
]
GR35_NAMES = ["D235", "D245", "D123", "D234", "D345", "D145", "D125"]

BAND_BTILDE = [
    [0, 1],
    [-1, 0],
    [0, 0],
    [0, -1],
    [-1, 0],
    [0, -1],
    [-1, 0],
    [0, 0],
    [1, 0],
]
BAND_NAMES = ["Y1223", "Y12", "Y11", "Y22", "Y33", "Y13", "Y24", "Y35", "Y123234"]

MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def a_n(n):
    """Linearly oriented A_n quiver."""
    return [[(j == i + 1) - (i == j + 1) for j in range(n)] for i in range(n)]


def a_n_seed(n):
    return sd.initial_seed(a_n(n), [f"x{i}" for i in range(n)])


def pentagon_cases():
    return [
        sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"]),
        sd.initial_seed([[0, 1], [-1, 0], [1, 0], [0, 1]], ["x1", "x2", "y1", "y2"]),
        sd.initial_seed(GR35_BTILDE, GR35_NAMES),
        sd.initial_seed(BAND_BTILDE, BAND_NAMES),
    ]


def undirected_edges(graph):
    out = set()
    for i, nbrs in enumerate(graph.adjacency):
        for j in nbrs.values():
            out.add((min(i, j), max(i, j)))
    return out


def test_pentagon_for_every_coefficient_choice():
    for seed in pentagon_cases():
        graph = pt.explore(seed)
        assert graph.complete
        assert len(graph.nodes) == 5
        edges = undirected_edges(graph)
        assert len(edges) == 5
        degree = {i: 0 for i in range(5)}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert all(d == 2 for d in degree.values())


def test_every_node_fully_wired():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    for nbrs in graph.adjacency:
        assert sorted(nbrs) == [0, 1]


def test_words_follow_breadth_first_layers():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    words = [node.word for node in graph.nodes]
    assert words[0] == ()
    assert sorted(len(w) for w in words) == [0, 1, 1, 2, 2]
    for node in graph.nodes:
        assert qh.reduce_word(node.word) == node.word


def test_node_cap_reported():
    graph = pt.explore(sd.initial_seed(MARKOV, ["a", "b", "c"]), max_nodes=10)
    assert graph.hit_nodes
    assert not graph.complete
    assert len(graph.nodes) == 10


def test_depth_cap_reported():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES), max_depth=1)
    assert graph.hit_depth
    assert not graph.complete
    assert len(graph.nodes) == 3


@pytest.mark.parametrize("n", range(2, 10))
def test_a6_closes_on_the_catalan_count(n):
    # A_n has Catalan(n+1) seeds, each with n neighbours (Fomin & Zelevinsky,
    # "Cluster algebras II", 2003)
    catalan = math.comb(2 * n + 2, n + 1) // (n + 2)
    graph = pt.explore(a_n_seed(n), max_depth=100, max_nodes=30000)
    assert graph.complete
    assert len(graph.nodes) == catalan
    assert sum(len(nbrs) for nbrs in graph.adjacency) == n * catalan


def test_explore_has_no_rank_cap():
    graph = pt.explore(sd.initial_seed(a_n(9), [f"x{i}" for i in range(9)]), max_nodes=30)
    assert graph.hit_nodes
    assert len(graph.nodes) == 30


def d_n(n):
    """D_n quiver: a path on 0..n-2 with n-1 attached to n-3."""
    b = a_n(n - 1)
    b = [row + [0] for row in b] + [[0] * n]
    b[n - 3][n - 1], b[n - 1][n - 3] = 1, -1
    return b


def reference_key(seed):
    """The seed relabeled so that the sorted term tuples of its cluster
    increase: a canonical form over the polynomials themselves, with no
    interning."""
    terms = [tuple(sorted(x.items())) for x in seed.cluster]
    perm = sorted(range(seed.n), key=terms.__getitem__)
    for a, b in zip(perm, perm[1:]):
        if terms[a] == terms[b]:
            raise sd.InvalidSeed(f"cluster entries {a} and {b} are equal")
    permuted = pt.permute_btilde(seed.btilde, seed.n, perm)
    return tuple(map(tuple, permuted)), tuple(terms[i] for i in perm)


def reference_explore(initial, max_depth, max_nodes):
    """The exchange graph by brute force: every node is mutated in every
    direction with `mutate_seed`, and nodes are merged by `reference_key`."""
    nodes, adjacency = [(initial, ())], [{}]
    index = {reference_key(initial): 0}
    hit_depth = hit_nodes = False
    queue = deque([0])
    while queue:
        idx = queue.popleft()
        seed, word = nodes[idx]
        if len(word) >= max_depth:
            hit_depth = True
            continue
        for k in range(seed.n):
            neighbor = sd.mutate_seed(seed, k)
            key = reference_key(neighbor)
            if key not in index:
                if len(nodes) >= max_nodes:
                    hit_nodes = True
                    continue
                index[key] = len(nodes)
                nodes.append((neighbor, word + (k,)))
                adjacency.append({})
                queue.append(index[key])
            adjacency[idx][k] = index[key]
    return nodes, adjacency, hit_depth, hit_nodes


def assert_matches_reference(seed, max_depth=16, max_nodes=500):
    graph = pt.explore(seed, max_depth=max_depth, max_nodes=max_nodes)
    nodes, adjacency, hit_depth, hit_nodes = reference_explore(seed, max_depth, max_nodes)
    assert [node.word for node in graph.nodes] == [word for _, word in nodes]
    assert [node.seed.cluster for node in graph.nodes] == [s.cluster for s, _ in nodes]
    assert [node.seed.btilde for node in graph.nodes] == [s.btilde for s, _ in nodes]
    assert graph.adjacency == adjacency
    assert (graph.hit_depth, graph.hit_nodes) == (hit_depth, hit_nodes)


@st.composite
def finite_type_seeds(draw):
    """A_n (n = 2..5) or D_n (n = 4, 5) with every edge oriented at random,
    over 0-3 random frozen rows."""
    n = draw(st.integers(2, 5))
    b = d_n(n) if n >= 4 and draw(st.booleans()) else a_n(n)
    for i in range(n):
        for j in range(i + 1, n):
            if b[i][j] and draw(st.booleans()):
                b[i][j], b[j][i] = b[j][i], b[i][j]
    m = draw(st.integers(0, 3))
    frozen = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(m)]
    names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(m)]
    return sd.initial_seed(b + frozen, names)


@settings(max_examples=15)
@given(finite_type_seeds())
def test_explore_matches_brute_force(seed):
    for max_depth in (1, 2, 3):
        for max_nodes in (1, 7, 20, 500):
            assert_matches_reference(seed, max_depth, max_nodes)
    assert_matches_reference(seed)


def test_explore_matches_brute_force_on_markov():
    assert_matches_reference(
        sd.initial_seed(MARKOV + [[1, -1, 0]], ["a", "b", "c", "f"]), max_nodes=60
    )


@st.composite
def cancelling_seeds(draw):
    """(seed, k): a seed over signed variables x_i = +-u_i and one binomial
    x_j, whose exchange at k cancels a monomial between p+ prod x^[b]+ and
    p- prod x^[-b]+.  One term of x_j times the rest R of its side is minus
    the other side, so the sum is the other term times R, and its minimum
    lies above the terms' common one in some coordinate.  The two terms of
    x_j are also the two sides of its own exchange up to one monomial, so
    every first mutation divides."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = draw(st.integers(-1, 1))
            b[j][i] = -b[i][j]
    b += [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(m)]
    k, j = draw(st.permutations(range(n)))[:2]
    assume(b[j][k])
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    arity = n + m

    def side(q, sign, skip=None):
        # p_sign prod x_i^[sign b_iq]+ over i != skip, as (exponent, coefficient)
        exp, coef = [0] * arity, 1
        for i, row in enumerate(b):
            e = sign * row[q]
            if e > 0 and i != skip:
                exp[i] += e
                coef *= signs[i] ** e if i < n else 1
        return exp, coef

    (r, rc), (o, oc) = side(k, b[j][k], skip=j), side(k, -b[j][k])
    mu, c = [x - y for x, y in zip(o, r)], -oc * rc
    (a, ac), (d, dc) = side(j, 1), side(j, -1)
    v, s = [x - y + z for x, y, z in zip(a, d, mu)], ac * dc * c
    assume(any(x < y for x, y in zip(mu, v)))
    cluster = [{tuple(int(t == i) for t in range(arity)): signs[i]} for i in range(n)]
    cluster[j] = {tuple(v): s, tuple(mu): c}
    names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(m)]
    return sd.Seed(b, cluster, names), k


@settings(max_examples=60)
@given(cancelling_seeds())
def test_interning_when_a_key_cancels(tuple_exchange, case):
    # the packed quotient's minimum is the terms' common one only when no
    # key cancels in their sum; where one does, the operand must still be
    # the one its polynomial makes, or interning would split equal variables
    seed, k = case
    for q in range(seed.n):
        plus, minus = tuple_exchange(seed.btilde, seed.cluster, q, *sd.coefficient_pair(seed, q))
        if q == k:
            assert any(plus.get(e) == -c for e, c in minus.items())
        column = [row[q] for row in seed.btilde]
        op = sd.exchange_packed(column, q, sd.operands(seed.cluster, column, q),
                                *sd.frozen_pair(column, seed.n))
        assert lp.mul(op.poly, seed.cluster[q]) == lp.add(plus, minus)
        ref = lp.Operand(op.poly)
        width = lp.lane_width(ref.degree)
        assert (op.low, op.degree, op.packed(width)) == (ref.low, ref.degree, ref.packed(width))
    assert_matches_reference(seed, max_depth=1)
    rendered = [node["cluster"] for node in json.loads(graph_json(pt.explore(seed, 1)))["nodes"]]
    assert rendered == [[lp.to_str(x, seed.var_names) for x in s.cluster]
                        for s, _ in reference_explore(seed, 1, 500)[0]]


@pytest.mark.parametrize(
    "b, nodes, mutations, divisions",
    [(a_n(4), 42, 41, 20), (d_n(5), 182, 181, 67)],
    ids=["a4-42-41", "d5-182-181"],
)
def test_complete_explore_mutates_each_new_node_once(monkeypatch, b, nodes, mutations, divisions):
    # N - 1 matrix mutations: an edge between explored nodes closes a facet,
    # so only an edge into a new node mutates the matrix or divides, and of
    # those only exchanges whose memo key is new reach the division core
    mutated, divided = [], []
    mutate, divide = sd.mutate_matrix, lp.div_packed
    monkeypatch.setattr(sd, "mutate_matrix", lambda b, k: mutated.append(k) or mutate(b, k))
    monkeypatch.setattr(lp, "div_packed", lambda *args: divided.append(args) or divide(*args))
    graph = pt.explore(sd.initial_seed(b, [f"x{i}" for i in range(len(b))]))
    assert graph.complete
    assert len(graph.nodes) == nodes
    assert len(mutated) == mutations == nodes - 1
    assert len(divided) == divisions


def test_capped_explore_divides_only_below_the_cap(monkeypatch):
    # every Markov mutation gives a new seed; past max_nodes each open
    # direction would too, and is dropped without a division
    divided = []
    divide = lp.div_packed
    monkeypatch.setattr(lp, "div_packed", lambda *args: divided.append(args) or divide(*args))
    graph = pt.explore(sd.initial_seed(MARKOV, ["a", "b", "c"]), max_depth=100, max_nodes=200)
    assert (graph.hit_nodes, graph.hit_depth, len(graph.nodes)) == (True, False, 200)
    assert len(divided) == 199


def test_explore_raises_each_packing_once(monkeypatch):
    # an interned operand keeps the powers it is asked for, so each Markov
    # variable is squared once per lane width, not again at every exchange
    # whose column holds it
    raised = []
    power = lp.power_packed
    monkeypatch.setattr(lp, "power_packed",
                        lambda fp, k: raised.append((frozenset(fp.items()), k)) or power(fp, k))
    graph = pt.explore(sd.initial_seed(MARKOV, ["a", "b", "c"]), max_depth=4, max_nodes=1000)
    assert (graph.hit_depth, len(graph.nodes)) == (True, 46)
    assert {k for _, k in raised} == {2}
    assert len(raised) == len(set(raised)) == 21


def test_gr37_rectangle_seed_closes_on_e6():
    # Gr(3,7) is of finite type E6: 833 seeds, 42 mutable cluster variables
    graph = pt.explore(gx.build_fixture(gx.make_context(3, 7)).gr_seed,
                       max_depth=100, max_nodes=30000)
    assert graph.complete
    assert len(graph.nodes) == 833
    assert sum(len(nbrs) for nbrs in graph.adjacency) == 4998
    assert len({id(x) for node in graph.nodes for x in node.seed.cluster}) == 42
    assert len(graph.nodes[0].variables.operands) == 42


def test_e6_node_matrices_hold_one_object_per_distinct_row():
    # mutation shares the rows it leaves unchanged and explore interns the
    # rows it changes, so equal rows across node matrices are one object
    graph = pt.explore(gx.build_fixture(gx.make_context(3, 7)).gr_seed,
                       max_depth=100, max_nodes=30000)
    rows = [row for node in graph.nodes for row in node.btilde]
    assert all(type(row) is tuple for row in rows)
    assert len({id(row) for row in rows}) == len(set(rows))


# skew-symmetrizable exchange matrices of the non-simply-laced finite types
# and their cluster counts (Fomin & Zelevinsky, "Cluster algebras II", 2003)
NON_SIMPLY_LACED = {
    "B3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], 20),
    "C3": ([[0, 1, 0], [-1, 0, 2], [0, -1, 0]], 20),
    "G2": ([[0, 1], [-3, 0]], 8),
}


@st.composite
def non_simply_laced_seeds(draw):
    """B3, C3 or G2 with every edge oriented at random, over 0-2 random
    frozen rows."""
    kind = draw(st.sampled_from(sorted(NON_SIMPLY_LACED)))
    b = [list(row) for row in NON_SIMPLY_LACED[kind][0]]
    n = len(b)
    for i in range(n):
        for j in range(i + 1, n):
            if b[i][j] and draw(st.booleans()):
                b[i][j], b[j][i] = -b[i][j], -b[j][i]
    m = draw(st.integers(0, 2))
    frozen = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(m)]
    names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(m)]
    return kind, sd.initial_seed(b + frozen, names)


@settings(max_examples=15)
@given(non_simply_laced_seeds())
def test_explore_matches_brute_force_beyond_simply_laced(case):
    # |b_jk| = 2 and 3 put powers into the memo key
    kind, seed = case
    for max_depth, max_nodes in ((1, 500), (2, 7), (3, 500)):
        assert_matches_reference(seed, max_depth, max_nodes)
    assert_matches_reference(seed)
    graph = pt.explore(seed)
    assert graph.complete
    assert len(graph.nodes) == NON_SIMPLY_LACED[kind][1]


@pytest.mark.parametrize("b", [a_n(3), a_n(5), d_n(4)], ids=["a3", "a5", "d4"])
def test_cluster_key_matches_brute_force_at_deficient_rank(b):
    # these B have no frozen rows and are singular, so the full-rank theorem
    # does not cover them; the skew-symmetrizable one does
    seed = sd.initial_seed(b, [f"x{i}" for i in range(len(b))])
    assert_matches_reference(seed)
    assert pt.explore(seed).complete


def random_skew_symmetrizable(n, rng):
    """B = S D with S skew-symmetric (entries in [-1, 1]) and D a diagonal
    of 1s and 2s, so that D B is skew-symmetric."""
    d = [rng.choice((1, 1, 2)) for _ in range(n)]
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = rng.randint(-1, 1)
            s[j][i] = -s[i][j]
    return [[s[i][j] * d[j] for j in range(n)] for i in range(n)]


def random_skew_symmetrizable_seeds(count, rng):
    """Seeds over `random_skew_symmetrizable` B at ranks 2-5, over 0-3
    frozen rows with entries in [-1, 1]."""
    out = []
    for _ in range(count):
        n, m = rng.randint(2, 5), rng.randint(0, 3)
        b = random_skew_symmetrizable(n, rng)
        frozen = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
        out.append(sd.initial_seed(b + frozen, [f"x{i}" for i in range(n)] +
                                   [f"y{i}" for i in range(m)]))
    return out


@pytest.mark.parametrize("seed", random_skew_symmetrizable_seeds(24, random.Random(1729)))
def test_cluster_key_matches_brute_force_on_random_skew_symmetrizable(seed):
    for max_depth, max_nodes in ((2, 500), (3, 40), (4, 60)):
        assert_matches_reference(seed, max_depth, max_nodes)


LANE_CROSSING = [(a_n(2), []), ([[0, 1], [-2, 0]], [[1, -1]]), ([[0, 1], [-3, 0]], [])]


@pytest.mark.parametrize("big, widest", [(200, (16, 16)), (70000, (32, 32)), (2 ** 70, (65, 80))])
def test_lane_crossing_exchanges_match_the_tuple_path(monkeypatch, tuple_exchange, big, widest):
    # {x0^big, x1} is algebraically independent, so each is a genuine seed;
    # its exchanges need 16-bit, 32-bit and wider-than-64-bit lanes
    widths = set()
    divide = lp.div_packed
    monkeypatch.setattr(lp, "div_packed",
                        lambda f, g, arity, width: widths.add(width) or divide(f, g, arity, width))
    for b, frozen in LANE_CROSSING:
        arity = len(b) + len(frozen)
        cluster = [lp.monomial((big,) + (0,) * (arity - 1)), lp.variable(1, arity)]
        seed = sd.Seed(b + frozen, cluster, [f"v{i}" for i in range(arity)])
        assert_matches_reference(seed, max_nodes=20)
        for word in ((0, 1, 0, 1, 0), (1, 0, 1, 0, 1)):
            current = seed
            for k in word:
                terms = tuple_exchange(current.btilde, current.cluster, k,
                                       *sd.coefficient_pair(current, k))
                removed = current.cluster[k]
                current = sd.mutate_seed(current, k)
                assert lp.mul(current.cluster[k], removed) == lp.add(*terms)
    assert widest[0] <= max(widths) <= widest[1]


def interned_ids(variables, seed):
    return tuple(variables.intern(lp.Operand(x)) for x in seed.cluster)


def test_canonical_key_rejects_equal_cluster_entries():
    # constant entries are no seed of a pattern; one mutation makes them equal
    seed = sd.Seed([[0, 0], [0, 0]], [lp.constant(1, 2), lp.constant(2, 2)], ["a", "b"])
    twin = sd.mutate_seed(seed, 0)
    assert twin.cluster == [lp.constant(2, 2)] * 2
    ids = interned_ids(pt.Variables(twin.var_names), twin)
    assert ids == (0, 0)
    with pytest.raises(sd.InvalidSeed):
        pt.canonical_key(ids)
    with pytest.raises(sd.InvalidSeed):
        pt.explore(seed)


def test_equal_entries_are_named_as_a_term_sort_names_them():
    # x1 sorts before x0 by terms, so the first equal pair in that order is
    # (1, 3); ids given in order of appearance would name (0, 2)
    x0, x1 = lp.variable(0, 4), lp.variable(1, 4)
    seed = sd.Seed([[0] * 4 for _ in range(4)], [x0, x1, x0, x1], ["a", "b", "c", "d"])
    with pytest.raises(sd.InvalidSeed, match="^cluster entries 1 and 3 are equal$"):
        pt.explore(seed)


def relabeled(seed, perm):
    return sd.Seed(
        pt.permute_btilde(seed.btilde, seed.n, perm),
        [seed.cluster[perm[i]] for i in range(seed.n)],
        seed.var_names,
    )


@st.composite
def small_seeds(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 2))
    principal = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(st.integers(-2, 2))
            principal[i][j], principal[j][i] = e, -e
    frozen = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(m)]
    names = [f"u{i}" for i in range(n)] + [f"f{i}" for i in range(m)]
    return sd.initial_seed(principal + frozen, names)


@settings(max_examples=20)
@given(small_seeds(), st.data())
def test_canonical_key_is_relabeling_invariant(seed, data):
    word = data.draw(st.lists(st.integers(0, seed.n - 1), max_size=2))
    seed = sd.mutate_word(seed, word)
    perm = data.draw(st.permutations(range(seed.n)))
    variables = pt.Variables(seed.var_names)
    other = relabeled(seed, perm)
    assert pt.canonical_key(interned_ids(variables, other)) == \
        pt.canonical_key(interned_ids(variables, seed))


@settings(max_examples=10)
@given(small_seeds())
def test_dedup_merges_exactly_permutation_matches(seed):
    graph = pt.explore(seed, max_depth=3, max_nodes=30)
    for i in range(len(graph.nodes)):
        for j in range(i + 1, len(graph.nodes)):
            a, b = graph.nodes[i].seed, graph.nodes[j].seed
            for perm in permutations(range(a.n)):
                assert not sd.seed_equal(relabeled(a, perm), b)


def test_validate_nerve():
    # a nerve is valid when its edges are connected and carry every label
    assert qh.nerve_vertices([((), 0), ((), 1)], 2) == [(), (0,), (1,)]
    assert qh.nerve_vertices([((), 0), ((0,), 1)], 2) == [(), (0,), (0, 1)]
    assert qh.nerve_vertices([((), 0)], 1) == [(), (0,)]
    for edges, n in (([((), 0), ((0,), 1)], 3), ([((), 0), ((1, 0, 1), 1)], 2)):
        with pytest.raises(qh.InvalidNerve):
            qh.nerve_vertices(edges, n)


def test_star_neighborhood():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    star = pt.star_neighborhood(graph, 0)
    assert star == [((), 0), ((), 1)]
    assert qh.nerve_vertices(star, 2) == [(), (0,), (1,)]
    other = pt.star_neighborhood(graph, 3)
    word = graph.nodes[3].word
    assert other == [(word, 0), (word, 1)]


def test_star_neighborhood_requires_all_neighbors():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES), max_depth=1)
    with pytest.raises(pt.IncompleteNode):
        pt.star_neighborhood(graph, 1)


def test_a2_trivial_has_ten_quasi_automorphisms():
    seed = sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])
    graph = pt.explore(seed)
    found = pt.find_quasi_automorphisms(graph, seed)
    # one direct and one opposite relabeling per pentagon vertex; together
    # these exhaust the automorphism group of the 5-cycle, so the set is
    # closed under composition and inverse
    assert len(found) == 10
    by_direction = {"direct": [], "opposite": []}
    for record in found:
        by_direction[record.direction].append(record.node)
    assert sorted(by_direction["direct"]) == [0, 1, 2, 3, 4]
    assert sorted(by_direction["opposite"]) == [0, 1, 2, 3, 4]
    assert any(
        r.node == 0 and r.permutation == (0, 1) and r.direction == "direct"
        for r in found
    )


def test_a2_trivial_direct_only_without_flag():
    seed = sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])
    graph = pt.explore(seed)
    found = pt.find_quasi_automorphisms(graph, seed, include_opposite=False)
    assert len(found) == 5
    assert all(r.direction == "direct" for r in found)


def relabeling_cases():
    """(b, target) pairs: each random b against itself, its negative and a
    random relabeling of itself, and the rank-4 zero matrix, which every
    relabeling keeps."""
    rng = random.Random(41)
    cases = []
    for i in range(40):
        b = random_skew_symmetrizable(rng.randint(2, 6), rng)
        perm = rng.sample(range(len(b)), len(b))
        targets = {"self": b, "negated": [[-v for v in row] for row in b],
                   "relabeled": pt.permute_btilde(b, len(b), perm)}
        cases += [pytest.param(b, target, id=f"{i}-rank{len(b)}-{kind}")
                  for kind, target in targets.items()]
    zero = [[0] * 4 for _ in range(4)]
    return cases + [pytest.param(zero, zero, id="zero-rank4")]


@pytest.mark.parametrize("b, target", relabeling_cases())
def test_relabelings_match_brute_force(b, target):
    n = len(b)
    brute = [p for p in permutations(range(n)) if pt.permute_btilde(b, n, p)[:n] == target]
    assert list(pt.relabelings(b, target)) == brute
    if not any(map(any, b)):
        assert len(brute) == math.factorial(n)


def brute_force_quasi_automorphisms(graph, base):
    """The search as it was first written: every node, every one of the n!
    relabelings, direct before opposite."""
    out, kept = [], {}
    negated = [[-v for v in row] for row in base.principal]
    for idx, node in enumerate(graph.nodes):
        for perm in permutations(range(base.n)):
            permuted = pt.permute_btilde(node.btilde, base.n, perm)
            candidates = []
            if permuted[: base.n] == base.principal:
                candidates.append(("direct", permuted))
            if permuted[: base.n] == negated:
                candidates.append(("opposite", [[-v for v in row] for row in permuted]))
            for direction, target in candidates:
                m = qh.construct_qh(base.btilde, target, base.var_names, base.var_names)
                if m is None:
                    continue
                bucket = kept.setdefault((idx, direction), [])
                if any(qh.proportional(m, seen, base.btilde) is not None for seen in bucket):
                    continue
                bucket.append(m)
                out.append((idx, perm, direction, m.matrix))
    return out


def gr_seed(k, n):
    return gx.build_fixture(gx.make_context(k, n)).gr_seed


# complete graphs and their (direct, opposite) record counts: for A_n the
# n+3 rotations and n+3 reflections of the (n+3)-gon, the cluster
# automorphism group (Assem, Schiffler & Shramchenko, Proc. LMS 104, 2012)
QUASI_AUTOMORPHISM_COUNTS = [
    *[pytest.param(lambda n=n: a_n_seed(n), (n + 3, n + 3), n <= 5, id=f"a{n}")
      for n in range(2, 9)],
    pytest.param(lambda: gr_seed(3, 6), (24, 24), True, id="gr36"),
    pytest.param(lambda: gr_seed(3, 7), (14, 14), False, id="gr37"),
]


@pytest.mark.parametrize("make, counts, brute", QUASI_AUTOMORPHISM_COUNTS)
def test_quasi_automorphisms_of_complete_graphs(make, counts, brute):
    seed = make()
    graph = pt.explore(seed, max_depth=100, max_nodes=30000)
    assert graph.complete
    found = pt.find_quasi_automorphisms(graph, seed)
    assert tuple(sum(r.direction == d for r in found) for d in ("direct", "opposite")) == counts
    if brute:
        assert [(r.node, r.permutation, r.direction, r.matrix_map.matrix) for r in found] == \
            brute_force_quasi_automorphisms(graph, seed)


def test_gr35_rotation_found_and_certified():
    seed = sd.initial_seed(GR35_BTILDE, GR35_NAMES)
    graph = pt.explore(seed)
    found = pt.find_quasi_automorphisms(graph, seed)
    star = pt.star_neighborhood(graph, 0)
    directs = [r for r in found if r.direction == "direct"]
    assert any(r.node != 0 for r in directs)
    for record in directs:
        target = pt.permute_btilde(
            graph.nodes[record.node].seed.btilde, seed.n, record.permutation
        )
        dst = sd.initial_seed(target, GR35_NAMES)
        assert qh.check_on_nerve(record.matrix_map, star, seed, dst) == "direct"
    opposites = [r for r in found if r.direction == "opposite"]
    if opposites:
        record = opposites[0]
        target = pt.permute_btilde(
            graph.nodes[record.node].seed.btilde, seed.n, record.permutation
        )
        dst = sd.initial_seed(target, GR35_NAMES)
        assert qh.check_on_nerve(record.matrix_map, star, seed, dst) == "opposite"


def reference_graph_json(graph):
    """The exchange-graph payload as a dict, built whole: `json.dumps` of it
    with indent=2 is what `graph_json_chunks` streams."""
    names = graph.nodes[0].seed.var_names
    return {
        "nodes": [
            {"id": i, "word": list(node.word),
             "cluster": [lp.to_str(x, names) for x in node.seed.cluster]}
            for i, node in enumerate(graph.nodes)
        ],
        "edges": [
            {"from": i, "label": k, "to": j}
            for i, nbrs in enumerate(graph.adjacency)
            for k, j in sorted(nbrs.items())
        ],
        "complete": graph.complete,
        "hit_depth": graph.hit_depth,
        "hit_nodes": graph.hit_nodes,
    }


def reference_graph_dot(graph):
    """The DOT text built whole, each edge once under the label its first
    recorded direction gives it."""
    names = graph.nodes[0].seed.var_names
    lines = ["graph exchange {"]
    for i, node in enumerate(graph.nodes):
        label = "\\n".join(lp.to_str(x, names).replace("\\", "\\\\").replace('"', '\\"')
                           for x in node.seed.cluster)
        lines.append(f'  n{i} [label="{label}"];')
    undirected = {}
    for i, nbrs in enumerate(graph.adjacency):
        for k, j in sorted(nbrs.items()):
            undirected.setdefault((min(i, j), max(i, j)), k)
    for (i, j), k in sorted(undirected.items()):
        lines.append(f'  n{i} -- n{j} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_json(graph):
    return "".join(pt.graph_json_chunks(graph))


def graph_dot(graph):
    return "".join(pt.graph_dot_chunks(graph))


def test_graph_json_shape():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    dump = json.loads(graph_json(graph))
    assert dump["complete"] is True
    assert len(dump["nodes"]) == 5
    assert dump["nodes"][0]["cluster"] == ["D235", "D245"]
    labels = {(e["from"], e["label"]) for e in dump["edges"]}
    assert len(labels) == len(dump["edges"]) == 10


def test_graph_dot_shape():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    dot = graph_dot(graph)
    lines = dot.splitlines()
    assert lines[0] == "graph exchange {"
    assert lines[-1] == "}"
    assert sum(1 for line in lines if " -- " in line) == 5


def test_graph_renders_each_variable_object_once(monkeypatch):
    graph = pt.explore(sd.initial_seed(a_n(4), ["a", "b", "c", "d"]))
    names = graph.nodes[0].seed.var_names
    expected = [[lp.to_str(x, names) for x in node.seed.cluster] for node in graph.nodes]
    distinct = {id(x) for node in graph.nodes for x in node.seed.cluster}
    calls = []
    to_str = lp.to_str
    monkeypatch.setattr(lp, "to_str", lambda f, names: calls.append(f) or to_str(f, names))
    dump = json.loads(graph_json(graph))
    assert len(graph.nodes) == 42
    assert len(calls) == len(distinct) < 4 * len(graph.nodes)
    assert [node["cluster"] for node in dump["nodes"]] == expected
    calls.clear()
    dot = graph_dot(graph)
    assert len(calls) == len(distinct)
    assert '  n41 [label="' + "\\n".join(expected[41]) + '"];' in dot.splitlines()


def test_graph_dot_escapes_quotes_and_backslashes():
    plain = graph_dot(pt.explore(sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])))
    assert plain.splitlines()[1] == '  n0 [label="x1\\nx2"];'
    graph = pt.explore(sd.initial_seed([[0, 1], [-1, 0]], ['a"b', "c\\d"]))
    lines = graph_dot(graph).splitlines()
    assert lines[1] == '  n0 [label="a\\"b\\nc\\\\d"];'
    for line in lines[1:6]:
        label = line.split('[label="', 1)[1][: -len('"];')]
        # every quote inside the label is escaped
        assert '"' not in label.replace('\\\\', "").replace('\\"', "")


NAME_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\n\t\x00\x7fé €\U0001f600'),
    st.characters(blacklist_categories=("Cs",)),
), min_size=1, max_size=4)


@st.composite
def written_graphs(draw):
    """An exploration at rank 0-5 over 0-2 frozen rows, with names that
    JSON and DOT must escape, often cut by one limit or both."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 2))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = draw(st.integers(-1, 1))
            b[i][j], b[j][i] = e, -e
    frozen = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(m)]
    names = draw(st.lists(NAME_TEXT, min_size=n + m, max_size=n + m))
    seed = sd.Seed(b + frozen, [lp.variable(i, n + m) for i in range(n)], names)
    return pt.explore(seed, max_depth=draw(st.integers(0, 4)),
                      max_nodes=draw(st.integers(1, 40)))


@settings(max_examples=60)
@given(written_graphs())
def test_streamed_writers_match_the_whole_payload(graph):
    assert graph_json(graph) == json.dumps(reference_graph_json(graph), indent=2)
    assert graph_dot(graph) == reference_graph_dot(graph)


def test_streamed_writers_cover_truncated_and_rank_zero_graphs():
    # an empty cluster and edge list, and each limit alone and together
    markov = sd.initial_seed(MARKOV, ["a", "b", "c"])
    cases = [
        (pt.explore(sd.Seed([[]], [], ["f"])), (False, False)),
        (pt.explore(markov, max_depth=0), (True, False)),
        (pt.explore(markov, max_nodes=4), (False, True)),
        (pt.explore(markov, max_depth=2, max_nodes=8), (True, True)),
    ]
    for graph, flags in cases:
        assert (graph.hit_depth, graph.hit_nodes) == flags
        assert graph_json(graph) == json.dumps(reference_graph_json(graph), indent=2)
        assert graph_dot(graph) == reference_graph_dot(graph)


def exchange_relations_at_a_point(seed, graph):
    """Check x_k x_k' = p+ prod x_j^[b_jk]+ + p- prod x_j^[-b_jk]+ on every
    edge (i, k, j) of an exploration of the seed, at one seeded random point
    mod 2^61 - 1 with no division, and return the number of directed edges.
    An edge that closed a facet was never divided, so this is its check."""
    polys = [x.poly for x in graph.nodes[0].variables.operands]
    rng = random.Random(2 ** 61 - 1)
    point = [rng.randrange(2, P61) for _ in seed.var_names]
    values = [value_at(x, point) for x in polys]
    n = seed.n
    edges = 0
    for i, nbrs in enumerate(graph.adjacency):
        ids, btilde = graph.nodes[i].ids, graph.nodes[i].btilde
        cluster = [values[v] for v in ids] + point[n:]
        for k, j in nbrs.items():
            (fresh,) = set(graph.nodes[j].ids) - set(ids)
            assert values[ids[k]] * values[fresh] % P61 == exchange_value(btilde, cluster, k), \
                (i, k, j)
            edges += 1
    return edges


def test_every_e6_exchange_relation_holds_at_a_random_point():
    seed = gx.build_fixture(gx.make_context(3, 7)).gr_seed
    graph = pt.explore(seed, max_depth=100, max_nodes=30000)
    assert exchange_relations_at_a_point(seed, graph) == 4998


def test_every_e8_exchange_relation_holds_at_a_random_point():
    # Gr(3,8) is of finite type E8: 25080 seeds, 128 mutable cluster
    # variables, 8 directed edges at each seed
    seed = gx.build_fixture(gx.make_context(3, 8)).gr_seed
    graph = pt.explore(seed, max_depth=100, max_nodes=30000)
    assert graph.complete
    assert len(graph.nodes) == 25080
    assert len(graph.nodes[0].variables.operands) == 128
    assert exchange_relations_at_a_point(seed, graph) == 200640


def test_limit_checks_survive_optimize(run_optimized):
    # a typed error, not an assert that python -O would strip
    run_optimized(textwrap.dedent("""
        from clusterkit import patterns as pt, seeds as sd
        seed = sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])
        for limits in ({"max_depth": -1}, {"max_nodes": 0}):
            try:
                pt.explore(seed, **limits)
            except ValueError:
                continue
            raise SystemExit(f"explore accepted {limits}")
    """))
