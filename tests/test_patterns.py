"""Exchange-graph exploration, nerves, and quasi-automorphism search."""

import textwrap
from collections import deque
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import clusterkit.grassmann as gx
import clusterkit.laurent as lp
import clusterkit.patterns as pt
import clusterkit.quasihom as qh
import clusterkit.seeds as sd

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


def test_a6_closes_on_the_catalan_count():
    graph = pt.explore(sd.initial_seed(a_n(6), [f"x{i}" for i in range(6)]))
    assert graph.complete
    assert len(graph.nodes) == 429
    assert sum(len(nbrs) for nbrs in graph.adjacency) == 2574


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


@settings(max_examples=15, derandomize=True, deadline=None)
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


@pytest.mark.parametrize(
    "b, nodes, mutations, divisions",
    [(a_n(4), 42, 84, 35), (d_n(5), 182, 455, 137)],
    ids=["b0-42-84", "b1-182-455"],
)
def test_complete_explore_mutates_each_edge_once(monkeypatch, b, nodes, mutations, divisions):
    # n * N / 2 mutations: the reverse of every edge is read off, not mutated
    # again; only exchanges whose memo key is new are divided
    mutated, divided = [], []
    mutate, divide = sd.mutate_matrix, lp.exact_div
    monkeypatch.setattr(sd, "mutate_matrix", lambda b, k: mutated.append(k) or mutate(b, k))
    monkeypatch.setattr(lp, "exact_div", lambda f, g: divided.append(g) or divide(f, g))
    graph = pt.explore(sd.initial_seed(b, [f"x{i}" for i in range(len(b))]))
    assert graph.complete
    assert len(graph.nodes) == nodes
    assert len(mutated) == mutations
    assert len(divided) == divisions


def test_gr37_rectangle_seed_closes_on_e6():
    # Gr(3,7) is of finite type E6: 833 seeds, 42 mutable cluster variables
    graph = pt.explore(gx.build_fixture(gx.make_context(3, 7)).gr_seed,
                       max_depth=100, max_nodes=30000)
    assert graph.complete
    assert len(graph.nodes) == 833
    assert sum(len(nbrs) for nbrs in graph.adjacency) == 4998
    assert len({id(x) for node in graph.nodes for x in node.seed.cluster}) == 42
    assert len(graph.nodes[0].variables.polys) == 42


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


@settings(max_examples=15, derandomize=True, deadline=None)
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


def interned_ids(variables, seed):
    return tuple(map(variables.intern, seed.cluster))


def test_canonical_key_rejects_equal_cluster_entries():
    # constant entries are no seed of a pattern; one mutation makes them equal
    seed = sd.Seed([[0, 0], [0, 0]], [lp.constant(1, 2), lp.constant(2, 2)], ["a", "b"])
    twin = sd.mutate_seed(seed, 0)
    assert twin.cluster == [lp.constant(2, 2)] * 2
    ids = interned_ids(pt.Variables(twin.var_names), twin)
    assert ids == (0, 0)
    with pytest.raises(sd.InvalidSeed):
        pt.canonical_key(ids, twin.btilde)
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


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_seeds(), st.data())
def test_canonical_key_is_relabeling_invariant(seed, data):
    word = data.draw(st.lists(st.integers(0, seed.n - 1), max_size=2))
    seed = sd.mutate_word(seed, word)
    perm = data.draw(st.permutations(range(seed.n)))
    variables = pt.Variables(seed.var_names)
    other = relabeled(seed, perm)
    assert pt.canonical_key(interned_ids(variables, other), other.btilde) == \
        pt.canonical_key(interned_ids(variables, seed), seed.btilde)


@settings(max_examples=10, derandomize=True, deadline=None)
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


def test_graph_json_shape():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    dump = pt.graph_to_json(graph)
    assert dump["complete"] is True
    assert len(dump["nodes"]) == 5
    assert dump["nodes"][0]["cluster"] == ["D235", "D245"]
    labels = {(e["from"], e["label"]) for e in dump["edges"]}
    assert len(labels) == len(dump["edges"]) == 10


def test_graph_dot_shape():
    graph = pt.explore(sd.initial_seed(GR35_BTILDE, GR35_NAMES))
    dot = pt.graph_to_dot(graph)
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
    dump = pt.graph_to_json(graph)
    assert len(graph.nodes) == 42
    assert len(calls) == len(distinct) < 4 * len(graph.nodes)
    assert [node["cluster"] for node in dump["nodes"]] == expected
    calls.clear()
    dot = pt.graph_to_dot(graph)
    assert len(calls) == len(distinct)
    assert '  n41 [label="' + "\\n".join(expected[41]) + '"];' in dot.splitlines()


def test_graph_dot_escapes_quotes_and_backslashes():
    plain = pt.graph_to_dot(pt.explore(sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])))
    assert plain.splitlines()[1] == '  n0 [label="x1\\nx2"];'
    graph = pt.explore(sd.initial_seed([[0, 1], [-1, 0]], ['a"b', "c\\d"]))
    lines = pt.graph_to_dot(graph).splitlines()
    assert lines[1] == '  n0 [label="a\\"b\\nc\\\\d"];'
    for line in lines[1:6]:
        label = line.split('[label="', 1)[1][: -len('"];')]
        # every quote inside the label is escaped
        assert '"' not in label.replace('\\\\', "").replace('\\"', "")


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
