"""Surface-criterion tests anchored on the annulus fixture."""

from __future__ import annotations

import itertools
import json

import pytest

from clusterkit import lattice as la
from clusterkit import orbits as ob
from clusterkit import patterns as pt
from clusterkit import quasihom as qh
from clusterkit import seeds as sd
from clusterkit import surfaces as sf

ANNULUS = sf.SurfaceShape(0, 0, (2, 2))

# Paper facts about the annulus fixture that no command reads, kept here as
# references: the three actions on its two even components, the base seed's
# image under the inner half turn, the slot permutations that carry the
# fixture words' seeds onto the recorded ones, and the crossings of each arc
# with one copy of the lamination curve.
ACTIONS = {
    "inner_half_turn": sf.SignedPermutation(((-1, 0), (0, 1))),
    "outer_half_turn": sf.SignedPermutation(((1, 0), (0, -1))),
    "component_swap": sf.SignedPermutation(((0, 1), (1, 0))),
}
HALF_TURN_SEED = sd.initial_seed(
    [[0, 0, 1, 1], [0, 0, 1, 1], [-1, -1, 0, 0], [-1, -1, 0, 0], [2, 0, 0, 0]],
    ["xc", "xd", "xe", "xf", "xL"],
)
HALF_TURN_MATCH = (2, 3, 0, 1)
TWIST_MATCH = (0, 1, 3, 2)
CROSSING_COUNTS = {
    "xa": 0, "xb": 0, "xc": 1, "xd": 0,
    "xe": 1, "xf": 1, "xg": 2, "xh": 1,
}


def compose(g, h):
    return sf.SignedPermutation(tuple(map(tuple, la.matmul(g.matrix, h.matrix))))


def test_check_surface_accepts_supported_shapes():
    for shape in [
        ANNULUS,
        sf.SurfaceShape(1, 1, ()),
        sf.SurfaceShape(0, 0, (5,)),
        sf.SurfaceShape(0, 3, (2,)),
        sf.SurfaceShape(0, 5, ()),
        sf.SurfaceShape(2, 1, ()),
        sf.SurfaceShape(0, 2, (4,)),
    ]:
        sf.check_surface(shape)


def test_check_surface_rejects_non_cluster_shapes():
    bad = [
        sf.SurfaceShape(-1, 0, (2,)),
        sf.SurfaceShape(0, 0, ()),
        sf.SurfaceShape(0, 3, ()),
        sf.SurfaceShape(0, 0, (3,)),
        sf.SurfaceShape(0, 1, (1,)),
        sf.SurfaceShape(0, 0, (2, 0)),
    ]
    for shape in bad:
        with pytest.raises(sf.InvalidSurfaceData):
            sf.check_surface(shape)


def test_check_surface_flags_exceptional_shapes():
    exceptional = [
        sf.SurfaceShape(0, 4, ()),
        sf.SurfaceShape(0, 1, (4,)),
        sf.SurfaceShape(0, 1, (2,)),
        sf.SurfaceShape(0, 2, (2,)),
    ]
    for shape in exceptional:
        with pytest.raises(sf.ExceptionalSurface):
            sf.check_surface(shape)


def test_component_table_keeps_punctures_and_even_boundaries():
    table = sf.component_table(ANNULUS)
    assert table.r == 2
    assert all(c.kind == "boundary" and c.cilia == 2 for c in table.components)
    # odd boundary components are not even components
    assert sf.component_table(sf.SurfaceShape(0, 0, (5,))).r == 0
    mixed = sf.component_table(sf.SurfaceShape(1, 2, (2, 4)))
    assert [c.kind for c in mixed.components] == [
        "puncture", "puncture", "boundary", "boundary"
    ]
    assert mixed.components[3].cilia == 4


def test_end_sign_by_kind():
    table = sf.component_table(sf.SurfaceShape(0, 1, (6,)))
    assert sf.end_sign(("spiral", 0, "ccw"), table) == 1
    assert sf.end_sign(("spiral", 0, "cw"), table) == -1
    assert sf.end_sign(("boundary", 1, "black"), table) == 1
    assert sf.end_sign(("boundary", 1, "white"), table) == -1
    assert sf.end_sign(("odd",), table) == 0


def test_end_sign_rejects_bad_references():
    table = sf.component_table(sf.SurfaceShape(0, 1, (6,)))
    bad = [
        ("boundary", 0, "black"),
        ("spiral", 1, "ccw"),
        ("boundary", 2, "black"),
        ("boundary", 1, "red"),
        ("spiral", 0, "up"),
        ("boundary", 1),
        ("loop", 1, "black"),
    ]
    for end in bad:
        with pytest.raises(sf.InvalidSurfaceData):
            sf.end_sign(end, table)


def test_pairing_vector_fixture_values():
    fx = sf.annulus_fixture()
    assert sf.pairing_vector(fx.laminations["doubled"], fx.table) == [-2, -2]
    assert sf.pairing_vector(fx.laminations["inner_loop"], fx.table) == [2, 0]
    assert sf.pairing_vector(fx.laminations["connector"], fx.table) == [1, 1]


def test_pairing_vector_ignores_odd_ends():
    table = sf.component_table(sf.SurfaceShape(0, 0, (2, 3)))
    assert table.r == 1
    lam = sf.Lamination(((("odd",), ("boundary", 0, "white")),))
    assert sf.pairing_vector(lam, table) == [-1]


def test_signed_permutation_group_has_every_element():
    # r!·2^r distinct valid matrices is the whole group, as it has that order
    for r, order in ((1, 2), (2, 8), (3, 48)):
        group = sf.signed_permutation_group(r)
        assert len(group) == len({g.matrix for g in group}) == order
        assert sf.signed_identity(r) in group


def test_signed_permutation_validation():
    bad = [
        ((1, 0), (0, 1), (0, 0)),
        ((2, 0), (0, 1)),
        ((1, 1), (0, 1)),
        ((0, 0), (0, 1)),
        ((1, 0), (1, 0)),
    ]
    for rows in bad:
        with pytest.raises(sf.InvalidSurfaceData):
            sf.SignedPermutation(rows)


def test_lattice_fixed_fixture_cases():
    fx = sf.annulus_fixture()
    vectors = [sf.pairing_vector(fx.laminations["doubled"], fx.table)]
    inner = ACTIONS["inner_half_turn"]
    outer = ACTIONS["outer_half_turn"]
    swap = ACTIONS["component_swap"]
    assert sf.lattice_fixed(sf.signed_identity(2), vectors)
    assert not sf.lattice_fixed(inner, vectors)
    assert not sf.lattice_fixed(outer, vectors)
    assert sf.lattice_fixed(swap, vectors)
    assert sf.lattice_fixed(compose(inner, outer), vectors)
    assert sf.lattice_fixed(compose(inner, inner), vectors)
    # empty and full lattices are fixed by everything
    for g in sf.signed_permutation_group(2):
        assert sf.lattice_fixed(g, [])
        assert sf.lattice_fixed(g, [[1, 0], [0, 1]])
    with pytest.raises(sf.InvalidSurfaceData):
        sf.lattice_fixed(swap, [[1, 2, 3]])


def test_lattice_stabilizer_is_a_subgroup():
    samples = {
        2: [[[-2, -2]], [[2, 0]], [[1, 1], [0, 2]]],
        3: [[[-2, -2, 0]], [[1, 1, 1]], [[2, 0, 0], [0, 2, 0]]],
    }
    for r, vector_sets in samples.items():
        group = sf.signed_permutation_group(r)
        for vectors in vector_sets:
            fixed = [g for g in group if sf.lattice_fixed(g, vectors)]
            members = {g.matrix for g in fixed}
            assert sf.signed_identity(r).matrix in members
            for g in fixed:
                assert tuple(zip(*g.matrix)) in members
                for h in fixed:
                    assert compose(g, h).matrix in members


def test_stabilizer_indices_for_annulus_lamination():
    fx = sf.annulus_fixture()
    vectors = [sf.pairing_vector(fx.laminations["doubled"], fx.table)]
    group = sf.signed_permutation_group(2)
    fixed = [g for g in group if sf.lattice_fixed(g, vectors)]
    assert len(group) == 8
    assert len(fixed) == 4
    assert len(group) // len(fixed) == 2
    central = [
        g for g in group
        if g.matrix in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
    ]
    assert len(group) // len(central) == 4


def test_qa_subgroup_test_verdicts():
    for r in (1, 2, 3):
        for g in sf.signed_permutation_group(r):
            verdict, witness = sf.qa_subgroup_test(g)
            ident = sf.signed_identity(r).matrix
            negated = tuple(tuple(-v for v in row) for row in ident)
            if g.matrix in (ident, negated):
                assert (verdict, witness) == ("always", None)
            else:
                assert verdict == "sometimes"
                # the witness is a pairing vector whose lattice moves
                assert not sf.lattice_fixed(g, [witness])


def test_qa_subgroup_test_fixture_witnesses():
    verdict, witness = sf.qa_subgroup_test(ACTIONS["inner_half_turn"])
    assert verdict == "sometimes"
    assert witness == [1, 1]
    verdict, witness = sf.qa_subgroup_test(ACTIONS["component_swap"])
    assert verdict == "sometimes"
    assert witness == [2, 0]
    half_turns = compose(ACTIONS["inner_half_turn"], ACTIONS["outer_half_turn"])
    assert sf.qa_subgroup_test(half_turns) == ("always", None)


def test_shear_relation_on_fixture_laminations():
    fx = sf.annulus_fixture()
    for lam in fx.laminations.values():
        assert sf.shear_relation_check(fx.boundary_matrix, lam)


def test_shear_relation_detects_wrong_coordinates():
    fx = sf.annulus_fixture()
    good = fx.laminations["doubled"]
    off = sf.Lamination(good.curves, (0, 0, 2, 1), good.arc_measures,
                        good.boundary_measures)
    assert not sf.shear_relation_check(fx.boundary_matrix, off)


def test_shear_relation_preconditions():
    fx = sf.annulus_fixture()
    spiral = sf.Lamination(
        ((("spiral", 0, "ccw"), ("odd",)),), (0, 0, 0, 0), (0, 0, 0, 0), ()
    )
    with pytest.raises(sf.InvalidSurfaceData):
        sf.shear_relation_check(fx.boundary_matrix, spiral)
    bare = sf.Lamination(fx.laminations["doubled"].curves)
    with pytest.raises(sf.InvalidSurfaceData):
        sf.shear_relation_check(fx.boundary_matrix, bare)
    good = fx.laminations["doubled"]
    short = sf.Lamination(good.curves, good.shear, good.arc_measures, (2, 0))
    with pytest.raises(sf.InvalidSurfaceData):
        sf.shear_relation_check(fx.boundary_matrix, short)


def test_arc_pairing_table_validation():
    with pytest.raises(sf.InvalidSurfaceData):
        sf.ArcPairingTable(((1, -1), (3, 0)))
    with pytest.raises(sf.InvalidSurfaceData):
        sf.ArcPairingTable(((1, -1), (1,)))
    table = sf.ArcPairingTable(((1, -1), (-1, 1)))
    assert table.num_components == 2
    assert table.column(1) == [-1, 1]


def test_residue_recovers_pairings():
    fx = sf.annulus_fixture()
    for lam in fx.laminations.values():
        pairing = sf.pairing_vector(lam, fx.table)
        for comp in range(fx.table.r):
            assert sf.residue(lam.shear, fx.arc_pairings, comp) == pairing[comp]
    assert sf.residue((0, 0, 0, 0), fx.arc_pairings, 0) == 0
    with pytest.raises(sf.InvalidSurfaceData):
        sf.residue((1, 2), fx.arc_pairings, 0)


def test_kernel_basis_check_on_annulus():
    fx = sf.annulus_fixture()
    principal = fx.seed.principal
    assert la.rank(principal) == 2
    assert sf.kernel_basis_check(principal, fx.arc_pairings)


def test_kernel_basis_check_failure_modes():
    fx = sf.annulus_fixture()
    principal = fx.seed.principal
    # a column that does not annihilate the rows
    assert not sf.kernel_basis_check(
        principal, sf.ArcPairingTable(((1, -1), (-1, 1), (-1, -1), (1, 0)))
    )
    # dependent columns
    assert not sf.kernel_basis_check(
        principal, sf.ArcPairingTable(((1, 1), (-1, -1), (-1, -1), (1, 1)))
    )
    empty = sf.ArcPairingTable(((), (), (), ()))
    # without even components the check demands an invertible matrix
    assert sf.kernel_basis_check(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], empty
    )
    assert not sf.kernel_basis_check(principal, empty)
    with pytest.raises(sf.InvalidSurfaceData):
        sf.kernel_basis_check(principal, sf.ArcPairingTable(((1,), (1,))))


def test_lamination_json_round_trip():
    fx = sf.annulus_fixture()
    for lam in fx.laminations.values():
        obj = json.loads(json.dumps(sf.lamination_to_json(lam)))
        assert tuple((tuple(a), tuple(b)) for a, b in obj["ends"]) == lam.curves
        assert obj.get("shear") == (None if lam.shear is None else list(lam.shear))
    obj = sf.lamination_to_json(fx.laminations["doubled"])
    assert obj["shear"] == [0, 0, 2, 0]
    assert obj["measures"]["boundary"] == [2, 0, 2, 0]
    assert obj["ends"][0][0] == ["boundary", 0, "white"]
    bare = sf.Lamination(((("odd",), ("odd",)),))
    assert sf.lamination_to_json(bare) == {"ends": [[["odd"], ["odd"]]]}


def test_fixture_words_reach_the_recorded_seeds():
    fx = sf.annulus_fixture()
    half = sd.mutate_word(fx.seed, fx.half_turn_word)
    assert pt.permute_btilde(half.btilde, 4, HALF_TURN_MATCH) == \
        HALF_TURN_SEED.btilde
    twist = sd.mutate_word(fx.seed, fx.twist_word)
    assert pt.permute_btilde(twist.btilde, 4, TWIST_MATCH) == \
        fx.twist_seed.btilde


def test_twist_map_exponents_from_crossing_counts():
    fx = sf.annulus_fixture()
    row = fx.twist_map.matrix[4]
    pairs = list(zip("abcd", "efgh"))
    for j, (src, dst) in enumerate(pairs):
        delta = CROSSING_COUNTS["x" + src] - CROSSING_COUNTS["x" + dst]
        assert row[j] == delta
        assert delta in (-1, 0, 1)
    assert row[4] == 1
    for i in range(4):
        assert fx.twist_map.matrix[i][:4] == la.identity(4)[i]
        assert fx.twist_map.matrix[i][4] == 0


def test_twist_map_is_a_quasi_homomorphism():
    fx = sf.annulus_fixture()
    assert qh.verify_qh(fx.twist_map, fx.seed, fx.twist_seed)
    star = [((), k) for k in range(4)]
    assert qh.check_on_nerve(fx.twist_map, star, fx.seed, fx.twist_seed) == "direct"


def test_twist_map_transports_hatted_variables_exactly():
    fx = sf.annulus_fixture()
    for j in range(4):
        num, den = sd.hatted(fx.seed, j)
        image = (qh.apply_map(fx.twist_map, num), qh.apply_map(fx.twist_map, den))
        assert sd.rp_equal(image, sd.hatted(fx.twist_seed, j))


def test_hatted_variables_separate_the_triangulations():
    fx = sf.annulus_fixture()
    assert sd.rp_equal(sd.hatted(fx.seed, 0), sd.hatted(fx.seed, 1))
    assert not sd.rp_equal(
        sd.hatted(HALF_TURN_SEED, 0), sd.hatted(HALF_TURN_SEED, 1)
    )


def test_half_turn_seed_admits_no_direct_map():
    fx = sf.annulus_fixture()
    half = sd.mutate_word(fx.seed, fx.half_turn_word)
    candidates = 0
    for perm in itertools.permutations(range(4)):
        permuted = pt.permute_btilde(half.btilde, 4, perm)
        if permuted[:4] != fx.seed.principal:
            continue
        candidates += 1
        names = [half.var_names[perm[i]] for i in range(4)] + ["xL"]
        assert qh.construct_qh(fx.seed.btilde, permuted, fx.seed.var_names,
                               names) is None
        assert qh.construct_qh(permuted, fx.seed.btilde, names,
                               fx.seed.var_names) is None
    assert candidates == 4


def test_half_turn_seed_is_not_orbit_equivalent():
    fx = sf.annulus_fixture()
    base = ob.seedlike_from_seed(fx.seed)
    half = sd.mutate_word(fx.seed, fx.half_turn_word)
    for perm in itertools.permutations(range(4)):
        relabeled = sd.Seed(
            pt.permute_btilde(half.btilde, 4, perm),
            [half.cluster[perm[i]] for i in range(4)],
            half.var_names,
        )
        assert ob.seeds_equivalent(base, ob.seedlike_from_seed(relabeled)) is None


def test_pattern_search_finds_the_twist():
    fx = sf.annulus_fixture()
    graph = pt.explore(fx.seed, max_depth=4, max_nodes=300)
    assert graph.hit_depth
    half_idx = next(
        i for i, node in enumerate(graph.nodes) if node.word == fx.half_turn_word
    )
    # the two commuting first mutations land on the same node
    assert graph.adjacency[2][0] == half_idx
    twist_idx = next(
        i for i, node in enumerate(graph.nodes) if node.word == fx.twist_word
    )
    found = pt.find_quasi_automorphisms(graph, fx.seed, include_opposite=False)
    assert not [r for r in found if r.node == half_idx]
    twist_records = [r for r in found if r.node == twist_idx]
    assert twist_records
    search_form = qh.MonomialMap(
        fx.twist_map.matrix, list(fx.seed.var_names), list(fx.seed.var_names), 4, 4
    )
    matches = [
        r for r in twist_records
        if qh.proportional(r.matrix_map, search_form, fx.seed.btilde)
    ]
    assert matches
    star = pt.star_neighborhood(graph, 0)
    for record in matches:
        target = pt.permute_btilde(
            graph.nodes[record.node].seed.btilde, 4, record.permutation
        )
        dst = sd.initial_seed(target, fx.seed.var_names)
        assert qh.check_on_nerve(record.matrix_map, star, fx.seed, dst) == "direct"


def test_identity_is_found_at_the_base_node():
    fx = sf.annulus_fixture()
    graph = pt.explore(fx.seed, max_depth=2, max_nodes=100)
    found = pt.find_quasi_automorphisms(graph, fx.seed)
    base_records = [r for r in found if r.node == 0]
    assert any(
        r.direction == "direct" and r.permutation == (0, 1, 2, 3)
        for r in base_records
    )
    assert not [r for r in base_records if r.direction == "opposite"]