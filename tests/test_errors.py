"""Every input gets an answer or a typed error: one table of the typed
errors that the other test files do not reach, each with its message."""

from __future__ import annotations

import pytest

from clusterkit import grassmann as gx
from clusterkit import lattice as la
from clusterkit import laurent as lp
from clusterkit import orbits as ob
from clusterkit import patterns as pt
from clusterkit import quasihom as qh
from clusterkit import seeds as sd
from clusterkit import surfaces as sf


def _seedlike():
    return ob.SeedLike([[0]], [{(0,): 1}], [((0,), (0,))], ["x"])


def _map(dst: str, src_mutable: int = 1):
    return qh.MonomialMap([[1]], ["a"], [dst], src_mutable, 1)


_A2 = sd.initial_seed([[0, 1], [-1, 0]], ["a", "b"])


def _a2_graph():
    return pt.explore(_A2)


_A2_FROZEN = sd.initial_seed([[0, 1], [-1, 0], [1, 0]], ["a", "b", "p"])
_A3 = sd.initial_seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], ["a", "b", "c"])
_PAIRINGS = sf.ArcPairingTable(((1, 0), (0, 1)))


ERRORS = [
    # laurent
    (lambda: lp.power({}, 0), ValueError, "zero polynomial to the power 0"),
    (lambda: lp.power({(1,): 2}, -1), lp.NotDivisible, "negative power of coefficient 2"),
    (lambda: lp.power({(0,): 1, (1,): 1}, -1), lp.NotDivisible, "of a non-monomial"),
    (lambda: lp.leading_exponent({}), ValueError, "no leading term"),
    (lambda: lp.min_exponent({}), ValueError, "no minimal exponent"),
    (lambda: lp.trop_add((0,), (0, 0)), ValueError, "must share arity"),
    (lambda: lp.tropicalize({}, 0), ValueError, "no tropical value"),
    (lambda: lp.add({(0,): 1}, {(0, 0): 1}), ValueError, "different arities: 1 and 2"),
    (lambda: lp.to_str({(1, 1): 1}, ["a"]), ValueError, "1 variable names for arity 2"),
    (lambda: lp.shift({(1, 1): 1}, (1,)), ValueError, "shift exponent of arity 1 for arity 2"),
    # lattice
    (lambda: la.vec_mat([1, 2], [[1]]), ValueError, "inner dimensions differ"),
    (lambda: la.mat_vec([[1, 2]], [1]), ValueError, "inner dimensions differ"),
    (lambda: la.mat_vec([[1, 2]], [1, 2, 3]), ValueError, "inner dimensions differ"),
    (lambda: la.solve_left_all([[1, 0]], [[1]]), ValueError, "right-hand side has wrong length"),
    # seeds
    (lambda: sd.mutate_matrix([[0]], 3), ValueError, "direction 3 out of range for rank 1"),
    (lambda: sd.mutate_matrix([], 0), ValueError, "direction 0 out of range for rank 0"),
    (lambda: sd.Seed([[0, 1]], [], ["a"]), sd.InvalidSeed, "fewer rows than columns"),
    (lambda: sd.Seed([[0]], [{(0,): 1}], ["a", "b"]), sd.InvalidSeed,
     "2 variable names for 1 generators"),
    (lambda: sd.Seed([[0]], [{(0, 0): 1}], ["a"]), sd.InvalidSeed, "wrong ambient arity"),
    # orbits
    (lambda: ob.Rescaling(((0,),), ()), ValueError, "c and d must have equal rank"),
    (lambda: ob.apply_rescaling(_seedlike(), ob.Rescaling((), ())), ValueError,
     "rescaling rank mismatch"),
    (lambda: ob.mutate_seedlike(_seedlike(), 5), ValueError, "direction 5 out of range"),
    (lambda: ob.SeedLike([[0]], [], [((0,), (0,))], ["x"]), sd.InvalidSeed,
     "cluster and pairs must match the rank"),
    (lambda: ob.SeedLike([[0]], [{(0,): 1}], [], ["x"]), sd.InvalidSeed,
     "cluster and pairs must match the rank"),
    (lambda: ob.SeedLike([[0]], [{}], [((0,), (0,))], ["x"]), sd.InvalidSeed,
     "zero cluster variable"),
    # quasihom
    (lambda: _map("b", src_mutable=2), qh.InvalidMap, "mutable counts out of range"),
    (lambda: qh.proportional(_map("b"), _map("c"), [[0]]), qh.InvalidMap,
     "maps differ in variables"),
    (lambda: qh.verify_report(_map("b"), sd.initial_seed([[0]], ["a"]),
                              sd.initial_seed([[0, 1], [-1, 0]], ["b", "c"])),
     qh.PrincipalMismatch, "principal ranks must agree"),
    (lambda: qh.nerve_vertices([], 2), qh.InvalidNerve, "empty edge set"),
    (lambda: qh.nerve_vertices([((), 5)], 2), qh.InvalidNerve, "label out of range"),
    # patterns
    (lambda: pt.explore(sd.initial_seed([[0]], ["a"]), max_depth=-1), ValueError,
     "need max_depth >= 0"),
    (lambda: pt.explore(sd.initial_seed([[0]], ["a"]), max_nodes=0), ValueError,
     "max_nodes >= 1"),
    (lambda: pt.star_neighborhood(_a2_graph(), 99), ValueError, "node 99 out of range for 5 nodes"),
    (lambda: pt.star_neighborhood(_a2_graph(), -1), ValueError, "node -1 out of range for 5 nodes"),
    (lambda: pt.find_quasi_automorphisms(_a2_graph(), _A3), qh.PrincipalMismatch,
     "base of rank 3 for a graph of rank 2"),
    (lambda: pt.find_quasi_automorphisms(_a2_graph(), _A2_FROZEN), ValueError,
     "frozen row counts differ: base 1, graph 0"),
    (lambda: pt.find_quasi_automorphisms(pt.explore(_A2_FROZEN), _A2), ValueError,
     "frozen row counts differ: base 0, graph 1"),
    (lambda: pt.relabelings([[0, 1], [-1, 0]], [[0]]), ValueError,
     "principal part of size 1 for a matrix of rank 2"),
    (lambda: pt.relabelings([[0, 1], [-1, 0]], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), ValueError,
     "principal part of size 3 for a matrix of rank 2"),
    (lambda: pt.permute_btilde([[0, 1], [-1, 0]], 2, [0]), ValueError,
     "[0] is not a permutation of range(2)"),
    (lambda: pt.permute_btilde([[0, 1], [-1, 0]], 2, [0, 0]), ValueError,
     "[0, 0] is not a permutation of range(2)"),
    # grassmann
    (lambda: gx.substitute({(1, 1): 1}, [{(1,): 1}], 1), gx.InvalidIndex,
     "one image per variable, got 1"),
    (lambda: gx.tropical_c_check(gx.make_context(3, 7), (5, 6, 7), 1, 2, 3, 4), gx.InvalidIndex,
     "base needs 2 indices, got 3"),
    # surfaces
    (lambda: sf.EvenComponent("hole"), sf.InvalidSurfaceData, "unknown component kind 'hole'"),
    (lambda: sf.EvenComponent("puncture", 2), sf.InvalidSurfaceData,
     "puncture carries no cilia"),
    (lambda: sf.EvenComponent("boundary", 3), sf.InvalidSurfaceData, "needs even cilia"),
    (lambda: sf.shear_relation_check(
        [[1, 0]], sf.Lamination((), shear=(0,), arc_measures=(1,), boundary_measures=())),
     sf.InvalidSurfaceData, "shear vector length differs from arc count"),
    (lambda: sf.residue((1, 1), _PAIRINGS, 5), sf.InvalidSurfaceData,
     "component 5 out of range for 2 components"),
    (lambda: sf.residue((1, 1), _PAIRINGS, -1), sf.InvalidSurfaceData,
     "component -1 out of range for 2 components"),
]


@pytest.mark.parametrize("call, error, message", ERRORS)
def test_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)
