"""Monomial maps, quasi-homomorphism checks, gradings, and nerves."""

import textwrap

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

import clusterkit.lattice as la
import clusterkit.laurent as lp
import clusterkit.orbits as ob
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

# Exponent matrix of the distinguished map from the quintic fixture to the
# band fixture: each column is the image of one source generator.
FSTAR_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 1, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 1, 0],
    [1, 1, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 0, 0, 0],
]

# Its quasi-inverse in the other direction, read off the generic band matrix.
GSTAR_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 1],
]


def gr_seed():
    return sd.initial_seed(GR35_BTILDE, GR35_NAMES)


def band_seed():
    return sd.initial_seed(BAND_BTILDE, BAND_NAMES)


def fstar():
    return qh.MonomialMap(FSTAR_MATRIX, GR35_NAMES, BAND_NAMES, 2, 2)


def gstar():
    return qh.MonomialMap(GSTAR_MATRIX, BAND_NAMES, GR35_NAMES, 2, 2)


def opposite(seed):
    """The opposite seed: the same cluster over the negated matrix."""
    return sd.Seed([[-x for x in row] for row in seed.btilde], seed.cluster, seed.var_names)


def exp(arity, **positions):
    out = [0] * arity
    for key, value in positions.items():
        out[int(key[1:])] = value
    return tuple(out)


def test_map_shape_validation():
    with pytest.raises(qh.InvalidMap):
        qh.MonomialMap([[1, 0]], ["a", "b"], ["z", "w"], 1, 1)
    with pytest.raises(qh.InvalidMap):
        qh.MonomialMap([[1], [2, 3]], ["a"], ["z", "w"], 1, 1)


def test_coefficient_preservation_enforced():
    # frozen source hitting a mutable target row is rejected
    with pytest.raises(qh.InvalidMap):
        qh.MonomialMap([[0, 1], [0, 0]], ["a", "f"], ["z", "g"], 1, 1)
    qh.MonomialMap([[0, 0], [0, 1]], ["a", "f"], ["z", "g"], 1, 1)


def test_apply_map_identity():
    seed = gr_seed()
    m = qh.identity_map(seed)
    f = lp.add(*sd.hatted(seed, 0))
    assert qh.apply_map(m, f) == f


def test_apply_map_substitution():
    m = qh.MonomialMap([[1], [1]], ["x1"], ["xbar", "u"], 1, 1)
    f = {(1,): 1, (0,): 1}
    assert qh.apply_map(m, f) == {(1, 1): 1, (0, 0): 1}


def test_apply_map_merges_colliding_terms():
    m = qh.MonomialMap([[1, 1]], ["a", "b"], ["z"], 2, 1)
    assert qh.apply_map(m, {(1, 0): 1, (0, 1): 1}) == {(1,): 2}


def test_apply_map_drops_cancelled_terms():
    m = qh.MonomialMap([[1, 1, 0], [0, 0, 1]], ["a", "b", "c"], ["z", "w"], 3, 2)
    f = {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 3}
    assert qh.apply_map(m, f) == {(0, 1): 3}
    assert qh.apply_map(m, {(1, 0, 0): 2, (0, 1, 0): -2}) == {}


def test_apply_map_arity_mismatch():
    m = qh.MonomialMap([[1, 1]], ["a", "b"], ["z"], 2, 1)
    with pytest.raises(ValueError):
        qh.apply_map(m, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        qh.map_exponent(m, (1,))
    # with no source variables the image still has the target's arity
    empty = qh.MonomialMap([[], []], [], ["u", "v"], 0, 0)
    assert qh.map_exponent(empty, ()) == (0, 0)
    assert qh.apply_map(empty, {(): 3}) == {(0, 0): 3}


def test_map_json_round_trip():
    m = fstar()
    again = qh.map_from_json(qh.map_to_json(m), 2, 2)
    assert qh.map_to_json(again) == qh.map_to_json(m)
    assert (again.src_mutable, again.dst_mutable) == (m.src_mutable, m.dst_mutable)


def test_verify_qh_identity():
    seed = gr_seed()
    assert qh.verify_qh(qh.identity_map(seed), seed, seed)


def test_verify_qh_fstar_on_base_seeds():
    assert qh.verify_qh(fstar(), gr_seed(), band_seed())


def test_verify_qh_rejects_perturbed_target():
    perturbed = [row[:] for row in BAND_BTILDE]
    perturbed[5][0] += 1
    dst = sd.initial_seed(perturbed, BAND_NAMES)
    assert not qh.verify_qh(fstar(), gr_seed(), dst)


def test_construct_identity():
    m = qh.construct_qh(GR35_BTILDE, GR35_BTILDE, GR35_NAMES, GR35_NAMES)
    assert m is not None
    assert la.matmul(m.matrix, GR35_BTILDE) == GR35_BTILDE
    assert qh.verify_qh(m, gr_seed(), gr_seed())


def test_construct_gr_to_band():
    m = qh.construct_qh(GR35_BTILDE, BAND_BTILDE, GR35_NAMES, BAND_NAMES)
    assert m is not None
    assert la.matmul(m.matrix, GR35_BTILDE) == BAND_BTILDE
    assert qh.verify_qh(m, gr_seed(), band_seed())
    # any two solutions differ by a grading
    assert qh.proportional(m, fstar(), GR35_BTILDE) is not None


def test_construct_drops_coefficients():
    src = [[0, 1], [-1, 0], [1, 0], [0, 1]]
    dst = [[0, 1], [-1, 0]]
    m = qh.construct_qh(src, dst, ["x1", "x2", "y1", "y2"], ["x1", "x2"])
    assert m is not None
    assert la.matmul(m.matrix, src) == dst


def test_construct_principal_mismatch():
    with pytest.raises(qh.PrincipalMismatch):
        qh.construct_qh([[0, 1], [-1, 0]], [[0, 2], [-2, 0]], ["a", "b"], ["a", "b"])


def test_construct_reports_integer_obstruction():
    src = [[0, 2], [-2, 0], [2, 0]]
    dst = [[0, 2], [-2, 0], [1, 0]]
    assert qh.construct_qh(src, dst, ["a", "b", "f"], ["a", "b", "g"]) is None
    report = qh.construct_qh_diagnostics(src, dst, ["a", "b", "f"], ["a", "b", "g"])
    assert report["map"] is None
    assert report["rows"] == [{"row": 2, "integer": False, "rational": True}]


def test_construct_reports_rational_obstruction():
    src = [[0]]
    dst = [[0], [1]]
    report = qh.construct_qh_diagnostics(src, dst, ["a"], ["a", "g"])
    assert report["rows"] == [{"row": 1, "integer": False, "rational": False}]


# A3 with a rank-2 principal part whose rows all lie in 2Z^3: among the
# target coefficient rows, (1, -1, 0) is half a source row (rational, not
# integer) and (1, 0, 0) leaves the plane x + y + z = 0 (not even rational).
EVEN_A3 = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def test_construct_diagnostics_take_one_hermite_transform(monkeypatch):
    src = EVEN_A3 + [[2, -2, 0]]
    dst = EVEN_A3 + [[0, 2, -2], [1, -1, 0], [1, 0, 0], [4, -4, 0]]
    calls = []
    hnf = la.hermite_normal_form
    monkeypatch.setattr(la, "hermite_normal_form", lambda a: calls.append(a) or hnf(a))
    report = qh.construct_qh_diagnostics(src, dst, list("abcf"), list("abcghij"))
    assert len(calls) == 1
    assert report["map"] is None
    assert report["rows"] == [
        {"row": 3, "integer": True},
        {"row": 4, "integer": False, "rational": True},
        {"row": 5, "integer": False, "rational": False},
        {"row": 6, "integer": True},
    ]
    monkeypatch.undo()
    # each verdict agrees with a solve of its own row
    for entry in report["rows"]:
        target = dst[entry["row"]]
        assert entry["integer"] == (la.solve_left_all(src, [target])[0][0] is not None)
        if not entry["integer"]:
            rank_jump = sympy.Matrix(src + [target]).rank() > sympy.Matrix(src).rank()
            assert entry["rational"] == (not rank_jump)


def test_construct_diagnostics_report_principal_mismatch():
    report = qh.construct_qh_diagnostics(
        [[0, 1], [-1, 0]], [[0, 2], [-2, 0]], ["a", "b"], ["c", "d"]
    )
    assert report == {
        "principal_equal": False,
        "rows": [],
        "map": None,
        "reason": "extended matrices have different principal parts",
        "src_vars": ["a", "b"],
        "dst_vars": ["c", "d"],
    }


def test_verify_report_witnesses():
    report = qh.verify_report(fstar(), gr_seed(), band_seed())
    assert report["principal_equal"] and report["matrix_identity"]
    assert report["verdict"] is True
    assert [v["name"] for v in report["variables"]] == GR35_NAMES[:2]
    for entry in report["variables"]:
        assert entry["ok"] is True
        assert entry["frozen_ratio"][:2] == [0, 0]


def test_verify_report_keeps_direct_witnesses_under_opposite():
    src, dst = gr_seed(), opposite(band_seed())
    direct = qh.verify_report(fstar(), src, dst)
    either = qh.verify_report(fstar(), src, dst, allow_opposite=True)
    assert direct["verdict"] is False and either["verdict"] is True
    assert {k: v for k, v in either.items() if k != "verdict"} == {
        k: v for k, v in direct.items() if k != "verdict"
    }
    assert direct["principal_equal"] is False


@st.composite
def seed_targets(DRAW):
    """A random seed with frozen rows and a target for its identity map:
    the seed itself, its opposite, a copy with one frozen entry changed,
    or that copy's opposite."""
    n = DRAW(st.integers(1, 4))
    m = DRAW(st.integers(1, 2))
    btilde = [[0] * n for _ in range(n + m)]
    for i in range(n):
        for j in range(i + 1, n):
            btilde[i][j] = DRAW(st.integers(-2, 2))
            btilde[j][i] = -btilde[i][j]
    for i in range(n, n + m):
        btilde[i] = DRAW(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    seed = sd.initial_seed(btilde, [f"x{i}" for i in range(n + m)])
    changed = [row[:] for row in btilde]
    changed[DRAW(st.integers(n, n + m - 1))][DRAW(st.integers(0, n - 1))] += DRAW(
        st.sampled_from([-1, 1]))
    target = sd.Seed(changed, seed.cluster, seed.var_names) if DRAW(st.booleans()) else seed
    return seed, opposite(target) if DRAW(st.booleans()) else target


@settings(max_examples=200)
@given(seed_targets())
def test_opposite_verdict_is_direct_verdict_on_either_target(case):
    # one pass decides both orientations: the verdict allowing the opposite
    # is the direct verdict against dst or against its opposite
    src, dst = case
    m = qh.identity_map(src)
    either = qh.verify_report(m, src, dst, allow_opposite=True)["verdict"]
    assert either is (qh.verify_report(m, src, dst)["verdict"]
                      or qh.verify_report(m, src, opposite(dst))["verdict"])


def test_verify_report_rejects_map_that_does_not_fit():
    a2 = sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])
    a2y = sd.initial_seed([[0, 1], [-1, 0], [0, 0]], ["x1", "x2", "y1"])
    m = qh.identity_map(a2)
    with pytest.raises(qh.InvalidMap):
        qh.verify_report(m, a2, a2y)
    assert qh.verify_qh(m, a2, a2y) is False
    with pytest.raises(qh.InvalidMap):
        qh.verify_report(m, a2, a2y, allow_opposite=True)


def test_normalization_values():
    c = qh.normalization_map(fstar())
    assert c(lp.variable(0, 7)) == exp(9, p7=1)
    assert c(lp.variable(1, 7)) == exp(9, p6=1, p7=1)
    # agrees with the plain image on frozen monomials
    frozen = lp.monomial(exp(7, p2=1, p4=2))
    assert c(frozen) == lp.leading_exponent(qh.apply_map(fstar(), frozen))


def test_separation_identity_along_words():
    m = fstar()
    c = qh.normalization_map(m)
    for word in [[], [0], [1], [0, 1], [1, 0], [0, 1, 0]]:
        src = sd.mutate_word(gr_seed(), word)
        dst = sd.mutate_word(band_seed(), word)
        for i in range(2):
            image = qh.apply_map(m, src.cluster[i])
            split = lp.mul(lp.monomial(c(src.cluster[i])), dst.cluster[i])
            assert image == split


def test_image_seeds_equivalent_along_pentagon():
    m = fstar()
    src, dst = gr_seed(), band_seed()
    for k in [0, 1, 0, 1, 0]:
        src = sd.mutate_seed(src, k)
        dst = sd.mutate_seed(dst, k)
        image = qh.map_seed(m, src)
        w = ob.seeds_equivalent(image, ob.seedlike_from_seed(dst))
        assert w is not None


def test_image_witness_at_base():
    image = qh.map_seed(fstar(), gr_seed())
    w = ob.seeds_equivalent(image, ob.seedlike_from_seed(band_seed()))
    assert w is not None
    assert w.c == (exp(9, p7=1), exp(9, p6=1, p7=1))
    assert w.d == (exp(9, p2=1, p3=1, p7=1), exp(9, p2=1, p6=1, p7=2))


def test_grading_space_sizes():
    basis = qh.grading_space(GR35_BTILDE)
    assert len(basis) == 5
    for row in basis:
        assert all(v == 0 for v in la.vec_mat(row, GR35_BTILDE))
    assert qh.grading_space([[0, 1], [-1, 0]]) == []


def test_proportional_zero_grading():
    m = fstar()
    g = qh.proportional(m, m, GR35_BTILDE)
    assert g is not None
    assert len(g.rows) == 7
    assert all(not any(row) for row in g.rows)


def test_proportional_recovers_added_kernel_row():
    m1 = fstar()
    kernel_row = qh.grading_space(GR35_BTILDE)[0]
    matrix = [row[:] for row in FSTAR_MATRIX]
    matrix[4] = [a + b for a, b in zip(matrix[4], kernel_row)]
    m2 = qh.MonomialMap(matrix, GR35_NAMES, BAND_NAMES, 2, 2)
    g = qh.proportional(m1, m2, GR35_BTILDE)
    assert g is not None
    assert g.rows[2] == tuple(-v for v in kernel_row)
    assert sum(1 for row in g.rows if any(row)) == 1


def test_proportional_rejects_non_kernel_difference():
    matrix = [row[:] for row in FSTAR_MATRIX]
    matrix[4][0] += 1
    m2 = qh.MonomialMap(matrix, GR35_NAMES, BAND_NAMES, 2, 2)
    assert qh.proportional(fstar(), m2, GR35_BTILDE) is None


def test_proportional_rejects_mutable_difference():
    # the maps differ in a mutable row, which no grading can change
    matrix = [row[:] for row in FSTAR_MATRIX]
    matrix[1][0] += 1
    m2 = qh.MonomialMap(matrix, GR35_NAMES, BAND_NAMES, 2, 2)
    assert qh.proportional(fstar(), m2, GR35_BTILDE) is None
    assert qh.proportional(m2, m2, GR35_BTILDE) is not None


def test_composite_rescales_every_generator():
    comp = qh.compose_maps(gstar(), fstar())
    scale = exp(7, p5=1, p6=1)
    for k in range(7):
        col = tuple(comp.matrix[i][k] for i in range(7))
        single = tuple(1 if i == k else 0 for i in range(7))
        assert col == lp.exp_add(single, scale)


def test_quasi_inverse_identity():
    seed = gr_seed()
    m = qh.identity_map(seed)
    assert qh.quasi_inverse_check(m, m, seed)


def test_quasi_inverse_gr_band():
    assert qh.quasi_inverse_check(fstar(), gstar(), gr_seed())


def test_quasi_inverse_detects_perturbation():
    matrix = [row[:] for row in GSTAR_MATRIX]
    matrix[2][1] += 1
    w = qh.MonomialMap(matrix, BAND_NAMES, GR35_NAMES, 2, 2)
    # the composite still fixes base variables up to frozen monomials, so
    # only the star neighborhood exposes the fault
    assert not qh.quasi_inverse_check(fstar(), w, gr_seed())


def test_quasi_inverse_checks_each_new_variable():
    # A2 with one frozen row; the composite x1 -> x1 y fixes x1, x2 up to y,
    # and the new x1 = (1 + x2) / x1 too, but sends the new
    # x2 = (x1 + 1) / x2 to (x1 y + 1) / x2, no frozen multiple of it
    names = ["x1", "x2", "y"]
    seed = sd.initial_seed([[0, 1], [-1, 0], [0, 0]], names)
    m = qh.identity_map(seed)
    w = qh.MonomialMap([[1, 0, 0], [0, 1, 0], [1, 0, 1]], names, names, 2, 2)
    composite = qh.compose_maps(w, m)
    fixed = [ob.frozen_ratio(qh.apply_map(composite, x), x, 2) is not None
             for x in seed.cluster + [sd.mutate_seed(seed, k).cluster[k] for k in (0, 1)]]
    assert fixed == [True, True, True, False]
    assert not qh.quasi_inverse_check(m, w, seed)


STAR_NERVE = [((), 0), ((), 1)]


def test_nerve_direct():
    assert qh.check_on_nerve(fstar(), STAR_NERVE, gr_seed(), band_seed()) == "direct"


def test_nerve_opposite():
    dst = opposite(band_seed())
    assert qh.check_on_nerve(fstar(), STAR_NERVE, gr_seed(), dst) == "opposite"


def test_nerve_fail_on_mutable_perturbation():
    matrix = [row[:] for row in FSTAR_MATRIX]
    matrix[1][0] += 1
    m = qh.MonomialMap(matrix, GR35_NAMES, BAND_NAMES, 2, 2)
    assert qh.check_on_nerve(m, STAR_NERVE, gr_seed(), band_seed()) == "fail"


def test_nerve_fail_when_direct_and_opposite_both_break():
    # the cluster entries y and 1 + y are no seed, and the two matrices
    # differ in one frozen entry; each exchange gives the same variable in
    # both, so the identity map passes every variable check.  At label 1
    # the exchange terms match in order; at label 0 the sum 1 + y + y^2
    # splits as y^2 + (1 + y) in one and 1 + y(1 + y) in the other, so
    # neither order matches.  Label 1 comes first, so the verdict is
    # reached at the last edge
    names = ["x0", "x1", "y"]
    y = lp.variable(2, 3)
    cluster = [y, lp.add(y, lp.constant(1, 3))]
    src = sd.Seed([[0, 1], [-1, 0], [2, 0]], cluster, names)
    dst = sd.Seed([[0, 1], [-1, 0], [-1, 0]], cluster, names)
    assert [sd.exchanged(src, k) for k in (0, 1)] == [sd.exchanged(dst, k) for k in (0, 1)]
    m = qh.identity_map(src)
    assert qh.check_on_nerve(m, [((), 1), ((), 0)], src, dst) == "fail"


def test_nerve_missing_label():
    with pytest.raises(qh.InvalidNerve):
        qh.check_on_nerve(fstar(), [((), 0)], gr_seed(), band_seed())


def test_nerve_disconnected():
    edges = [((), 0), ((1, 0, 1), 1)]
    with pytest.raises(qh.InvalidNerve):
        qh.check_on_nerve(fstar(), edges, gr_seed(), band_seed())


def test_nerve_decomposable_target():
    seed = sd.initial_seed([[0, 0], [0, 0]], ["u0", "u1"])
    with pytest.raises(qh.DecomposableTarget):
        qh.check_on_nerve(qh.identity_map(seed), STAR_NERVE, seed, seed)


@st.composite
def span_preserving_pairs(DRAW):
    n = DRAW(st.integers(2, 3))
    m = DRAW(st.integers(1, 2))
    principal = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = DRAW(st.integers(-2, 2))
            principal[i][j] = e
            principal[j][i] = -e
    frozen = [[DRAW(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
    u = la.identity(m)
    for _ in range(DRAW(st.integers(0, 4))):
        i = DRAW(st.integers(0, m - 1))
        j = DRAW(st.integers(0, m - 1))
        if i == j:
            u[i] = [-v for v in u[i]]
        else:
            c = DRAW(st.integers(-2, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    shuffle = la.matmul(u, frozen)
    extra = [[DRAW(st.integers(-1, 1)) for _ in range(n)] for _ in range(m)]
    mixed = [
        [a + b for a, b in zip(row, la.vec_mat(coef, principal))]
        for row, coef in zip(shuffle, extra)
    ]
    return principal + frozen, principal + mixed


@settings(max_examples=30)
@given(span_preserving_pairs())
def test_construct_round_trip_on_equal_spans(pair):
    src, dst = pair
    arity = len(src)
    names_a = [f"a{i}" for i in range(arity)]
    names_b = [f"b{i}" for i in range(arity)]
    forward = qh.construct_qh(src, dst, names_a, names_b)
    backward = qh.construct_qh(dst, src, names_b, names_a)
    assert forward is not None and backward is not None
    seed_a = sd.initial_seed(src, names_a)
    seed_b = sd.initial_seed(dst, names_b)
    assert qh.verify_qh(forward, seed_a, seed_b)
    assert qh.verify_qh(backward, seed_b, seed_a)
    composite = qh.compose_maps(backward, forward)
    g = qh.proportional(composite, qh.identity_map(seed_a), src)
    assert g is not None


def test_input_checks_survive_optimize(run_optimized):
    # typed errors, not asserts that python -O would strip
    run_optimized(textwrap.dedent("""
        from clusterkit import quasihom as qh, seeds as sd
        a1 = sd.initial_seed([[0]], ["x1"])
        a2 = sd.initial_seed([[0, 1], [-1, 0]], ["y1", "y2"])
        m = qh.MonomialMap([[1], [0]], ["x1"], ["y1", "y2"], 1, 2)
        ident1, ident2 = qh.identity_map(a1), qh.identity_map(a2)
        calls = [
            (lambda: qh.verify_qh(m, a1, a2), qh.PrincipalMismatch),
            (lambda: qh.proportional(ident1, ident2, a1.btilde), qh.InvalidMap),
        ]
        for i, (call, error) in enumerate(calls):
            try:
                call()
            except error:
                continue
            raise SystemExit(f"call {i} raised no {error.__name__}")
    """))


def test_gradings_refuse_field_assignment():
    grading = qh.Grading(((1, 0, -1),))
    with pytest.raises(AttributeError):
        grading.rows = ()
