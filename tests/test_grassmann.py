"""Generic-matrix minors, band minors, and the flat-to-band fixtures."""

import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import clusterkit.grassmann as gr
import clusterkit.laurent as lp
import clusterkit.quasihom as qh

CTX25 = gr.make_context(2, 5)
CTX26 = gr.make_context(2, 6)
CTX36 = gr.make_context(3, 6)

GR_NAMES_25 = ["D235", "D245", "D123", "D234", "D345", "D145", "D125"]
BAND_NAMES_25 = ["Y1223", "Y12", "Y11", "Y22", "Y33", "Y13", "Y24", "Y35", "Y123234"]

GR_BTILDE_25 = [
    [0, 1],
    [-1, 0],
    [-1, 0],
    [1, 0],
    [0, -1],
    [0, 1],
    [1, -1],
]

BAND_BTILDE_25 = [
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

FSTAR_MATRIX_25 = [
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

GSTAR_MATRIX_25 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 1],
]

# Single-entry band generators by (rows, cols), reused across relation data.
Y12 = ((1,), (2,))
Y23 = ((2,), (3,))
Y34 = ((3,), (4,))
Y11 = ((1,), (1,))
Y22 = ((2,), (2,))
Y33 = ((3,), (3,))
Y13 = ((1,), (3,))
Y24 = ((2,), (4,))
Y35 = ((3,), (5,))
Y1223 = ((1, 2), (2, 3))
Y2334 = ((2, 3), (3, 4))
Y123234 = ((1, 2, 3), (2, 3, 4))

# Image of every quintic coordinate as a product of band generators.
FSTAR_IMAGES_25 = {
    (1, 2, 3): [Y11, Y22, Y33],
    (2, 3, 4): [Y123234],
    (3, 4, 5): [Y13, Y24, Y35],
    (1, 4, 5): [Y11, Y24, Y35],
    (1, 2, 5): [Y11, Y22, Y35],
    (2, 3, 5): [Y35, Y1223],
    (2, 4, 5): [Y24, Y35, Y12],
    (1, 3, 5): [Y11, Y35, Y23],
    (1, 3, 4): [Y11, Y2334],
    (1, 2, 4): [Y11, Y22, Y34],
}

# Three-term relations among quintic minors: l1*l2 == a1*a2 + b1*b2.
SHORT_RELATIONS_25 = [
    ((2, 4, 5), (1, 3, 5), (1, 4, 5), (2, 3, 5), (1, 2, 5), (3, 4, 5)),
    ((2, 3, 5), (1, 3, 4), (2, 3, 4), (1, 3, 5), (1, 2, 3), (3, 4, 5)),
    ((1, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 2, 3), (1, 4, 5)),
    ((1, 3, 4), (2, 4, 5), (1, 2, 4), (3, 4, 5), (1, 4, 5), (2, 3, 4)),
    ((1, 2, 4), (2, 3, 5), (1, 2, 3), (2, 4, 5), (1, 2, 5), (2, 3, 4)),
]

# Their band-side counterparts: prod(left) == prod(plus) + prod(times).
BAND_RELATIONS_25 = [
    ([Y12, Y23], [Y1223], [Y22, Y13]),
    ([Y1223, Y2334], [Y123234, Y23], [Y22, Y33, Y13, Y24]),
    ([Y23, Y34], [Y2334], [Y33, Y24]),
    ([Y2334, Y12], [Y22, Y13, Y34], [Y123234]),
    ([Y34, Y1223], [Y33, Y24, Y12], [Y123234]),
]

# Common frozen cofactor of each relation image, matched by position.
IMAGE_COFACTORS_25 = [
    [Y11, Y35, Y35, Y24],
    [Y11, Y35],
    [Y11, Y11, Y22, Y35],
    [Y11, Y24, Y35],
    [Y11, Y22, Y35],
]

# Reverse substitution on single band entries: (i, j) -> minor columns.
G_ENTRIES_25 = {
    (1, 1): (1, 4, 5),
    (1, 2): (2, 4, 5),
    (1, 3): (3, 4, 5),
    (2, 2): (1, 2, 5),
    (2, 3): (1, 3, 5),
    (2, 4): (1, 4, 5),
    (3, 3): (1, 2, 3),
    (3, 4): (1, 2, 4),
    (3, 5): (1, 2, 5),
}

G_MINORS_25 = {
    Y1223: [(2, 3, 5), (1, 4, 5)],
    Y2334: [(1, 2, 5), (1, 3, 4)],
    Y123234: [(2, 3, 4), (1, 4, 5), (1, 2, 5)],
}

CONTENTS_25 = {
    (1, 3, 4): {"Y11": 1},
    (1, 3, 5): {"Y11": 1, "Y35": 1},
    (1, 2, 4): {"Y11": 1, "Y22": 1},
    (2, 4, 5): {"Y24": 1, "Y35": 1},
    (2, 3, 5): {"Y35": 1},
}

RECT_QUOTIENTS_26 = {
    "D1235": (1, 2, 4, 6),
    "D1245": (1, 3, 5, 6),
    "D1345": (2, 4, 5, 6),
}

RECT_QUOTIENTS_36 = {
    "D124": (1, 3, 5),
    "D125": (1, 4, 6),
    "D134": (2, 4, 5),
}


def band_product(ctx, specs):
    out = lp.constant(1, gr.y_arity(ctx))
    for rows_i, cols_j in specs:
        out = lp.mul(out, gr.band_minor(ctx, rows_i, cols_j))
    return out


def plucker_product(ctx, sets):
    out = lp.constant(1, gr.x_arity(ctx))
    for cols in sets:
        out = lp.mul(out, gr.plucker(ctx, cols))
    return out


def reverse_images(ctx):
    # y variables in storage order, each replaced by its minor image
    return [
        gr.g_star(ctx, i, i + d)
        for i in range(1, ctx.rows + 1)
        for d in range(ctx.k + 1)
    ]


def frozen_run(ctx):
    return plucker_product(
        ctx,
        [
            tuple(range(i + ctx.k + 1, ctx.n + i + 1))
            for i in range(1, ctx.rows)
        ],
    )


def exchange_sides(ctx, seed, values, col):
    pos = lp.constant(1, gr.x_arity(ctx))
    neg = lp.constant(1, gr.x_arity(ctx))
    for row, name in enumerate(seed.var_names):
        e = seed.btilde[row][col]
        if e > 0:
            pos = lp.mul(pos, lp.power(values[name], e))
        elif e < 0:
            neg = lp.mul(neg, lp.power(values[name], -e))
    return pos, neg


def seed_plucker_values(ctx, seed):
    return {
        name: gr.plucker(ctx, tuple(int(d) for d in name[1:]))
        for name in seed.var_names
    }


def test_context_validation():
    with pytest.raises(gr.InvalidIndex):
        gr.make_context(0, 5)
    with pytest.raises(gr.InvalidIndex):
        gr.make_context(5, 5)
    with pytest.raises(gr.InvalidIndex):
        gr.make_context(6, 5)


def test_context_dimensions():
    assert CTX25.rows == 3
    assert CTX36.rows == 3
    assert gr.x_arity(CTX26) == 24
    assert gr.y_arity(CTX26) == 12


def test_band_matrix_support():
    band = gr.band_matrix(CTX25)
    for i in range(1, 4):
        for j in range(1, 6):
            inside = i <= j <= i + 2
            assert lp.is_zero(band[i - 1][j - 1]) != inside


def test_reduce_index_length_error():
    with pytest.raises(gr.InvalidIndex):
        gr.reduce_plucker_index(CTX25, (1, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.reduce_plucker_index(CTX25, (1, 2, 3, 4))


def test_reduce_index_wrap_and_parity():
    assert gr.reduce_plucker_index(CTX25, (1, 2, 3)) == (1, (1, 2, 3))
    assert gr.reduce_plucker_index(CTX25, (2, 1, 3)) == (-1, (1, 2, 3))
    # shifting by the column period leaves the coordinate unchanged
    assert gr.reduce_plucker_index(CTX25, (6, 2, 3)) == (1, (1, 2, 3))
    assert gr.reduce_plucker_index(CTX25, (7, 5, 21)) == (1, (1, 2, 5))


def test_reduce_index_repeats_vanish():
    assert gr.reduce_plucker_index(CTX25, (1, 1, 2)) == (0, ())
    assert gr.reduce_plucker_index(CTX25, (1, 6, 3)) == (0, ())
    assert gr.plucker(CTX25, (1, 6, 3)) == {}
    assert gr.f_star(CTX25, (1, 6, 3)) == {}


def test_plucker_term_count_and_antisymmetry():
    full = gr.plucker(CTX25, (1, 2, 3))
    assert len(full) == 6
    assert all(abs(c) == 1 for c in full.values())
    assert lp.equal(gr.plucker(CTX25, (2, 1, 3)), lp.neg(full))


@settings(max_examples=40, derandomize=True)
@given(
    st.permutations([1, 3, 4]),
    st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
)
def test_plucker_sign_parity(perm, shifts):
    raw = [c + 5 * s for c, s in zip(perm, shifts)]
    sign, cols = gr.reduce_plucker_index(CTX25, raw)
    assert cols == (1, 3, 4)
    inversions = sum(
        1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
    )
    assert sign == (-1 if inversions % 2 else 1)
    assert lp.equal(
        gr.plucker(CTX25, raw), lp.scale(gr.plucker(CTX25, (1, 3, 4)), sign)
    )


def test_poly_det_edge_cases():
    assert gr.poly_det([], 3) == lp.constant(1, 3)
    two = [
        [lp.constant(2, 1), lp.constant(3, 1)],
        [lp.constant(5, 1), lp.constant(7, 1)],
    ]
    assert gr.poly_det(two, 1) == lp.constant(-1, 1)
    x = lp.variable(0, 1)
    assert gr.poly_det([[x, x], [x, x]], 1) == {}
    # Laurent entries pack into signed lanes
    inv = lp.monomial((-1,))
    laurent = [[inv, lp.constant(2, 1)], [lp.constant(1, 1), x]]
    assert gr.poly_det(laurent, 1) == lp.constant(-1, 1)


def test_band_minor_literal_expansion():
    # det [[y12, y13], [y22, y23]] in the nine-variable quintic band ring
    y = lambda i, j: lp.variable((i - 1) * 3 + (j - i), 9)
    want = lp.sub(lp.mul(y(1, 2), y(2, 3)), lp.mul(y(1, 3), y(2, 2)))
    assert lp.equal(gr.band_minor(CTX25, (1, 2), (2, 3)), want)


def test_band_minor_blocks_split():
    # column 1 pins row 1, so the minor degenerates to a product
    left = gr.band_minor(CTX25, (1, 2), (1, 3))
    want = lp.mul(gr.band_minor(CTX25, (1,), (1,)), gr.band_minor(CTX25, (2,), (3,)))
    assert lp.equal(left, want)


def test_band_minor_validation():
    with pytest.raises(gr.InvalidIndex):
        gr.band_minor(CTX25, (1, 2), (1,))
    with pytest.raises(gr.InvalidIndex):
        gr.band_minor(CTX25, (1, 1), (2, 3))
    with pytest.raises(gr.InvalidIndex):
        gr.band_minor(CTX25, (0, 1), (1, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.band_minor(CTX25, (1, 2), (2, 6))


def test_row_solid_support_criterion():
    assert gr.row_solid_nonzero(CTX25, 1, (1, 3))
    assert gr.row_solid_nonzero(CTX25, 2, (3, 4))
    assert not gr.row_solid_nonzero(CTX25, 1, (4, 5))
    assert not gr.row_solid_nonzero(CTX25, 3, (1,))
    with pytest.raises(gr.InvalidIndex):
        gr.row_solid_nonzero(CTX25, 0, (1,))
    with pytest.raises(gr.InvalidIndex):
        gr.row_solid_nonzero(CTX25, 1, (2, 2))


def test_row_solid_irreducibility_criterion():
    assert gr.row_solid_irreducible(CTX25, 1, (2, 3))
    assert gr.row_solid_irreducible(CTX25, 2, (3, 4))
    assert gr.row_solid_irreducible(CTX25, 1, (2, 3, 4))
    # a column at its row start splits off a 1x1 block
    assert not gr.row_solid_irreducible(CTX25, 1, (1, 3))
    # a column past the previous row's band end splits the other way
    assert not gr.row_solid_irreducible(CTX25, 1, (2, 4))
    assert not gr.row_solid_irreducible(CTX25, 1, (4, 5))


def test_irreducible_minor_counts():
    for ctx, count in ((CTX25, 5), (CTX26, 9), (CTX36, 14)):
        catalog = gr.non_frozen_irreducible_minors(ctx)
        assert len(catalog) == count
        assert len(set(catalog)) == count
        total = len(list(combinations(range(1, ctx.n + 1), ctx.rows)))
        assert count == total - ctx.n


def test_frozen_interval_catalog():
    assert gr.plucker_frozen_sets(CTX25) == [
        (1, 2, 3),
        (2, 3, 4),
        (3, 4, 5),
        (1, 4, 5),
        (1, 2, 5),
    ]
    assert gr.is_frozen_plucker(CTX25, (5, 4, 1))
    assert not gr.is_frozen_plucker(CTX25, (1, 3, 5))
    assert [name for name, _, _ in gr.band_frozen_specs(CTX25)] == [
        "Y11",
        "Y22",
        "Y33",
        "Y13",
        "Y24",
        "Y35",
        "Y123234",
    ]
    assert len(gr.band_frozen_specs(CTX26)) == 9
    assert len(gr.band_frozen_specs(CTX36)) == 8


def test_image_of_every_quintic_coordinate():
    for cols, specs in FSTAR_IMAGES_25.items():
        assert lp.equal(gr.f_star(CTX25, cols), band_product(CTX25, specs))


def test_factorization_contents():
    for cols, want in CONTENTS_25.items():
        content, i_set, j_set = gr.factor_fstar(CTX25, cols)
        assert content == want
        assert gr.row_solid_irreducible(CTX25, i_set[0], j_set)


def test_factorization_errors():
    with pytest.raises(gr.NoFactorization):
        gr.factor_fstar(CTX25, (1, 2, 3))
    with pytest.raises(gr.InvalidIndex):
        gr.factor_fstar(CTX25, (1, 1, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.content_exponents(CTX25, (2, 7, 3))


def test_factorization_round_trip():
    for ctx in (CTX25, CTX26, CTX36):
        frozen = set(gr.plucker_frozen_sets(ctx))
        for cols in combinations(range(1, ctx.n + 1), ctx.rows):
            if cols in frozen:
                continue
            content, i_set, j_set = gr.factor_fstar(ctx, cols)
            named = {name: (i, j) for name, i, j in gr.band_frozen_specs(ctx)}
            rebuilt = gr.band_minor(ctx, i_set, j_set)
            for name, e in content.items():
                rebuilt = lp.mul(rebuilt, lp.power(band_product(ctx, [named[name]]), e))
            assert lp.equal(rebuilt, gr.f_star(ctx, cols))


def test_factorization_bijection():
    # distinct coordinates land on distinct minors, covering the catalog
    for ctx in (CTX25, CTX26, CTX36):
        frozen = set(gr.plucker_frozen_sets(ctx))
        images = {
            gr.factor_fstar(ctx, cols)[1:]
            for cols in combinations(range(1, ctx.n + 1), ctx.rows)
            if cols not in frozen
        }
        assert images == set(gr.non_frozen_irreducible_minors(ctx))


def test_content_closed_form():
    # diagonal exponents read off containment of an initial or final run
    for ctx in (CTX25, CTX26, CTX36):
        m, k, n = ctx.rows, ctx.k, ctx.n
        for cols in combinations(range(1, n + 1), m):
            want = {}
            chosen = set(cols)
            for a in range(1, m + 1):
                if set(range(1, a + 1)) <= chosen:
                    want[gr.band_name((a,), (a,))] = 1
                if set(range(a + k, n + 1)) <= chosen:
                    want[gr.band_name((a,), (a + k,))] = 1
            for t in range(1, k):
                window = tuple(range(t + 1, m + t + 1))
                if cols == window:
                    want[gr.band_name(tuple(range(1, m + 1)), window)] = 1
            assert gr.content_exponents(ctx, cols) == want


def test_short_relations_among_quintic_minors():
    for l1, l2, a1, a2, b1, b2 in SHORT_RELATIONS_25:
        left = plucker_product(CTX25, [l1, l2])
        right = lp.add(
            plucker_product(CTX25, [a1, a2]), plucker_product(CTX25, [b1, b2])
        )
        assert lp.equal(left, right)
    # transposing indices across terms must break the identity
    wrong = lp.add(
        plucker_product(CTX25, [(3, 4, 5), (1, 2, 4)]),
        plucker_product(CTX25, [(1, 2, 3), (3, 4, 5)]),
    )
    assert not lp.equal(plucker_product(CTX25, [(1, 3, 4), (2, 4, 5)]), wrong)


def test_band_exchange_relations():
    for left, plus, times in BAND_RELATIONS_25:
        got = band_product(CTX25, left)
        want = lp.add(band_product(CTX25, plus), band_product(CTX25, times))
        assert lp.equal(got, want)


def test_published_relation_tables():
    # module tables must agree with the locally pinned relation data
    assert gr.QUINTIC_MINOR_RELATIONS == tuple(SHORT_RELATIONS_25)
    assert gr.QUINTIC_BAND_RELATIONS == tuple(
        (tuple(left), tuple(first), tuple(second))
        for left, first, second in BAND_RELATIONS_25
    )
    assert gr.QUINTIC_IMAGE_COFACTORS == tuple(
        tuple(cofactor) for cofactor in IMAGE_COFACTORS_25
    )
    records = gr.quintic_relation_checks(CTX25)
    assert [r["kind"] for r in records] == ["minor"] * 5 + ["band"] * 5 + ["image"] * 5
    assert all(r["holds"] for r in records)
    # one record of each kind, keys in their printed order
    pinned = [
        {"kind": "minor", "index": 0, "left": ["D245", "D135"],
         "summands": [["D145", "D235"], ["D125", "D345"]], "holds": True},
        {"kind": "band", "index": 0, "left": ["Y12", "Y23"],
         "summands": [["Y1223"], ["Y22", "Y13"]], "holds": True},
        {"kind": "image", "index": 0, "left": ["D245", "D135"],
         "cofactor": ["Y11", "Y35", "Y35", "Y24"],
         "summands": [["Y1223"], ["Y22", "Y13"]], "holds": True},
    ]
    for record, want in zip(records[::5], pinned):
        assert list(record.items()) == list(want.items())
    with pytest.raises(gr.UnsupportedContext):
        gr.quintic_relation_checks(CTX26)


def test_band_images_of_short_relations():
    # each minor relation maps to a band relation times a frozen cofactor
    for (l1, l2, *_), (_, plus, times), cofactor in zip(
        SHORT_RELATIONS_25, BAND_RELATIONS_25, IMAGE_COFACTORS_25
    ):
        left = lp.mul(gr.f_star(CTX25, l1), gr.f_star(CTX25, l2))
        bracket = lp.add(band_product(CTX25, plus), band_product(CTX25, times))
        assert lp.equal(left, lp.mul(band_product(CTX25, cofactor), bracket))


def test_reverse_entries():
    for (i, j), cols in G_ENTRIES_25.items():
        assert lp.equal(gr.g_star(CTX25, i, j), gr.plucker(CTX25, cols))
    with pytest.raises(gr.InvalidIndex):
        gr.g_star(CTX25, 1, 5)
    with pytest.raises(gr.InvalidIndex):
        gr.g_star(CTX25, 2, 1)
    with pytest.raises(gr.InvalidIndex):
        gr.g_star(CTX25, 4, 4)


def test_reverse_minors():
    for (rows_i, cols_j), sets in G_MINORS_25.items():
        got = gr.g_star_minor(CTX25, rows_i, cols_j)
        assert lp.equal(got, plucker_product(CTX25, sets))
    with pytest.raises(gr.InvalidIndex):
        gr.g_star_minor(CTX25, (1, 2), (2,))
    # the packed lanes hold minors of at most ctx.rows distinct rows
    with pytest.raises(gr.InvalidIndex):
        gr.g_star_minor(CTX25, (1, 1), (1, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.g_star_minor(CTX25, (0, 1), (1, 2))


def test_substitution_ring_map():
    # composing the two substitutions multiplies by the fixed frozen run
    for ctx in (CTX25, CTX36):
        images = reverse_images(ctx)
        run = frozen_run(ctx)
        arity = gr.x_arity(ctx)
        for cols in combinations(range(1, ctx.n + 1), ctx.rows):
            composite = gr.substitute(gr.f_star(ctx, cols), images, arity)
            assert lp.equal(composite, lp.mul(run, gr.plucker(ctx, cols)))


@settings(max_examples=30, derandomize=True)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        st.integers(min_value=-3, max_value=3).filter(bool),
        min_size=1,
        max_size=3,
    ),
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        st.integers(min_value=-3, max_value=3).filter(bool),
        min_size=1,
        max_size=3,
    ),
)
def test_substitution_multiplicative(f, g):
    images = [lp.add(lp.variable(0, 1), lp.constant(1, 1)), lp.variable(0, 1)]
    left = gr.substitute(lp.mul(f, g), images, 1)
    right = lp.mul(gr.substitute(f, images, 1), gr.substitute(g, images, 1))
    assert lp.equal(left, right)


def test_substitution_rejects_negative_exponents():
    with pytest.raises(gr.InvalidIndex):
        gr.substitute({(-1, 0): 1}, [lp.variable(0, 1), lp.variable(0, 1)], 1)


def test_flattened_identity_examples():
    assert gr.flattoband_check(CTX25, 1, 2, (2, 3))
    assert gr.flattoband_check(CTX26, 2, 2, (3, 5))
    assert gr.flattoband_check(CTX36, 1, 3, (2, 3, 4))


def test_flattened_identity_validation():
    with pytest.raises(gr.InvalidIndex):
        gr.flattoband_check(CTX25, 0, 2, (1, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.flattoband_check(CTX25, 2, 3, (2, 3, 4))
    with pytest.raises(gr.InvalidIndex):
        gr.flattoband_check(CTX25, 1, 2, (2,))
    with pytest.raises(gr.InvalidIndex):
        gr.flattoband_check(CTX25, 1, 2, (2, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.flattoband_check(CTX25, 1, 2, (4, 5))


def test_flattened_case_enumeration():
    for ctx, count in ((CTX25, 31), (CTX26, 65), (CTX36, 52)):
        cases = gr.flattoband_cases(ctx)
        assert len(cases) == count
        assert len(set(cases)) == count
        # every enumerated column set meets the row-solid support condition
        assert all(gr.row_solid_nonzero(ctx, a, j) for a, _, j in cases)


def test_flattened_identity_exhaustive():
    for ctx in (CTX25, CTX26, CTX36):
        for a, s, j_set in gr.flattoband_cases(ctx):
            assert gr.flattoband_check(ctx, a, s, j_set)


def test_tropical_relation_example():
    assert gr.tropical_c_check(CTX25, (5,), 1, 2, 3, 4)


def test_tropical_relation_validation():
    with pytest.raises(gr.InvalidIndex):
        gr.tropical_c_check(CTX25, (5,), 2, 1, 3, 4)
    with pytest.raises(gr.InvalidIndex):
        gr.tropical_c_check(CTX25, (1,), 1, 2, 3, 4)
    with pytest.raises(gr.InvalidIndex):
        gr.tropical_c_check(CTX25, (6,), 1, 2, 3, 4)


def test_tropical_relation_exhaustive():
    for ctx, count in ((CTX25, 5), (CTX26, 15), (CTX36, 30)):
        cases = gr.tropical_cases(ctx)
        assert len(cases) == count
        for base, (i, j, k2, l) in cases:
            assert gr.tropical_c_check(ctx, base, i, j, k2, l)


def test_tropical_minimum_not_maximum():
    # replacing min by max already fails on the smallest instance
    names = [name for name, _, _ in gr.band_frozen_specs(CTX25)]

    def vec(pair):
        exps = gr.content_exponents(CTX25, (5,) + pair)
        return [exps.get(name, 0) for name in names]

    lhs = [x + y for x, y in zip(vec((1, 3)), vec((2, 4)))]
    one = [x + y for x, y in zip(vec((1, 2)), vec((3, 4)))]
    two = [x + y for x, y in zip(vec((2, 3)), vec((1, 4)))]
    assert lhs == [min(x, y) for x, y in zip(one, two)]
    assert lhs != [max(x, y) for x, y in zip(one, two)]


def test_rectangle_seed_layout():
    seed = gr.rectangle_seed(CTX26)
    assert seed.var_names[: seed.n] == ["D1235", "D1245", "D1345"]
    assert seed.var_names[seed.n :] == [
        "D1234",
        "D2345",
        "D3456",
        "D1456",
        "D1256",
        "D1236",
    ]
    principal = [row[: seed.n] for row in seed.btilde[: seed.n]]
    assert all(
        principal[i][j] == -principal[j][i]
        for i in range(seed.n)
        for j in range(seed.n)
    )
    assert gr.rectangle_seed(CTX36).var_names[:4] == ["D124", "D125", "D134", "D145"]


def test_rectangle_seed_guards():
    with pytest.raises(gr.UnsupportedContext):
        gr.rectangle_seed(gr.make_context(1, 4))
    with pytest.raises(gr.UnsupportedContext):
        gr.rectangle_seed(gr.make_context(3, 4))
    # no cap on n: ten columns get separated names
    seed = gr.rectangle_seed(gr.make_context(2, 10))
    assert seed.var_names[0] == "D12345679"
    assert seed.var_names[-1] == "D1_2_3_4_5_6_7_10"


def test_names_stay_distinct_past_nine_columns():
    for k in (2, 3):
        ctx = gr.make_context(k, 10)
        names = gr.rectangle_seed(ctx).var_names
        assert len(set(names)) == len(names)
        assert any("_10" in name for name in names)
        pairs = set(gr.irreducible_minors(ctx))
        pairs |= {(i, j) for _, i, j in gr.band_frozen_specs(ctx)}
        assert len({gr.band_name(i, j) for i, j in pairs}) == len(pairs)
        band = gr.build_fixture(ctx).band_seed.var_names
        assert len(set(band)) == len(band)
    # single-digit indices keep the names they always had
    for cols in combinations(range(1, 10), 4):
        assert gr.plucker_name(cols) == "D" + "".join(map(str, cols))
    for _, i_set, j_set in gr.band_frozen_specs(gr.make_context(3, 9)):
        assert gr.band_name(i_set, j_set) == "Y" + "".join(map(str, i_set + j_set))
    assert gr.plucker_name((10, 2, 1)) == "D1_2_10"
    assert gr.band_name((1, 2), (9, 10)) == "Y1_2_9_10"


def test_rectangle_exchange_smallest_case():
    ctx = gr.make_context(2, 4)
    seed = gr.rectangle_seed(ctx)
    assert seed.var_names == ["D13", "D12", "D23", "D34", "D14"]
    values = seed_plucker_values(ctx, seed)
    pos, neg = exchange_sides(ctx, seed, values, 0)
    quotient = lp.exact_div(lp.add(pos, neg), values["D13"])
    assert lp.equal(quotient, gr.plucker(ctx, (2, 4)))


def test_rectangle_exchange_quotients():
    for ctx, wanted in ((CTX26, RECT_QUOTIENTS_26), (CTX36, RECT_QUOTIENTS_36)):
        seed = gr.rectangle_seed(ctx)
        values = seed_plucker_values(ctx, seed)
        for name, cols in wanted.items():
            col = seed.var_names.index(name)
            pos, neg = exchange_sides(ctx, seed, values, col)
            quotient = lp.exact_div(lp.add(pos, neg), values[name])
            assert lp.equal(quotient, gr.plucker(ctx, cols))


def test_rectangle_exchange_leaves_minors():
    # the inner corner of the 3x6 grid exchanges into a degree-six
    # polynomial that is divisible but not itself a maximal minor
    seed = gr.rectangle_seed(CTX36)
    values = seed_plucker_values(CTX36, seed)
    col = seed.var_names.index("D145")
    pos, neg = exchange_sides(CTX36, seed, values, col)
    quotient = lp.exact_div(lp.add(pos, neg), values["D145"])
    assert len(quotient) == 48
    assert {sum(e) for e in quotient} == {6}
    assert not any(
        lp.equal(quotient, gr.plucker(CTX36, cols))
        for cols in combinations(range(1, 7), 3)
    )


def test_fixture_pinned_base():
    fx = gr.build_fixture(CTX25)
    assert fx.gr_seed.var_names == GR_NAMES_25
    assert fx.gr_seed.btilde == GR_BTILDE_25
    assert fx.band_seed.var_names == BAND_NAMES_25
    assert fx.band_seed.btilde == BAND_BTILDE_25
    assert fx.fstar_map.matrix == FSTAR_MATRIX_25
    assert fx.gstar_map is not None
    assert fx.gstar_map.matrix == GSTAR_MATRIX_25
    assert fx.gr_sets == [
        (2, 3, 5),
        (2, 4, 5),
        (1, 2, 3),
        (2, 3, 4),
        (3, 4, 5),
        (1, 4, 5),
        (1, 2, 5),
    ]


def test_fixture_maps_verify():
    for ctx in (CTX25, CTX26, CTX36):
        fx = gr.build_fixture(ctx)
        assert qh.verify_qh(fx.fstar_map, fx.gr_seed, fx.band_seed)
    fx = gr.build_fixture(CTX25)
    assert qh.verify_qh(fx.gstar_map, fx.band_seed, fx.gr_seed)
    assert qh.quasi_inverse_check(fx.fstar_map, fx.gstar_map, fx.gr_seed)
    composite = qh.compose_maps(fx.gstar_map, fx.fstar_map)
    want = [[1 if r == c else 0 for c in range(7)] for r in range(7)]
    for r in (5, 6):
        for c in range(7):
            want[r][c] += 1
    assert composite.matrix == want
    grading = qh.proportional(
        composite, qh.identity_map(fx.gr_seed), fx.gr_seed.btilde
    )
    assert grading is not None


def test_fixture_value_tables():
    fx = gr.build_fixture(CTX25)
    for name, cols in zip(fx.gr_seed.var_names, fx.gr_sets):
        assert lp.equal(fx.gr_values[name], gr.plucker(CTX25, cols))
    for name, i_set, j_set in fx.band_specs:
        assert lp.equal(fx.band_values[name], gr.band_minor(CTX25, i_set, j_set))
    # each matrix column states the band factorization of one coordinate
    for col, cols in enumerate(fx.gr_sets):
        image = lp.constant(1, gr.y_arity(CTX25))
        for row, name in enumerate(fx.band_seed.var_names):
            e = fx.fstar_map.matrix[row][col]
            if e:
                image = lp.mul(image, lp.power(fx.band_values[name], e))
        assert lp.equal(image, gr.f_star(CTX25, cols))
    # reverse columns state the minor image of one band generator
    for col, (name, i_set, j_set) in enumerate(fx.band_specs):
        image = lp.constant(1, gr.x_arity(CTX25))
        for row, gname in enumerate(fx.gr_seed.var_names):
            e = fx.gstar_map.matrix[row][col]
            if e:
                image = lp.mul(image, lp.power(fx.gr_values[gname], e))
        assert lp.equal(image, gr.g_star_minor(CTX25, i_set, j_set))


def test_fixture_unsupported():
    with pytest.raises(gr.UnsupportedContext):
        gr.build_fixture(gr.make_context(1, 4))
    with pytest.raises(gr.UnsupportedContext):
        gr.build_fixture(gr.make_context(4, 5))
    # sizes beyond the pinned three build from the rectangle cluster
    for k, n in ((2, 7), (4, 8)):
        fx = gr.build_fixture(gr.make_context(k, n))
        assert fx.gstar_map is None
        assert fx.gr_seed.var_names == gr.rectangle_seed(fx.ctx).var_names
    assert gr.build_fixture(CTX26).gstar_map is None
    assert gr.build_fixture(CTX36).gstar_map is None


def test_fixture_every_size():
    for n in range(4, 9):
        for k in range(2, n - 1):
            fx = gr.build_fixture(gr.make_context(k, n))
            if (k, n) != (2, 5):
                assert fx.gr_seed.btilde == gr.rectangle_seed(fx.ctx).btilde
            assert qh.verify_qh(fx.fstar_map, fx.gr_seed, fx.band_seed)


def test_pinned_base_is_the_turned_rectangle():
    # turning every rectangle column c to c + 1 mod 5 gives the (2,5) base
    sets, btilde = gr._rectangle_layout(CTX25, 1)
    assert sets == [(2, 3, 5), (2, 4, 5)]
    assert btilde == GR_BTILDE_25
    assert gr._rectangle_layout(CTX25, 0)[1] == gr.rectangle_seed(CTX25).btilde


def flattoband_verdict(ctx, a, s, j_set, chart, shift=0):
    # the flat-to-band identity with its completed run shifted by `shift`
    # columns: any shift keeps both sides products of s Plücker coordinates
    lhs = gr._g_minor_fast(ctx, tuple(range(a, a + s)), j_set, chart)
    rhs = gr._run_product_fast(ctx, a, s, chart)
    run = tuple(range(a + ctx.k + s + shift, ctx.n + a + shift))
    return lhs == lp.mul_packed(rhs, gr._plucker_fast(ctx, run + j_set, chart))


def chart_rejections(ctx, cases):
    # the chart and the generic matrix agree on every case and every shift;
    # returns how many shifted identities both reject
    rejected = 0
    for a, s, j_set in cases:
        assert flattoband_verdict(ctx, a, s, j_set, False)
        assert gr.flattoband_check(ctx, a, s, j_set)
        for shift in (-1, 1):
            generic = flattoband_verdict(ctx, a, s, j_set, False, shift)
            assert flattoband_verdict(ctx, a, s, j_set, True, shift) == generic
            rejected += not generic
    return rejected


def test_chart_agrees_with_generic_matrix():
    # true identities hold on any specialization; only the false ones show
    # that the chart keeps their verdict
    assert sum(chart_rejections(ctx, gr.flattoband_cases(ctx)) for ctx in (CTX25, CTX36)) == 106
    # a seeded (2,7) sample; on its 5x7 generic matrix one case of three
    # rows already takes seconds, so the sample is drawn from one and two
    ctx = gr.make_context(2, 7)
    cases = [case for case in gr.flattoband_cases(ctx) if case[1] <= 2]
    sample = random.Random(27).sample(cases, 20)
    assert chart_rejections(ctx, sample) == 2 * len(sample)


def test_composite_identity_in_chart():
    for ctx, count in ((CTX25, 10), (CTX36, 20), (CTX26, 15)):
        results = gr.composite_identity(ctx)
        assert [cols for cols, _ in results] == list(
            combinations(range(1, ctx.n + 1), ctx.rows)
        )
        assert len(results) == count and all(holds for _, holds in results)


def test_composite_identity_rectangle_4_9():
    results = gr.composite_identity(gr.make_context(4, 9))
    assert len(results) == 126 and all(holds for _, holds in results)


def test_caches_hand_out_fresh_values():
    minor = gr.band_minor(CTX26, (1, 2), (2, 3))
    expected = dict(minor)
    minor.clear()
    assert gr.band_minor(CTX26, (1, 2), (2, 3)) == expected
    content, i_set, j_set = gr.factor_fstar(CTX26, (1, 3, 4, 6))
    expected = dict(content)
    content["Y11"] = 99
    assert gr.factor_fstar(CTX26, (1, 3, 4, 6)) == (expected, i_set, j_set)
    frozen = gr.content_exponents(CTX26, (1, 2, 3, 4))
    expected = dict(frozen)
    frozen.clear()
    assert gr.content_exponents(CTX26, (1, 2, 3, 4)) == expected
    catalog = gr.non_frozen_irreducible_minors(CTX26)
    expected = list(catalog)
    catalog.clear()
    assert gr.non_frozen_irreducible_minors(CTX26) == expected
    frozen_sets = gr.plucker_frozen_sets(CTX26)
    frozen_sets.clear()
    assert gr.is_frozen_plucker(CTX26, (1, 2, 3, 4))
    assert len(gr.plucker_frozen_sets(CTX26)) == 6
    band = gr.band_matrix(CTX26)
    band[0][0].clear()
    band[1].clear()
    assert gr.band_matrix(CTX26)[0][0] == lp.variable(0, gr.y_arity(CTX26))
    assert len(gr.band_matrix(CTX26)[1]) == CTX26.n


def test_band_minors_build_the_band_matrix_once(monkeypatch):
    for cache in (gr._band_entries, gr._band_minor):
        cache.cache_clear()
    made, copies = [], []
    variable, band_matrix = lp.variable, gr.band_matrix
    monkeypatch.setattr(lp, "variable", lambda i, arity: made.append(i) or variable(i, arity))
    monkeypatch.setattr(gr, "band_matrix", lambda ctx: copies.append(ctx) or band_matrix(ctx))
    for i_set, j_set in gr.irreducible_minors(CTX36):
        gr.band_minor(CTX36, i_set, j_set)
    assert sorted(made) == list(range(gr.y_arity(CTX36)))
    assert copies == []


def test_factoring_divides_only_by_window_minors(monkeypatch):
    # from cold caches: one-variable generators leave by a shift, the minor
    # is named from one exponent, and the catalog is enumerated once
    for cache in (gr._catalogs, gr._split_image, gr._band_minor):
        cache.cache_clear()
    divisors, enumerations = [], []
    exact_div, irreducible = lp.exact_div, gr.irreducible_minors
    monkeypatch.setattr(lp, "exact_div", lambda f, g: divisors.append(g) or exact_div(f, g))
    monkeypatch.setattr(
        gr, "irreducible_minors", lambda ctx: enumerations.append(ctx) or irreducible(ctx)
    )
    for cols in combinations(range(1, CTX36.n + 1), CTX36.rows):
        gr.content_exponents(CTX36, cols)
    gr.non_frozen_irreducible_minors(CTX36)
    windows = [
        gr.band_minor(CTX36, i_set, j_set)
        for _, i_set, j_set in gr.band_frozen_specs(CTX36)
        if len(i_set) > 1
    ]
    assert all(len(w) > 1 for w in windows)
    assert divisors and all(g in windows for g in divisors)
    assert enumerations == [CTX36]


def test_name_minor_edge_cases():
    one = lp.constant(1, gr.y_arity(CTX36))
    # a frozen coordinate leaves remainder 1, which names no minor
    content, remainder, minor = gr._split_image(CTX36, (1, 2, 3))
    assert content == {"Y11": 1, "Y22": 1, "Y33": 1} and remainder == one
    assert minor is None and gr._name_minor(CTX36, one) is None
    # the zero polynomial has no exponent to read
    assert gr._name_minor(CTX36, {}) is None
    # a frozen generator is not in the non-frozen catalog
    assert gr._name_minor(CTX36, gr.band_minor(CTX36, (1,), (1,))) is None
    # a product of entries names a catalog candidate but is not equal to it
    product = lp.mul(gr.band_minor(CTX36, (1,), (2,)), gr.band_minor(CTX36, (2,), (3,)))
    assert gr._name_minor(CTX36, product) is None
    for pair in gr.non_frozen_irreducible_minors(CTX36):
        minor = gr.band_minor(CTX36, *pair)
        # whichever term comes first names the minor
        for exp in minor:
            assert gr._name_minor(CTX36, {exp: minor[exp], **minor}) == pair
        assert gr._name_minor(CTX36, lp.scale(minor, 2)) is None
        assert gr._name_minor(CTX36, lp.add(minor, one)) is None
