"""Generic-matrix minors, band minors, and the flat-to-band fixtures."""

import gc
import random
import tracemalloc
from functools import lru_cache, reduce
from itertools import combinations

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

import clusterkit.grassmann as gr
import clusterkit.laurent as lp
import clusterkit.quasihom as qh
import clusterkit.seeds as sd
from point_oracle import P61, det_mod, value_at

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


def rectangle_seed(ctx):
    # the rectangle cluster unturned, with the generator order build_fixture uses
    sets, btilde = gr._rectangle_layout(ctx, 0)
    names = [gr.plucker_name(cols) for cols in sets + gr.plucker_frozen_sets(ctx)]
    return sd.initial_seed(btilde, names)


def g_star_minor(ctx, i_set, j_set, chart=False):
    # the packed minor of the g_star entries, expanded on its own: the
    # reference for the flat-to-band verdicts and the chart
    return gr._fast_det([[gr._g_entry_fast(ctx, i, j, chart) for j in j_set] for i in i_set])


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
    for i in range(1, 4):
        for j in range(1, 6):
            inside = i <= j <= i + 2
            assert (gr.band_minor(CTX25, (i,), (j,)) == {}) != inside


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


def _index_cases(ctx):
    # increasing indices around [1, n], where the shortcut's bounds lie, and
    # any indices, with repeats and far out of range
    increasing = st.lists(st.integers(0, ctx.n + 1), min_size=ctx.rows, max_size=ctx.rows,
                          unique=True).map(sorted)
    anything = st.lists(st.integers(-2 * ctx.n, 3 * ctx.n), min_size=ctx.rows,
                        max_size=ctx.rows)
    return st.tuples(st.just(ctx), st.one_of(increasing, anything).map(tuple))


@settings(max_examples=300)
@given(st.sampled_from([CTX25, CTX26, CTX36, gr.make_context(3, 7)]).flatmap(_index_cases))
def test_reduce_index_matches_brute_force(case):
    ctx, raw = case
    residues = [(s - 1) % ctx.n + 1 for s in raw]
    if len(set(residues)) < len(residues):
        expected = (0, ())
    else:
        inversions = sum(residues[a] > residues[b]
                         for a, b in combinations(range(len(residues)), 2))
        expected = ((-1) ** inversions, tuple(sorted(residues)))
    assert gr.reduce_plucker_index(ctx, raw) == expected


def test_plucker_term_count_and_antisymmetry():
    full = gr.plucker(CTX25, (1, 2, 3))
    assert len(full) == 6
    assert all(abs(c) == 1 for c in full.values())
    assert lp.equal(gr.plucker(CTX25, (2, 1, 3)), lp.scale(full, -1))


@settings(max_examples=40)
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


def test_fast_det_edge_cases():
    # packed entries: key 0 is the constant monomial
    assert gr._fast_det([]) == {0: 1}
    assert gr._fast_det([[{0: 2}, {0: 3}], [{0: 5}, {0: 7}]]) == {0: -1}
    x = {lp.exponent_key((1,), 8): 1}
    assert gr._fast_det([[x, x], [x, x]]) == {}


def test_band_minor_literal_expansion():
    # det [[y12, y13], [y22, y23]] in the nine-variable quintic band ring
    y = lambda i, j: lp.variable((i - 1) * 3 + (j - i), 9)
    want = lp.add(lp.mul(y(1, 2), y(2, 3)), lp.scale(lp.mul(y(1, 3), y(2, 2)), -1))
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
    # each sorted column must sit in its own row's band
    assert gr.band_minor(CTX25, (1, 2), (1, 3))
    assert gr.band_minor(CTX25, (2, 3), (3, 4))
    assert gr.band_minor(CTX25, (1, 2), (4, 5)) == {}
    assert gr.band_minor(CTX25, (3,), (1,)) == {}


def sympy_factors(ctx, i_set, j_set):
    """The content and the multiplicities of the irreducible factors that
    sympy finds in a band minor over the integers."""
    gens = sympy.symbols(f"y:{gr.y_arity(ctx)}")
    content, factors = sympy.Poly.from_dict(gr.band_minor(ctx, i_set, j_set), gens).factor_list()
    return content, [mult for _, mult in factors]


def test_row_solid_irreducibility_criterion():
    for j_set in ((2, 3), (2, 3, 4)):
        assert sympy_factors(CTX25, (1, 2, 3)[:len(j_set)], j_set) == (1, [1])
    assert sympy_factors(CTX25, (2, 3), (3, 4)) == (1, [1])
    # a column at its row start splits off a 1x1 block, and a column past
    # the previous row's band end splits the other way
    for j_set in ((1, 3), (2, 4)):
        assert sympy_factors(CTX25, (1, 2), j_set) == (1, [1, 1])


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
        assert gr.factor_fstar(CTX25, cols)[0] == want


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (2, 7), (3, 7)])
def test_every_factor_is_irreducible_by_sympy(kn):
    # the catalog, every minor that factor_fstar returns and every frozen
    # generator are irreducible, as sympy factors them: the cut rule of the
    # module docstring is checked from outside, not against itself
    ctx = gr.make_context(*kn)
    minors = set(gr.irreducible_minors(ctx))
    minors |= {(i_set, j_set) for _, i_set, j_set in gr.band_frozen_specs(ctx)}
    minors |= {gr.factor_fstar(ctx, cols)[1:]
               for cols in combinations(range(1, ctx.n + 1), ctx.rows)
               if not gr.is_frozen_plucker(ctx, cols)}
    for i_set, j_set in sorted(minors):
        assert sympy_factors(ctx, i_set, j_set) == (1, [1]), (kn, i_set, j_set)


def test_factorization_errors():
    with pytest.raises(gr.NoFactorization):
        gr.factor_fstar(CTX25, (1, 2, 3))
    with pytest.raises(gr.InvalidIndex):
        gr.factor_fstar(CTX25, (1, 1, 2))
    with pytest.raises(gr.InvalidIndex):
        gr.factor_fstar(CTX25, (2, 7, 3))


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


def image_content(fx, cols):
    """The frozen content of the band image of sorted `cols`: from
    `factor_fstar`, or for a frozen coordinate from its column of the
    fixture's forward map."""
    if not gr.is_frozen_plucker(fx.ctx, cols):
        return gr.factor_fstar(fx.ctx, cols)[0]
    m, col = fx.fstar_map, fx.gr_sets.index(cols)
    rows = zip(m.dst_vars[m.dst_mutable:], m.matrix[m.dst_mutable:])
    return {name: row[col] for name, row in rows if row[col]}


def test_content_closed_form():
    # diagonal exponents read off containment of an initial or final run
    for ctx in (CTX25, CTX26, CTX36):
        fx = gr.build_fixture(ctx)
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
            assert image_content(fx, cols) == want


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
        got = gr._unpack_x(CTX25, g_star_minor(CTX25, rows_i, cols_j))
        assert lp.equal(got, plucker_product(CTX25, sets))


def test_substitution_ring_map():
    # composing the two substitutions multiplies by the fixed frozen run
    for ctx in (CTX25, CTX36):
        images = reverse_images(ctx)
        run = frozen_run(ctx)
        arity = gr.x_arity(ctx)
        for cols in combinations(range(1, ctx.n + 1), ctx.rows):
            composite = gr.substitute(gr.f_star(ctx, cols), images, arity)
            assert lp.equal(composite, lp.mul(run, gr.plucker(ctx, cols)))


@settings(max_examples=30)
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
    # an empty row interval is no case at all
    for a in range(1, CTX25.rows + 2):
        with pytest.raises(gr.InvalidIndex):
            gr.flattoband_check(CTX25, a, 0, ())


def test_flattened_case_enumeration():
    for ctx, count in ((CTX25, 31), (CTX26, 65), (CTX36, 52)):
        cases = gr.flattoband_cases(ctx)
        assert len(cases) == count
        assert len(set(cases)) == count
        # every enumerated column set meets the row-solid support condition
        assert all(gr.band_minor(ctx, range(a, a + s), j) for a, s, j in cases)


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
    fx = gr.build_fixture(CTX25)

    def vec(pair):
        exps = image_content(fx, pair + (5,))
        return [exps.get(name, 0) for name in names]

    lhs = [x + y for x, y in zip(vec((1, 3)), vec((2, 4)))]
    one = [x + y for x, y in zip(vec((1, 2)), vec((3, 4)))]
    two = [x + y for x, y in zip(vec((2, 3)), vec((1, 4)))]
    assert lhs == [min(x, y) for x, y in zip(one, two)]
    assert lhs != [max(x, y) for x, y in zip(one, two)]


def test_tropical_failure_names_its_case(monkeypatch):
    # the check fails on one instance, which the suite writes out
    real = gr.tropical_c_check
    monkeypatch.setattr(gr, "tropical_c_check", lambda ctx, base, *quad: (
        (tuple(base), quad) != ((5,), (1, 2, 3, 4)) and real(ctx, base, *quad)))
    suites = gr.check_suites(gr.build_fixture(CTX25), gr.factorizations(CTX25), None)
    failed = {name: failures for name, _, failures in suites if failures}
    assert failed == {"tropical_contents": ["base [5], quad [1, 2, 3, 4]"]}


def test_tropical_check_matches_exponent_vectors(monkeypatch):
    # the check on content sets gives the verdict of the componentwise
    # minimum over exponent vectors, on made-up contents that break the
    # relation as well as on ones that keep it
    rng = random.Random(29)
    contents = {}

    def split(ctx, cols):
        return contents.setdefault(cols, frozenset(rng.sample(range(4), rng.randint(0, 3)))), None

    def vec(*cols):
        return [int(p in contents[tuple(sorted((5,) + cols))]) for p in range(4)]

    def tot(p1, p2):
        return [x + y for x, y in zip(vec(*p1), vec(*p2))]

    monkeypatch.setattr(gr, "_split_image", split)
    verdicts = []
    for _ in range(200):
        contents.clear()
        verdict = gr.tropical_c_check(CTX25, (5,), 1, 2, 3, 4)
        lhs, one, two = tot((1, 3), (2, 4)), tot((1, 2), (3, 4)), tot((2, 3), (1, 4))
        assert verdict == (lhs == [min(x, y) for x, y in zip(one, two)])
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_rectangle_seed_layout():
    seed = rectangle_seed(CTX26)
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
    assert rectangle_seed(CTX36).var_names[:4] == ["D124", "D125", "D134", "D145"]


def test_rectangle_seed_guards():
    with pytest.raises(gr.UnsupportedContext):
        rectangle_seed(gr.make_context(1, 4))
    with pytest.raises(gr.UnsupportedContext):
        rectangle_seed(gr.make_context(3, 4))
    # no cap on n: ten columns get separated names
    seed = rectangle_seed(gr.make_context(2, 10))
    assert seed.var_names[0] == "D12345679"
    assert seed.var_names[-1] == "D1_2_3_4_5_6_7_10"


def test_names_stay_distinct_past_nine_columns():
    for k in (2, 3):
        ctx = gr.make_context(k, 10)
        names = rectangle_seed(ctx).var_names
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
    seed = rectangle_seed(ctx)
    assert seed.var_names == ["D13", "D12", "D23", "D34", "D14"]
    values = seed_plucker_values(ctx, seed)
    pos, neg = exchange_sides(ctx, seed, values, 0)
    assert lp.equal(lp.mul(gr.plucker(ctx, (2, 4)), values["D13"]), lp.add(pos, neg))


def test_rectangle_exchange_quotients():
    for ctx, wanted in ((CTX26, RECT_QUOTIENTS_26), (CTX36, RECT_QUOTIENTS_36)):
        seed = rectangle_seed(ctx)
        values = seed_plucker_values(ctx, seed)
        for name, cols in wanted.items():
            col = seed.var_names.index(name)
            pos, neg = exchange_sides(ctx, seed, values, col)
            assert lp.equal(lp.mul(gr.plucker(ctx, cols), values[name]), lp.add(pos, neg))


def test_rectangle_exchange_leaves_minors(exact_quotient):
    # the inner corner of the 3x6 grid exchanges into a degree-six
    # polynomial that is divisible but not itself a maximal minor
    seed = rectangle_seed(CTX36)
    values = seed_plucker_values(CTX36, seed)
    col = seed.var_names.index("D145")
    pos, neg = exchange_sides(CTX36, seed, values, col)
    quotient = exact_quotient(lp.add(pos, neg), values["D145"])
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


def fixture_gr_values(fx):
    """The Plücker coordinate of every generator of the Grassmannian side."""
    return {name: gr.plucker(fx.ctx, cols)
            for name, cols in zip(fx.gr_seed.var_names, fx.gr_sets)}


def fixture_band_values(fx):
    """The band minor of every generator of the band side."""
    return {name: gr.band_minor(fx.ctx, i_set, j_set) for name, i_set, j_set in fx.band_specs}


def test_fixture_value_tables():
    fx = gr.build_fixture(CTX25)
    gr_values, band_values = fixture_gr_values(fx), fixture_band_values(fx)
    assert list(gr_values) == fx.gr_seed.var_names
    assert list(band_values) == fx.band_seed.var_names
    # each matrix column states the band factorization of one coordinate
    for col, cols in enumerate(fx.gr_sets):
        image = lp.constant(1, gr.y_arity(CTX25))
        for row, name in enumerate(fx.band_seed.var_names):
            e = fx.fstar_map.matrix[row][col]
            if e:
                image = lp.mul(image, lp.power(band_values[name], e))
        assert lp.equal(image, gr.f_star(CTX25, cols))
    # reverse columns state the minor image of one band generator
    for col, (name, i_set, j_set) in enumerate(fx.band_specs):
        image = lp.constant(1, gr.x_arity(CTX25))
        for row, gname in enumerate(fx.gr_seed.var_names):
            e = fx.gstar_map.matrix[row][col]
            if e:
                image = lp.mul(image, lp.power(gr_values[gname], e))
        assert lp.equal(image, gr._unpack_x(CTX25, g_star_minor(CTX25, i_set, j_set)))


def test_fixture_unsupported():
    with pytest.raises(gr.UnsupportedContext):
        gr.build_fixture(gr.make_context(1, 4))
    with pytest.raises(gr.UnsupportedContext):
        gr.build_fixture(gr.make_context(4, 5))
    # sizes beyond the pinned three build from the rectangle cluster
    for k, n in ((2, 7), (4, 8)):
        fx = gr.build_fixture(gr.make_context(k, n))
        assert fx.gstar_map is None
        assert fx.gr_seed.var_names == rectangle_seed(fx.ctx).var_names
    assert gr.build_fixture(CTX26).gstar_map is None
    assert gr.build_fixture(CTX36).gstar_map is None


def test_fixture_every_size():
    for n in range(4, 9):
        for k in range(2, n - 1):
            fx = gr.build_fixture(gr.make_context(k, n))
            if (k, n) != (2, 5):
                assert fx.gr_seed.btilde == rectangle_seed(fx.ctx).btilde
            assert qh.verify_qh(fx.fstar_map, fx.gr_seed, fx.band_seed)


def test_pinned_base_is_the_turned_rectangle():
    # turning every rectangle column c to c + 1 mod 5 gives the (2,5) base
    sets, btilde = gr._rectangle_layout(CTX25, 1)
    assert sets == [(2, 3, 5), (2, 4, 5)]
    assert btilde == GR_BTILDE_25


def flattoband_verdict(ctx, a, s, j_set, chart, shift=0):
    # the flat-to-band identity with its completed run shifted by `shift`
    # columns: any shift keeps both sides products of s Plücker coordinates
    lhs = g_star_minor(ctx, tuple(range(a, a + s)), j_set, chart)
    rhs = gr._plucker_fast(ctx, tuple(range(a + ctx.k + s + shift, ctx.n + a + shift)) + j_set, chart)
    for i in range(a, a + s - 1):
        rhs = lp.mul_packed(rhs, gr._plucker_fast(ctx, tuple(range(i + ctx.k + 1, ctx.n + i + 1)), chart))
    return lhs == rhs


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


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (3, 7)])
def test_flattoband_verdicts_on_perturbed_rows(kn, monkeypatch):
    # one g_star entry plus 1 in every row from 2 on: every verdict must be
    # the direct one, the determinant against the run product times the
    # completed coordinate, also where a lower case fails
    ctx = gr.make_context(*kn)
    bumped = {(i, i + i % (ctx.k + 1)) for i in range(2, ctx.rows + 1)}
    g_entry = gr._g_entry_fast

    def perturbed(ctx, i, j, chart):
        entry = dict(g_entry(ctx, i, j, chart))
        if (i, j) in bumped:
            entry[0] = entry.get(0, 0) + 1
        return entry

    monkeypatch.setattr(gr, "_g_entry_fast", perturbed)
    # a fresh verdict cache sees the perturbed entries
    monkeypatch.setattr(gr, "_flattoband_holds", lru_cache(gr._flattoband_holds.__wrapped__))
    cases = gr.flattoband_cases(ctx)
    verdicts = [gr.flattoband_check(ctx, *case) for case in cases]
    assert verdicts == [flattoband_verdict(ctx, *case, True) for case in cases]
    failed = {case for case, holds in zip(cases, verdicts) if not holds}
    # cases whose expansion along row a meets a failed lower case
    direct = [(a, s, j_set) for a, s, j_set in cases if any(
        (a + 1, s - 1, j_set[:pos] + j_set[pos + 1:]) in failed
        for pos, j in enumerate(j_set) if j <= a + ctx.k)]
    assert failed and direct


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (2, 7), (3, 7), (4, 8), (5, 9)])
def test_chart_minors_match_point_oracle(kn, monkeypatch):
    # every maximal minor of the chart [I | Y], taken as a signed minor of Y
    # by Laplace along the unit columns, against Gaussian elimination on
    # [I | Y] at a random Y; no block is larger than min(k, n - k)
    ctx = gr.make_context(*kn)
    m, n = ctx.rows, ctx.n
    sizes = []
    fast_det = gr._fast_det
    monkeypatch.setattr(gr, "_fast_det", lambda rows: sizes.append(len(rows)) or fast_det(rows))
    # a fresh cache expands every minor through the recording determinant
    monkeypatch.setattr(gr, "_sorted_plucker_fast", lru_cache(gr._sorted_plucker_fast.__wrapped__))
    rng = random.Random(10 * ctx.k + n)
    point = [rng.randrange(P61) for _ in range(gr.x_arity(ctx))]
    chart = [[int(c == r) if c < m else point[r * n + c] for c in range(n)] for r in range(m)]
    for cols in combinations(range(1, n + 1), m):
        value = value_at(gr._unpack_x(ctx, gr._sorted_plucker_fast(ctx, cols, True)), point)
        assert value == det_mod([[row[c - 1] for c in cols] for row in chart]), cols
    assert max(sizes) == min(ctx.k, m)


def test_pinned_relations_match_point_oracle():
    # both sides of the fifteen pinned (2,5) records at a random point: the
    # minor relations on a full random 3x5 matrix, the band and image
    # relations on random band entries
    rng = random.Random(25)
    flat = [[rng.randrange(P61) for _ in range(5)] for _ in range(3)]
    band = [[rng.randrange(P61) if i <= j <= i + 2 else 0 for j in range(5)] for i in range(3)]

    def minor(matrix, rows, cols):
        return det_mod([[matrix[i - 1][j - 1] for j in cols] for i in rows])

    def plucker(*cols_list):
        return reduce(lambda x, y: x * y % P61, [minor(flat, (1, 2, 3), c) for c in cols_list], 1)

    def band_product(specs):
        return reduce(lambda x, y: x * y % P61, [minor(band, *spec) for spec in specs], 1)

    for l1, l2, a1, a2, b1, b2 in gr.QUINTIC_MINOR_RELATIONS:
        assert plucker(l1, l2) == (plucker(a1, a2) + plucker(b1, b2)) % P61
    for left, first, second in gr.QUINTIC_BAND_RELATIONS:
        assert band_product(left) == (band_product(first) + band_product(second)) % P61
    for minors, (_, first, second), cofactor in zip(
        gr.QUINTIC_MINOR_RELATIONS, gr.QUINTIC_BAND_RELATIONS, gr.QUINTIC_IMAGE_COFACTORS
    ):
        images = [((1, 2, 3), cols) for cols in minors[:2]]
        assert band_product(images) == band_product(cofactor) * (
            band_product(first) + band_product(second)) % P61
    assert all(record["holds"] for record in gr.quintic_relation_checks(CTX25))


def point_verdicts(ctx, matrix, bump=None):
    """Both sides of every flat-to-band case on one matrix mod 2^61 - 1,
    with the g_star entry `bump` plus 1.  A coordinate is the determinant of
    its columns as written, read mod n, so the sort sign and a repeated
    residue come out of the elimination."""
    k, n = ctx.k, ctx.n

    @lru_cache(maxsize=None)
    def plucker(cols):
        return det_mod([[row[(c - 1) % n] for c in cols] for row in matrix])

    def g(i, j):
        if not i <= j <= i + k:
            return 0
        return plucker(tuple(range(i + k + 1, n + i)) + (j,)) + ((i, j) == bump)

    out = []
    for a, s, j_set in gr.flattoband_cases(ctx):
        rhs = plucker(tuple(range(a + k + s, n + a)) + j_set)
        for i in range(a, a + s - 1):
            rhs = rhs * plucker(tuple(range(i + k + 1, n + i + 1))) % P61
        out.append(det_mod([[g(i, j) for j in j_set] for i in range(a, a + s)]) == rhs)
    return out


@pytest.mark.parametrize("kn", [(4, 10), (5, 11), (4, 12)])
def test_flattoband_verdicts_match_point_oracle(kn):
    # both sides of every flat-to-band case on one random integer matrix
    ctx = gr.make_context(*kn)
    rng = random.Random(10 * ctx.k + ctx.n)
    matrix = [[rng.randrange(P61) for _ in range(ctx.n)] for _ in range(ctx.rows)]
    cases = gr.flattoband_cases(ctx)
    assert [gr.flattoband_check(ctx, *case) for case in cases] == point_verdicts(ctx, matrix)
    # the oracle can fail: one g_star entry plus 1 breaks some case
    assert not all(point_verdicts(ctx, matrix, (1, 1 + ctx.k)))


def test_flattoband_verdicts_on_a_bumped_entry_match_point_oracle(monkeypatch):
    # (4,10) with the g_star entry (1, 1 + k) plus 1, in the program's chart
    # and in the oracle at a point of the chart [I | Y], where the bumped
    # polynomial takes the bumped value; a bump in row 1 fails only cases
    # on row 1, so every verdict stays on the induction
    ctx = gr.make_context(4, 10)
    m, n, bump = ctx.rows, ctx.n, (1, 1 + ctx.k)
    g_entry = gr._g_entry_fast

    def perturbed(ctx, i, j, chart):
        entry = dict(g_entry(ctx, i, j, chart))
        if (i, j) == bump:
            entry[0] = entry.get(0, 0) + 1
        return entry

    monkeypatch.setattr(gr, "_g_entry_fast", perturbed)
    # a fresh verdict cache sees the perturbed entry
    monkeypatch.setattr(gr, "_flattoband_holds", lru_cache(gr._flattoband_holds.__wrapped__))
    rng = random.Random(410)
    chart = [[int(c == r) if c < m else rng.randrange(P61) for c in range(n)] for r in range(m)]
    verdicts = [gr.flattoband_check(ctx, *case) for case in gr.flattoband_cases(ctx)]
    assert verdicts == point_verdicts(ctx, chart, bump)
    assert not all(verdicts)


@pytest.mark.parametrize("kn", [(3, 11), (2, 30)])
def test_factorizations_match_point_oracle(kn):
    # the band image of every non-frozen coordinate, the maximal band minor
    # on its columns, against the product of its content generators and its
    # minor, all by Gaussian elimination on one random band matrix
    ctx = gr.make_context(*kn)
    rng = random.Random(10 * ctx.k + ctx.n)
    band = [[rng.randrange(P61) if i <= j <= i + ctx.k else 0 for j in range(ctx.n)]
            for i in range(ctx.rows)]

    def minor(i_set, j_set):
        return det_mod([[band[i - 1][j - 1] for j in j_set] for i in i_set])

    generators = {name: minor(i_set, j_set) for name, i_set, j_set in gr.band_frozen_specs(ctx)}
    full = range(1, ctx.rows + 1)
    for cols in combinations(range(1, ctx.n + 1), ctx.rows):
        if gr.is_frozen_plucker(ctx, cols):
            continue
        content, i_set, j_set = gr.factor_fstar(ctx, cols)
        value = minor(i_set, j_set)
        for name, e in content.items():
            value = value * pow(generators[name], e, P61) % P61
        assert value and minor(full, cols) == value, cols


def test_caches_hand_out_fresh_values():
    minor = gr.band_minor(CTX26, (1, 2), (2, 3))
    expected = dict(minor)
    minor.clear()
    assert gr.band_minor(CTX26, (1, 2), (2, 3)) == expected
    content, i_set, j_set = gr.factor_fstar(CTX26, (1, 3, 4, 6))
    expected = dict(content)
    content["Y11"] = 99
    assert gr.factor_fstar(CTX26, (1, 3, 4, 6)) == (expected, i_set, j_set)
    catalog = gr.non_frozen_irreducible_minors(CTX26)
    expected = list(catalog)
    catalog.clear()
    assert gr.non_frozen_irreducible_minors(CTX26) == expected
    frozen_sets = gr.plucker_frozen_sets(CTX26)
    frozen_sets.clear()
    assert gr.is_frozen_plucker(CTX26, (1, 2, 3, 4))
    assert len(gr.plucker_frozen_sets(CTX26)) == 6


def test_band_minors_build_the_band_matrix_once(monkeypatch):
    for cache in (gr._band_entries, gr._band_minor):
        cache.cache_clear()
    made = []
    variable_key = lp.variable_key
    monkeypatch.setattr(lp, "variable_key",
                        lambda i, arity, width: made.append(i) or variable_key(i, arity, width))
    for i_set, j_set in gr.irreducible_minors(CTX36):
        gr.band_minor(CTX36, i_set, j_set)
    assert sorted(made) == list(range(gr.y_arity(CTX36)))


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (2, 7), (3, 7), (4, 8)])
def test_factors_are_the_blocks_of_the_image(kn):
    # the factorization is read off the zero pattern, not computed: the
    # blocks of every image multiply back to it, the frozen ones are frozen
    # generators and the other one is the named catalog minor
    ctx = gr.make_context(*kn)
    fx = gr.build_fixture(ctx)
    full = tuple(range(1, ctx.rows + 1))
    named = {(i, j): name for name, i, j in gr.band_frozen_specs(ctx)}
    for cols in combinations(range(1, ctx.n + 1), ctx.rows):
        blocks = gr._blocks(ctx, 1, cols)
        values = [gr._band_minor(ctx, *block) for block in blocks]
        assert reduce(lp.mul_packed, values) == gr._band_minor(ctx, full, cols)
        rest = [block for block in blocks if block not in named]
        # in `band_frozen_specs` order, the order the reports print
        content = {name: 1 for spec, name in named.items() if spec in blocks}
        assert list(image_content(fx, cols).items()) == list(content.items())
        if gr.is_frozen_plucker(ctx, cols):
            assert rest == []
        else:
            assert gr.factor_fstar(ctx, cols) == (content, *rest[0])


@pytest.fixture
def cold_split():
    gr._split_image.cache_clear()
    yield
    gr._split_image.cache_clear()


def test_split_image_cache_holds_little_per_coordinate(cold_split):
    # the base report caches one split per coordinate, so its memory grows
    # with this: at (2,60) the cache holds about 640 B per coordinate with
    # bitmask contents, and 1000 B leaves a margin of about 55 %; contents
    # stored as frozensets of positions hold about 2700 B and fail
    ctx = gr.make_context(2, 60)
    sets = list(combinations(range(1, ctx.n + 1), ctx.rows))
    gr._frozen(ctx)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cols in sets:
            gr._split_image(ctx, cols)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gr._split_image.cache_info().currsize == len(sets) == 1770
    assert held / len(sets) < 1000


def test_a_second_non_frozen_block_has_no_factorization(monkeypatch, cold_split):
    # the image of D135 is Y11 * Y23 * Y35; with Y35 taken out of the frozen
    # generators it has two non-frozen blocks, which is no factorization
    intervals, position, names = gr._frozen(CTX25)
    assert gr._blocks(CTX25, 1, (1, 3, 5)) == [((1,), (1,)), ((2,), (3,)), ((3,), (5,))]
    fewer = {spec: p for spec, p in position.items() if names[p] != "Y35"}
    monkeypatch.setattr(gr, "_frozen", lambda ctx: (intervals, fewer, names))
    with pytest.raises(gr.NoFactorization, match="non-frozen factors"):
        gr.factor_fstar(CTX25, (1, 3, 5))
    # a frozen coordinate whose image keeps a non-frozen block has no content
    with pytest.raises(gr.NoFactorization, match="non-frozen factors"):
        gr.factor_fstar(CTX25, (3, 4, 5))


def test_equal_contexts_share_one_cache_entry():
    # a context is a value: equal ones hash equal, so the caches keyed by
    # it fill one entry for both
    ctx, same = gr.make_context(3, 7), gr.GenericMatrixContext(3, 7)
    assert ctx is not same and ctx == same and hash(ctx) == hash(same)
    gr._frozen.cache_clear()
    assert gr._frozen(ctx) is gr._frozen(same)
    info = gr._frozen.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    with pytest.raises(AttributeError):
        ctx.k = 4
