"""Fast kernels against their straightforward reference forms.

`skew_symmetrizer`, `solve_left_all`, `apply_map`/`map_exponent`, `matmul`
and `mutate_matrix` run on plain integer row operations.  The references
below are the direct versions they replaced: rational back-substitution in
`Fraction`s, ratio propagation in `Fraction`s, and entry-by-entry sums.  Each
property draws inputs from the cases the fast forms treat specially and
requires the same result.

The band-side factorization names its minor from one exponent and shifts
out one-variable generators; `composite_identity` takes one determinant of
the g_star entries.  Their references are the catalog scan, the trial
division by every frozen generator, and term-by-term substitution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterkit import grassmann as gr
from clusterkit import lattice as la
from clusterkit import laurent as lp
from clusterkit import quasihom as qh
from clusterkit import seeds as sd

# ---------------------------------------------------------------------------
# reference implementations


def ref_matmul(a, b):
    bt = [list(col) for col in zip(*b)] if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def ref_vec_mat(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))] if a else []


def ref_mutate_matrix(btilde, k):
    n = len(btilde[0])
    out = []
    for i, row in enumerate(btilde):
        new_row = []
        for j in range(n):
            if i == k or j == k:
                new_row.append(-row[j])
            else:
                bik, bkj = row[k], btilde[k][j]
                correction = max(bik * bkj, 0)
                new_row.append(row[j] + (correction if bik > 0 else -correction))
        out.append(new_row)
    return out


def ref_skew_symmetrizer(b):
    n = len(b)
    for i in range(n):
        for j in range(n):
            if (b[i][j] == 0) != (b[j][i] == 0) or b[i][j] * b[j][i] > 0:
                return None
    ratio = [None] * n
    for start in range(n):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if not b[i][j]:
                    continue
                forced = ratio[i] * Fraction(abs(b[i][j]), abs(b[j][i]))
                if ratio[j] is None:
                    ratio[j] = forced
                    queue.append(j)
                elif ratio[j] != forced:
                    return None
    if not n:
        return []
    scale = lcm(*(r.denominator for r in ratio))
    d = [int(r * scale) for r in ratio]
    g = gcd(*d)
    return [x // g for x in d]


def ref_solve_left_all(a, bs):
    if not a:
        return [(None, False) if any(b) else ([], True) for b in bs]
    h, u = la.hermite_normal_form(a)
    out = []
    for b in bs:
        residual = [Fraction(x) for x in b]
        y = []
        for i, row in enumerate(h):
            c = next((j for j, x in enumerate(row) if x), None)
            if c is None:
                break
            coef = residual[c] / row[c]
            if coef:
                y.append((i, coef))
                residual[c:] = [r - coef * x for r, x in zip(residual[c:], row[c:])]
        if any(residual) or any(c.denominator != 1 for _, c in y):
            out.append((None, not any(residual)))
            continue
        out.append(([sum(int(c) * u[i][j] for i, c in y) for j in range(len(u))], True))
    return out


def ref_map_exponent(matrix, e):
    return tuple(sum(x * y for x, y in zip(row, e)) for row in matrix)


def ref_apply_map(matrix, f):
    out = {}
    for e, c in f.items():
        image = ref_map_exponent(matrix, e)
        got = out.get(image, 0) + c
        if got:
            out[image] = got
        else:
            del out[image]
    return out


def ref_catalog(ctx):
    frozen = {(i, j) for _, i, j in gr.band_frozen_specs(ctx)}
    out = []
    for s in range(1, ctx.rows + 1):
        for p in range(1, ctx.rows - s + 2):
            for j_set in combinations(range(p, p + s + ctx.k), s):
                if gr.row_solid_irreducible(ctx, p, j_set):
                    out.append((tuple(range(p, p + s)), j_set))
    return [pair for pair in out if pair not in frozen]


def ref_split_image(ctx, cols):
    remainder = gr.f_star(ctx, cols)
    content = {}
    for name, i_set, j_set in gr.band_frozen_specs(ctx):
        gen = gr.band_minor(ctx, i_set, j_set)
        while True:
            try:
                quot = lp.exact_div(remainder, gen)
            except lp.NotDivisible:
                break
            if any(e < 0 for exp in quot for e in exp):
                break
            remainder = quot
            content[name] = content.get(name, 0) + 1
    minors = ref_catalog(ctx)
    match = (p for p in minors if lp.equal(remainder, gr.band_minor(ctx, *p)))
    return content, remainder, next(match, None)


def ref_composite_identity(ctx):
    arity, width = gr.x_arity(ctx), gr._width(ctx)
    images = [
        lp.unpack(gr._g_entry_fast(ctx, i, i + d, True), arity, width)
        for i in range(1, ctx.rows + 1)
        for d in range(ctx.k + 1)
    ]
    run = gr._run_product_fast(ctx, 1, ctx.rows, True)
    out = []
    for cols in combinations(range(1, ctx.n + 1), ctx.rows):
        got = gr.substitute(gr.f_star(ctx, cols), images, arity)
        want = lp.mul_packed(run, gr._plucker_fast(ctx, cols, True))
        out.append((cols, lp.equal(got, lp.unpack(want, arity, width))))
    return out


# ---------------------------------------------------------------------------
# strategies


def int_matrices(rows, cols, bound):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def exchange_matrices(draw, max_rank: int = 6):
    """Square matrices with entries in [-4, 4]: skew-symmetrizable ones, built
    from a symmetrizer d and a component labelling (so some decompose), and
    some of them spoiled in one entry or replaced by an arbitrary matrix."""
    n = draw(st.integers(0, max_rank))
    d = [draw(st.integers(1, 4)) for _ in range(n)]
    parts = [draw(st.integers(0, 2)) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(d[i], d[j])
            k = draw(st.integers(-2, 2)) if parts[i] == parts[j] else 0
            if max(abs(k) * d[j] // g, abs(k) * d[i] // g) <= 4:
                b[i][j], b[j][i] = k * d[j] // g, -k * d[i] // g
    spoil = draw(st.sampled_from(["none", "magnitude", "sign", "pattern", "arbitrary"]))
    if n and spoil == "arbitrary":
        return draw(int_matrices(n, n, 4))
    if n > 1 and spoil != "none":
        i, j = draw(st.permutations(range(n)))[:2]
        if spoil == "magnitude" and b[i][j]:
            b[i][j] += 1 if b[i][j] > 0 else -1
        elif spoil == "sign":
            b[i][j] = -b[i][j]
        elif spoil == "pattern":
            b[i][j] = 0 if b[i][j] else draw(st.sampled_from([-1, 1]))
    return b


@st.composite
def solve_systems(draw):
    """a with rows scaled by non-unit factors (so pivots are not units), and
    right-hand sides that are integral, rational-only or out of span."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    base = draw(int_matrices(rows, cols, 4))
    scales = [draw(st.sampled_from([1, 2, 3, 4, 6])) for _ in range(rows)]
    a = [[s * x for x in row] for s, row in zip(scales, base)]
    bs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["integral", "rational", "any"]))
        if kind == "any":
            bs.append(draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)))
        else:
            z = draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
            bs.append(ref_vec_mat(z, a if kind == "integral" else base))
    return a, bs


@st.composite
def maps_and_polys(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    matrix = draw(int_matrices(rows, cols, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * cols)
    poly = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool), max_size=6))
    m = qh.MonomialMap(
        matrix, [f"s{j}" for j in range(cols)], [f"t{i}" for i in range(rows)], 0, 0
    )
    return m, poly


@st.composite
def rectangular_btilde(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    return draw(int_matrices(n + m, n, 4))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=400)
@given(exchange_matrices())
def test_skew_symmetrizer_matches_reference(b):
    assert sd.skew_symmetrizer(b) == ref_skew_symmetrizer(b)


def test_skew_symmetrizer_decomposable_examples():
    # every component starts at one common value: ratios (1, 1/2) and (1, 3)
    # give [2, 1, 2, 6], not the per-component minimal [2, 1, 1, 3]
    b = [[0, 1, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -1, 0]]
    assert sd.skew_symmetrizer(b) == ref_skew_symmetrizer(b) == [2, 1, 2, 6]
    # a later component's denominator rescales the earlier one
    b = [[0, 0, 0], [0, 0, 1], [0, -3, 0]]
    assert sd.skew_symmetrizer(b) == ref_skew_symmetrizer(b) == [3, 3, 1]


@settings(max_examples=300)
@given(solve_systems())
def test_solve_left_all_matches_reference(system):
    a, bs = system
    assert la.solve_left_all(a, bs) == ref_solve_left_all(a, bs)


def test_solve_left_all_outcome_kinds():
    a = [[2, 0, 2], [0, 3, 3]]
    got = la.solve_left_all(a, [[4, 3, 7], [1, 1, 2], [1, 0, 0]])
    assert got == ref_solve_left_all(a, [[4, 3, 7], [1, 1, 2], [1, 0, 0]])
    assert got == [([2, 1], True), (None, True), (None, False)]


@settings(max_examples=300)
@given(maps_and_polys())
def test_apply_map_matches_reference(case):
    m, poly = case
    assert qh.apply_map(m, poly) == ref_apply_map(m.matrix, poly)
    for e in poly:
        assert qh.map_exponent(m, e) == ref_map_exponent(m.matrix, e)


@settings(max_examples=300)
@given(rectangular_btilde(), st.data())
def test_mutate_matrix_matches_reference(btilde, data):
    k = data.draw(st.integers(0, len(btilde[0]) - 1))
    assert sd.mutate_matrix(btilde, k) == ref_mutate_matrix(btilde, k)


@settings(max_examples=300)
@given(rectangular_btilde(), st.data())
def test_matmul_matches_reference(btilde, data):
    left = data.draw(int_matrices(data.draw(st.integers(1, 5)), len(btilde), 4))
    right = data.draw(int_matrices(len(btilde[0]), data.draw(st.integers(1, 5)), 4))
    assert la.matmul(left, btilde) == ref_matmul(left, btilde)
    assert la.matmul(btilde, right) == ref_matmul(btilde, right)
    for row in left:
        assert la.vec_mat(row, btilde) == ref_vec_mat(row, btilde)


@pytest.mark.parametrize("kn", [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 8)])
def test_factorization_matches_reference(kn):
    ctx = gr.make_context(*kn)
    assert gr.non_frozen_irreducible_minors(ctx) == ref_catalog(ctx)
    frozen = gr.plucker_frozen_sets(ctx)
    for cols in combinations(range(1, ctx.n + 1), ctx.rows):
        content, remainder, minor = ref_split_image(ctx, cols)
        assert gr.is_frozen_plucker(ctx, cols) == (cols in frozen)
        assert gr.content_exponents(ctx, cols) == content
        if cols in frozen:
            assert remainder == lp.constant(1, gr.y_arity(ctx)) and minor is None
            with pytest.raises(gr.NoFactorization):
                gr.factor_fstar(ctx, cols)
        else:
            assert gr.factor_fstar(ctx, cols) == (content, *minor)


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (2, 7)])
def test_composite_identity_matches_substitution(kn, monkeypatch):
    ctx = gr.make_context(*kn)
    results = gr.composite_identity(ctx)
    assert results == ref_composite_identity(ctx)
    assert all(holds for _, holds in results)
    # one g_star entry plus 1: both forms see it, case by case
    g_entry = gr._g_entry_fast

    def perturbed(ctx, i, j, chart):
        entry = dict(g_entry(ctx, i, j, chart))
        if (i, j) == (1, 1 + ctx.k):
            entry[0] = entry.get(0, 0) + 1
        return entry

    monkeypatch.setattr(gr, "_g_entry_fast", perturbed)
    # the g_star minors are cached per context; a fresh cache sees the
    # perturbed entry, and the shared one comes back untouched after the test
    monkeypatch.setattr(gr, "_g_row_minors", lru_cache(gr._g_row_minors.__wrapped__))
    results = gr.composite_identity(ctx)
    assert results == ref_composite_identity(ctx)
    assert not all(holds for _, holds in results)
