"""Fast kernels against their straightforward reference forms.

`skew_symmetrizer`, `apply_map`/`map_exponent`, `matmul` and
`mutate_matrix` run on plain integer row operations.  The references below
are the direct versions they replaced: ratio propagation in `Fraction`s and
entry-by-entry sums.  Each property draws inputs from the cases the fast
forms treat specially and requires the same result.  `solve_left_all` picks
one solution among many, so its verdicts are checked against sympy's rank
and Hermite forms and each solution against its equation.

The band-side factorization reads its factors off the blocks of the
image's zero pattern, and the composite identity on a column set is the
flat-to-band case on all rows, which is decided by one quadratic Plücker
identity per case.  Their references share no rule with `grassmann`: the
catalog is scanned with the cut rule of the `grassmann` docstring written
out here, the content is found by trial division by every frozen
generator, and the composite by term-by-term substitution.

The command line writes each seed from one template per term; its
reference is the JSON object of `seeds.seed_to_json` written by the
command line's JSON writer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

from clusterkit import cli as cl
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


def ref_solve_verdicts(a, b):
    """(integer, rational) solvability of z * a = b, from sympy: the rank of
    a against a with b stacked under it, and the Hermite forms of the row
    lattices of the two (sympy's form is by columns, so both go transposed)."""
    with_b = sympy.Matrix([*a, b])
    rational = sympy.Matrix(a).rank() == with_b.rank()
    integer = sympy_hnf(sympy.Matrix(a).T) == sympy_hnf(with_b.T)
    return integer, rational


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


def ref_one_block(k, p, j_set):
    """The cut rule of the `grassmann` docstring: the band minor on rows
    [p, p+s-1] and sorted columns j_0 < ... < j_{s-1} is nonzero when
    p+t <= j_t <= p+t+k, and one block when no t has j_{t-1} = p+t-1 or
    j_t > p+t-1+k."""
    nonzero = all(p + t <= j <= p + t + k for t, j in enumerate(j_set))
    return nonzero and not any(j_set[t - 1] == p + t - 1 or j_set[t] > p + t - 1 + k
                               for t in range(1, len(j_set)))


def ref_catalog(ctx):
    frozen = {(i, j) for _, i, j in gr.band_frozen_specs(ctx)}
    out = []
    for s in range(1, ctx.rows + 1):
        for p in range(1, ctx.rows - s + 2):
            for j_set in combinations(range(1, ctx.n + 1), s):
                if ref_one_block(ctx.k, p, j_set):
                    out.append((tuple(range(p, p + s)), j_set))
    return [pair for pair in out if pair not in frozen]


def ref_split_image(ctx, cols, exact_quotient):
    remainder = gr.f_star(ctx, cols)
    content = {}
    for name, i_set, j_set in gr.band_frozen_specs(ctx):
        gen = gr.band_minor(ctx, i_set, j_set)
        while True:
            try:
                quot = exact_quotient(remainder, gen)
            except lp.NotDivisible:
                break
            if any(e < 0 for exp in quot for e in exp):
                break
            remainder = quot
            content[name] = content.get(name, 0) + 1
    minors = ref_catalog(ctx)
    match = (p for p in minors if lp.equal(remainder, gr.band_minor(ctx, *p)))
    return content, remainder, next(match, None)


def composite_identity(ctx):
    """The composite suite's cases, each the flat-to-band case on all rows."""
    return [(cols, gr.flattoband_check(ctx, 1, ctx.rows, cols))
            for cols in combinations(range(1, ctx.n + 1), ctx.rows)]


def ref_composite_identity(ctx):
    arity, width = gr.x_arity(ctx), gr._width(ctx)
    images = [
        lp.unpack(gr._g_entry_fast(ctx, i, i + d, True), (0,) * arity, width)
        for i in range(1, ctx.rows + 1)
        for d in range(ctx.k + 1)
    ]
    run = {0: 1}
    for i in range(1, ctx.rows):
        run = lp.mul_packed(run, gr._plucker_fast(ctx, tuple(range(i + ctx.k + 1, ctx.n + i + 1)), True))
    out = []
    for cols in combinations(range(1, ctx.n + 1), ctx.rows):
        got = gr.substitute(gr.f_star(ctx, cols), images, arity)
        want = lp.mul_packed(run, gr._plucker_fast(ctx, cols, True))
        out.append((cols, lp.equal(got, lp.unpack(want, (0,) * arity, width))))
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


@st.composite
def odd_seeds(draw):
    """Seeds of rank 0-3 with 0-4 frozen rows, names that JSON escapes, and
    cluster variables with negative exponents and coefficients that are
    signed or wider than 64 bits."""
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, 4))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(n) for j in range(i + 1, n)}
    principal = [[upper.get((i, j), -upper.get((j, i), 0)) for j in range(n)] for i in range(n)]
    btilde = principal + draw(int_matrices(m, n, 4)) if n else [[] for _ in range(m)]
    names = draw(st.lists(st.text(max_size=4), min_size=n + m, max_size=n + m))
    exps = st.tuples(*[st.integers(-(2 ** 40), 2 ** 40) | st.integers(-3, 3)] * (n + m))
    coefs = st.integers(-(2 ** 70), 2 ** 70).filter(bool) | st.sampled_from([1, -1])
    cluster = [draw(st.dictionaries(exps, coefs, min_size=1, max_size=5)) for _ in range(n)]
    return sd.Seed(btilde, cluster, names)


def tame_seeds(rng, count):
    """Rank 2-3 seeds with 1-2 frozen rows, each walked along a random word
    of length 0-3: rank-2 doubles and rank-3 paths, whose entries stay
    small."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 3)
        btilde = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            e = rng.choice([1, 2] if n == 2 else [1]) * rng.choice([1, -1])
            btilde[i][i + 1], btilde[i + 1][i] = e, -e
        btilde += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        names = [f"x{i}" for i in range(len(btilde))]
        seed = sd.initial_seed(btilde, names)
        out.append(sd.mutate_word(seed, [rng.randrange(n) for _ in range(rng.randint(0, 3))]))
    return out


def sympy_laurent(f, gens):
    return sympy.Add(*[c * sympy.Mul(*[g ** k for g, k in zip(gens, e)]) for e, c in f.items()])


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=200)
@given(odd_seeds(), st.sampled_from(["\n", "\n  ", "\n    ", "\n      "]))
def test_seed_writer_matches_seed_to_json(seed, nl):
    # the CLI's JSON writer fills a template per term of a seed; its
    # reference is the JSON object of seeds.seed_to_json written by the same
    # writer as any other dict
    assert "".join(cl._json(seed, nl)) == "".join(cl._json(sd.seed_to_json(seed), nl))


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
    solved = la.solve_left_all(a, bs)
    assert len(solved) == len(bs)
    for b, (z, rational) in zip(bs, solved):
        assert (z is not None, rational) == ref_solve_verdicts(a, b)
        if z is not None:
            assert ref_vec_mat(z, a) == b


def test_solve_left_all_outcome_kinds():
    a = [[2, 0, 2], [0, 3, 3]]
    bs = [[4, 3, 7], [1, 1, 2], [1, 0, 0]]
    got = la.solve_left_all(a, bs)
    assert [(z is not None, r) for z, r in got] == [ref_solve_verdicts(a, b) for b in bs]
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
@given(rectangular_btilde(), st.data(), st.sampled_from([list, tuple]))
def test_mutate_matrix_shares_exactly_the_unchanged_rows(btilde, data, kind):
    # rows i != k with b_ik = 0 come back as the input row objects; row k
    # and the rows with b_ik != 0 are new, and the input is left as it was
    btilde = [kind(row) for row in btilde]
    before = [list(row) for row in btilde]
    k = data.draw(st.integers(0, len(btilde[0]) - 1))
    out = sd.mutate_matrix(btilde, k)
    assert [list(row) for row in out] == ref_mutate_matrix(before, k)
    assert [list(row) for row in btilde] == before
    inputs = {id(row) for row in btilde}
    for i, (row, new) in enumerate(zip(btilde, out)):
        if i != k and row[k] == 0:
            assert new is row
        else:
            assert id(new) not in inputs


@settings(max_examples=300)
@given(rectangular_btilde(), st.data())
def test_matmul_matches_reference(btilde, data):
    left = data.draw(int_matrices(data.draw(st.integers(1, 5)), len(btilde), 4))
    right = data.draw(int_matrices(len(btilde[0]), data.draw(st.integers(1, 5)), 4))
    assert la.matmul(left, btilde) == ref_matmul(left, btilde)
    assert la.matmul(btilde, right) == ref_matmul(btilde, right)
    for row in left:
        assert la.vec_mat(row, btilde) == ref_vec_mat(row, btilde)


# (2, 16) is left out: its reference expansion alone takes about 5 s
@pytest.mark.parametrize(
    "kn", [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 8), (4, 9), (3, 10), (2, 12)]
)
def test_factorization_matches_reference(kn, exact_quotient):
    ctx = gr.make_context(*kn)
    assert gr.non_frozen_irreducible_minors(ctx) == ref_catalog(ctx)
    frozen = gr.plucker_frozen_sets(ctx)
    fstar = gr.build_fixture(ctx).fstar_map
    specs = fstar.dst_vars[fstar.dst_mutable:]
    for cols in combinations(range(1, ctx.n + 1), ctx.rows):
        content, remainder, minor = ref_split_image(ctx, cols, exact_quotient)
        assert gr.is_frozen_plucker(ctx, cols) == (cols in frozen)
        if cols in frozen:
            assert remainder == lp.constant(1, gr.y_arity(ctx)) and minor is None
            with pytest.raises(gr.NoFactorization):
                gr.factor_fstar(ctx, cols)
            # the content of a frozen coordinate is its forward-map column
            column = fstar.columns[fstar.src_vars.index(gr.plucker_name(cols))]
            assert dict(zip(specs, column[fstar.dst_mutable:])) == {
                name: content.get(name, 0) for name in specs}
        else:
            assert gr.factor_fstar(ctx, cols) == (content, *minor)


@pytest.mark.parametrize("kn", [(2, 5), (3, 6), (2, 7)])
def test_composite_identity_matches_substitution(kn, monkeypatch):
    ctx = gr.make_context(*kn)
    results = composite_identity(ctx)
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
    # the verdicts are cached per case; a fresh cache sees the perturbed
    # entry, and the shared one comes back untouched after the test
    monkeypatch.setattr(gr, "_flattoband_holds", lru_cache(gr._flattoband_holds.__wrapped__))
    results = composite_identity(ctx)
    assert results == ref_composite_identity(ctx)
    assert not all(holds for _, holds in results)


@pytest.mark.parametrize("seed", tame_seeds(random.Random(2007), 8), ids=lambda s: f"n{s.n}m{s.m}")
def test_rp_propagated_matches_sympy(seed):
    # the closed form of the hatted propagation against the rule itself,
    # y_j y_k^[b]+ (y_k + 1)^-b, in sympy's rational functions, for every
    # sign of b on the seed's own hatted variables
    gens = sympy.symbols(f"v:{seed.n + seed.m}")
    hatted = [sd.hatted(seed, j) for j in range(seed.n)]
    values = [sympy_laurent(num, gens) / sympy_laurent(den, gens) for num, den in hatted]
    for k in range(seed.n):
        for j in range(seed.n):
            if j == k:
                continue
            for b in (-2, -1, 0, 1, 2):
                num, den = sd.rp_propagated(hatted[j], hatted[k], b)
                rule = values[j] * values[k] ** max(b, 0) * (values[k] + 1) ** -b
                got = sympy_laurent(num, gens) / sympy_laurent(den, gens)
                assert sympy.cancel(got - rule) == 0, (k, j, b)
