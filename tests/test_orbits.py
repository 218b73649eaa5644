"""Rescaling action and orbit equivalence of non-normalized seeds."""

import textwrap

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import clusterkit.laurent as lp
import clusterkit.orbits as ob
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


def gr35_seedlike():
    return ob.seedlike_from_seed(sd.initial_seed(GR35_BTILDE, GR35_NAMES))


def unit(arity, i):
    return tuple(1 if t == i else 0 for t in range(arity))


def arity_of(sl):
    return len(next(iter(sl.cluster[0])))


def hatted(sl, j):
    return sd.hatted_pair([row[j] for row in sl.b], sl.cluster, *sl.pairs[j])


def zero_rescaling(sl):
    zero = (0,) * arity_of(sl)
    return ob.Rescaling((zero,) * sl.n, (zero,) * sl.n)


def negated(r):
    return ob.Rescaling(tuple(map(lp.exp_neg, r.c)), tuple(map(lp.exp_neg, r.d)))


def added(r1, r2):
    return ob.Rescaling(tuple(map(lp.exp_add, r1.c, r2.c)), tuple(map(lp.exp_add, r1.d, r2.d)))


@st.composite
def embedded_seedlikes(DRAW, max_word=2):
    n = DRAW(st.integers(2, 3))
    m = DRAW(st.integers(1, 2))
    principal = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = DRAW(st.integers(-2, 2))
            principal[i][j] = e
            principal[j][i] = -e
    frozen = [
        [DRAW(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)
    ]
    names = [f"u{i}" for i in range(n)] + [f"f{i}" for i in range(m)]
    seed = sd.initial_seed(principal + frozen, names)
    sl = ob.seedlike_from_seed(seed)
    word = DRAW(st.lists(st.integers(0, n - 1), max_size=max_word))
    for k in word:
        sl = ob.mutate_seedlike(sl, k)
    return sl


@st.composite
def seedlike_with_rescaling(DRAW):
    sl = DRAW(embedded_seedlikes())
    arity = arity_of(sl)
    n = sl.n

    def frozen_exp():
        return tuple(
            0 if i < n else DRAW(st.integers(-2, 2)) for i in range(arity)
        )

    r = ob.Rescaling(
        tuple(frozen_exp() for _ in range(n)),
        tuple(frozen_exp() for _ in range(n)),
    )
    return sl, r


@settings(max_examples=40)
@given(embedded_seedlikes())
def test_identity_rescaling_fixes_seed(sl):
    assert ob.seedlike_equal(ob.apply_rescaling(sl, zero_rescaling(sl)), sl)


@settings(max_examples=40)
@given(seedlike_with_rescaling())
def test_invert_round_trip(pair):
    sl, r = pair
    back = ob.apply_rescaling(ob.apply_rescaling(sl, r), negated(r))
    assert ob.seedlike_equal(back, sl)


@settings(max_examples=40)
@given(seedlike_with_rescaling(), seedlike_with_rescaling())
def test_compose_matches_sequential(p1, p2):
    sl, r1 = p1
    _, r2 = p2
    if len(r2.c) != sl.n or len(r2.c[0]) != arity_of(sl):
        return
    seq = ob.apply_rescaling(ob.apply_rescaling(sl, r1), r2)
    joint = ob.apply_rescaling(sl, added(r1, r2))
    assert ob.seedlike_equal(seq, joint)


@settings(max_examples=40)
@given(seedlike_with_rescaling())
def test_rescaling_preserves_b_and_hatted(pair):
    sl, r = pair
    other = ob.apply_rescaling(sl, r)
    assert other.b == sl.b
    for j in range(sl.n):
        assert sd.rp_equal(hatted(sl, j), hatted(other, j))


@settings(max_examples=40)
@given(seedlike_with_rescaling())
def test_equivalent_recovers_witness(pair):
    sl, r = pair
    other = ob.apply_rescaling(sl, r)
    assert ob.seeds_equivalent(sl, other) == r


@settings(max_examples=30)
@given(embedded_seedlikes())
def test_reflexive_witness_is_identity(sl):
    assert ob.seeds_equivalent(sl, sl) == zero_rescaling(sl)


@settings(max_examples=30)
@given(seedlike_with_rescaling())
def test_symmetric_witness_is_inverse(pair):
    sl, r = pair
    other = ob.apply_rescaling(sl, r)
    assert ob.seeds_equivalent(other, sl) == negated(r)


@settings(max_examples=30)
@given(seedlike_with_rescaling(), seedlike_with_rescaling())
def test_transitive_witness_composes(p1, p2):
    a, r1 = p1
    _, r2 = p2
    if len(r2.c) != a.n or len(r2.c[0]) != arity_of(a):
        return
    b = ob.apply_rescaling(a, r1)
    c = ob.apply_rescaling(a, r2)
    w = ob.seeds_equivalent(b, c)
    assert w == added(negated(r1), r2)


@settings(max_examples=25)
@given(seedlike_with_rescaling(), st.integers(0, 2))
def test_closure_under_mutation(pair, kraw):
    sl, r = pair
    k = kraw % sl.n
    other = ob.apply_rescaling(sl, r)
    w = ob.seeds_equivalent(ob.mutate_seedlike(sl, k), ob.mutate_seedlike(other, k))
    assert w is not None
    for j in range(sl.n):
        if j == k:
            assert w.c[j] == lp.exp_sub(r.d[k], r.c[k])
        else:
            assert w.c[j] == r.c[j]


@st.composite
def extended_matrices(DRAW):
    n = DRAW(st.integers(2, 3))
    m = DRAW(st.integers(1, 2))
    principal = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = DRAW(st.integers(-2, 2))
            principal[i][j] = e
            principal[j][i] = -e
    frozen = [[DRAW(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
    names = [f"u{i}" for i in range(n)] + [f"f{i}" for i in range(m)]
    return principal + frozen, names


@settings(max_examples=25)
@given(extended_matrices(), st.lists(st.integers(0, 2), min_size=1, max_size=3))
def test_representative_tracks_normalized_mutation(mat, word):
    """Mutating the embedded seed and mutating its frozen rows as a matrix
    must land in one orbit.  The clusters agree on the nose only for the
    first step; afterwards the representatives drift by frozen factors that
    feed back through later exchanges, so equivalence is the whole claim."""
    btilde, names = mat
    sl = ob.seedlike_from_seed(sd.initial_seed(btilde, names))
    seed = sd.initial_seed(btilde, names)
    first = True
    for k in word:
        k %= sl.n
        sl = ob.mutate_seedlike(sl, k)
        seed = sd.mutate_seed(seed, k)
        w = ob.seeds_equivalent(sl, ob.seedlike_from_seed(seed))
        assert w is not None
        if first:
            assert all(not any(c) for c in w.c)
            first = False


def test_gr35_tracks_normalized_mutation():
    sl = gr35_seedlike()
    seed = sd.initial_seed(GR35_BTILDE, GR35_NAMES)
    for step, k in enumerate([0, 1, 0, 1, 0]):
        sl = ob.mutate_seedlike(sl, k)
        seed = sd.mutate_seed(seed, k)
        w = ob.seeds_equivalent(sl, ob.seedlike_from_seed(seed))
        assert w is not None
        if step == 0:
            assert all(not any(c) for c in w.c)


def test_not_equivalent_when_b_differs():
    sl = gr35_seedlike()
    assert ob.seeds_equivalent(sl, ob.mutate_seedlike(sl, 0)) is None


def scaled_var_copy(sl, j, delta):
    cluster = list(sl.cluster)
    cluster[j] = lp.shift(cluster[j], delta)
    return ob.SeedLike(sl.b, cluster, sl.pairs, sl.var_names)


def test_not_equivalent_on_mutable_ratio():
    sl = gr35_seedlike()
    arity = arity_of(sl)
    shifted = scaled_var_copy(sl, 0, unit(arity, 0))
    assert ob.seeds_equivalent(sl, shifted) is None


def test_not_equivalent_on_one_sided_pair_change():
    sl = gr35_seedlike()
    arity = arity_of(sl)
    delta = unit(arity, sl.n)
    pairs = list(sl.pairs)
    pairs[0] = (lp.exp_add(pairs[0][0], delta), pairs[0][1])
    bumped = ob.SeedLike(sl.b, sl.cluster, pairs, sl.var_names)
    assert ob.seeds_equivalent(sl, bumped) is None


def test_two_sided_pair_shift_is_equivalent():
    sl = gr35_seedlike()
    arity = arity_of(sl)
    delta = unit(arity, sl.n + 1)
    pairs = list(sl.pairs)
    pairs[1] = (lp.exp_add(pairs[1][0], delta), lp.exp_add(pairs[1][1], delta))
    shifted = ob.SeedLike(sl.b, sl.cluster, pairs, sl.var_names)
    w = ob.seeds_equivalent(sl, shifted)
    assert w is not None
    assert all(not any(c) for c in w.c)
    assert w.d[1] == lp.exp_neg(delta)
    assert not any(w.d[0])


def test_hatted_matches_seed_hatted():
    seed = sd.initial_seed(GR35_BTILDE, GR35_NAMES)
    sl = ob.seedlike_from_seed(seed)
    for j in range(2):
        assert sd.rp_equal(hatted(sl, j), sd.hatted(seed, j))


BIG = 2 ** 16


@st.composite
def rescaled_seedlikes(DRAW):
    """Embedded seeds rescaled by frozen monomials whose exponents reach past
    2^16 either way, so clusters and pairs hold negative exponents and need
    lanes wider than 16 bits."""
    sl = DRAW(embedded_seedlikes())
    arity, n = arity_of(sl), sl.n
    entry = st.one_of(st.integers(-2, 2), st.integers(BIG, 2 * BIG), st.integers(-2 * BIG, -BIG))

    def frozen_exp():
        return tuple(0 if i < n else DRAW(entry) for i in range(arity))

    return ob.apply_rescaling(sl, ob.Rescaling(
        tuple(frozen_exp() for _ in range(n)), tuple(frozen_exp() for _ in range(n))
    ))


@settings(max_examples=40)
@given(rescaled_seedlikes())
def test_packed_exchange_matches_the_tuple_path(tuple_exchange, sl):
    for k in range(sl.n):
        terms = tuple_exchange(sl.b, sl.cluster, k, *map(lp.monomial, sl.pairs[k]))
        assert hatted(sl, k) == terms
        assert lp.mul(ob.mutate_seedlike(sl, k).cluster[k], sl.cluster[k]) == lp.add(*terms)


A2_B = [[0, 1], [-1, 0]]
A2_NAMES = ["x1", "x2", "y"]
A2_CLUSTER = [lp.variable(0, 3), lp.variable(1, 3)]
A2_PAIRS = [((0, 0, 1), (0, 0, 0)), ((0, 0, 0), (0, 0, 0))]


@pytest.mark.parametrize("cluster, pairs", [
    (A2_CLUSTER, [((0, 0, 1, 0), (0, 0, 0)), A2_PAIRS[1]]),
    (A2_CLUSTER, [A2_PAIRS[0], ((0, 0, 0), (0, 0))]),
    ([lp.variable(0, 4), A2_CLUSTER[1]], A2_PAIRS),
], ids=["long-pair", "short-pair", "long-cluster-exponent"])
def test_seedlike_rejects_exponents_of_another_arity(cluster, pairs):
    # the packed exchange zips exponents, so a wrong length would truncate
    with pytest.raises(sd.InvalidSeed):
        ob.SeedLike(A2_B, cluster, pairs, A2_NAMES)


def test_seedlike_rejects_a_b_that_is_not_square():
    # unchecked, mutate_seedlike reads b[1][0] and raises IndexError
    with pytest.raises(sd.InvalidSeed):
        ob.SeedLike([[0, 1], [-1]], A2_CLUSTER, A2_PAIRS, A2_NAMES)


@pytest.mark.parametrize("c, d", [
    (((0, 0, 1, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 0))),
    (((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0))),
], ids=["long-c", "short-d"])
def test_apply_rescaling_rejects_exponents_of_another_arity(c, d):
    sl = ob.SeedLike(A2_B, A2_CLUSTER, A2_PAIRS, A2_NAMES)
    with pytest.raises(ValueError):
        ob.apply_rescaling(sl, ob.Rescaling(c, d))


def test_input_checks_survive_optimize(run_optimized):
    # typed errors, not asserts that python -O would strip
    run_optimized(textwrap.dedent("""
        from clusterkit import laurent as lp, orbits as ob, seeds as sd
        x = lp.variable(0, 1)
        pairs = [((0,), (0,))]
        sl = ob.SeedLike([[0]], [x], pairs, ["x"])
        calls = [
            (lambda: ob.Rescaling(((0,),), ()), ValueError),
            (lambda: ob.SeedLike([[0]], [x, x], pairs, ["x"]), sd.InvalidSeed),
            (lambda: ob.SeedLike([[0]], [{}], pairs, ["x"]), sd.InvalidSeed),
            (lambda: ob.apply_rescaling(sl, ob.Rescaling(((0,),) * 2, ((0,),) * 2)), ValueError),
            (lambda: ob.mutate_seedlike(sl, 1), ValueError),
        ]
        for i, (call, error) in enumerate(calls):
            try:
                call()
            except error:
                continue
            raise SystemExit(f"call {i} raised no {error.__name__}")
    """))


def test_frozen_ratio():
    x1, y1 = lp.variable(0, 2), lp.variable(1, 2)
    f = lp.add(x1, y1)
    assert ob.frozen_ratio(lp.mul(f, y1), f, 1) == (0, 1)
    assert ob.frozen_ratio(f, f, 1) == (0, 0)
    # a mutable factor, a sign and a non-monomial quotient are all refused
    assert ob.frozen_ratio(lp.mul(f, x1), f, 1) is None
    assert ob.frozen_ratio(lp.scale(f, -1), f, 1) is None
    assert ob.frozen_ratio(lp.mul(f, f), f, 1) is None


def test_rescalings_compare_by_value():
    r = ob.Rescaling(((1, 0),), ((0, 1),))
    same = ob.Rescaling(((1, 0),), ((0, 1),))
    assert r == same and hash(r) == hash(same)
    assert r != ob.Rescaling(((1, 0),), ((0, 2),))
    with pytest.raises(AttributeError):
        r.c = same.c
