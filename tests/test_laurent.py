"""Property and oracle tests for the Laurent polynomial layer."""

from __future__ import annotations

import textwrap
from heapq import heappop, heappush

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterkit import laurent as lp

ARITY = 3
MAX_ARITY = 6
BIG = 2 ** 20

# One arity (0..6) and one offset per variable (up to +-2^20) per test case,
# shared by every polynomial and exponent that case draws.  The offset moves
# the support far from the origin; `spread` keeps the terms of a polynomial
# within a few steps of it (SMALL) or lets them lie up to 2^20 apart (WIDE),
# so products and quotients run at every lane width up to 32 bits.
ARITIES = st.shared(st.integers(0, MAX_ARITY), key="arity")
OFFSETS = st.shared(
    st.lists(st.integers(-BIG, BIG), min_size=MAX_ARITY, max_size=MAX_ARITY),
    key="offset",
)
MUTABLE_COUNTS = ARITIES.flatmap(lambda n: st.integers(0, n))
SMALL = st.integers(-4, 4)
WIDE = st.one_of(SMALL, st.integers(-BIG, BIG))


@st.composite
def exponents(draw, spread=WIDE, offset: bool = True):
    arity = draw(ARITIES)
    base = draw(OFFSETS) if offset else [0] * MAX_ARITY
    return tuple(base[i] + draw(spread) for i in range(arity))


@st.composite
def polys(draw, max_terms: int = 5, coef_bound: int = 9, **exp_kw):
    f = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = draw(exponents(**exp_kw))
        c = draw(st.integers(-coef_bound, coef_bound))
        if c:
            f[e] = c
    return f


@st.composite
def nonzero_polys(draw, spread=WIDE):
    f = draw(polys(spread=spread))
    if not f:
        f[draw(exponents(spread))] = draw(st.integers(1, 9))
    return f


@st.composite
def positive_polys(draw, max_terms: int = 4):
    f = {}
    for _ in range(draw(st.integers(1, max_terms))):
        f[draw(exponents())] = draw(st.integers(1, 9))
    return f


def to_sympy(f, syms):
    expr = sympy.Integer(0)
    for e, c in f.items():
        term = sympy.Integer(c)
        for s, k in zip(syms, e):
            term *= s ** k
        expr += term
    return sympy.expand(expr)


SYMS = sympy.symbols("s0:6")


class TestRingAxioms:
    @given(polys(), polys())
    def test_add_commutes(self, f, g):
        assert lp.add(f, g) == lp.add(g, f)

    @given(polys(), polys(), polys())
    def test_add_associates(self, f, g, h):
        assert lp.add(lp.add(f, g), h) == lp.add(f, lp.add(g, h))

    @given(polys())
    def test_add_zero_identity(self, f):
        assert lp.add(f, {}) == f

    @given(polys())
    def test_add_neg_cancels(self, f):
        assert lp.add(f, lp.scale(f, -1)) == {}

    @given(polys(), polys())
    def test_mul_commutes(self, f, g):
        assert lp.mul(f, g) == lp.mul(g, f)

    @given(polys(), polys(), polys())
    def test_mul_associates(self, f, g, h):
        assert lp.mul(lp.mul(f, g), h) == lp.mul(f, lp.mul(g, h))

    @given(polys(), polys(), polys())
    def test_mul_distributes(self, f, g, h):
        lhs = lp.mul(f, lp.add(g, h))
        rhs = lp.add(lp.mul(f, g), lp.mul(f, h))
        assert lhs == rhs

    @given(polys(), ARITIES)
    def test_mul_one_identity(self, f, arity):
        assert lp.mul(f, lp.constant(1, arity)) == f

    @given(polys())
    def test_coefficients_stay_int(self, f):
        for c in lp.mul(f, f).values():
            assert type(c) is int

    def test_scaling_by_zero_leaves_no_terms(self):
        # not the terms with coefficient 0
        assert lp.scale({(1, 0): 3, (0, 2): -1}, 0) == {}

    def test_positive_power_of_zero_is_zero(self):
        assert lp.power({}, 3) == {}


class TestSympyOracle:
    @given(polys(), polys())
    @settings(max_examples=60)
    def test_mul_matches_sympy(self, f, g):
        ours = to_sympy(lp.mul(f, g), SYMS)
        theirs = sympy.expand(to_sympy(f, SYMS) * to_sympy(g, SYMS))
        assert sympy.simplify(ours - theirs) == 0


class TestExactDivision:
    # division runs through laurent.div_packed on operand packings
    @given(nonzero_polys(), nonzero_polys())
    def test_div_undoes_mul(self, exact_quotient, f, g):
        assert exact_quotient(lp.mul(f, g), g) == f

    @given(nonzero_polys(SMALL), nonzero_polys(SMALL))
    @settings(max_examples=60)
    def test_failed_div_means_no_integer_quotient(self, exact_quotient, f, g):
        # shifting by the minimum exponent turns Laurent divisibility into
        # ordinary polynomial divisibility (monomials are units)
        fs = lp.shift(f, lp.exp_neg(lp.min_exponent(f)))
        gs = lp.shift(g, lp.exp_neg(lp.min_exponent(g)))
        try:
            q = exact_quotient(f, g)
        except lp.NotDivisible:
            F = sympy.Poly(to_sympy(fs, SYMS), *SYMS, domain="QQ")
            G = sympy.Poly(to_sympy(gs, SYMS), *SYMS, domain="QQ")
            quotient, remainder = F.div(G)
            if remainder.is_zero:
                # divisible over Q: our rejection must be the integrality rule
                assert any(c.q != 1 for c in quotient.coeffs())
        else:
            assert lp.mul(q, g) == f

    def test_reports_non_integer_quotient(self, exact_quotient):
        f = lp.monomial((1, 0, 0), 2)
        g = lp.constant(4, ARITY)
        with pytest.raises(lp.NotDivisible):
            exact_quotient(f, g)

    def test_non_leading_term_fails(self, exact_quotient):
        x = lambda k, c=1: lp.monomial((k, 0), c)
        # (2x + 1)(x + 1) - x: the leading step divides, the next one needs
        # x / 2x over Z
        f = lp.add(lp.add(x(2, 2), x(1, 2)), x(0))
        with pytest.raises(lp.NotDivisible, match="coefficient"):
            exact_quotient(f, lp.add(x(1, 2), x(0)))
        # (x + 1)^2 + 1: two steps divide, then the constant 1 is left over
        f = lp.add(lp.add(x(2), x(1, 2)), x(0, 2))
        with pytest.raises(lp.NotDivisible, match="monomial"):
            exact_quotient(f, lp.add(x(1), x(0)))

    def test_laurent_shift_divides(self, exact_quotient):
        f = lp.monomial((-2, 1, 0), 3)
        g = lp.monomial((-3, 0, 1))
        q = exact_quotient(f, g)
        assert q == lp.monomial((1, 1, -1), 3)


def johnson_div_packed(fp, gp, arity, width):
    """The division loop `laurent.div_packed` replaced, kept verbatim as its
    reference: a max-heap merges the terms of f with the products q_i g_j
    (Johnson, SIGSAM Bull. 1974), equal keys chained so that each monomial
    is popped once."""
    guard = lp._guard(arity, width)
    if len(gp) == 1:
        ((lead_g, cg),) = gp.items()
        if any((m - lead_g) & guard for m in fp):
            raise lp.NotDivisible("leading monomial not divisible")
        if any(c % cg for c in fp.values()):
            raise lp.NotDivisible("leading coefficient not divisible over Z")
        return {m - lead_g: c // cg for m, c in fp.items()}
    f_keys = sorted(fp, reverse=True)
    g_keys = sorted(gp, reverse=True)
    lead_g, g_keys = g_keys[0], g_keys[1:]
    cg = gp[lead_g]
    g_coefs = [gp[key] for key in g_keys]
    last_g = len(g_keys) - 1
    q_keys = []
    q_coefs = []
    # heap of negated remainder keys, each present once; `chains` maps a key
    # to the pairs (i, j) whose products q_i * g_j land on it
    heap = []
    chains = {}
    next_f, n_f = 0, len(f_keys)
    while next_f < n_f or heap:
        if heap and (next_f == n_f or -heap[0] >= f_keys[next_f]):
            m = -heappop(heap)
            c = 0
            for i, j in chains.pop(m):
                c -= q_coefs[i] * g_coefs[j]
                if j < last_g:
                    j += 1
                    key = q_keys[i] + g_keys[j]
                    chain = chains.get(key)
                    if chain is None:
                        chains[key] = [(i, j)]
                        heappush(heap, -key)
                    else:
                        chain.append((i, j))
            if next_f < n_f and f_keys[next_f] == m:
                c += fp[m]
                next_f += 1
        else:
            m = f_keys[next_f]
            c = fp[m]
            next_f += 1
        if not c:
            continue
        d = m - lead_g
        if d & guard:
            raise lp.NotDivisible("leading monomial not divisible")
        q, r = divmod(c, cg)
        if r:
            raise lp.NotDivisible("leading coefficient not divisible over Z")
        i = len(q_keys)
        q_keys.append(d)
        q_coefs.append(q)
        key = d + g_keys[0]
        chain = chains.get(key)
        if chain is None:
            chains[key] = [(i, 0)]
            heappush(heap, -key)
        else:
            chain.append((i, 0))
    return dict(zip(q_keys, q_coefs))


def _division(divide, fp, gp, arity, width):
    """The quotient's (key, coefficient) pairs in order, or the message of
    the NotDivisible raised; the dividend is passed as a copy."""
    try:
        return list(divide(dict(fp), gp, arity, width).items())
    except lp.NotDivisible as exc:
        return str(exc)


@st.composite
def packed_operands(draw, max_terms: int = 12):
    """(q, g, arity, width): packed q and g whose product every lane of the
    width holds.  Narrow exponents and coefficients make terms of q g
    cancel; wide ones fill the lanes."""
    width = draw(st.sampled_from([8, 16, 32, 64, 80]))
    arity = draw(st.integers(1, 4))
    top = (1 << (width - 1)) // (2 * arity) - 1
    lane = draw(st.sampled_from([2, top]))
    coef = draw(st.sampled_from([2, 1 << 70]))

    def packed(min_terms):
        terms = draw(st.lists(st.tuples(
            st.lists(st.integers(0, lane), min_size=arity, max_size=arity),
            st.integers(-coef, coef).filter(bool)), min_size=min_terms, max_size=max_terms))
        return {lp.exponent_key(e, width): c for e, c in terms}

    return packed(0), packed(1), arity, width


class TestPackedKernel:
    @pytest.mark.parametrize("big", [2 ** 6, 2 ** 14, 2 ** 30, 2 ** 62, 2 ** 70])
    def test_every_lane_width_matches_sympy(self, exact_quotient, big):
        syms = SYMS[:3]
        f = {(big, -1, 0): 3, (0, big, -big): -2, (1, 1, 1): 5}
        g = {(-big, 2, big): 1, (0, 0, 0): -4}
        product = lp.mul(f, g)
        theirs = sympy.expand(to_sympy(f, syms) * to_sympy(g, syms))
        assert sympy.expand(to_sympy(product, syms) - theirs) == 0
        assert exact_quotient(product, g) == f
        assert exact_quotient(product, f) == g
        assert lp.power(f, 2) == lp.mul(f, f)
        assert lp.power(f, 3) == lp.mul(f, lp.mul(f, f))

    def test_operand_has_no_attribute_but_its_fields(self):
        # a packed operand decodes `poly` on demand, and only `poly`
        x = lp.Operand({(1, 0): 1, (0, 1): 1})
        with pytest.raises(AttributeError):
            x.missing
        assert not hasattr(x, "missing")

    @pytest.mark.parametrize("bound", [0, 1, 127, 128, 2 ** 31, 2 ** 63, 2 ** 80])
    def test_pack_round_trip_at_the_lane_bound(self, bound):
        f = {(bound, -bound, 0): 1, (-bound, 0, bound): 2, (0, 1, 0): 3, (0, 0, 0): 4}
        fo = lp.Operand(f)
        width = lp.lane_width(fo.degree)
        packed = fo.packed(width)
        assert lp.unpack(packed, fo.low, width) == f
        # integer order on keys is graded lex order on exponents
        order = [next(iter(lp.unpack({key: 1}, fo.low, width))) for key in sorted(packed)]
        assert order == sorted(f, key=lp.grlex_key)
        # a width below the degree is refused, not wrapped into the next lane
        with pytest.raises(ValueError):
            lp.Operand(f).packed(fo.degree.bit_length())
        half = 1 << (width - 1)
        edge = lp.Operand({(-half + 1, 0): 1, (0, 0): 1})
        assert edge.degree == half - 1
        assert lp.unpack(edge.packed(width), edge.low, width) == edge.poly
        for e in ((half, 0), (0, -half)):
            with pytest.raises(ValueError):
                lp.Operand({e: 1, (0, 0): 1}).packed(width)

    @given(packed_operands(), st.booleans())
    @settings(max_examples=150)
    def test_division_matches_johnson_on_products(self, operands, keep_zeros):
        # f = q g, with the terms that cancel dropped or kept as zeros: the
        # quotient is q, in the old loop's order when g has more than one
        # term, and descending for every divisor but the unit, which
        # returns f as it is
        q, g, arity, width = operands
        f = lp._add_product({}, q, g, 1) if keep_zeros else lp.mul_packed(q, g)
        ours = _division(lp.div_packed, f, g, arity, width)
        theirs = _division(johnson_div_packed, f, g, arity, width)
        assert (ours == theirs) if len(g) > 1 else (sorted(ours) == sorted(theirs))
        assert dict(ours) == q
        if g != {0: 1}:
            assert ours == sorted(ours, reverse=True)

    @given(packed_operands(), st.data())
    @settings(max_examples=150)
    def test_division_fails_as_johnson_does(self, operands, data):
        # q g changed by one term: the same NotDivisible message from both
        # loops, for one-term and for multi-term divisors
        q, g, arity, width = operands
        f = lp.mul_packed(q, g)
        lane = 2 if data.draw(st.booleans()) else (1 << (width - 1)) // (2 * arity) - 1
        e = data.draw(st.lists(st.integers(0, lane), min_size=arity, max_size=arity))
        key = data.draw(st.sampled_from(sorted(f))) if f and data.draw(st.booleans()) \
            else lp.exponent_key(e, width)
        c = f.get(key, 0) + data.draw(st.integers(-5, 5).filter(bool))
        f = {**f, key: c} if c else {k: v for k, v in f.items() if k != key}
        ours = _division(lp.div_packed, f, g, arity, width)
        assert ours == _division(johnson_div_packed, f, g, arity, width)
        if len(g) > 1:
            assert ours in ("leading monomial not divisible",
                            "leading coefficient not divisible over Z")


    @given(ARITIES, st.lists(st.tuples(st.integers(-3, 3), st.lists(
        polys(spread=st.integers(0, 4), offset=False), min_size=1, max_size=3)), max_size=4))
    def test_signed_sum_matches_ring_operations(self, arity, products):
        # at most 3 factors of total degree <= 4 * arity
        width = lp.lane_width(12 * arity)
        packed = [(scale, [{lp.exponent_key(e, width): c for e, c in f.items()} for f in factors])
                  for scale, factors in products]
        before = [[dict(f) for f in factors] for _, factors in packed]
        expected: dict = {}
        support = set()
        for scale, factors in products:
            term = lp.constant(scale, arity)
            for f in factors:
                term = lp.mul(term, f)
            expected = lp.add(expected, term)
            support |= set(term)
        total, cancelled = lp.signed_sum(packed)
        assert 0 not in total.values()
        assert lp.unpack(total, (0,) * arity, width) == expected
        # a key of a product missing from the sum summed to zero and is
        # reported; with none reported, the sum holds every product's keys
        assert cancelled or set(expected) == support
        # the factors are shared with caches, so they are never changed
        assert [factors for _, factors in packed] == before
        if packed and len(packed[0][1]) == 1:
            # a lone first factor starts the sum: its key ints are not rebuilt
            lone = packed[0][1][0]
            assert {id(k) for k in lone if k in total} <= {id(k) for k in total}

    def test_arity_checks_survive_optimize(self, run_optimized):
        # typed errors, not asserts that python -O would strip
        run_optimized(textwrap.dedent("""
            from clusterkit import laurent as lp
            calls = [
                lambda: lp.mul({(1, 0): 1}, {(1, 0, 0): 1}),
                lambda: lp.add({(1, 0): 1}, {(1, 0, 0): 1}),
                lambda: lp.trop_add((1, 0), (1, 0, 0)),
                lambda: lp.leading_exponent({}),
                lambda: lp.min_exponent({}),
            ]
            for i, call in enumerate(calls):
                try:
                    call()
                except ValueError:
                    continue
                raise SystemExit(f"call {i} raised no ValueError")
        """))


class TestMonomialRatio:
    @given(nonzero_polys(), exponents())
    def test_recovers_shift(self, f, e):
        assert lp.monomial_ratio(lp.shift(f, e), f) == e

    @given(nonzero_polys())
    def test_negation_is_not_proportional(self, f):
        assert lp.monomial_ratio(lp.scale(f, -1), f) is None

    @given(nonzero_polys())
    def test_doubling_is_not_proportional(self, f):
        assert lp.monomial_ratio(lp.scale(f, 2), f) is None

    def test_unrelated_polys_return_none(self):
        f = lp.add(lp.variable(0, ARITY), lp.variable(1, ARITY))
        g = lp.add(lp.variable(0, ARITY), lp.variable(2, ARITY))
        assert lp.monomial_ratio(f, g) is None

    def test_zero_has_no_ratio(self):
        assert lp.monomial_ratio({}, lp.constant(1, ARITY)) is None


class TestTropical:
    @given(exponents(), exponents())
    def test_trop_add_commutes(self, u, v):
        assert lp.trop_add(u, v) == lp.trop_add(v, u)

    @given(exponents(), exponents(), exponents())
    def test_trop_add_associates(self, u, v, w):
        assert lp.trop_add(lp.trop_add(u, v), w) == lp.trop_add(u, lp.trop_add(v, w))

    @given(exponents())
    def test_trop_add_idempotent(self, u):
        assert lp.trop_add(u, u) == u

    @given(exponents(), exponents(), exponents())
    def test_mul_distributes_over_trop_add(self, u, v, w):
        # monomial multiplication is exponent addition
        lhs = lp.exp_add(u, lp.trop_add(v, w))
        rhs = lp.trop_add(lp.exp_add(u, v), lp.exp_add(u, w))
        assert lhs == rhs

    @given(positive_polys(), positive_polys(), MUTABLE_COUNTS)
    def test_tropicalize_is_semifield_hom(self, f, g, n_mut):
        t = lambda h: lp.tropicalize(h, n_mut)
        assert t(lp.add(f, g)) == lp.trop_add(t(f), t(g))
        assert t(lp.mul(f, g)) == lp.exp_add(t(f), t(g))

    def test_tropicalize_rejects_negative(self):
        f = {(1, 0, 0): 1, (0, 1, 0): -1}
        with pytest.raises(lp.NegativeCoefficient):
            lp.tropicalize(f, 0)

    def test_tropicalize_zeroes_mutable_positions(self):
        f = {(5, -2, 3): 1, (1, 4, 1): 2}
        assert lp.tropicalize(f, 1) == (0, -2, 1)


class TestEvaluationAndJson:
    @given(polys(spread=SMALL, offset=False), polys(spread=SMALL, offset=False))
    @settings(max_examples=60)
    def test_evaluation_respects_mul(self, f, g):
        vals = dict(zip(SYMS, (2, 3, sympy.Rational(5, 7), -1, sympy.Rational(1, 2), 4)))
        lhs = to_sympy(lp.mul(f, g), SYMS).subs(vals)
        rhs = to_sympy(f, SYMS).subs(vals) * to_sympy(g, SYMS).subs(vals)
        assert lhs == rhs

    @given(polys(), ARITIES)
    def test_json_round_trip(self, f, arity):
        names = [f"v{i}" for i in range(arity)]
        g, back_names = lp.from_json(lp.to_json(f, names))
        assert g == f and back_names == names

    def test_json_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            lp.from_json({"vars": ["a"], "terms": [{"exp": [1, 2], "coef": "1"}]})

    def test_big_coefficients_survive_json(self):
        f = lp.monomial((1, 0, 0), 10 ** 40 + 7)
        g, _ = lp.from_json(lp.to_json(f, ["a", "b", "c"]))
        assert g == f

    def test_to_str_examples(self):
        f = {(1, 2, 0): 2, (0, 0, 1): -1}
        assert lp.to_str(f, ["a", "b", "c"]) == "2*a*b^2 - c"
        assert lp.to_str({}, ["a", "b", "c"]) == "0"
