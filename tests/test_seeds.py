"""Tests for seed mutation, hatted variables, and seed serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterkit import laurent as lp
from clusterkit import seeds as sd

from point_oracle import P61, exchange_value, mutated_matrix, value_at

MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]

# Rank-2 seed on the Grassmannian of 3-planes in 5-space, base cluster
# (D235, D245); generator order D235, D245, D123, D234, D345, D145, D125.
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


def gr35_seed() -> sd.Seed:
    return sd.initial_seed(GR35_BTILDE, GR35_NAMES)


def a2_seed() -> sd.Seed:
    return sd.initial_seed([[0, 1], [-1, 0]], ["x1", "x2"])


@st.composite
def random_seeds(draw, max_rank: int = 4, max_frozen: int = 2, bound: int = 2):
    n = draw(st.integers(2, max_rank))
    m = draw(st.integers(0, max_frozen))
    btilde = [[0] * n for _ in range(n + m)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.integers(-bound, bound))
            btilde[i][j] = x
            btilde[j][i] = -x
    for i in range(n, n + m):
        for j in range(n):
            btilde[i][j] = draw(st.integers(-bound, bound))
    names = [f"x{i}" for i in range(n)] + [f"f{i}" for i in range(m)]
    return sd.initial_seed(btilde, names)


class TestMatrixMutation:
    def test_rank_two_flip(self):
        assert sd.mutate_matrix([[0, 1], [-1, 0]], 0) == [[0, -1], [1, 0]]

    @given(random_seeds(), st.data())
    def test_involution(self, seed, data):
        k = data.draw(st.integers(0, seed.n - 1))
        twice = sd.mutate_matrix(sd.mutate_matrix(seed.btilde, k), k)
        assert twice == seed.btilde

    @given(random_seeds(), st.data())
    def test_symmetrizer_survives_mutation(self, seed, data):
        k = data.draw(st.integers(0, seed.n - 1))
        d = sd.skew_symmetrizer(seed.principal)
        assert d is not None
        mutated = sd.mutate_matrix(seed.principal, k)
        for i in range(seed.n):
            for j in range(seed.n):
                assert d[i] * mutated[i][j] == -d[j] * mutated[j][i]

    def test_non_skew_symmetric_symmetrizer(self):
        assert sd.skew_symmetrizer([[0, 1], [-2, 0]]) == [2, 1]
        assert sd.skew_symmetrizer([[0, 1], [-3, 0]]) == [3, 1]

    def test_symmetrizer_rejects_inconsistent_cycle(self):
        b = [[0, 1, -1], [-1, 0, 1], [2, -1, 0]]
        assert sd.skew_symmetrizer(b) is None

    def test_symmetrizer_rejects_same_sign_pair(self):
        assert sd.skew_symmetrizer([[0, 1], [1, 0]]) is None

    def test_symmetrizer_rejects_a_non_square_matrix(self):
        assert sd.skew_symmetrizer([[0, 1]]) is None


class TestSeedMutation:
    def test_a2_first_exchange(self):
        mutated = sd.mutate_seed(a2_seed(), 0)
        # x1' = (1 + x2) / x1
        assert mutated.cluster[0] == {(-1, 0): 1, (-1, 1): 1}
        assert mutated.cluster[1] == {(0, 1): 1}

    def test_gr35_mutation_at_d245(self):
        mutated = sd.mutate_seed(gr35_seed(), 1)
        # D245 * new = D145 * D235 + D125 * D345
        expected = {
            (1, -1, 0, 0, 0, 1, 0): 1,
            (0, -1, 0, 0, 1, 0, 1): 1,
        }
        assert mutated.cluster[1] == expected
        # the next exchange out of the new seed pairs D235 with (D234; D123 D345)
        plus, minus = sd.coefficient_pair(mutated, 0)
        assert plus == {(0, 0, 0, 1, 0, 0, 0): 1}
        assert minus == {(0, 0, 1, 0, 1, 0, 0): 1}

    def test_gr35_coefficient_pairs_at_base(self):
        seed = gr35_seed()
        p1 = sd.coefficient_pair(seed, 0)
        p2 = sd.coefficient_pair(seed, 1)
        assert p1[0] == {(0, 0, 0, 1, 0, 0, 1): 1}  # D125 D234
        assert p1[1] == {(0, 0, 1, 0, 0, 0, 0): 1}  # D123
        assert p2[0] == {(0, 0, 0, 0, 0, 1, 0): 1}  # D145
        assert p2[1] == {(0, 0, 0, 0, 1, 0, 1): 1}  # D345 D125

    @given(random_seeds(), st.data())
    @settings(max_examples=25)
    def test_involution_on_seeds(self, seed, data):
        word = data.draw(st.lists(st.integers(0, seed.n - 1), max_size=3))
        reached = sd.mutate_word(seed, word)
        k = data.draw(st.integers(0, seed.n - 1))
        back = sd.mutate_seed(sd.mutate_seed(reached, k), k)
        assert sd.seed_equal(back, reached)

    @given(random_seeds(), st.data())
    @settings(max_examples=25)
    def test_laurent_totality_on_short_walks(self, seed, data):
        word = data.draw(st.lists(st.integers(0, seed.n - 1), max_size=5))
        sd.mutate_word(seed, word)  # must not raise NotDivisible

    def test_markov_quiver_deep_walk(self):
        b = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
        seed = sd.initial_seed(b, ["x1", "x2", "x3"])
        reached = sd.mutate_word(seed, [1, 2, 1, 0, 2, 0, 1, 0])
        # at (1, 1, 1) every cluster of the Markov quiver is a Markov triple;
        # a Laurent polynomial's value there is its coefficient sum
        a, b, c = (sum(x.values()) for x in reached.cluster)
        assert (a, b, c) == (151620880341401, 6684339842, 7561)
        assert a * a + b * b + c * c == 3 * a * b * c

    @pytest.mark.parametrize("frozen", [[], [[1, -1, 0]]], ids=["plain", "frozen"])
    def test_every_markov_exchange_holds_at_a_random_point(self, frozen):
        # x_k x_k' = p+ prod x^[b]+ + p- prod x^[-b]+ at every step of the
        # words 0,1,2,0,... of length 9 and 10 (one walk) and of 10 seeded
        # words of length 8, with the matrices mutated by the oracle
        btilde = MARKOV + frozen
        seed = sd.initial_seed(btilde, ["a", "b", "c", "f"][: len(btilde)])
        rng = random.Random(len(btilde))
        point = [rng.randrange(2, P61) for _ in btilde]
        words = [[k % 3 for k in range(10)]]
        while len(words) < 11:
            word = [rng.randrange(3)]
            while len(word) < 8:
                word.append(rng.choice([k for k in range(3) if k != word[-1]]))
            words.append(word)
        for word in words:
            b, values = btilde, point[:]
            for k, reached in zip(word, sd.mutation_walk(seed, word)):
                new = value_at(reached.cluster[k], point)
                assert values[k] * new % P61 == exchange_value(b, values, k), (word, k)
                b, values[k] = mutated_matrix(b, k), new
                assert reached.btilde == b

    def test_direction_out_of_range_survives_optimize(self, run_optimized):
        # a typed error, not an assert that python -O would strip
        code = (
            "from clusterkit import seeds as sd\n"
            "seed = sd.initial_seed([[0, 1], [-1, 0]], ['x1', 'x2'])\n"
            "for call in (lambda: sd.mutate_seed(seed, 2),\n"
            "             lambda: sd.mutate_matrix(seed.btilde, -1)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        assert 'out of range' in str(exc)\n"
            "    else:\n"
            "        raise SystemExit('no error')\n"
        )
        run_optimized(code)


class TestHatted:
    @given(random_seeds())
    def test_initial_exponents_are_btilde_columns(self, seed):
        # at the base vertex x_i is the ambient variable i, so the two terms
        # are the monomials of the positive and negative parts of column j
        for j in range(seed.n):
            column = [row[j] for row in seed.btilde]
            num, den = sd.hatted(seed, j)
            assert (num, den) == ({tuple(max(e, 0) for e in column): 1},
                                  {tuple(max(-e, 0) for e in column): 1})
            assert lp.monomial_ratio(num, den) == tuple(column)

    def test_gr35_hatted_one(self):
        num, den = sd.hatted(gr35_seed(), 0)
        # D125 D234 / (D123 D245)
        assert num == {(0, 0, 0, 1, 0, 0, 1): 1}
        assert den == {(0, 1, 1, 0, 0, 0, 0): 1}

    @given(random_seeds(), st.data())
    @settings(max_examples=20)
    def test_propagation_along_walks(self, seed, data):
        word = data.draw(st.lists(st.integers(0, seed.n - 1), max_size=3))
        reached = sd.mutate_word(seed, word)
        k = data.draw(st.integers(0, seed.n - 1))
        assert sd.hatted_mutation_check(reached, k)

    @pytest.mark.parametrize("label", [-1, 3])
    @pytest.mark.parametrize("read", [sd.hatted, sd.coefficient_pair])
    def test_label_out_of_range(self, read, label):
        # -1 would silently read column 2, and 3 would raise a bare IndexError
        seed = sd.initial_seed(MARKOV, ["x0", "x1", "x2"])
        with pytest.raises(ValueError, match=f"direction {label} out of range for rank 3"):
            read(seed, label)

    def test_a2_both_directions(self):
        assert sd.hatted_mutation_check(a2_seed(), 0)
        assert sd.hatted_mutation_check(a2_seed(), 1)

    def test_corrupted_seed_fails(self):
        seed = gr35_seed()
        v0 = lp.variable(0, 7)
        one = lp.constant(1, 7)
        corrupted = sd.Seed(
            seed.btilde,
            [lp.mul(seed.cluster[0], lp.add(v0, one)), seed.cluster[1]],
            seed.var_names,
        )
        # mutation towards the corrupted variable cannot divide exactly
        assert not sd.hatted_mutation_check(corrupted, 0)
        # away from it the propagation law is a formal identity and survives
        assert sd.hatted_mutation_check(corrupted, 1)

    def test_nonzero_diagonal_fails_propagation(self):
        # `Seed` rejects a nonzero diagonal entry; past that check, mutation
        # at 0 still divides, x' = (x + 1) / x, but carries the hatted
        # variable x to x / (x + 1), where the rule asks for its inverse
        seed = sd.Seed.trusted([[1]], [lp.variable(0, 1)], ["x"])
        assert not sd.hatted_mutation_check(seed, 0)

    def test_mutated_seed_inverts_hatted_at_k(self):
        seed = gr35_seed()
        mutated = sd.mutate_seed(seed, 0)
        assert sd.rp_equal(sd.hatted(mutated, 0), sd.rp_inv(sd.hatted(seed, 0)))


class TestOpposite:
    @given(random_seeds())
    def test_hatted_inverts(self, seed):
        # the opposite seed: the same cluster over the negated matrix
        opp = sd.Seed([[-x for x in row] for row in seed.btilde], seed.cluster, seed.var_names)
        for j in range(seed.n):
            num, den = sd.hatted(seed, j)
            onum, oden = sd.hatted(opp, j)
            assert sd.rp_equal((onum, oden), (den, num))


class TestIndecomposable:
    def test_examples(self):
        assert sd.is_indecomposable([[0, 1], [-1, 0]])
        assert not sd.is_indecomposable(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
        )
        assert sd.is_indecomposable([[0]])

    def test_empty_matrix_is_indecomposable(self):
        # the graph on no vertices is connected
        assert sd.is_indecomposable([])


class TestSerialization:
    @given(random_seeds(), st.data())
    @settings(max_examples=20)
    def test_json_round_trip(self, seed, data):
        word = data.draw(st.lists(st.integers(0, seed.n - 1), max_size=3))
        reached = sd.mutate_word(seed, word)
        back = sd.seed_from_json(sd.seed_to_json(reached))
        assert sd.seed_equal(back, reached)

    def test_json_rejects_bad_shape(self):
        obj = sd.seed_to_json(a2_seed())
        obj["btilde"] = [[0, 1]]
        with pytest.raises(sd.InvalidSeed):
            sd.seed_from_json(obj)

    def test_seed_rejects_non_symmetrizable_principal(self):
        with pytest.raises(sd.InvalidSeed):
            sd.initial_seed([[0, 1], [1, 0]], ["a", "b"])

    @pytest.mark.parametrize("last", [[5], [5, 1, 7]], ids=["short", "long"])
    def test_seed_rejects_a_frozen_row_of_another_length(self, last):
        # unchecked, a short row makes mutation and explore raise IndexError,
        # and mutation cuts a long one to n entries without a word
        found = "1/2" if last == [5] else "2/3"
        with pytest.raises(sd.InvalidSeed, match=f"^shape of btilde is 3 x {found}, not 3 x 2$"):
            sd.initial_seed([[0, 1], [-1, 0], last], ["a", "b", "c"])

    def test_initial_seed_of_no_rows_is_the_rank_0_seed(self):
        # no rows is rank 0 with no frozen rows, as `Seed` and seed files read it
        assert sd.seed_equal(sd.initial_seed([], []), sd.Seed([], [], []))
