"""Seeds of geometric type and their mutation.

A seed holds an extended exchange matrix `btilde` with n + m rows (mutable
generators first, then frozen ones) and n columns, plus the n cluster
variables as Laurent polynomials over a fixed ambient variable list of
length n + m.  Frozen generator values are not stored: by convention the
ambient variables at positions n..n+m-1 are the frozen generators themselves,
so coefficient monomials can always be read off the bottom rows of `btilde`.

Hatted variables are (numerator, denominator) polynomial pairs, compared by
cross multiplication; no rational-function normal form is ever needed.
"""

from __future__ import annotations

from math import gcd
from operator import add as _iadd
from operator import sub as _isub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import laurent as lp
from .laurent import Exponent, Poly

Matrix = List[List[int]]
Pair = Tuple[Exponent, Exponent]
RationalPair = Tuple[Poly, Poly]
Operands = Sequence[Optional[lp.Operand]]


class InvalidSeed(Exception):
    """Seed data fails a structural requirement."""


# ---------------------------------------------------------------------------
# exchange matrices

def mutate_matrix(btilde: Sequence[Sequence[int]], k: int) -> List[Sequence[int]]:
    """Matrix mutation in direction k, applied to all rows.

    Row and column k flip sign; entry (i, j) otherwise gains
    sign(b_ik) * [b_ik * b_kj]_+: b_ik times [row k]_+ or [-row k]_+.
    The result is a new list of rows that shares the rows mutation leaves
    unchanged: each row i != k with b_ik = 0 is the input row object
    itself, and only row k and the rows with b_ik != 0 are new lists.  So
    no caller may write into a row it passes in or gets back: seeds are
    immutable, and successive seeds of a walk share these rows.
    """
    n = len(btilde[0]) if btilde else 0
    _check_direction(k, n)
    row_k = btilde[k]
    out = []
    for i, row in enumerate(btilde):
        bik = row[k]
        if i == k:
            row = [-x for x in row]
        elif bik > 0:
            row = [x + bik * y if y > 0 else x for x, y in zip(row, row_k)]
            row[k] = -bik
        elif bik:
            row = [x - bik * y if y < 0 else x for x, y in zip(row, row_k)]
            row[k] = -bik
        out.append(row)
    return out


def _check_direction(k: int, n: int) -> None:
    if not 0 <= k < n:
        raise ValueError(f"direction {k} out of range for rank {n}")


def skew_symmetrizer(b: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Positive integers d with d_i b_ij = -d_j b_ji, or None.

    Propagates integer d_i through each connected component of the nonzero
    pattern, checking d_i |b_ij| == d_j |b_ji| by cross multiplication.
    Each component starts at d_0, and a forced value that is not an integer
    rescales all values by its denominator, so the result is the smallest
    positive solution whose component starts are all equal.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        return None
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = d[0] or 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j, bij in enumerate(b[i]):
                bji = b[j][i]
                # zero entries must pair with zero entries, opposite signs else
                if (bij == 0) != (bji == 0) or bij * bji > 0:
                    return None
                if not bij:
                    continue
                num, den = d[i] * abs(bij), abs(bji)
                if not d[j]:
                    scale = den // gcd(num, den)
                    if scale != 1:
                        d = [x * scale for x in d]
                        num *= scale
                    d[j] = num // den
                    queue.append(j)
                elif num != d[j] * den:
                    return None
    return d


def is_indecomposable(b: Sequence[Sequence[int]]) -> bool:
    """Connectivity of the graph on mutable indices with edges b_ij != 0."""
    n = len(b)
    if n == 0:
        return True
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if j not in seen and (b[i][j] or b[j][i]):
                seen.add(j)
                queue.append(j)
    return len(seen) == n


# ---------------------------------------------------------------------------
# seeds

class Seed:
    """Immutable seed of geometric type; operations return fresh seeds."""

    __slots__ = ("n", "m", "btilde", "cluster", "var_names")

    def __init__(
        self,
        btilde: Sequence[Sequence[int]],
        cluster: Sequence[Poly],
        var_names: Sequence[str],
    ):
        self.n = len(btilde[0]) if btilde else 0
        self.m = len(btilde) - self.n
        self.btilde = [list(row) for row in btilde]
        self.cluster = [dict(x) for x in cluster]
        self.var_names = list(var_names)
        self._check()

    def _check(self) -> None:
        if self.m < 0:
            raise InvalidSeed("btilde has fewer rows than columns")
        if len(self.cluster) != self.n:
            raise InvalidSeed(
                f"{len(self.cluster)} cluster variables for rank {self.n}"
            )
        if len(self.var_names) != self.n + self.m:
            raise InvalidSeed(
                f"{len(self.var_names)} variable names for {self.n + self.m} generators"
            )
        for i, row in enumerate(self.btilde):
            if len(row) != self.n:
                raise InvalidSeed(f"btilde row {i} has {len(row)} entries, not {self.n}")
        if skew_symmetrizer(self.principal) is None:
            raise InvalidSeed("principal part is not skew-symmetrizable")
        for x in self.cluster:
            if not x:
                raise InvalidSeed("zero cluster variable")
            for e in x:
                if len(e) != self.n + self.m:
                    raise InvalidSeed("cluster variable has wrong ambient arity")

    @classmethod
    def trusted(
        cls, btilde: Sequence[Sequence[int]], cluster: List[Poly], var_names: List[str]
    ) -> Seed:
        """A seed over data known to pass `_check`, such as a mutation or an
        exploration node of a checked seed: nothing is validated, and the
        lists and polynomials are shared, not copied."""
        out = cls.__new__(cls)
        out.n = len(btilde[0]) if btilde else 0
        out.m = len(btilde) - out.n
        out.btilde, out.cluster, out.var_names = btilde, cluster, var_names
        return out

    @property
    def principal(self) -> Matrix:
        return [row[: self.n] for row in self.btilde[: self.n]]


def initial_seed(btilde: Sequence[Sequence[int]], var_names: Sequence[str]) -> Seed:
    """Seed at the base vertex: cluster variables are the ambient variables."""
    n = len(btilde[0])
    total = len(btilde)
    cluster = [lp.variable(i, total) for i in range(n)]
    return Seed(btilde, cluster, var_names)


def seed_equal(a: Seed, b: Seed) -> bool:
    return (
        a.btilde == b.btilde
        and a.cluster == b.cluster
        and a.var_names == b.var_names
    )


def frozen_pair(column: Sequence[int], n: int) -> Pair:
    """The exponent vectors of (p+, p-) over the ambient variables, read off
    the frozen rows (from n on) of a btilde column."""
    zeros = (0,) * n
    return (zeros + tuple([e if e > 0 else 0 for e in column[n:]]),
            zeros + tuple([-e if e < 0 else 0 for e in column[n:]]))


def coefficient_pair(seed: Seed, k: int) -> Tuple[Poly, Poly]:
    """The frozen monomials (p+_k, p-_k) read off column k of btilde."""
    _check_direction(k, seed.n)
    plus, minus = frozen_pair([row[k] for row in seed.btilde], seed.n)
    return lp.monomial(plus), lp.monomial(minus)


def operands(cluster: Sequence[Poly], column: Sequence[int], k: int = -1) -> Operands:
    """The cluster as operands of `packed_terms`: x_k and the x_j with
    b_jk != 0, None elsewhere."""
    return [lp.Operand(x) if e or j == k else None
            for j, (x, e) in enumerate(zip(cluster, column))]


def packed_terms(
    column: Sequence[int], cluster: Operands, plus: Exponent, minus: Exponent, floor: int = 0
) -> Tuple[List[int], int, lp.Product, lp.Product]:
    """The exchange terms p+ prod x_j^[b_jk]+ and p- prod x_j^[-b_jk]+ at k
    as (low, width, plus term, minus term), each x^low times a packed
    (scale, factors) product for `laurent.signed_sum`, both from one pass
    over column k (entries past the cluster are ignored), the cluster as
    operands where b_jk != 0, and p+, p- as ambient exponent vectors.

    A term is scale x^lo times the product of (x^-low_j x_j)^e over its
    factors (x_j, e), and x^lo its exact minimum exponent (module docstring
    of `laurent`); lo starts at the coefficient's exponent, which a rescaled
    pair may make negative.  A monomial operand (degree 0) only moves lo and
    scales the term, so a term without factors packs to one key.  Both
    terms are shifted by the componentwise minimum `low` of their lo, so
    every exponent met is nonnegative, and one lane width holds the largest
    total degree a term reaches and `floor` (x_k's when dividing).  The
    powers come from the operands, which keep them."""
    # per term: [lo, total degree of the product, scale, factors]
    sides = ([plus, 0, 1, []], [minus, 0, 1, []])
    for x, e in zip(cluster, column):
        if e:
            side = sides[e < 0]
            e = abs(e)
            side[0] = list(map(_iadd, side[0], x.low if e == 1 else [e * b for b in x.low]))
            if x.degree:
                side[1] += e * x.degree
                side[3].append((x, e))
            else:
                side[2] *= next(iter(x.poly.values())) ** e
    (lo_p, deg_p, _, _), (lo_m, deg_m, _, _) = sides
    low = [a if a < b else b for a, b in zip(lo_p, lo_m)]
    shift = sum(low)
    width = lp.lane_width(max(deg_p + sum(lo_p) - shift, deg_m + sum(lo_m) - shift, floor))
    plus_term, minus_term = [
        (scale, [x.power(width, e) for x, e in factors]
         + [{lp.exponent_key(list(map(_isub, lo, low)), width): 1}])
        for lo, _, scale, factors in sides
    ]
    return low, width, plus_term, minus_term


def exchange_packed(
    column: Sequence[int], k: int, cluster: Operands, plus: Exponent, minus: Exponent
) -> lp.Operand:
    """(p+ prod x_j^[b_jk]+ + p- prod x_j^[-b_jk]+) / x_k as an operand:
    `laurent.signed_sum` of the two `packed_terms`, divided by
    `laurent.div_packed` in their lanes, which uses the sum up.  Unless a
    key cancelled in the sum, the quotient stays packed: its minimum is the
    terms' common one less x_k's, its cache starts with that packing as
    its first power, and its polynomial is decoded only when asked for.
    NotDivisible means the input is no seed (the Laurent property fails);
    a vanishing quotient, possible with signed coefficients, raises
    InvalidSeed."""
    xk = cluster[k]
    low, width, f, g = packed_terms(column, cluster, plus, minus, xk.degree)
    total, cancelled = lp.signed_sum([f, g])
    quot = lp.div_packed(total, xk.packed(width), len(low), width)
    if not quot:
        raise InvalidSeed("zero cluster variable")
    low = lp.exp_sub(low, xk.low)
    if cancelled:
        # the sum's minimum may lie above the terms': decode to find it
        return lp.Operand(lp.unpack(quot, low, width))
    return lp.Operand.packed_form(quot, low, width)


def exchanged(seed: Seed, k: int) -> Poly:
    """The cluster variable that replaces x_k in the mutation at k."""
    _check_direction(k, seed.n)
    col = [row[k] for row in seed.btilde]
    return exchange_packed(col, k, operands(seed.cluster, col, k), *frozen_pair(col, seed.n)).poly


def mutation_walk(seed: Seed, word: Iterable[int]) -> Iterator[Seed]:
    """The seed after each mutation of the word, left to right.

    The walk keeps one operand per cluster position, with its one cache of
    packings and powers, so a step packs and raises only what changed: an
    operand is made when an exchange first needs its variable, and a step
    keeps the operand `exchange_packed` returns for position k, packed in
    the lanes of that exchange, dropping the replaced one with its cache.
    Each seed skips `Seed._check`: mutation keeps the shape, the ambient
    arity and the skew-symmetrizer, and `exchange_packed` checks the one
    new entry.
    """
    ops: List[Optional[lp.Operand]] = [None] * seed.n
    for k in word:
        _check_direction(k, seed.n)
        col = [row[k] for row in seed.btilde]
        for j, x in enumerate(seed.cluster):
            if ops[j] is None and (col[j] or j == k):
                ops[j] = lp.Operand(x)
        ops[k] = exchange_packed(col, k, ops, *frozen_pair(col, seed.n))
        cluster = list(seed.cluster)
        cluster[k] = ops[k].poly
        seed = Seed.trusted(mutate_matrix(seed.btilde, k), cluster, seed.var_names)
        yield seed


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k: the one-step `mutation_walk`."""
    return next(mutation_walk(seed, (k,)))


def mutate_word(seed: Seed, word: Sequence[int]) -> Seed:
    """Apply mutations left to right, along one `mutation_walk`."""
    for seed in mutation_walk(seed, word):
        pass
    return seed


def opposite_seed(seed: Seed) -> Seed:
    """Same cluster over the negated extended exchange matrix."""
    return Seed([[-x for x in row] for row in seed.btilde], seed.cluster, seed.var_names)


# ---------------------------------------------------------------------------
# hatted variables

def rp_mul(a: RationalPair, b: RationalPair) -> RationalPair:
    return lp.mul(a[0], b[0]), lp.mul(a[1], b[1])


def rp_inv(a: RationalPair) -> RationalPair:
    return a[1], a[0]


def rp_power(a: RationalPair, k: int) -> RationalPair:
    # components are nonzero by construction, so lp.power handles k = 0
    if k < 0:
        return rp_power(rp_inv(a), -k)
    return lp.power(a[0], k), lp.power(a[1], k)


def rp_plus_one(a: RationalPair) -> RationalPair:
    return lp.add(a[0], a[1]), a[1]


def rp_equal(a: RationalPair, b: RationalPair) -> bool:
    """Cross-multiplied equality of numerator/denominator pairs."""
    return lp.mul(a[0], b[1]) == lp.mul(a[1], b[0])


def hatted(seed: Seed, j: int) -> RationalPair:
    """The hatted variable at j: (p+_j / p-_j) * prod_i x_i^b_ij, whose
    numerator and denominator are the two exchange terms at j."""
    _check_direction(j, seed.n)
    column = [row[j] for row in seed.btilde]
    return hatted_pair(column, seed.cluster, *frozen_pair(column, seed.n))


def hatted_pair(
    column: Sequence[int], cluster: Sequence[Poly], plus: Exponent, minus: Exponent
) -> RationalPair:
    """The hatted variable (p+ / p-) * prod_i x_i^b_ij of a seed with the
    coefficient pair (plus, minus), normalized or not: the two
    `packed_terms`, evaluated by `laurent.signed_sum` and decoded; a
    monomial term packs to one key."""
    low, width, f, g = packed_terms(column, operands(cluster, column), plus, minus)
    return lp.unpack(lp.signed_sum([f])[0], low, width), lp.unpack(lp.signed_sum([g])[0], low, width)


def hatted_mutation_check(seed: Seed, k: int) -> bool:
    """Whether mutation propagates hatted variables the way it must.

    Recomputes the hatted tuple from the mutated seed and compares it with
    the propagation rule applied to the current tuple: inversion at k, and
    y_j * y_k^[b_kj]+ * (y_k + 1)^(-b_kj) away from k.  A seed that cannot
    even be mutated (exchange division fails) checks false rather than
    raising: such data is not a seed of any pattern.
    """
    try:
        mutated = mutate_seed(seed, k)
    except lp.NotDivisible:
        return False
    before = [hatted(seed, j) for j in range(seed.n)]
    after = [hatted(mutated, j) for j in range(seed.n)]
    for j in range(seed.n):
        if j == k:
            expected = rp_inv(before[k])
        else:
            bkj = seed.btilde[k][j]
            expected = rp_mul(
                before[j],
                rp_mul(
                    rp_power(before[k], max(bkj, 0)),
                    rp_power(rp_plus_one(before[k]), -bkj),
                ),
            )
        if not rp_equal(after[j], expected):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON format

def seed_to_json(seed: Seed) -> dict:
    return {
        "n": seed.n,
        "m": seed.m,
        "btilde": [list(row) for row in seed.btilde],
        "cluster": [lp.to_json(x, seed.var_names) for x in seed.cluster],
        "var_names": list(seed.var_names),
    }


def seed_from_json(obj: dict) -> Seed:
    obj = lp.json_object(obj, "the top level", InvalidSeed)
    n, m = lp.json_items([obj["n"], obj["m"]], "n and m", int, InvalidSeed)
    if n < 0 or m < 0:
        raise InvalidSeed(f"n and m must be nonnegative, got n={n}, m={m}")
    btilde = [
        lp.json_items(row, "btilde entries", int, InvalidSeed)
        for row in lp.json_list(obj["btilde"], "btilde", InvalidSeed)
    ]
    if len(btilde) != n + m or any(len(row) != n for row in btilde):
        raise InvalidSeed(f"btilde shape is not {n + m} x {n}")
    names = lp.json_items(obj["var_names"], "var_names", str, InvalidSeed)
    cluster = []
    for entry in lp.json_list(obj["cluster"], "cluster", InvalidSeed):
        poly, poly_names = lp.from_json(lp.json_object(entry, "cluster entries", InvalidSeed))
        if poly_names != names:
            raise InvalidSeed("cluster variable names disagree with var_names")
        cluster.append(poly)
    return Seed(btilde, cluster, names)

