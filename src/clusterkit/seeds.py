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
from typing import Dict, List, Optional, Sequence, Tuple

from . import laurent as lp
from .laurent import Poly

Matrix = List[List[int]]
RationalPair = Tuple[Poly, Poly]


class InvalidSeed(Exception):
    """Seed data fails a structural requirement."""


# ---------------------------------------------------------------------------
# exchange matrices

def mutate_matrix(btilde: Sequence[Sequence[int]], k: int) -> Matrix:
    """Matrix mutation in direction k, applied to all rows.

    Row and column k flip sign; entry (i, j) otherwise gains
    sign(b_ik) * [b_ik * b_kj]_+: b_ik times [row k]_+ or [-row k]_+.
    """
    n = len(btilde[0])
    _check_direction(k, n)
    pos = [max(x, 0) for x in btilde[k]]
    neg = [max(-x, 0) for x in btilde[k]]
    out = []
    for i, row in enumerate(btilde):
        bik = row[k]
        if i == k:
            new_row = [-x for x in row]
        elif bik:
            new_row = [x + bik * y for x, y in zip(row, pos if bik > 0 else neg)]
        else:
            new_row = list(row)
        new_row[k] = -bik
        out.append(new_row)
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


def is_skew_symmetrizable(b: Sequence[Sequence[int]]) -> bool:
    return skew_symmetrizer(b) is not None


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
        principal = [row[: self.n] for row in self.btilde[: self.n]]
        if not is_skew_symmetrizable(principal):
            raise InvalidSeed("principal part is not skew-symmetrizable")
        for x in self.cluster:
            if not x:
                raise InvalidSeed("zero cluster variable")
            for e in x:
                if len(e) != self.n + self.m:
                    raise InvalidSeed("cluster variable has wrong ambient arity")

    @property
    def principal(self) -> Matrix:
        return [row[: self.n] for row in self.btilde[: self.n]]

    def __repr__(self) -> str:
        xs = ", ".join(lp.to_str(x, self.var_names) for x in self.cluster)
        return f"Seed(n={self.n}, m={self.m}, cluster=[{xs}])"


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


def coefficient_pair(seed: Seed, k: int) -> Tuple[Poly, Poly]:
    """The frozen monomials (p+_k, p-_k) read off column k of btilde."""
    arity = seed.n + seed.m
    plus = [0] * arity
    minus = [0] * arity
    for i in range(seed.n, arity):
        e = seed.btilde[i][k]
        if e > 0:
            plus[i] = e
        elif e < 0:
            minus[i] = -e
    return lp.monomial(plus), lp.monomial(minus)


def exchange_terms(
    b: Sequence[Sequence[int]], cluster: Sequence[Poly], k: int, plus: Poly, minus: Poly
) -> Tuple[Poly, Poly]:
    """The two terms of the exchange relation at k:
    (plus * prod x_j^[b_jk]+, minus * prod x_j^[-b_jk]+), with j running
    over the cluster (the mutable rows of b)."""
    for j, x in enumerate(cluster):
        e = b[j][k]
        if e > 0:
            plus = lp.mul(plus, lp.power(x, e))
        elif e < 0:
            minus = lp.mul(minus, lp.power(x, -e))
    return plus, minus


def exchange_polynomial(seed: Seed, k: int) -> Poly:
    """p+_k * prod x_j^[b_jk]+ + p-_k * prod x_j^[-b_jk]+."""
    return lp.add(*hatted(seed, k))


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k.

    The new cluster variable is the exchange polynomial divided exactly by
    the old one; NotDivisible propagating out of here means the input was
    not a seed of any pattern (the Laurent property fails).

    The result skips `Seed._check`: mutation keeps the shape, the ambient
    arity and the skew-symmetrizer, so only a vanishing new entry (possible
    when the input cluster has signed coefficients) needs a check.
    """
    _check_direction(k, seed.n)
    new_x = lp.exact_div(exchange_polynomial(seed, k), seed.cluster[k])
    if not new_x:
        raise InvalidSeed("zero cluster variable")
    out = Seed.__new__(Seed)
    out.n, out.m, out.var_names = seed.n, seed.m, seed.var_names
    out.btilde = mutate_matrix(seed.btilde, k)
    out.cluster = list(seed.cluster)
    out.cluster[k] = new_x
    return out


def mutate_word(seed: Seed, word: Sequence[int]) -> Seed:
    """Apply mutations left to right."""
    for k in word:
        seed = mutate_seed(seed, k)
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
    return exchange_terms(seed.btilde, seed.cluster, j, *coefficient_pair(seed, j))


def hatted_tuple(seed: Seed) -> List[RationalPair]:
    return [hatted(seed, j) for j in range(seed.n)]


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
    before = hatted_tuple(seed)
    after = hatted_tuple(mutated)
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
# JSON and quiver formats

def seed_to_json(seed: Seed) -> dict:
    return {
        "n": seed.n,
        "m": seed.m,
        "btilde": [list(row) for row in seed.btilde],
        "cluster": [lp.to_json(x, seed.var_names) for x in seed.cluster],
        "var_names": list(seed.var_names),
    }


def seed_from_json(obj: dict) -> Seed:
    n, m = lp.json_ints((obj["n"], obj["m"]), "n and m", InvalidSeed)
    btilde = [lp.json_ints(row, "btilde entries", InvalidSeed) for row in obj["btilde"]]
    if len(btilde) != n + m or any(len(row) != n for row in btilde):
        raise InvalidSeed(f"btilde shape is not {n + m} x {n}")
    names = [str(s) for s in obj["var_names"]]
    cluster = []
    for entry in obj["cluster"]:
        poly, poly_names = lp.from_json(entry)
        if poly_names != names:
            raise InvalidSeed("cluster variable names disagree with var_names")
        cluster.append(poly)
    return Seed(btilde, cluster, names)


def quiver_to_matrix(n: int, m: int, arrows: Sequence[dict]) -> Matrix:
    """Arrow list [{"from": i, "to": j, "mult": w}] to a skew-symmetric btilde.

    Indices are 0-based over all n + m generators; an arrow i -> j of weight
    w contributes +w to b_ij and -w to b_ji (entries between frozen rows are
    not represented and arrows between two frozen generators are rejected).
    """
    btilde = [[0] * n for _ in range(n + m)]
    for arrow in arrows:
        i, j = int(arrow["from"]), int(arrow["to"])
        w = int(arrow.get("mult", 1))
        if i >= n and j >= n:
            raise InvalidSeed(f"arrow between frozen generators {i} -> {j}")
        if not (0 <= i < n + m and 0 <= j < n + m):
            raise InvalidSeed(f"arrow index out of range: {i} -> {j}")
        if j < n:
            btilde[i][j] += w
        if i < n:
            btilde[j][i] -= w
    return btilde


def matrix_to_quiver(btilde: Sequence[Sequence[int]]) -> List[Dict[str, int]]:
    """Inverse of quiver_to_matrix for skew-symmetric principal parts."""
    n = len(btilde[0])
    principal = [row[:n] for row in btilde[:n]]
    for i in range(n):
        for j in range(n):
            if principal[i][j] != -principal[j][i]:
                raise InvalidSeed("principal part is not skew-symmetric")
    arrows = []
    for i, row in enumerate(btilde):
        for j in range(n):
            if i < n and i >= j:
                continue  # mutable pairs: report each once, from the upper triangle
            if row[j] > 0:
                arrows.append({"from": i, "to": j, "mult": row[j]})
            elif row[j] < 0:
                arrows.append({"from": j, "to": i, "mult": -row[j]})
    return arrows
