"""Seed orbits: rescaling action and orbit equivalence.

A SeedLike is a non-normalized seed: a principal exchange matrix, cluster
variables as Laurent polynomials, and explicit coefficient pairs (p+, p-)
stored as frozen monomials.  Monomials of the coefficient group appear
everywhere as plain exponent tuples over the ambient variables, with
coefficient +1 implied; ambient positions below the rank are mutable and the
rest are frozen, matching the seed module's convention.

Two seeds lie in one orbit when they differ by the rescaling action: c
divides the cluster entrywise while d and c together transform the
coefficient pairs.  `seeds_equivalent` decides this and returns the witness.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import laurent as lp
from . import seeds as sd
from .laurent import Exponent, Poly


class Rescaling(
    NamedTuple("Rescaling", [("c", Tuple[Exponent, ...]), ("d", Tuple[Exponent, ...])])
):
    """Group element (c, d) acting on seeds; entries are frozen monomials."""

    __slots__ = ()

    def __new__(cls, c: Tuple[Exponent, ...], d: Tuple[Exponent, ...]):
        if len(c) != len(d):
            raise ValueError("c and d must have equal rank")
        return super().__new__(cls, c, d)


class SeedLike:
    """Non-normalized seed with explicit coefficient pairs; immutable."""

    __slots__ = ("n", "b", "cluster", "pairs", "var_names")

    def __init__(
        self,
        b: Sequence[Sequence[int]],
        cluster: Sequence[Poly],
        pairs: Sequence[sd.Pair],
        var_names: Sequence[str],
    ):
        self.n = len(b)
        self.b = [list(row) for row in b]
        self.cluster = [dict(x) for x in cluster]
        self.pairs = [(tuple(p), tuple(q)) for p, q in pairs]
        self.var_names = list(var_names)
        if len(self.cluster) != self.n or len(self.pairs) != self.n:
            raise sd.InvalidSeed("cluster and pairs must match the rank")
        if any(len(row) != self.n for row in self.b):
            raise sd.InvalidSeed(f"b is not {self.n} x {self.n}")
        if not all(self.cluster):
            raise sd.InvalidSeed("zero cluster variable")
        arity = len(self.var_names)
        if any(len(e) != arity for e in chain(*self.pairs, *self.cluster)):
            raise sd.InvalidSeed(f"pair or cluster exponents of arity other than {arity}")


def seedlike_equal(a: SeedLike, b: SeedLike) -> bool:
    return (
        a.b == b.b
        and a.cluster == b.cluster
        and a.pairs == b.pairs
        and a.var_names == b.var_names
    )


def seedlike_from_seed(seed: sd.Seed) -> SeedLike:
    """Embed a normalized geometric seed: pairs read off the frozen rows."""
    pairs = [sd.frozen_pair(column, seed.n) for column in zip(*seed.btilde)]
    return SeedLike(seed.principal, seed.cluster, pairs, seed.var_names)


def _scaled(e: Exponent, s: int) -> Exponent:
    return tuple(x * s for x in e)


def apply_rescaling(sl: SeedLike, r: Rescaling) -> SeedLike:
    """x_j divided by c_j; pairs divided by d_j and corrected by c powers."""
    n = sl.n
    if len(r.c) != n:
        raise ValueError("rescaling rank mismatch")
    arity = len(sl.var_names)
    if any(len(e) != arity for es in (r.c, r.d) for e in es):
        raise ValueError(f"rescaling exponents of arity other than {arity}")
    cluster = [lp.shift(x, lp.exp_neg(c)) for x, c in zip(sl.cluster, r.c)]
    pairs = []
    for j in range(n):
        plus = lp.exp_sub(sl.pairs[j][0], r.d[j])
        minus = lp.exp_sub(sl.pairs[j][1], r.d[j])
        for i in range(n):
            bij = sl.b[i][j]
            if bij > 0:
                plus = lp.exp_add(plus, _scaled(r.c[i], bij))
            elif bij < 0:
                minus = lp.exp_add(minus, _scaled(r.c[i], -bij))
        pairs.append((plus, minus))
    return SeedLike(sl.b, cluster, pairs, sl.var_names)


def mutate_seedlike(sl: SeedLike, k: int) -> SeedLike:
    """Non-normalized mutation, with one fixed coefficient representative.

    The pair at k swaps; for j away from k the ratio rule leaves a common
    rescaling free, and the representative chosen here multiplies only the
    positive side (when b_kj > 0) or only the negative side (when b_kj < 0).
    Any other representative differs by a rescaling, which seeds_equivalent
    absorbs.
    """
    # the matrix first: it checks the direction before any entry is read
    b = sd.mutate_matrix(sl.b, k)
    column = [row[k] for row in sl.b]
    cluster = list(sl.cluster)
    cluster[k] = sd.exchange_packed(column, k, sd.operands(sl.cluster, column, k), *sl.pairs[k]).poly
    pairs: List[sd.Pair] = []
    for j in range(sl.n):
        if j == k:
            pairs.append((sl.pairs[k][1], sl.pairs[k][0]))
            continue
        bkj = sl.b[k][j]
        pj_plus, pj_minus = sl.pairs[j]
        if bkj >= 0:
            pairs.append((lp.exp_add(pj_plus, _scaled(sl.pairs[k][0], bkj)), pj_minus))
        else:
            pairs.append((pj_plus, lp.exp_add(pj_minus, _scaled(sl.pairs[k][1], -bkj))))
    return SeedLike(b, cluster, pairs, sl.var_names)


def frozen_ratio(f: Poly, g: Poly, num_mutable: int) -> Optional[Exponent]:
    """Exponent e with f = x^e * g when x^e is a frozen monomial, else None."""
    ratio = lp.monomial_ratio(f, g)
    if ratio is None or any(ratio[:num_mutable]):
        return None
    return ratio


def seeds_equivalent(a: SeedLike, b: SeedLike) -> Optional[Rescaling]:
    """The rescaling carrying a to b, or None when the seeds are not in one
    orbit.

    Checks the orbit characterization: equal exchange matrices, cluster
    ratios that are frozen monomials, and a single d_j making both halves of
    each coefficient pair match.  The witness is verified by applying it
    before being returned, so a non-None result is always a true witness.
    """
    if a.n != b.n or a.b != b.b or a.var_names != b.var_names:
        return None
    n = a.n
    cs: List[Exponent] = []
    for j in range(n):
        ratio = frozen_ratio(a.cluster[j], b.cluster[j], n)
        if ratio is None:
            return None
        cs.append(ratio)
    # with d = 0 the rescaling leaves each pair exactly d_j above b's
    zeros = tuple((0,) * len(plus) for plus, _ in a.pairs)
    ds: List[Exponent] = []
    for (plus, minus), (b_plus, b_minus) in zip(
        apply_rescaling(a, Rescaling(tuple(cs), zeros)).pairs, b.pairs
    ):
        d = lp.exp_sub(plus, b_plus)
        if d != lp.exp_sub(minus, b_minus) or any(d[:n]):
            return None
        ds.append(d)
    witness = Rescaling(tuple(cs), tuple(ds))
    if not seedlike_equal(apply_rescaling(a, witness), b):
        return None
    return witness
