"""The benchmark's own exact arithmetic.

Inputs are generated and outputs are checked with this module alone, never
with clusterkit, so a change to the program cannot change what it is given
or what it is judged against.
"""

from __future__ import annotations

from math import comb
from typing import List, Sequence

Matrix = List[List[int]]

# 2^61 - 1, a Mersenne prime: evaluation points are drawn below it.
PRIME = (1 << 61) - 1


def mutate_matrix(b: Sequence[Sequence[int]], k: int) -> Matrix:
    """Matrix mutation in direction k over all n + m rows."""
    n = len(b[0])
    out = []
    for i, row in enumerate(b):
        new_row = []
        for j in range(n):
            if i == k or j == k:
                new_row.append(-row[j])
            else:
                bik, bkj = row[k], b[k][j]
                new_row.append(row[j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        out.append(new_row)
    return out


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def vec_mat(v: Sequence[int], a: Sequence[Sequence[int]]) -> List[int]:
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in a if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = p
        r += 1
        if r == len(rows):
            break
    return r


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def finite_type_clusters(kind: str, n: int) -> int:
    """Number of clusters of a finite-type pattern of type A_n or D_n."""
    if kind == "A":
        return catalan(n + 1)
    return (3 * n - 2) * comb(2 * n - 2, n - 1) // n


def eval_terms_mod(terms, point: Sequence[int]) -> int:
    """A Laurent polynomial, as (exponents, coefficient) pairs, evaluated at
    a point of nonzero residues modulo PRIME."""
    inverse = [pow(v, -1, PRIME) for v in point]
    total = 0
    for exps, coef in terms:
        term = coef % PRIME
        for v, w, e in zip(point, inverse, exps):
            if e > 0:
                term = term * pow(v, e, PRIME) % PRIME
            elif e < 0:
                term = term * pow(w, -e, PRIME) % PRIME
        total += term
    return total % PRIME


def replay_word_mod(b: Sequence[Sequence[int]], word: Sequence[int],
                    point: Sequence[int]):
    """Mutate the initial seed of b along word with the cluster held as
    residues at point (mutable values first, then frozen ones).  Returns the
    final matrix and the final cluster residues."""
    n = len(b[0])
    x = list(point[:n])
    frozen = list(point[n:])
    b = [list(r) for r in b]
    for k in word:
        plus = minus = 1
        values = x + frozen
        for i, row in enumerate(b):
            e = row[k]
            if e > 0:
                plus = plus * pow(values[i], e, PRIME) % PRIME
            elif e < 0:
                minus = minus * pow(values[i], -e, PRIME) % PRIME
        x[k] = (plus + minus) * pow(x[k], -1, PRIME) % PRIME
        b = mutate_matrix(b, k)
    return b, x


def exchange_bits(b: Sequence[Sequence[int]], word: Sequence[int]) -> int:
    """Bit length of the largest exchange numerator met along word, with
    every initial variable set to 1: a size proxy for the polynomials."""
    x = [1] * len(b)
    b = [list(r) for r in b]
    peak = 0
    for k in word:
        plus = minus = 1
        for i, row in enumerate(b):
            if row[k] > 0:
                plus *= x[i] ** row[k]
            elif row[k] < 0:
                minus *= x[i] ** -row[k]
        peak = max(peak, (plus + minus).bit_length())
        x[k] = (plus + minus) // x[k]
        b = mutate_matrix(b, k)
    return peak


def elementary_unimodular(m: int, steps: int, rng):
    """A random unimodular m x m matrix and its inverse, built from
    transvections row_a += t * row_b with t = +-1."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    inv = [list(r) for r in u]
    for _ in range(steps):
        a, b = rng.sample(range(m), 2)
        t = rng.choice((-1, 1))
        u[a] = [x + t * y for x, y in zip(u[a], u[b])]
        for row in inv:
            row[b] -= t * row[a]
    if matmul(u, inv) != [[int(i == j) for j in range(m)] for i in range(m)]:
        raise RuntimeError("unimodular generator produced a wrong inverse")
    return u, inv
