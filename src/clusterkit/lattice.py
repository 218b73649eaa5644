"""Integer matrices, Hermite normal form, and exact linear solving.

Matrices are lists of int rows, and everything here is exact integer
arithmetic.  Back-substitution against a Hermite form is fraction-free over
one running denominator, which also decides whether a rational solution
exists.

The Hermite normal form used throughout is the row-style canonical one: the
result is in row echelon form with positive pivots, entries above each pivot
reduced into [0, pivot), and zero rows at the bottom.  Canonicity makes it a
complete invariant of the row lattice, which is what the lattice-equality
checks rely on.

Columns are cleared by least-pivot elimination: the row with the least
nonzero |entry| leads, the nearest-integer quotient leaves every row below
it at most half that, and this repeats until the leader is alone.  Any
unimodular moves give the same canonical h; these keep the certificate u
small, where 2x2 extended-gcd blocks let its kernel rows reach thousands of
digits (Kannan and Bachem, SIAM J. Comput. 8, 1979).  Solutions are
size-reduced against the kernel rows of u.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]
Vector = List[int]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return [vec_mat(row, b) for row in a]


def vec_mat(v: Sequence[int], a: Sequence[Sequence[int]]) -> Vector:
    """Row vector times matrix, summing x * row over the nonzero x of v."""
    if len(v) != len(a):
        raise ValueError("inner dimensions differ")
    out = [0] * len(a[0]) if a else []
    for x, row in zip(v, a):
        if x:
            out = [s + x * y for s, y in zip(out, row)]
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError("inner dimensions differ")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def hermite_normal_form(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix]:
    """Canonical row HNF of a, with its unimodular certificate.

    Returns (h, u) where u * a = h, u is unimodular, and h is the canonical
    form described in the module docstring, its columns cleared by
    least-pivot elimination.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    # each row is h's row followed by u's, so one row operation does both
    t = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    r = 0
    for c in range(n):
        piv, least = -1, 0
        for i in range(r, m):
            e = abs(t[i][c])
            if e and (not least or e < least):
                piv, least = i, e
        if piv < 0:
            continue
        while piv >= 0:
            t[r], t[piv] = t[piv], t[r]
            lead = t[r]
            p = lead[c]
            piv, least = -1, 0
            for i in range(r + 1, m):
                e = t[i][c]
                if e:
                    q = (2 * e + p) // (2 * p)
                    t[i] = row = [x - q * y for x, y in zip(t[i], lead)]
                    e = abs(row[c])
                    if e and (not least or e < least):
                        piv, least = i, e
        lead = t[r]
        if lead[c] < 0:
            t[r] = lead = [-x for x in lead]
        p = lead[c]
        for i in range(r):
            q = t[i][c] // p
            if q:
                t[i] = [x - q * y for x, y in zip(t[i], lead)]
        r += 1
    return [row[:n] for row in t], [row[n:] for row in t]


def rank(a: Sequence[Sequence[int]]) -> int:
    return sum(1 for row in hermite_normal_form(a)[0] if any(row))


def left_kernel_basis(a: Sequence[Sequence[int]]) -> Matrix:
    """Basis of the left integer kernel {z : z * a = 0}.

    The basis rows generate the full kernel lattice, not just a finite-index
    sublattice, because they are rows of a unimodular matrix.
    """
    h, u = hermite_normal_form(a)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def solve_left_all(
    a: Sequence[Sequence[int]], bs: Sequence[Sequence[int]]
) -> List[Tuple[Optional[Vector], bool]]:
    """(integer solution or None, whether a rational one exists) of z * a = b
    for each b in bs, all from one Hermite transform u * a = h.

    The solutions are z = y * u with y * h = b.  The nonzero rows of h are
    independent, so back-substitution over its pivot rows gives the only
    candidate y, and since u is unimodular z is integral exactly when y is.
    Each z is then size-reduced by one nearest-integer step along each
    kernel row of u, which keeps it a solution and keeps it small.
    """
    if not a:
        return [(None, False) if any(b) else ([], True) for b in bs]
    h, u = hermite_normal_form(a)
    # the nonzero rows of h come first; the rest of u is the kernel basis
    pivots = [(row, next(j for j, x in enumerate(row) if x)) for row in h if any(row)]
    rank = len(pivots)
    kernel = [(k, sum(map(mul, k, k))) for k in u[rank:]]
    u_cols, a_cols = [col[:rank] for col in zip(*u)], list(zip(*a))
    out: List[Tuple[Optional[Vector], bool]] = []
    for b in bs:
        if len(b) != len(a_cols):
            raise ValueError("right-hand side has wrong length")
        solved = _pivot_coordinates(pivots, b)
        if solved is None or solved[1] != 1:
            out.append((None, solved is not None))
            continue
        z = [sum(map(mul, solved[0], col)) for col in u_cols]
        for k, kk in kernel:
            q = (2 * sum(map(mul, z, k)) + kk) // (2 * kk)
            if q:
                z = [x - q * e for x, e in zip(z, k)]
        if [sum(map(mul, z, col)) for col in a_cols] != list(b):
            raise ArithmeticError("integer solution fails z * a = b")
        out.append((z, True))
    return out


def _pivot_coordinates(
    pivots: Sequence[Tuple[Vector, int]], b: Sequence[int]
) -> Optional[Tuple[Vector, int]]:
    """(y, d) with y * h = d * b and d >= 1 for the nonzero rows h of a
    Hermite form as (row, pivot column) pairs, or None when b is outside
    their rational row span.

    Fraction-free back-substitution: the residual d * b - y * h stays
    integral, and d grows by the part of a pivot that the residual entry
    does not cancel, which leaves that y_row / d non-integral.  So d == 1
    exactly when y * h = b has an integer solution.
    """
    residual, y, d = list(b), [0] * len(pivots), 1
    for i, (row, c) in enumerate(pivots):
        if not residual[c]:
            continue
        scale = row[c] // gcd(residual[c], row[c])
        if scale != 1:
            d *= scale
            residual = [r * scale for r in residual]
            y = [x * scale for x in y]
        y[i] = coef = residual[c] // row[c]
        residual[c:] = [r - coef * x for r, x in zip(residual[c:], row[c:])]
    return None if any(residual) else (y, d)


def lattice_equal(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> bool:
    """Whether two row families generate the same integer lattice."""
    ha, hb = hermite_normal_form(a)[0], hermite_normal_form(b)[0]
    return [row for row in ha if any(row)] == [row for row in hb if any(row)]

