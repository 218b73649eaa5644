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
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]
Vector = List[int]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def copy(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in a]


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
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def exgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix]:
    """Canonical row HNF of a, with its unimodular certificate.

    Returns (h, u) where u * a = h, u is unimodular, and h is the canonical
    form described in the module docstring.
    """
    h = copy(a)
    m = len(h)
    n = len(h[0]) if h else 0
    u = identity(m)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if h[i][c]), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if not h[i][c]:
                continue
            g, s, t = exgcd(h[r][c], h[i][c])
            pr, pi = h[r][c] // g, h[i][c] // g
            # the 2x2 block [[s, t], [-pi, pr]] has determinant +1
            h[r], h[i] = (
                [s * x + t * y for x, y in zip(h[r], h[i])],
                [-pi * x + pr * y for x, y in zip(h[r], h[i])],
            )
            u[r], u[i] = (
                [s * x + t * y for x, y in zip(u[r], u[i])],
                [-pi * x + pr * y for x, y in zip(u[r], u[i])],
            )
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return h, u


def rank(a: Sequence[Sequence[int]]) -> int:
    h, _ = hermite_normal_form(a)
    return sum(1 for row in h if any(row))


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
    """
    if not a:
        return [(None, False) if any(b) else ([], True) for b in bs]
    h, u = hermite_normal_form(a)
    out: List[Tuple[Optional[Vector], bool]] = []
    for b in bs:
        solved = _pivot_coordinates(h, b)
        if solved is None or solved[1] != 1:
            out.append((None, solved is not None))
            continue
        z = vec_mat(solved[0], u)
        if vec_mat(z, a) != list(b):
            raise ArithmeticError("integer solution fails z * a = b")
        out.append((z, True))
    return out


def _pivot_coordinates(h: Matrix, b: Sequence[int]) -> Optional[Tuple[Vector, int]]:
    """(y, d) with y * h = d * b and d >= 1 for a Hermite form h, or None
    when b is outside its rational row span.

    Fraction-free back-substitution: the residual d * b - y * h stays
    integral, and d grows by the part of a pivot that the residual entry
    does not cancel, which leaves that y_row / d non-integral.  So d == 1
    exactly when y * h = b has an integer solution.
    """
    if len(b) != len(h[0]):
        raise ValueError("right-hand side has wrong length")
    residual, y, d = list(b), [0] * len(h), 1
    for i, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break
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
    ha, _ = hermite_normal_form(a)
    hb, _ = hermite_normal_form(b)
    nza = [row for row in ha if any(row)]
    nzb = [row for row in hb if any(row)]
    return nza == nzb

