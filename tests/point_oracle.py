"""Exchange relations and determinants checked at a random point modulo
2^61 - 1.

Nothing here imports clusterkit: a Laurent polynomial is read as a dict of
exponent tuples to integer coefficients and evaluated with plain modular
powers, exchange matrices are mutated entry by entry, and a determinant is
taken by Gaussian elimination over the prime field.  A relation that fails
agrees at a random point with probability at most its degree over the
prime, so the check can only miss a failure, never invent one.
"""

P61 = 2 ** 61 - 1


def value_at(poly, point):
    """A Laurent polynomial at a point mod 2^61 - 1; a negative exponent
    takes the modular inverse."""
    total = 0
    for exp, coef in poly.items():
        term = coef
        for x, e in zip(point, exp):
            term = term * pow(x, e, P61) % P61
        total += term
    return total % P61


def exchange_value(btilde, values, k):
    """p+ prod x_j^[b_jk]+ + p- prod x_j^[-b_jk]+ at the point, from the
    values of the cluster variables followed by the frozen generators."""
    plus = minus = 1
    for x, row in zip(values, btilde):
        e = row[k]
        if e > 0:
            plus = plus * pow(x, e, P61) % P61
        elif e < 0:
            minus = minus * pow(x, -e, P61) % P61
    return (plus + minus) % P61


def mutated_matrix(btilde, k):
    """Matrix mutation in direction k, entry by entry: b'_ij = -b_ij when i
    or j is k, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    return [
        [-b if k in (i, j) else b + (abs(row[k]) * btilde[k][j] + row[k] * abs(btilde[k][j])) // 2
         for j, b in enumerate(row)]
        for i, row in enumerate(btilde)
    ]


def det_mod(rows):
    """Determinant mod 2^61 - 1 of a square integer matrix, by Gaussian
    elimination; the empty matrix has determinant 1."""
    a = [[x % P61 for x in row] for row in rows]
    det = 1
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % P61
        inverse = pow(a[c][c], -1, P61)
        for r in range(c + 1, len(a)):
            f = a[r][c] * inverse % P61
            if f:
                a[r] = [(x - f * y) % P61 for x, y in zip(a[r], a[c])]
    return det % P61
