"""Sparse integer Laurent polynomials in finitely many variables.

A polynomial is a dict mapping exponent tuples to nonzero integer
coefficients; the zero polynomial is the empty dict.  All polynomials in one
computation share an arity (the exponent tuple length), and variables are
positional.  Human-readable names live alongside the data only at the JSON
boundary and in pretty printing.

Monomial order is graded lex throughout: compare total degree first, then the
exponent tuple lexicographically.  Coefficients are plain ints, never floats;
division that would leave the integers raises NotDivisible.

A monomial is represented by its exponent tuple alone wherever a product of
generators (rather than a general polynomial) is meant, e.g. the tropical
operations and `monomial_ratio`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, int]


class NotDivisible(Exception):
    """Exact division failed: the quotient does not exist over the integers."""


class NegativeCoefficient(Exception):
    """Tropicalization was asked for a polynomial with a negative coefficient."""


# ---------------------------------------------------------------------------
# construction

def monomial(exp: Sequence[int], coef: int = 1) -> Poly:
    """Single-term polynomial coef * x^exp."""
    if coef == 0:
        return {}
    return {tuple(exp): coef}


def constant(coef: int, arity: int) -> Poly:
    """Constant polynomial in the given number of variables."""
    return monomial((0,) * arity, coef)


def variable(index: int, arity: int) -> Poly:
    """The generator x_index as a polynomial."""
    exp = [0] * arity
    exp[index] = 1
    return {tuple(exp): 1}


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def exp_neg(a: Exponent) -> Exponent:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# ring operations

def add(f: Poly, g: Poly) -> Poly:
    """Sum of two polynomials."""
    _check_arity(f, g)
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(f: Poly) -> Poly:
    return {e: -c for e, c in f.items()}


def sub(f: Poly, g: Poly) -> Poly:
    return add(f, neg(g))


def scale(f: Poly, coef: int) -> Poly:
    if coef == 0:
        return {}
    return {e: c * coef for e, c in f.items()}


def shift(f: Poly, e: Exponent) -> Poly:
    """Multiply by the monomial x^e."""
    return {exp_add(t, e): c for t, c in f.items()}


def mul(f: Poly, g: Poly) -> Poly:
    """Product of two polynomials."""
    _check_arity(f, g)
    out: Poly = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = exp_add(e1, e2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(f: Poly, k: int) -> Poly:
    """f^k; negative k only for monomials with a unit coefficient."""
    if not f:
        if k <= 0:
            raise ValueError(f"zero polynomial to the power {k}")
        return {}
    if k < 0:
        if len(f) != 1:
            raise NotDivisible(f"negative power {k} of a non-monomial")
        (e, c) = next(iter(f.items()))
        if c not in (1, -1):
            raise NotDivisible(f"negative power of coefficient {c}")
        return {tuple(x * k for x in e): c if k % 2 else 1}
    out = constant(1, _arity(f))
    for _ in range(k):
        out = mul(out, f)
    return out


def is_zero(f: Poly) -> bool:
    return not f


def equal(f: Poly, g: Poly) -> bool:
    return f == g


# ---------------------------------------------------------------------------
# monomial order and division

def grlex_key(e: Exponent) -> Tuple[int, Exponent]:
    return (sum(e), e)


def leading_exponent(f: Poly) -> Exponent:
    """Graded-lex largest exponent of a nonzero polynomial."""
    assert f, "zero polynomial has no leading term"
    return max(f, key=grlex_key)


def min_exponent(f: Poly) -> Exponent:
    """Componentwise minimum exponent over the support of a nonzero polynomial."""
    assert f, "zero polynomial has no minimal exponent"
    terms = iter(f)
    m = list(next(terms))
    for e in terms:
        for i, x in enumerate(e):
            if x < m[i]:
                m[i] = x
    return tuple(m)


def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f over the integer Laurent ring.

    Raises NotDivisible otherwise.  Both operands are first shifted so all
    exponents are nonnegative; this is sound because the componentwise
    minimum exponent is additive under multiplication.  The quotient is then
    found by graded-lex leading-term elimination, each step of which must
    divide exactly in both exponents and coefficients.
    """
    if not g:
        raise NotDivisible("division by the zero polynomial")
    if not f:
        return {}
    _check_arity(f, g)
    mf, mg = min_exponent(f), min_exponent(g)
    rem = shift(f, exp_neg(mf))
    gg = shift(g, exp_neg(mg))
    lead_g = leading_exponent(gg)
    cg = gg[lead_g]
    quot: Poly = {}
    while rem:
        lead_r = leading_exponent(rem)
        e = exp_sub(lead_r, lead_g)
        if any(x < 0 for x in e):
            raise NotDivisible("leading monomial not divisible")
        c, r = divmod(rem[lead_r], cg)
        if r:
            raise NotDivisible("leading coefficient not divisible over Z")
        quot[e] = c
        rem = sub(rem, shift(scale(gg, c), e))
    return shift(quot, exp_sub(mf, mg))


def divides(g: Poly, f: Poly) -> bool:
    """Whether g divides f exactly (integer quotient)."""
    try:
        exact_div(f, g)
        return True
    except NotDivisible:
        return False


def monomial_ratio(f: Poly, g: Poly) -> Optional[Exponent]:
    """Exponent e with f = x^e * g, if one exists, else None.

    The coefficient ratio must be exactly +1: a polynomial is not considered
    proportional to its negative or to twice itself.  None is an informative
    answer, not an error.
    """
    if not f or not g or len(f) != len(g):
        return None
    _check_arity(f, g)
    e = exp_sub(leading_exponent(f), leading_exponent(g))
    return e if shift(g, e) == f else None


# ---------------------------------------------------------------------------
# tropical monomial arithmetic

def trop_add(u: Exponent, v: Exponent) -> Exponent:
    """Tropical sum of two monomials: componentwise minimum of exponents."""
    assert len(u) == len(v), "tropical operands must share arity"
    return tuple(min(x, y) for x, y in zip(u, v))


def tropicalize(f: Poly, num_mutable: int) -> Exponent:
    """Tropical value of a positive-coefficient polynomial.

    Mutable exponents (the first num_mutable positions) are zeroed, then the
    terms are folded with trop_add.  Coefficients must all be positive, else
    cancellation could hide a term and break the semifield homomorphism laws;
    violations raise NegativeCoefficient.
    """
    if not f:
        raise ValueError("the zero polynomial has no tropical value")
    parts: List[Exponent] = []
    for e, c in sorted(f.items()):
        if c < 0:
            raise NegativeCoefficient(f"coefficient {c} at exponent {e}")
        parts.append((0,) * num_mutable + e[num_mutable:])
    out = parts[0]
    for p in parts[1:]:
        out = trop_add(out, p)
    return out


# ---------------------------------------------------------------------------
# evaluation, printing, JSON

def evaluate(f: Poly, values: Sequence[Fraction]) -> Fraction:
    """Evaluate at exact rational values; nonzero values required if negative
    exponents occur."""
    total = Fraction(0)
    for e, c in f.items():
        term = Fraction(c)
        for v, k in zip(values, e):
            if k:
                term *= Fraction(v) ** k
        total += term
    return total


def to_str(f: Poly, names: Sequence[str]) -> str:
    """Readable form like '2*a*b^2 - c', terms in descending graded lex."""
    if not f:
        return "0"
    pieces: List[str] = []
    for e in sorted(f, key=grlex_key, reverse=True):
        c = f[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append(f"{name}^{k}")
        body = "*".join(factors)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    head = pieces[0][2:] if pieces[0][0] == "+" else "-" + pieces[0][2:]
    return " ".join([head] + pieces[1:])


def to_json(f: Poly, names: Sequence[str]) -> dict:
    """JSON object {"vars": [...], "terms": [{"exp": [...], "coef": "..."}]}.

    Coefficients are decimal strings so arbitrarily large integers survive
    any JSON reader.  Terms are in descending graded lex for determinism.
    """
    return {
        "vars": list(names),
        "terms": [
            {"exp": list(e), "coef": str(f[e])}
            for e in sorted(f, key=grlex_key, reverse=True)
        ],
    }


def from_json(obj: dict) -> Tuple[Poly, List[str]]:
    """Inverse of to_json; validates arity and rejects duplicate exponents."""
    names = [str(v) for v in obj["vars"]]
    f: Poly = {}
    for term in obj["terms"]:
        e = tuple(int(x) for x in term["exp"])
        if len(e) != len(names):
            raise ValueError(f"exponent arity {len(e)} != {len(names)} variables")
        if e in f:
            raise ValueError(f"duplicate exponent {e}")
        c = int(term["coef"])
        if c:
            f[e] = c
    return f, names


# ---------------------------------------------------------------------------
# internal

def _arity(f: Poly) -> int:
    return len(next(iter(f)))


def _check_arity(f: Poly, g: Poly) -> None:
    if f and g:
        assert _arity(f) == _arity(g), "operands have different arities"
