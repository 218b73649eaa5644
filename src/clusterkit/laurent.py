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

Packed kernel.  `mul`, `power` and `exact_div` pack their operands once into
int-keyed dicts and unpack the result once, so tuples appear only at the
module boundary.  An exponent e of arity n packs to the integer

    key(e) = sum(e) * 2^(w n) + sum_i e_i * 2^(w (n-1-i)),

lanes of w bits with the total degree on top and variable 0 as the most
significant lane below it.  Lanes are balanced (signed): a lane holds any
value of absolute value below 2^(w-1), so Laurent exponents pack without
offsets.  Packing is linear, so adding keys multiplies monomials, and while
every lane stays inside that bound, integer order on keys is exactly graded
lex.  The lane bound is checked before packing: the width is chosen
from a bound on every exponent the operation can produce (the sum of the
operands' largest |exponent| for a product; the largest shifted total degree
for a division), never discovered afterwards, so no lane carries into its
neighbour.  Widths of 8, 16, 32 and 64 bits unpack through `struct`; wider
lanes, needed only for exponents of 2^63 and beyond, unpack lane by lane.

`exact_div` shifts both operands to nonnegative exponents and then divides
with a max-heap that merges the terms of f with the products q_i g_j
(Johnson, SIGSAM Bull. 1974; Monagan & Pearce, J. Symb. Comput. 2011):
the remainder is never rebuilt, and equal heap keys are chained so each
monomial is popped once.  Divisibility of a remainder monomial by the
leading monomial of g is one subtraction and a test of each lane's top
(guard) bit.  A one-term operand short-cuts to a shift and a scale, and
`power` squares with each cross term computed once.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from operator import add as _iadd
from operator import mul as _imul
from operator import neg as _ineg
from operator import sub as _isub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, int]
Packed = Dict[int, int]


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
    return tuple(map(_iadd, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(_isub, a, b))


def exp_neg(a: Exponent) -> Exponent:
    return tuple(map(_ineg, a))


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
    if not f or not g:
        return {}
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        ((e, c),) = g.items()
        return {exp_add(t, e): d * c for t, d in f.items()}
    width = lane_width(max_abs_exponent(f) + max_abs_exponent(g))
    return unpack(mul_packed(pack(f, width), pack(g, width)), _arity(f), width)


def power(f: Poly, k: int) -> Poly:
    """f^k; negative k only for monomials with a unit coefficient."""
    if not f:
        if k <= 0:
            raise ValueError(f"zero polynomial to the power {k}")
        return {}
    if len(f) == 1:
        ((e, c),) = f.items()
        if k < 0 and c not in (1, -1):
            raise NotDivisible(f"negative power of coefficient {c}")
        return {tuple(x * k for x in e): c ** abs(k)}
    if k < 0:
        raise NotDivisible(f"negative power {k} of a non-monomial")
    if k == 0:
        return constant(1, _arity(f))
    if k == 1:
        return dict(f)
    width = lane_width(k * max_abs_exponent(f))
    base = pack(f, width)
    out = _square_packed(base)
    for _ in range(k - 2):
        out = mul_packed(out, base)
    return unpack(out, _arity(f), width)


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
    if not f:
        raise ValueError("zero polynomial has no leading term")
    return max(f, key=grlex_key)


def min_exponent(f: Poly) -> Exponent:
    """Componentwise minimum exponent over the support of a nonzero polynomial."""
    if not f:
        raise ValueError("zero polynomial has no minimal exponent")
    return tuple(map(min, zip(*f))) if _arity(f) else ()


def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f over the integer Laurent ring.

    Raises NotDivisible otherwise.  Both operands are first shifted so all
    exponents are nonnegative; this is sound because the componentwise
    minimum exponent is additive under multiplication.  The quotient is then
    found by graded-lex leading-term elimination, each step of which must
    divide exactly in both exponents and coefficients.  The remainder's
    terms come off a heap in descending order (see the module docstring);
    every exponent met along the way is nonnegative with total degree at
    most the larger shifted degree of f and g, which sets the lane width.
    """
    if not g:
        raise NotDivisible("division by the zero polynomial")
    if not f:
        return {}
    _check_arity(f, g)
    if len(g) == 1:
        ((eg, cg),) = g.items()
        quot: Poly = {}
        for e, c in f.items():
            q, r = divmod(c, cg)
            if r:
                raise NotDivisible("leading coefficient not divisible over Z")
            quot[exp_sub(e, eg)] = q
        return quot
    arity = _arity(f)
    mf, mg = min_exponent(f), min_exponent(g)
    bound = max(max(map(sum, f)) - sum(mf), max(map(sum, g)) - sum(mg))
    width = lane_width(bound)
    # packing is linear, so key(e - m) = key(e) - key(m); the shifted
    # exponents lie in [0, bound] and fit their lanes
    weights = _weights(arity, width)
    base_f = sum(map(_imul, mf, weights))
    base_g = sum(map(_imul, mg, weights))
    fp = {sum(map(_imul, e, weights)) - base_f: c for e, c in f.items()}
    gp = {sum(map(_imul, e, weights)) - base_g: c for e, c in g.items()}
    f_keys = sorted(fp, reverse=True)
    g_keys = sorted(gp, reverse=True)
    lead_g, g_keys = g_keys[0], g_keys[1:]
    cg = gp[lead_g]
    g_coefs = [gp[key] for key in g_keys]
    last_g = len(g_keys) - 1
    guard = _guard(arity, width)
    q_keys: List[int] = []
    q_coefs: List[int] = []
    # heap of negated remainder keys, each present once; `chains` maps a key
    # to the pairs (i, j) whose products q_i * g_j land on it
    heap: List[int] = []
    chains: Dict[int, List[Tuple[int, int]]] = {}
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
            raise NotDivisible("leading monomial not divisible")
        q, r = divmod(c, cg)
        if r:
            raise NotDivisible("leading coefficient not divisible over Z")
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
    offset = exp_sub(mf, mg)
    decode = _decoder(arity, width)
    return {
        tuple(map(_iadd, decode(key), offset)): c for key, c in zip(q_keys, q_coefs)
    }


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
    if len(u) != len(v):
        raise ValueError("tropical operands must share arity")
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


def json_ints(
    values: Iterable[object], what: str, error: type = ValueError
) -> List[int]:
    """The values as a list when each is a JSON integer; a float, bool or
    string raises `error` instead of being truncated or coerced."""
    out = list(values)
    for x in out:
        if type(x) is not int:
            raise error(f"{what} must be integers, got {x!r}")
    return out


def from_json(obj: dict) -> Tuple[Poly, List[str]]:
    """Inverse of to_json; validates arity and rejects duplicate exponents.
    A coefficient is a JSON integer or a decimal string."""
    names = [str(v) for v in obj["vars"]]
    f: Poly = {}
    for term in obj["terms"]:
        e = tuple(json_ints(term["exp"], "exponents"))
        if len(e) != len(names):
            raise ValueError(f"exponent arity {len(e)} != {len(names)} variables")
        if e in f:
            raise ValueError(f"duplicate exponent {e}")
        coef = term["coef"]
        c = int(coef) if type(coef) is str else json_ints((coef,), "coefficients")[0]
        if c:
            f[e] = c
    return f, names


# ---------------------------------------------------------------------------
# packed kernel

def lane_width(bound: int) -> int:
    """Lane width in bits whose balanced lanes hold every exponent of
    absolute value at most `bound`: 8, 16, 32 or 64 when that suffices."""
    need = bound.bit_length() + 1
    for width in (8, 16, 32, 64):
        if need <= width:
            return width
    return need


def max_abs_exponent(f: Poly) -> int:
    """Largest |exponent| over the support of a nonzero polynomial (0 for
    arity 0)."""
    if not _arity(f):
        return 0
    return max(max(map(max, f)), -min(map(min, f)))


def pack(f: Poly, width: int) -> Packed:
    """f with its exponents packed into int keys at `width` bits a lane.

    Raises ValueError if an exponent does not fit a balanced lane.
    """
    if not f:
        return {}
    if max_abs_exponent(f) >= 1 << (width - 1):
        raise ValueError(f"exponent does not fit a {width}-bit lane")
    weights = _weights(_arity(f), width)
    return {sum(map(_imul, e, weights)): c for e, c in f.items()}


def unpack(fp: Packed, arity: int, width: int) -> Poly:
    """Inverse of `pack`."""
    decode = _decoder(arity, width)
    return {decode(key): c for key, c in fp.items()}


def mul_packed(f: Packed, g: Packed) -> Packed:
    """Product of two packed polynomials of one width.

    The caller's width must hold every exponent of the product.
    """
    if len(f) < len(g):
        f, g = g, f
    out: Packed = {}
    get = out.get
    for kg, cg in g.items():
        for kf, cf in f.items():
            key = kf + kg
            out[key] = get(key, 0) + cf * cg
    return _drop_zeros(out)


def _square_packed(f: Packed) -> Packed:
    # each cross term once, doubled: half the pairs of mul_packed(f, f)
    out: Packed = {}
    get = out.get
    terms = list(f.items())
    for i, (ki, ci) in enumerate(terms):
        key = ki + ki
        out[key] = get(key, 0) + ci * ci
        ci += ci
        for kj, cj in terms[i + 1:]:
            key = ki + kj
            out[key] = get(key, 0) + ci * cj
    return _drop_zeros(out)


def _drop_zeros(out: Packed) -> Packed:
    # in place: a copy would double the peak memory of a large product
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    return out


@lru_cache(maxsize=None)
def _weights(arity: int, width: int) -> Tuple[int, ...]:
    # key(e) = sum(e_i * weight_i): the degree lane gets every e_i once
    top = 1 << (width * arity)
    return tuple(top + (1 << (width * (arity - 1 - i))) for i in range(arity))


@lru_cache(maxsize=None)
def _guard(arity: int, width: int) -> int:
    # the top bit of every variable lane
    return sum(1 << (width * i + width - 1) for i in range(arity))


_LANE_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


@lru_cache(maxsize=None)
def _decoder(arity: int, width: int) -> Callable[[int], Exponent]:
    """key -> exponent tuple.  Adding half to every lane makes them all
    nonnegative without borrows; flipping each lane's top bit then leaves
    the two's-complement form of the balanced value."""
    half = _guard(arity, width)
    low = (1 << (width * arity)) - 1
    code = _LANE_CODES.get(width)
    if code is not None:
        unpack_lanes = struct.Struct(">" + code * arity).unpack
        size = width * arity // 8
        return lambda key: unpack_lanes(
            (((key + half) & low) ^ half).to_bytes(size, "big")
        )
    mask = (1 << width) - 1
    lane_half = 1 << (width - 1)
    shifts = [width * (arity - 1 - i) for i in range(arity)]
    return lambda key: tuple(
        (((key + half) >> s) & mask) - lane_half for s in shifts
    )


# ---------------------------------------------------------------------------
# internal

def _arity(f: Poly) -> int:
    return len(next(iter(f)))


def _check_arity(f: Poly, g: Poly) -> None:
    if f and g and _arity(f) != _arity(g):
        raise ValueError(
            f"operands have different arities: {_arity(f)} and {_arity(g)}"
        )
