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

Packed kernel.  `mul` packs its operands, monomials too, and `power` a
polynomial of more than one term once into int-keyed dicts, and each
unpacks the result once.  An `Operand` is a polynomial f with
its componentwise minimum exponent `low`; it packs x^-low f, whose
exponents are all nonnegative, once per width.  An exponent e of arity n
packs to key(e) = sum(e) * 2^(w n) + sum_i e_i * 2^(w (n-1-i)): unsigned
lanes of w bits, the total degree on top, variable 0 the most significant
below it.  Packing is linear, so adding keys multiplies monomials, and
while every lane stays below 2^(w-1), integer order on keys is graded lex.
The width is chosen before packing from a bound on every total degree the
operation can produce (the sum of the operands' shifted degrees for a
product, the larger of them for a division), never discovered afterwards,
so no lane carries into its neighbour; `Operand.packed` refuses a width
that cannot hold its degree.  The shift is sound because the componentwise
minimum exponent is additive under multiplication, and a lower bound on a
dividend's minimum serves as well.  `unpack` decodes keys and multiplies
back by x^low.  Widths of 8, 16, 32 and 64 bits decode through `struct`,
wider ones lane by lane.

Exact minima.  The minimum is additive exactly, not only as a bound: the
Newton polytope of a product is the Minkowski sum of its factors'
(Ostrowski, 1921), each vertex of the sum is the sum of one vertex of each
factor in one way only, so its coefficient is a product of nonzero ones,
and each coordinate's minimum over the support is attained at a vertex.
So a product of operands times a monomial has a known minimum, x_k's
quotient of a sum of two such terms has the minimum of the sum less
x_k's, and the sum's minimum is the terms' common one unless a key of
one term cancels a key of the other.  `signed_sum` reports whether any key
summed to zero, and `Operand.packed_form` keeps a quotient packed, at the
width it was divided at, when none did: its degree is read off the degree
lane of its largest key, and its polynomial is decoded only when asked
for.  Packed at the lane width of its own degree, equal polynomials have
equal packings.

`div_packed` is the single division loop, and division runs packed only:
its caller, `seeds.exchange_packed`, hands it an exchange sum and x_k
packed at one width, so no division goes through exponent tuples.  It is
the classical division over a hashed remainder: the remainder is a dict
from key to coefficient, started as f, and its keys sit in a max-heap.  Each step pops the largest
key, divides its coefficient by g's leading one, and adds -q g_j for every
other term of g straight into the dict; a key is pushed when it is new to
the dict.  A product key lies below the key that made it, so each key is
pushed once and popped once, and a key whose sum is zero is popped and
skipped.  Its space is the live remainder keys, against O(|q|) for the
quotient heap it replaces (Johnson, SIGSAM Bull. 1974; Monagan & Pearce,
J. Symb. Comput. 2011), which merges the terms of f with the products
q_i g_j and pushes and pops each product, where this loop adds it into a
dict.  Divisibility by the leading monomial of g is one
subtraction and a test of the top bit of each lane, which is clear on
every exponent met and set by a borrow, so a quotient term with a negative
exponent is refused.  A unit divisor returns the dividend as it is; every
other divisor, a one-term one too, runs the loop, and there is no other
short-cut.  `Operand.power` is the one power builder: it squares with
each cross term computed once, then multiplies, and keeps each power in
the one cache that holds its packing, so a walk or an exploration raises
a variable once per width and exponent; `power` raises through a
throwaway operand.

`_add_product`, which adds scale·f·g into a sum in place, is the one product
loop, and `signed_sum` the one evaluator of a sum of signed products: an
exchange relation is such a sum divided, a polynomial identity one tested
for emptiness.
"""

from __future__ import annotations

import struct
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from operator import add as _iadd
from operator import mul as _imul
from operator import neg as _ineg
from operator import sub as _isub
from typing import Any, Callable, Dict, List, Optional, Sequence, Sized, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, int]
Packed = Dict[int, int]
Product = Tuple[int, Sequence[Packed]]


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
    shape((a, b), "exponents")
    return tuple(map(_iadd, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    shape((a, b), "exponents")
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


def scale(f: Poly, coef: int) -> Poly:
    if coef == 0:
        return {}
    return {e: c * coef for e, c in f.items()}


def shift(f: Poly, e: Exponent) -> Poly:
    """Multiply by the monomial x^e, of the polynomial's arity (checked once)."""
    if f and len(e) != _arity(f):
        raise ValueError(f"shift exponent of arity {len(e)} for arity {_arity(f)}")
    return {tuple(map(_iadd, t, e)): c for t, c in f.items()}


def mul(f: Poly, g: Poly) -> Poly:
    """Product of two polynomials."""
    _check_arity(f, g)
    if not f or not g:
        return {}
    fo, go = Operand(f), Operand(g)
    width = lane_width(fo.degree + go.degree)
    product = mul_packed(fo.packed(width), go.packed(width))
    return unpack(product, exp_add(fo.low, go.low), width)


def power(f: Poly, k: int) -> Poly:
    """f^k; negative k only for monomials with a unit coefficient.  A
    polynomial of more than one term is raised by `Operand.power`."""
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
    fo = Operand(f)
    width = lane_width(k * fo.degree)
    return unpack(fo.power(width, k), tuple(k * x for x in fo.low), width)


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
    return tuple(map(min, zip(*f))) if len(f) > 1 else next(iter(f))


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
    shape((u, v), "tropical operands")
    return tuple(min(x, y) for x, y in zip(u, v))


def tropicalize(f: Poly, num_mutable: int) -> Exponent:
    """Tropical value of a positive-coefficient polynomial.

    Mutable exponents (the first num_mutable positions) are zeroed, then the
    terms are folded with trop_add.  Coefficients must all be positive, else
    cancellation could hide a term and break the semifield homomorphism laws;
    violations raise NegativeCoefficient.  A num_mutable outside
    [0, arity] raises ValueError.
    """
    if not f:
        raise ValueError("the zero polynomial has no tropical value")
    if not 0 <= num_mutable <= _arity(f):
        raise ValueError(f"num_mutable {num_mutable} out of range for arity {_arity(f)}")
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
# printing, JSON

def to_str(f: Poly, names: Sequence[str]) -> str:
    """Readable form like '2*a*b^2 - c', terms in descending graded lex;
    one name per variable."""
    if not f:
        return "0"
    _check_names(f, names)
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
    One name per variable, as for `to_str`.
    """
    _check_names(f, names)
    return {
        "vars": list(names),
        "terms": [
            {"exp": list(e), "coef": str(f[e])}
            for e in sorted(f, key=grlex_key, reverse=True)
        ],
    }


def json_container(value: Any, what: str, kind: type, error: type = ValueError) -> Any:
    """The value when its type is `kind`, list for a JSON list or dict for
    a JSON object; any other value raises `error` instead of being
    iterated or indexed."""
    if type(value) is not kind:
        raise error(f"{what} must be {'a list' if kind is list else 'an object'}, got {value!r}")
    return value


def json_items(values: object, what: str, item: type, error: type = ValueError) -> list:
    """The values as a list when they are a JSON list whose every entry has
    type `item`, int or str; any other value, or an entry of another type
    (a float, bool or string among integers, a number among strings),
    raises `error` instead of being iterated, truncated, coerced or split
    into characters."""
    kind = "integers" if item is int else "strings"
    if type(values) is not list:
        raise error(f"{what} must be a list of {kind}, got {values!r}")
    for x in values:
        if type(x) is not item:
            raise error(f"{what} must be {kind}, got {x!r}")
    return list(values)


def shape(rows: Sequence[Sized], what: str, width: Optional[int] = None,
          count: Optional[int] = None, error: type = ValueError) -> int:
    """The width of `rows`, the one length of its rows: `width` if given,
    else the first row's, 0 for none.  A row of another length, or a row
    count other than `count` if given, raises `error` in the one wording of
    a shape fault: "shape of <what> is <rows> x <lengths>, not <count> x <width>"."""
    if width is None:
        width = len(rows[0]) if rows else 0
    found = set(map(len, rows))
    if found - {width} or count not in (None, len(rows)):
        lengths = "/".join(map(str, sorted(found))) or width
        raise error(f"shape of {what} is {len(rows)} x {lengths}, "
                    f"not {len(rows) if count is None else count} x {width}")
    return width


def plain_decimal(text: str, what: str) -> int:
    """The int of a plain decimal string: an optional minus sign, then ASCII
    digits, nothing else.  `int()` would also take "1_0", "+1", " 7 " and
    non-ASCII digits; any of them raises ValueError, naming `what`."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be plain decimals, got {text!r}")
    return int(text)


def from_json(obj: dict) -> Tuple[Poly, List[str]]:
    """Inverse of to_json; validates arity and rejects duplicate exponents.
    A coefficient is a JSON integer or a plain decimal string: an optional
    minus sign and ASCII digits, nothing else."""
    names = json_items(obj["vars"], "vars", str)
    f: Poly = {}
    for term in json_container(obj["terms"], "terms", list):
        e = tuple(json_items(json_container(term, "terms entries", dict)["exp"], "exponents", int))
        shape([e], "exponents", width=len(names))
        if e in f:
            raise ValueError(f"duplicate exponent {e}")
        coef = term["coef"]
        if type(coef) is not str:
            c = json_items([coef], "coefficients", int)[0]
        else:
            c = plain_decimal(coef, "coefficient strings")
        if c:
            f[e] = c
    return f, names


# ---------------------------------------------------------------------------
# packed kernel

def lane_width(bound: int) -> int:
    """Lane width in bits whose lanes hold every exponent from 0 to `bound`
    below their top bit: 8, 16, 32 or 64 when that suffices."""
    need = bound.bit_length() + 1
    for width in (8, 16, 32, 64):
        if need <= width:
            return width
    return need


def exponent_key(e: Sequence[int], width: int) -> int:
    """The packed key of the monomial x^e."""
    return sum(map(_imul, e, _weights(len(e), width)))


def variable_key(index: int, arity: int, width: int) -> int:
    """The packed key of x_index, which is its weight."""
    return _weights(arity, width)[index]


class Operand:
    """A nonzero polynomial f with its componentwise minimum exponent `low`,
    the largest total degree `degree` of x^-low f, and one cache from
    (width, k) to (x^-low f)^k packed at that width, kept for as long as
    the operand lives; the k = 1 entry is the packing.  A width whose
    lanes hold `degree` holds the packing, and a narrower one raises
    ValueError.  `packed_form` makes one from a packing, and `poly` is
    decoded from it the first time it is asked for."""

    __slots__ = ("poly", "low", "degree", "_powers")

    def __init__(self, f: Poly):
        self.poly, self.low = f, min_exponent(f)
        self.degree = max(map(sum, f)) - sum(self.low) if len(f) > 1 else 0
        self._powers: Dict[Tuple[int, int], Packed] = {}

    @classmethod
    def packed_form(cls, fp: Packed, low: Exponent, width: int) -> Operand:
        """The operand x^low f of a nonzero packed f whose every variable
        lane reaches 0, so that `low` is its exact minimum.  The degree is
        the degree lane of the largest key.  The packing is kept at `width`,
        whatever it is, as the first cache entry: `packed` packs at any
        other width on demand, from `poly`, which is decoded from it."""
        out = cls.__new__(cls)
        out.low, out.degree = low, max(fp) >> (width * len(low))
        out._powers = {(width, 1): fp}
        return out

    def __getattr__(self, name: str) -> Poly:
        # only an unset slot gets here: the `poly` of a `packed_form`
        # operand, decoded from its first cache entry, the packing
        if name != "poly":
            raise AttributeError(name)
        (width, _), fp = next(iter(self._powers.items()))
        self.poly = unpack(fp, self.low, width)
        return self.poly

    def packed(self, width: int) -> Packed:
        fp = self._powers.get((width, 1))
        if fp is None:
            if self.degree >= 1 << (width - 1):
                raise ValueError(f"degree {self.degree} does not fit a {width}-bit lane")
            # packing is linear, so key(e - low) = key(e) - key(low)
            weights, base = _weights(len(self.low), width), exponent_key(self.low, width)
            fp = {sum(map(_imul, e, weights)) - base: c for e, c in self.poly.items()}
            self._powers[width, 1] = fp
        return fp

    def power(self, width: int, k: int) -> Packed:
        """(x^-low f)^k for k >= 1, packed at a width whose lanes hold k
        times `degree`, and cached: the packing squared, then multiplied
        by the packing k - 2 times.  The package's one power builder; the
        caller changes none of it."""
        fp = self._powers.get((width, k))
        if fp is None:
            fp = base = self.packed(width)
            if k > 1:
                fp = _square_packed(base)
                for _ in range(k - 2):
                    fp = mul_packed(fp, base)
                self._powers[width, k] = fp
        return fp


def unpack(fp: Packed, low: Exponent, width: int) -> Poly:
    """x^low times the polynomial whose packed keys are fp: the inverse of
    `Operand.packed`."""
    decode = _decoder(len(low), width)
    if not any(low):
        return {decode(key): c for key, c in fp.items()}
    return {tuple(map(_iadd, decode(key), low)): c for key, c in fp.items()}


def mul_packed(f: Packed, g: Packed) -> Packed:
    """Product of two packed polynomials of one width, whose lanes must hold
    every exponent of the product."""
    return _drop_zeros(_add_product({}, f, g, 1))


def signed_sum(products: Sequence[Product]) -> Tuple[Packed, bool]:
    """Sum of scale times the product of the factors over (scale, factors)
    of one width whose lanes hold every product, each last factor multiplied
    straight into the sum, and whether a key summed to zero on the way;
    no factor is changed, so caches may share them.  A lone factor starts
    an empty sum scaled, its keys shared, not rebuilt."""
    out: Packed = {}
    for scale, factors in products:
        *head, last = factors
        if head or out:
            _add_product(out, reduce(mul_packed, head) if head else {0: 1}, last, scale)
        else:
            out = {key: scale * c for key, c in last.items()}
    size = len(out)
    return _drop_zeros(out), len(out) < size


def _add_product(out: Packed, f: Packed, g: Packed, scale: int) -> Packed:
    # out += scale * f * g in place, zeros kept: the one term-pair loop
    if len(f) < len(g):
        f, g = g, f
    get = out.get
    for kg, cg in g.items():
        cg *= scale
        for kf, cf in f.items():
            key = kf + kg
            out[key] = get(key, 0) + cf * cg
    return out


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


def div_packed(fp: Packed, gp: Packed, arity: int, width: int) -> Packed:
    """f / g for packed f and g with nonnegative exponents, when the
    quotient exists with nonnegative exponents; NotDivisible otherwise.  The
    package's one division loop (module docstring); it uses up fp as the
    remainder, so a caller that keeps f passes a copy.  The width must hold
    the total degrees of f and g, which bound every product q_i g_j met.
    A unit divisor, the key 0 with coefficient 1, returns fp itself; any
    other one-term divisor runs the loop with no terms below its lead."""
    if len(gp) == 1 and gp.get(0) == 1:
        # a packed operand that is a monomial with coefficient 1 is 1
        return fp
    guard = _guard(arity, width)
    lead_g = max(gp)
    cg = gp[lead_g]
    # -g_j for the terms below the lead, so that each step adds q * rest
    rest = [(key, -c) for key, c in gp.items() if key != lead_g]
    quot: Packed = {}
    # a key is in the heap (negated, for a max-heap) exactly while it is in
    # the remainder: a product key lies below the key that made it, so it
    # is pushed once and popped once, and a zero sum is popped and skipped
    heap = [-key for key in fp]
    heapify(heap)
    pop, get = fp.pop, fp.get
    while heap:
        m = -heappop(heap)
        c = pop(m)
        if not c:
            continue
        d = m - lead_g
        if d & guard:
            raise NotDivisible("leading monomial not divisible")
        q, r = divmod(c, cg)
        if r:
            raise NotDivisible("leading coefficient not divisible over Z")
        quot[d] = q
        for kg, c in rest:
            key = d + kg
            old = get(key)
            if old is None:
                fp[key] = q * c
                heappush(heap, -key)
            else:
                fp[key] = old + q * c
    return quot


def _drop_zeros(out: Packed) -> Packed:
    # in place: a copy would double the peak memory of a large product;
    # the scan for a zero runs in C, and most sums have none
    if 0 in out.values():
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


_LANE_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=None)
def _decoder(arity: int, width: int) -> Callable[[int], Exponent]:
    """key -> exponent tuple: the variable lanes below the degree lane."""
    low = (1 << (width * arity)) - 1
    code = _LANE_CODES.get(width)
    if code is not None:
        unpack_lanes = struct.Struct(">" + code * arity).unpack
        size = width * arity // 8
        return lambda key: unpack_lanes((key & low).to_bytes(size, "big"))
    mask = (1 << width) - 1
    shifts = [width * (arity - 1 - i) for i in range(arity)]
    return lambda key: tuple((key >> s) & mask for s in shifts)


# ---------------------------------------------------------------------------
# internal

def _arity(f: Poly) -> int:
    return len(next(iter(f)))


def _check_names(f: Poly, names: Sequence[str]) -> None:
    if f and len(names) != _arity(f):
        raise ValueError(f"{len(names)} variable names for arity {_arity(f)}")


def _check_arity(f: Poly, g: Poly) -> None:
    if f and g and _arity(f) != _arity(g):
        raise ValueError(f"operands have different arities: {_arity(f)} and {_arity(g)}")
