"""Grassmannian and band-matrix fixtures over exact determinant arithmetic.

Maximal minors of a generic matrix of independent indeterminates stand in
for Plücker coordinates, so Plücker relations are polynomial identities by
construction.  The band side lives in a second polynomial ring whose
matrix vanishes outside a diagonal band.  Between the two sides sits a
distinguished substitution turning a maximal minor into a maximal band
minor; it factors as frozen content times one irreducible row-solid
minor, the content exponents satisfy a tropical form of the short Plücker
relations, and a reverse substitution assembled from cyclic-interval
minors composes with it to a frozen multiple of the identity.  Cluster
presentations of both sides are emitted as seeds over formal generator
names, wired back to the determinants through the value tables; the
Plücker side starts from the rectangle cluster for every 2 <= k <= n−2.

The flat-to-band and composite identities and the pinned (2,5) minor
relations are checked in the affine chart [I | Y]: the generic matrix with
its first m = n−k columns set to the identity, leaving an m×k block Y of
indeterminates.  The verdict is the same as on the generic matrix.  Let F
be a polynomial in the Plücker coordinates, homogeneous of degree s.  For
an m×m matrix g, every maximal minor of gX is det(g) times that of X, so
F(gX) = det(g)^s·F(X).  Write the generic matrix as [A | B].  Wherever
det A ≠ 0, [A | B] = A·[I | A⁻¹B], so F([A | B]) = det(A)^s·F([I | A⁻¹B]).
If F vanishes on the chart, it thus vanishes on the Zariski-dense set
det A ≠ 0, hence identically; the converse holds because the chart is a
specialization.  Each side of each identity is a sum of products of s
Plücker coordinates, so their difference is such an F, decided exactly as
a polynomial in Y; a pinned minor relation has s = 2.  The public
`plucker` and `g_star` stay on the generic matrix.

A chart coordinate is a signed minor of Y.  Let a_1 < … < a_p be the
columns of a sorted column set that are at most m, and B the rest.  Column
a_i of the chart is the unit vector e_{a_i}, so Laplace expansion along the
first p columns keeps only the rows {a_i}, with sign
(−1)^(a_1+…+a_p + 1+…+p): the coordinate is (−1)^(a_1+…+a_p + p(p+1)/2)
times the minor of Y on rows [1, m] ∖ {a_i} and columns B, of size
m − p = |B| <= min(k, m).

Each flat-to-band case (a, s, J) is decided by induction on rows.  Read
indices mod n and let each P carry the sort sign of its columns as
written.  With R(a, s) the product of the runs P([i+k+1, n+i]) over
a <= i <= a+s−2, the case says that the g_star minor on rows [a, a+s−1]
and sorted columns J is R(a, s)·P([a+k+s, n+a−1] ∪ J).  Expand it along
row a: g_{a,j} is zero unless j <= a+k, and its cofactor is (−1)^pos, pos
the place of j in J from 0, times the minor of case (a+1, s−1, J∖{j}).  If
a is in J and j ≠ a, that minor has the zero column a and its completed
coordinate holds n+a and a, so the term is zero in the expansion and in
the identity below.  If every other lower case holds, then, as
R(a, s) = P([a+k+1, n+a])·R(a+1, s−1), the minor minus its right side is
R(a+1, s−1) times Σ_pos (−1)^pos g_{a,j}·P([a+k+s, n+a] ∪ J∖{j}) −
P([a+k+1, n+a])·P([a+k+s, n+a−1] ∪ J).  Chart coordinates on distinct
residues are ± minors of Y, so R(a+1, s−1) ≠ 0, and the ring is a domain:
the case holds exactly when this quadratic Grassmann–Plücker relation
(Fulton, *Young Tableaux*, 1997) does, which is checked, never assumed.  For
s = 1, or where a lower case fails (only perturbed entries do), the minor
is compared with its right side directly.  The composite identity is the
case on all rows: substitution is a ring map, so f_star of a coordinate at
the g_star entries is the determinant of the g_star entries on its columns.

Band minors factor by their zero pattern.  Take the band minor on rows
[p, p+s−1] and sorted columns j_0 < … < j_{s−1}, each j_t in [p+t, p+t+k]
as in every maximal minor.  Where j_t = p+t with t < s−1, the rows after
p+t vanish on j_0, …, j_t; where j_t > p+t−1+k with t >= 1, the rows
before p+t vanish from j_t on.  So the minor is block triangular: the
product of its diagonal blocks, with no sign.  Cut at every such t.  In a
block, j_t > p+t (no cut after t) and j_t <= p+t−1+k (no cut before t) put
(p+t+1, j_t) and (p+t−1, j_t) in the band, so the block's diagonal and
the two next to it are band variables.  Such a block is fully
indecomposable (Brualdi & Ryser, *Combinatorial Matrix Theory*, 1991,
ch. 4), so its determinant, in distinct indeterminates, is irreducible
(Frobenius, Sitzungsber. Preuss. Akad. Wiss., 1917).  The band ring is a
UFD and blocks on different rows share no variable, so the blocks are the
irreducible factors, each once: the frozen generators among them give the
content, the one left is the minor.  A band-window case (a, s, J) of the
flat-to-band suite, J sorted in [a, a+s+k−1], has t columns of J below j_t
and s−1−t above it, so a+t <= j_t <= a+t+k: its minor is nonzero, and it is
in the irreducible catalog exactly when it is one block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import lattice as la
from . import laurent as lp
from . import quasihom as qh
from . import seeds as sd
from .laurent import Poly

IndexSet = Tuple[int, ...]
MinorSpec = Tuple[IndexSet, IndexSet]
Factorization = Tuple[IndexSet, Dict[str, int], IndexSet, IndexSet]
Suite = Tuple[str, int, List[str]]


class InvalidIndex(Exception):
    """Index data outside the context's valid range or shape."""


class NoFactorization(Exception):
    """A band image did not split as frozen content times a catalog minor."""


class UnsupportedContext(Exception):
    """The rectangle cluster needs k >= 2 and n − k >= 2."""


class GenericMatrixContext(NamedTuple("GenericMatrixContext", [("k", int), ("n", int)])):
    """Dimensions k < n; the generic matrix has n−k rows and n columns, the
    band matrix the same rows with support i <= j <= i+k."""

    __slots__ = ()

    @property
    def rows(self) -> int:
        return self.n - self.k


def make_context(k: int, n: int) -> GenericMatrixContext:
    if not 1 <= k < n:
        raise InvalidIndex(f"need 1 <= k < n, got k={k}, n={n}")
    return GenericMatrixContext(k, n)


def x_arity(ctx: GenericMatrixContext) -> int:
    return ctx.rows * ctx.n


def y_arity(ctx: GenericMatrixContext) -> int:
    return ctx.rows * (ctx.k + 1)


def reduce_plucker_index(
    ctx: GenericMatrixContext, raw: Sequence[int]
) -> Tuple[int, IndexSet]:
    """Sort-parity sign and sorted least positive residues; sign 0 marks a
    repeated residue (the zero coordinate)."""
    if len(raw) != ctx.rows:
        raise InvalidIndex(
            f"index needs {ctx.rows} entries for n={ctx.n}, k={ctx.k}"
        )
    # a strictly increasing index within [1, n] is already reduced, and most
    # callers pass one
    if 1 <= raw[0] and raw[-1] <= ctx.n and list(raw) == sorted(set(raw)):
        return 1, tuple(raw)
    residues = [(s - 1) % ctx.n + 1 for s in raw]
    if len(set(residues)) != len(residues):
        return 0, ()
    inversions = sum(x > y for x, y in combinations(residues, 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(residues))


# Both rings stay on laurent's packed kernel from their entries to the
# public boundary: exponent tuples become int keys, so a monomial product is
# a single addition, and every exponent is nonnegative.  One lane width per
# context serves both rings.  A Plücker coordinate is multilinear in the
# rows, on the generic matrix and in the chart alike, and every product on
# that side multiplies at most ctx.rows of them (minors of at most ctx.rows
# distinct rows, runs of fewer than ctx.rows coordinates times one more).  A
# band minor has total degree at most ctx.rows.  A pinned (2,5) image
# relation reaches total degree 6, which 8-bit lanes, the narrowest, hold.
# The caches in this module share their values with every caller inside
# it, and no caller changes one; public functions hand out fresh dicts.


def _width(ctx: GenericMatrixContext) -> int:
    return lp.lane_width(ctx.rows)


def _variable(ctx: GenericMatrixContext, index: int, arity: int) -> lp.Packed:
    return {lp.variable_key(index, arity, _width(ctx)): 1}


def _unpack_x(ctx: GenericMatrixContext, fp: lp.Packed) -> Poly:
    return lp.unpack(fp, (0,) * x_arity(ctx), _width(ctx))


def _fast_det(entries: Sequence[Sequence[lp.Packed]]) -> lp.Packed:
    """Determinant by cofactor expansion row by row: the minors on the
    first t rows, keyed by column mask, are shared across column subsets."""
    level: Dict[int, lp.Packed] = {0: {0: 1}}
    for t, row in enumerate(entries):
        # the signed cofactor products of each minor on the first t+1 rows
        products: Dict[int, List[lp.Product]] = {}
        for mask, minor in level.items():
            if not minor:
                continue
            for j, entry in enumerate(row):
                bit = 1 << j
                if mask & bit or not entry:
                    continue
                below = bin(mask & (bit - 1)).count("1")
                sign = -1 if (t + below) % 2 else 1
                products.setdefault(mask | bit, []).append((sign, [minor, entry]))
        level = {mask: lp.signed_sum(terms)[0] for mask, terms in products.items()}
    return level.get((1 << len(entries)) - 1, {})


def _matrix_entry(ctx: GenericMatrixContext, r: int, c: int) -> lp.Packed:
    """Entry in row r (from 0) and column c (from 1) of the generic matrix;
    the chart [I | Y] has the same entry right of column ctx.rows."""
    return _variable(ctx, r * ctx.n + c - 1, x_arity(ctx))


@lru_cache(maxsize=None)
def _sorted_plucker_fast(
    ctx: GenericMatrixContext, cols: IndexSet, chart: bool
) -> lp.Packed:
    """The minor on sorted `cols` of the generic matrix, or of the chart as
    a signed minor of Y by Laplace along its unit columns (module docstring)."""
    units = [c for c in cols if c <= ctx.rows] if chart else []
    rows = [r for r in range(ctx.rows) if r + 1 not in units]
    det = _fast_det([[_matrix_entry(ctx, r, c) for c in cols[len(units):]] for r in rows])
    p = len(units)
    return lp.signed_sum([(-1, [det])])[0] if (sum(units) + p * (p + 1) // 2) % 2 else det


def _plucker_fast(
    ctx: GenericMatrixContext, raw: Sequence[int], chart: bool
) -> lp.Packed:
    sign, cols = reduce_plucker_index(ctx, raw)
    if sign == 0:
        return {}
    det = _sorted_plucker_fast(ctx, cols, chart)
    return det if sign > 0 else lp.signed_sum([(-1, [det])])[0]


def plucker(ctx: GenericMatrixContext, raw: Sequence[int]) -> Poly:
    """Signed maximal minor of the generic matrix on the given columns."""
    return _unpack_x(ctx, _plucker_fast(ctx, raw, False))


@lru_cache(maxsize=None)
def _band_entries(ctx: GenericMatrixContext) -> Tuple[Tuple[lp.Packed, ...], ...]:
    arity = y_arity(ctx)
    return tuple(
        tuple(
            _variable(ctx, (i - 1) * (ctx.k + 1) + j - i, arity) if i <= j <= i + ctx.k else {}
            for j in range(1, ctx.n + 1)
        )
        for i in range(1, ctx.rows + 1)
    )


@lru_cache(maxsize=None)
def _band_minor(ctx: GenericMatrixContext, i_set: IndexSet, j_set: IndexSet) -> lp.Packed:
    b = _band_entries(ctx)
    return _fast_det([[b[i - 1][j - 1] for j in j_set] for i in i_set])


def band_minor(
    ctx: GenericMatrixContext, rows_i: Sequence[int], cols_j: Sequence[int]
) -> Poly:
    """Minor of the band matrix on the given row and column sets."""
    i_set = tuple(sorted(rows_i))
    j_set = tuple(sorted(cols_j))
    if len(i_set) != len(j_set):
        raise InvalidIndex("row and column sets differ in size")
    if len(set(i_set)) != len(i_set) or len(set(j_set)) != len(j_set):
        raise InvalidIndex("repeated row or column index")
    if i_set and not (1 <= i_set[0] and i_set[-1] <= ctx.rows):
        raise InvalidIndex(f"rows outside [1, {ctx.rows}]")
    if j_set and not (1 <= j_set[0] and j_set[-1] <= ctx.n):
        raise InvalidIndex(f"columns outside [1, {ctx.n}]")
    return lp.unpack(_band_minor(ctx, i_set, j_set), (0,) * y_arity(ctx), _width(ctx))


def f_star(ctx: GenericMatrixContext, raw: Sequence[int]) -> Poly:
    """Image of a Plücker coordinate: the maximal band minor on its columns."""
    sign, cols = reduce_plucker_index(ctx, raw)
    if sign == 0:
        return {}
    full = range(1, ctx.rows + 1)
    return lp.scale(band_minor(ctx, full, cols), sign)


@lru_cache(maxsize=None)
def _g_entry_fast(ctx: GenericMatrixContext, i: int, j: int, chart: bool) -> lp.Packed:
    """The g_star entry (i, j); zero outside the band."""
    if not i <= j <= i + ctx.k:
        return {}
    run = tuple(range(i + ctx.k + 1, ctx.n + i)) + (j,)
    return _plucker_fast(ctx, run, chart)


def g_star(ctx: GenericMatrixContext, i: int, j: int) -> Poly:
    """Image of one band entry: the Plücker coordinate on the cyclic run of
    columns after i, completed by column j."""
    if not (1 <= i <= ctx.rows and i <= j <= i + ctx.k):
        raise InvalidIndex(f"entry ({i}, {j}) outside the band")
    return _unpack_x(ctx, _g_entry_fast(ctx, i, j, False))


def _interval(lo: int, hi: int) -> List[int]:
    return list(range(lo, hi + 1))


@lru_cache(maxsize=None)
def _completed(ctx: GenericMatrixContext, a: int, s: int, j_set: IndexSet) -> lp.Packed:
    """The chart coordinate on [a+k+s, n+a−1] ∪ J; at s = 0 and no J, a run."""
    return _plucker_fast(ctx, tuple(_interval(a + ctx.k + s, ctx.n + a - 1)) + j_set, True)


@lru_cache(maxsize=None)
def _flattoband_holds(ctx: GenericMatrixContext, a: int, s: int, j_set: IndexSet) -> bool:
    """Case (a, s, J) by induction on rows, as the module docstring proves."""
    # the cofactors along row a that the module docstring keeps
    lower = [(pos, j, j_set[:pos] + j_set[pos + 1:]) for pos, j in enumerate(j_set)
             if j <= a + ctx.k and (j == a or j_set[0] != a)]
    if s > 1 and all(_flattoband_holds(ctx, a + 1, s - 1, rest) for _, _, rest in lower):
        return not lp.signed_sum(
            [((-1) ** pos, [_g_entry_fast(ctx, a, j, True), _completed(ctx, a + 1, s - 1, rest)])
             for pos, j, rest in lower]
            + [(-1, [_completed(ctx, a + 1, 0, ()), _completed(ctx, a, s, j_set)])])[0]
    # s = 1, or a lower case failed (only on perturbed entries): decide directly
    minor = _fast_det([[_g_entry_fast(ctx, i, j, True) for j in j_set] for i in range(a, a + s)])
    runs = [_completed(ctx, i, 0, ()) for i in range(a + 1, a + s)]
    return not lp.signed_sum([(1, [minor]), (-1, runs + [_completed(ctx, a, s, j_set)])])[0]


def flattoband_check(
    ctx: GenericMatrixContext, a: int, s: int, cols_j: Sequence[int]
) -> bool:
    """Exact identity between a row-solid minor of the g_star matrix and a
    product of cyclic-interval Plücker coordinates, decided in the chart.

    Rows are the interval [a, a+s−1] with s >= 1; the columns must come
    from the band window [a, a+s−1+k], where sorted distinct columns always
    meet the row-solid support condition.  Out-of-window data is an error.
    """
    j_set = tuple(sorted(cols_j))
    if not (1 <= a and 1 <= s and a + s - 1 <= ctx.rows and len(set(j_set)) == len(j_set) == s
            and a <= j_set[0] and j_set[-1] <= a + s - 1 + ctx.k):
        raise InvalidIndex("need s >= 1 rows inside the matrix and s distinct band-window columns")
    return _flattoband_holds(ctx, a, s, j_set)


def flattoband_cases(ctx: GenericMatrixContext) -> List[Tuple[int, int, IndexSet]]:
    """Every admissible (a, s, J), smallest rows first."""
    out = []
    for s in range(1, ctx.rows + 1):
        for a in range(1, ctx.rows - s + 2):
            for j_set in combinations(range(a, a + s + ctx.k), s):
                out.append((a, s, j_set))
    return out


def _joined(indices: Sequence[int]) -> str:
    """Indices written out with no separator while each is a single digit,
    else joined by "_", so names stay distinct for any n."""
    return ("" if max(indices, default=0) < 10 else "_").join(map(str, indices))


def plucker_name(cols: Sequence[int]) -> str:
    return "D" + _joined(sorted(cols))


def band_name(rows_i: Sequence[int], cols_j: Sequence[int]) -> str:
    return "Y" + _joined(list(rows_i) + list(cols_j))


def plucker_frozen_sets(ctx: GenericMatrixContext) -> List[IndexSet]:
    """The n cyclic column intervals, starting from [1, n−k]."""
    return [
        tuple(sorted((i + j) % ctx.n + 1 for j in range(ctx.rows)))
        for i in range(ctx.n)
    ]


def is_frozen_plucker(ctx: GenericMatrixContext, cols: Sequence[int]) -> bool:
    return tuple(sorted(cols)) in _frozen(ctx)[0]


def band_frozen_specs(
    ctx: GenericMatrixContext,
) -> List[Tuple[str, IndexSet, IndexSet]]:
    """Frozen band generators: the two diagonals of the band, then the
    maximal row-solid minors on windows of consecutive columns."""
    full = tuple(_interval(1, ctx.rows))
    pairs = [((i,), (i,)) for i in full] + [((i,), (i + ctx.k,)) for i in full]
    pairs += [(full, tuple(_interval(t + 1, ctx.rows + t))) for t in range(1, ctx.k)]
    return [(band_name(i, j), i, j) for i, j in pairs]


def _blocks(ctx: GenericMatrixContext, p: int, j_set: IndexSet) -> List[MinorSpec]:
    """Diagonal blocks of the nonzero band minor on rows [p, p+s−1] and
    sorted columns `j_set`, cut by the split rule of the module docstring."""
    cuts = [t for t in range(1, len(j_set))
            if j_set[t - 1] == p + t - 1 or j_set[t] > p + t - 1 + ctx.k]
    bounds = [0] + cuts + [len(j_set)]
    return [(tuple(range(p + a, p + b)), j_set[a:b]) for a, b in zip(bounds, bounds[1:])]


def irreducible_minors(ctx: GenericMatrixContext) -> List[MinorSpec]:
    """All irreducible row-solid minors, frozen ones included: the band-window
    cases that `_blocks` leaves in one block, each nonzero by the module
    docstring."""
    return [
        (tuple(_interval(a, a + s - 1)), j_set)
        for a, s, j_set in flattoband_cases(ctx)
        if len(_blocks(ctx, a, j_set)) == 1
    ]


def non_frozen_irreducible_minors(ctx: GenericMatrixContext) -> List[MinorSpec]:
    position = _frozen(ctx)[1]
    return [pair for pair in irreducible_minors(ctx) if pair not in position]


@lru_cache(maxsize=None)
def _frozen(
    ctx: GenericMatrixContext,
) -> Tuple[frozenset, Dict[MinorSpec, int], List[str]]:
    """Frozen Plücker sets; the frozen band generators' positions in
    `band_frozen_specs` order, keyed by (rows, columns); and their names in
    that order."""
    specs = band_frozen_specs(ctx)
    position = {(i, j): p for p, (_, i, j) in enumerate(specs)}
    return frozenset(plucker_frozen_sets(ctx)), position, [name for name, _, _ in specs]


@lru_cache(maxsize=None)
def _split_image(
    ctx: GenericMatrixContext, cols: IndexSet
) -> Tuple[int, Optional[MinorSpec]]:
    """The band image on sorted `cols` read off its blocks: the content, as
    an int bitmask over the positions in `band_frozen_specs` of the frozen
    generators among the blocks (each has exponent 1, the blocks being on
    disjoint rows), and the one block that is not frozen, None for a
    frozen coordinate.  The cache holds one content per coordinate, so it
    is a bitmask: an int of a few machine words, not a set of ints.

    Every block is an irreducible row-solid minor, so none is cut again
    (module docstring, with p = 1 and s = n−k).  The image is nonzero: the
    sorted columns j_0 < … < j_{s−1} of an s-subset of [1, n] have t
    columns below j_t and s−1−t above it, so 1+t <= j_t <= k+1+t.  A block
    keeps its columns on the same rows, so it is nonzero too, and the cut
    test at each t inside it reads the same entries as on the whole image,
    which cut only at the block's ends."""
    intervals, position = _frozen(ctx)[:2]
    blocks = _blocks(ctx, 1, cols)
    rest = [block for block in blocks if block not in position]
    if len(rest) != (0 if cols in intervals else 1):
        raise NoFactorization(f"image of {plucker_name(cols)} has non-frozen factors {rest}")
    content = sum([1 << position[block] for block in blocks if block in position])
    return content, rest[0] if rest else None


_BITS = bytes.maketrans(b"01", b"\0\1")


def _at_set_bits(content: int, items: Sequence) -> Iterator:
    """The items at the set bits of `content`, lowest bit first: the bits
    are read as bytes, so no Python step is spent on a clear bit."""
    return compress(items, bin(content)[:1:-1].encode().translate(_BITS))


def factor_fstar(
    ctx: GenericMatrixContext, raw: Sequence[int]
) -> Tuple[Dict[str, int], IndexSet, IndexSet]:
    """Split the band image of a non-frozen Plücker coordinate as frozen
    content times one irreducible row-solid minor: its diagonal blocks,
    which are its irreducible factors (see the module docstring).  The
    content maps the generator names to 1 in name order, the order the
    base report prints."""
    sign, cols = reduce_plucker_index(ctx, raw)
    if sign == 0:
        raise InvalidIndex("zero coordinate has no factorization")
    content, minor = _split_image(ctx, cols)
    if minor is None:
        raise NoFactorization(f"{plucker_name(cols)} is frozen")
    return dict.fromkeys(sorted(_at_set_bits(content, _frozen(ctx)[2])), 1), minor[0], minor[1]


def tropical_c_check(
    ctx: GenericMatrixContext, base: Sequence[int], i: int, j: int, k2: int, l: int
) -> bool:
    """Tropical short Plücker relation on the content exponents.

    The products pairing (i,k2) with (j,l) must equal the componentwise
    minimum of the (i,j)(k2,l) and (j,k2)(i,l) pairings, exponent vector by
    exponent vector over the frozen band generators.
    """
    if not i < j < k2 < l:
        raise InvalidIndex("need strictly increasing i < j < k < l")
    touched = list(base) + [i, j, k2, l]
    residues = [(c - 1) % ctx.n + 1 for c in touched]
    if len(set(residues)) != ctx.rows + 2:
        raise InvalidIndex("overlapping indices in the relation")
    *rest, ri, rj, rk, rl = residues

    # distinct residues: each coordinate is its sorted set, with no sign to drop
    def vec(p: int, q: int) -> int:
        return _split_image(ctx, tuple(sorted(rest + [p, q])))[0]

    # a content holds each generator once, so a product of two coordinates
    # has exponent 1 or 2 on the generators in either content and 2 on those
    # in both; the minimum of two products keeps what both have at each level
    def tot(p1: Tuple[int, int], p2: Tuple[int, int]) -> Tuple[int, int]:
        a, b = vec(*p1), vec(*p2)
        return a | b, a & b

    once, twice = tot((ri, rk), (rj, rl))
    (once1, twice1), (once2, twice2) = tot((ri, rj), (rk, rl)), tot((rj, rk), (ri, rl))
    return once == once1 & once2 and twice == twice1 & twice2


def tropical_cases(
    ctx: GenericMatrixContext,
) -> List[Tuple[IndexSet, Tuple[int, int, int, int]]]:
    """Every short Plücker instance: a 4-subset plus a disjoint base."""
    out = []
    for quad in combinations(range(1, ctx.n + 1), 4):
        rest = [c for c in range(1, ctx.n + 1) if c not in quad]
        for base in combinations(rest, ctx.rows - 2):
            out.append((base, quad))
    return out


def substitute(f: Poly, images: Sequence[Poly], arity: int) -> Poly:
    """Composition f(images); exponents must be nonnegative.  The direct
    form of the composite identity, which `check_suites` decides instead
    in the chart, as the flat-to-band cases on all rows."""
    out: Poly = {}
    for exp, coef in f.items():
        term = lp.constant(coef, arity)
        for idx, e in enumerate(exp):
            if e < 0:
                raise InvalidIndex("substitution needs nonnegative exponents")
            if e:
                term = lp.mul(term, lp.power(images[idx], e))
        out = lp.add(out, term)
    return out


def _rectangle_layout(
    ctx: GenericMatrixContext, turn: int
) -> Tuple[List[IndexSet], la.Matrix]:
    """Mutable column sets and btilde of the rectangle cluster with every
    column c turned to c + turn mod n, frozen rows in the fixed order.

    The rectangle cluster is Scott's initial seed: rectangle coordinates on
    the (rows−1) x (k−1) grid, every cyclic-interval coordinate frozen.  Its
    quiver is the grid with one diagonal per face: at position (a, b) arrows
    arrive from (a−1,b), (a,b−1), (a+1,b+1) and leave to (a+1,b), (a,b+1),
    (a−1,b−1).  Positions off the grid resolve through the same rectangle
    formula to frozen intervals, and repeated hits on one coordinate
    accumulate, so a corner coordinate shared by both sides of an exchange
    cancels out.
    """
    if ctx.rows < 2 or ctx.k < 2:
        raise UnsupportedContext(
            f"rectangle cluster needs k >= 2 and n - k >= 2; got k={ctx.k}, n={ctx.n}"
        )
    m = ctx.rows

    def index(a: int, b: int) -> IndexSet:
        cols = _interval(1, m - a) + _interval(m - a + b + 1, m + b)
        return tuple(sorted((c + turn - 1) % ctx.n + 1 for c in cols))

    grid = [(a, b) for a in range(1, m) for b in range(1, ctx.k)]
    mutable_sets = [index(a, b) for a, b in grid]
    all_sets = mutable_sets + plucker_frozen_sets(ctx)
    order = {cols: row for row, cols in enumerate(all_sets)}
    btilde = la.zeros(len(order), len(grid))
    for col, (a, b) in enumerate(grid):
        for pa, pb in ((a - 1, b), (a, b - 1), (a + 1, b + 1)):
            btilde[order[index(pa, pb)]][col] += 1
        for pa, pb in ((a + 1, b), (a, b + 1), (a - 1, b - 1)):
            btilde[order[index(pa, pb)]][col] -= 1
    return mutable_sets, btilde


# Reverse substitution on the band generators of the same fixture, one
# column per band generator, rows over the nine cluster-side generators.
GSTAR25_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 1],
]

# Pinned three-term relations of the five-column case.  A minor row packs
# one identity l1*l2 == a1*a2 + b1*b2 over column sets; the band rows group
# (rows, cols) generator pairs as (left, first summand, second summand);
# the cofactor rows list the frozen generators multiplying the band bracket
# inside the image of the matching minor identity.
QUINTIC_MINOR_RELATIONS = (
    ((2, 4, 5), (1, 3, 5), (1, 4, 5), (2, 3, 5), (1, 2, 5), (3, 4, 5)),
    ((2, 3, 5), (1, 3, 4), (2, 3, 4), (1, 3, 5), (1, 2, 3), (3, 4, 5)),
    ((1, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 2, 3), (1, 4, 5)),
    ((1, 3, 4), (2, 4, 5), (1, 2, 4), (3, 4, 5), (1, 4, 5), (2, 3, 4)),
    ((1, 2, 4), (2, 3, 5), (1, 2, 3), (2, 4, 5), (1, 2, 5), (2, 3, 4)),
)

_Y12 = ((1,), (2,))
_Y23 = ((2,), (3,))
_Y34 = ((3,), (4,))
_Y11 = ((1,), (1,))
_Y22 = ((2,), (2,))
_Y33 = ((3,), (3,))
_Y13 = ((1,), (3,))
_Y24 = ((2,), (4,))
_Y35 = ((3,), (5,))
_Y1223 = ((1, 2), (2, 3))
_Y2334 = ((2, 3), (3, 4))
_Y123234 = ((1, 2, 3), (2, 3, 4))

QUINTIC_BAND_RELATIONS = (
    ((_Y12, _Y23), (_Y1223,), (_Y22, _Y13)),
    ((_Y1223, _Y2334), (_Y123234, _Y23), (_Y22, _Y33, _Y13, _Y24)),
    ((_Y23, _Y34), (_Y2334,), (_Y33, _Y24)),
    ((_Y2334, _Y12), (_Y22, _Y13, _Y34), (_Y123234,)),
    ((_Y34, _Y1223), (_Y33, _Y24, _Y12), (_Y123234,)),
)

QUINTIC_IMAGE_COFACTORS = (
    (_Y11, _Y35, _Y35, _Y24),
    (_Y11, _Y35),
    (_Y11, _Y11, _Y22, _Y35),
    (_Y11, _Y24, _Y35),
    (_Y11, _Y22, _Y35),
)


def quintic_relation_checks(ctx: GenericMatrixContext) -> List[Dict[str, object]]:
    """The pinned relation tables evaluated as exact identities.

    Fifteen records in fixed order: the five minor relations, their band
    counterparts, and the image identities obtained by applying the band
    substitution to a minor relation, which multiplies the band bracket by
    a frozen cofactor.
    """
    if (ctx.k, ctx.n) != (2, 5):
        raise UnsupportedContext("relation tables are pinned for k=2, n=5 only")
    full = tuple(_interval(1, ctx.rows))

    # a spec is a Plücker column set or a band (rows, columns) pair
    def values(specs: Sequence) -> List[lp.Packed]:
        return [_plucker_fast(ctx, x, True) if isinstance(x[0], int) else _band_minor(ctx, *x)
                for x in specs]

    def names(specs: Sequence) -> List[str]:
        return [plucker_name(x) if isinstance(x[0], int) else band_name(*x) for x in specs]

    def record(kind: str, idx: int, left: Sequence, first: Sequence, second: Sequence,
               cofactor: Sequence = ()) -> Dict[str, object]:
        """Whether the product of `left`, or of its images when there is a
        cofactor, equals the cofactor times the sum of the summands."""
        out: Dict[str, object] = {"kind": kind, "index": idx, "left": names(left)}
        if cofactor:
            out["cofactor"] = names(cofactor)
        # the tables list sorted column sets, so an image is a band minor
        lhs = [(full, cols) for cols in left] if cofactor else left
        terms = [(1, values(lhs))] + [(-1, values(tuple(cofactor) + part))
                                      for part in (first, second)]
        out.update(summands=[names(first), names(second)], holds=not lp.signed_sum(terms)[0])
        return out

    minors = QUINTIC_MINOR_RELATIONS
    records = [record("minor", idx, (l1, l2), (a1, a2), (b1, b2))
               for idx, (l1, l2, a1, a2, b1, b2) in enumerate(minors)]
    records += [record("band", idx, *rel) for idx, rel in enumerate(QUINTIC_BAND_RELATIONS)]
    records += [record("image", idx, minors[idx][:2], *QUINTIC_BAND_RELATIONS[idx][1:], cofactor)
                for idx, cofactor in enumerate(QUINTIC_IMAGE_COFACTORS)]
    return records


class GrassmannFixture(NamedTuple("GrassmannFixture", [
    ("ctx", GenericMatrixContext),
    ("gr_seed", sd.Seed),
    ("band_seed", sd.Seed),
    ("fstar_map", qh.MonomialMap),
    ("gstar_map", Optional[qh.MonomialMap]),
    ("gr_sets", List[IndexSet]),
    ("band_specs", List[Tuple[str, IndexSet, IndexSet]]),
])):
    """Matched cluster presentations of the two sides, with the monomial
    map between them."""

    __slots__ = ()


def build_fixture(ctx: GenericMatrixContext) -> GrassmannFixture:
    """The fixture on the rectangle cluster, for every 2 <= k <= n−2.

    The five-column case turns the rectangle cluster by one column and
    carries the pinned reverse substitution; every other case carries the
    forward map only.
    """
    pinned = (ctx.k, ctx.n) == (2, 5)
    mutable_sets, gr_btilde = _rectangle_layout(ctx, 1 if pinned else 0)
    all_sets = mutable_sets + plucker_frozen_sets(ctx)
    gr_names = [plucker_name(cols) for cols in all_sets]
    # every set is sorted; only the mutable ones have a non-frozen block
    images = [_split_image(ctx, cols) for cols in all_sets]
    num = len(mutable_sets)
    band_specs = [
        (band_name(i_set, j_set), i_set, j_set) for _, (i_set, j_set) in images[:num]
    ] + band_frozen_specs(ctx)
    band_names = [name for name, _, _ in band_specs]
    if len(set(band_names)) != len(band_names):
        raise NoFactorization("band generator names collide")
    # band row col is the minor of mutable column col, and row num + p the
    # frozen generator at position p
    matrix = la.zeros(len(band_specs), len(all_sets))
    for col, (content, minor) in enumerate(images):
        if minor is not None:
            matrix[col][col] = 1
        for p in _at_set_bits(content, range(content.bit_length())):
            matrix[num + p][col] = 1
    return GrassmannFixture(
        ctx=ctx,
        gr_seed=sd.initial_seed(gr_btilde, gr_names),
        band_seed=sd.initial_seed(la.matmul(matrix, gr_btilde), band_names),
        fstar_map=qh.MonomialMap(matrix, gr_names, band_names, num, num),
        gstar_map=(
            qh.MonomialMap(GSTAR25_MATRIX, band_names, gr_names, num, num)
            if pinned
            else None
        ),
        gr_sets=all_sets,
        band_specs=band_specs,
    )


def factorizations(ctx: GenericMatrixContext) -> List[Factorization]:
    """(columns, content, I, J) of `factor_fstar` for every non-frozen
    Plücker coordinate, in lexicographic column order."""
    return [
        (cols, *factor_fstar(ctx, cols))
        for cols in combinations(range(1, ctx.n + 1), ctx.rows)
        if not is_frozen_plucker(ctx, cols)
    ]


def check_suites(
    fx: GrassmannFixture,
    factored: Sequence[Factorization],
    records: Optional[Sequence[Dict[str, object]]],
) -> List[Suite]:
    """The identity suites of the fixture report, in its order, as (name,
    cases, failures): the pinned relation records when given, the seed
    maps, the factorizations, the flat-to-band minors, the tropical
    contents and the composite identity.  A failure is written out only
    for a case that fails.

    `factored` is the `factorizations` list of the report.  Each of its
    entries is a case that already holds, since `factor_fstar` raises on a
    coordinate that does not factor; the one further case is that their
    minors are exactly the non-frozen catalog.
    """
    ctx = fx.ctx
    suites: List[Suite] = []
    if records is not None:
        suites.append(("relation_identities", len(records), [
            f"{r['kind']} relation {r['index']} fails" for r in records if not r["holds"]
        ]))

    maps = [("forward map fails seed verification",
             qh.verify_qh(fx.fstar_map, fx.gr_seed, fx.band_seed))]
    if fx.gstar_map is not None:
        maps.append(("reverse map fails seed verification",
                     qh.verify_qh(fx.gstar_map, fx.band_seed, fx.gr_seed)))
        maps.append(("composite moves the star neighborhood",
                     qh.quasi_inverse_check(fx.fstar_map, fx.gstar_map, fx.gr_seed)))
    suites.append(("map_verification", len(maps),
                   [failure for failure, holds in maps if not holds]))

    minors = {(i_set, j_set) for _, _, i_set, j_set in factored}
    missed = minors != set(non_frozen_irreducible_minors(ctx))
    suites.append(("factorization", len(factored) + 1,
                   ["factor images miss the irreducible catalog"] if missed else []))

    # the composite suite reads its cases (all rows) from these outcomes
    outcomes = {case: flattoband_check(ctx, *case) for case in flattoband_cases(ctx)}
    suites.append(("flat_to_band_minors", len(outcomes), [
        f"rows [{a}, {a + s - 1}], columns {list(j_set)}"
        for (a, s, j_set), holds in outcomes.items() if not holds
    ]))

    quads = tropical_cases(ctx)
    suites.append(("tropical_contents", len(quads), [
        f"base {list(base)}, quad {list(quad)}"
        for base, quad in quads if not tropical_c_check(ctx, base, *quad)
    ]))

    # the suite list per size is part of the CLI contract: every size runs
    # the composite suite except (2,6), whose four suites the benchmark pins
    if (ctx.k, ctx.n) != (2, 6):
        results = [(j_set, holds) for (a, s, j_set), holds in outcomes.items()
                   if (a, s) == (1, ctx.rows)]
        suites.append(("composite_identity", len(results), [
            plucker_name(cols) for cols, holds in results if not holds
        ]))
    return suites
