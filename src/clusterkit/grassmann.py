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

The flat-to-band and composite identities are checked in the affine chart
[I | Y]: the generic matrix with its first m = n−k columns set to the
identity, leaving an m×k block Y of indeterminates.  The verdict is the
same as on the generic matrix.  Let F be a polynomial in the Plücker
coordinates, homogeneous of degree s.  For an m×m matrix g, every maximal
minor of gX is det(g) times that of X, so F(gX) = det(g)^s·F(X).  Write
the generic matrix as [A | B].  Wherever det A ≠ 0, [A | B] = A·[I | A⁻¹B],
so F([A | B]) = det(A)^s·F([I | A⁻¹B]).  If F vanishes on the chart, it
thus vanishes on the Zariski-dense set det A ≠ 0, hence identically; the
converse holds because the chart is a specialization.  Each side of each
identity is a sum of products of s Plücker coordinates, so their
difference is such an F, decided exactly as a polynomial in Y.  The
public `plucker` and `g_star` stay on the generic matrix.

Two facts spare the band side any search.  The band entries are distinct
variables, so each term of a minor on (I, J) uses every row of I and column
of J once: one exponent of a remainder names the only minor it can equal.
Substitution is a ring map, so f_star of a coordinate at the g_star entries
is the determinant of the g_star entries on its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class GenericMatrixContext:
    """Dimensions k < n; the generic matrix has n−k rows and n columns, the
    band matrix the same rows with support i <= j <= i+k."""

    k: int
    n: int

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


@lru_cache(maxsize=None)
def _band_entries(ctx: GenericMatrixContext) -> Tuple[Tuple[Poly, ...], ...]:
    arity = y_arity(ctx)
    return tuple(
        tuple(
            lp.variable((i - 1) * (ctx.k + 1) + (j - i), arity) if i <= j <= i + ctx.k else {}
            for j in range(1, ctx.n + 1)
        )
        for i in range(1, ctx.rows + 1)
    )


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
    inversions = sum(
        1
        for a in range(len(residues))
        for b in range(a + 1, len(residues))
        if residues[a] > residues[b]
    )
    return (-1 if inversions % 2 else 1), tuple(sorted(residues))


# Determinants run on laurent's packed kernel: exponent tuples become int
# keys, so a monomial product is a single addition.  Each Plücker coordinate
# is multilinear in the rows, on the generic matrix and in the chart alike,
# and every packed product below multiplies at most ctx.rows of them (minors
# of at most ctx.rows distinct rows, runs of fewer than ctx.rows coordinates
# times one more), so ctx.rows bounds every exponent and fixes one lane
# width per context.  The caches in this module share their values with
# every caller inside it; public functions hand out fresh dicts.


def _width(ctx: GenericMatrixContext) -> int:
    return lp.lane_width(ctx.rows)


def _fast_minors(entries: Sequence[Sequence[lp.Packed]]) -> List[Dict[int, lp.Packed]]:
    """Minors on the first t rows keyed by column mask, for t = 0 .. rows:
    cofactor expansion row by row, sharing minors across column subsets."""
    levels: List[Dict[int, lp.Packed]] = [{0: {0: 1}}]
    for t, row in enumerate(entries):
        nxt: Dict[int, lp.Packed] = {}
        for mask, minor in levels[-1].items():
            if not minor:
                continue
            for j, entry in enumerate(row):
                bit = 1 << j
                if mask & bit or not entry:
                    continue
                below = bin(mask & (bit - 1)).count("1")
                sign = -1 if (t + below) % 2 else 1
                acc = nxt.setdefault(mask | bit, {})
                for key, coef in lp.mul_packed(minor, entry).items():
                    c = acc.get(key, 0) + sign * coef
                    if c:
                        acc[key] = c
                    elif key in acc:
                        del acc[key]
        levels.append(nxt)
    return levels


def _fast_det(entries: Sequence[Sequence[lp.Packed]]) -> lp.Packed:
    return _fast_minors(entries)[-1].get((1 << len(entries)) - 1, {})


def poly_det(entries: Sequence[Sequence[Poly]], arity: int) -> Poly:
    """Determinant of a square matrix of Laurent polynomials."""
    if not entries:
        return lp.constant(1, arity)
    # a product of one entry per row has no exponent above the sum of the
    # rows' largest exponents
    bound = sum(
        max((lp.max_abs_exponent(e) for e in row if e), default=0) for row in entries
    )
    width = lp.lane_width(bound)
    det = _fast_det([[lp.pack(e, width) for e in row] for row in entries])
    return lp.unpack(det, arity, width)


def _matrix_entry(ctx: GenericMatrixContext, chart: bool, r: int, c: int) -> lp.Packed:
    """Entry in row r (from 0) and column c (from 1) of the generic matrix,
    or of the chart [I | Y], which sets the first ctx.rows columns to I."""
    if chart and c <= ctx.rows:
        return {0: 1} if c == r + 1 else {}
    return lp.pack(lp.variable(r * ctx.n + c - 1, x_arity(ctx)), _width(ctx))


@lru_cache(maxsize=None)
def _sorted_plucker_fast(
    ctx: GenericMatrixContext, cols: IndexSet, chart: bool
) -> lp.Packed:
    return _fast_det(
        [[_matrix_entry(ctx, chart, r, c) for c in cols] for r in range(ctx.rows)]
    )


def _plucker_fast(
    ctx: GenericMatrixContext, raw: Sequence[int], chart: bool
) -> lp.Packed:
    sign, cols = reduce_plucker_index(ctx, raw)
    if sign == 0:
        return {}
    det = _sorted_plucker_fast(ctx, cols, chart)
    return dict(det) if sign > 0 else {k: -c for k, c in det.items()}


def _unpack_x(ctx: GenericMatrixContext, fp: lp.Packed) -> Poly:
    return lp.unpack(fp, x_arity(ctx), _width(ctx))


def plucker(ctx: GenericMatrixContext, raw: Sequence[int]) -> Poly:
    """Signed maximal minor of the generic matrix on the given columns."""
    return _unpack_x(ctx, _plucker_fast(ctx, raw, False))


@lru_cache(maxsize=None)
def _band_minor(ctx: GenericMatrixContext, i_set: IndexSet, j_set: IndexSet) -> Poly:
    b = _band_entries(ctx)
    return poly_det([[b[i - 1][j - 1] for j in j_set] for i in i_set], y_arity(ctx))


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
    return dict(_band_minor(ctx, i_set, j_set))


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


@lru_cache(maxsize=None)
def _g_row_minors(
    ctx: GenericMatrixContext, a: int, chart: bool
) -> List[Dict[int, lp.Packed]]:
    """Minors of the g_star matrix on rows [a, a+t−1] for every t, keyed by
    column mask (bit c−1 for column c); one expansion serves every case."""
    return _fast_minors([
        [_g_entry_fast(ctx, i, j, chart) for j in range(1, ctx.n + 1)]
        for i in range(a, ctx.rows + 1)
    ])


def _mask(cols: Sequence[int]) -> int:
    return sum(1 << (c - 1) for c in cols)


def _interval(lo: int, hi: int) -> List[int]:
    return list(range(lo, hi + 1))


@lru_cache(maxsize=None)
def _run_product_fast(
    ctx: GenericMatrixContext, a: int, s: int, chart: bool
) -> lp.Packed:
    out: lp.Packed = {0: 1}
    for i in range(a, a + s - 1):
        run = tuple(_interval(i + ctx.k + 1, ctx.n + i))
        out = lp.mul_packed(out, _plucker_fast(ctx, run, chart))
    return out


def flattoband_check(
    ctx: GenericMatrixContext, a: int, s: int, cols_j: Sequence[int]
) -> bool:
    """Exact identity between a row-solid minor of the g_star matrix and a
    product of cyclic-interval Plücker coordinates, decided in the chart.

    Rows are the interval [a, a+s−1]; the columns must come from the band
    window [a, a+s−1+k], where sorted distinct columns always meet the
    row-solid support condition.  Out-of-window data is an error.
    """
    j_set = tuple(sorted(cols_j))
    if not (1 <= a and a + s - 1 <= ctx.rows and len(j_set) == s):
        raise InvalidIndex("row interval outside the matrix or wrong column count")
    if len(set(j_set)) != s:
        raise InvalidIndex("repeated column index")
    if s and not (a <= j_set[0] and j_set[-1] <= a + s - 1 + ctx.k):
        raise InvalidIndex("columns outside the band window")
    lhs = _g_row_minors(ctx, a, True)[s].get(_mask(j_set), {})
    rhs = _run_product_fast(ctx, a, s, True)
    completed = _plucker_fast(
        ctx, tuple(_interval(a + ctx.k + s, ctx.n + a - 1)) + j_set, True
    )
    return lhs == lp.mul_packed(rhs, completed)


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
    return ("" if all(i < 10 for i in indices) else "_").join(map(str, indices))


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
    return tuple(sorted(cols)) in _catalogs(ctx)[0]


def band_frozen_specs(
    ctx: GenericMatrixContext,
) -> List[Tuple[str, IndexSet, IndexSet]]:
    """Frozen band generators: the two diagonals of the band, then the
    maximal row-solid minors on windows of consecutive columns."""
    full = tuple(_interval(1, ctx.rows))
    pairs = [((i,), (i,)) for i in full] + [((i,), (i + ctx.k,)) for i in full]
    pairs += [(full, tuple(_interval(t + 1, ctx.rows + t))) for t in range(1, ctx.k)]
    return [(band_name(i, j), i, j) for i, j in pairs]


def row_solid_nonzero(ctx: GenericMatrixContext, p: int, cols_j: Sequence[int]) -> bool:
    """Whether the row-solid band minor on rows [p, p+s−1] is nonzero: each
    sorted column must sit in its own row's band."""
    j_set = sorted(cols_j)
    s = len(j_set)
    if not (1 <= p and p + s - 1 <= ctx.rows and len(set(j_set)) == s):
        raise InvalidIndex("invalid row-solid shape")
    return all(p + t <= j_set[t] <= p + t + ctx.k for t in range(s))


def row_solid_irreducible(
    ctx: GenericMatrixContext, p: int, cols_j: Sequence[int]
) -> bool:
    """Nonzero and with no block split: a column at or below its row start,
    or past the previous row's band end, would factor the determinant."""
    j_set = sorted(cols_j)
    s = len(j_set)
    if not row_solid_nonzero(ctx, p, j_set):
        return False
    if any(j_set[t] < p + t + 1 for t in range(s - 1)):
        return False
    if any(j_set[t] > p + t - 1 + ctx.k for t in range(1, s)):
        return False
    return True


def irreducible_minors(ctx: GenericMatrixContext) -> List[MinorSpec]:
    """All irreducible row-solid minors, frozen ones included."""
    return [
        (tuple(_interval(a, a + s - 1)), j_set)
        for a, s, j_set in flattoband_cases(ctx)
        if row_solid_irreducible(ctx, a, j_set)
    ]


def non_frozen_irreducible_minors(ctx: GenericMatrixContext) -> List[MinorSpec]:
    return list(_catalogs(ctx)[1])


@lru_cache(maxsize=None)
def _catalogs(ctx: GenericMatrixContext) -> Tuple[frozenset, dict, tuple]:
    """Frozen Plücker sets, non-frozen catalog, frozen band generators."""
    specs = band_frozen_specs(ctx)
    frozen = {(i, j) for _, i, j in specs}
    minors = dict.fromkeys(p for p in irreducible_minors(ctx) if p not in frozen)
    gens = tuple((name, _band_minor(ctx, i, j)) for name, i, j in specs)
    return frozenset(plucker_frozen_sets(ctx)), minors, gens


def _polynomial_quotient(f: Poly, gen: Poly) -> Optional[Poly]:
    """f / gen when gen divides f in the ordinary polynomial sense; the
    ambient ring is Laurent, where monomials are units, so the quotient
    must be checked for negative exponents."""
    try:
        quot = lp.exact_div(f, gen)
    except lp.NotDivisible:
        return None
    if any(e < 0 for exp in quot for e in exp):
        return None
    return quot


def _name_minor(ctx: GenericMatrixContext, remainder: Poly) -> Optional[MinorSpec]:
    """The non-frozen catalog minor equal to `remainder`, if one is; any one
    exponent names the only candidate (see the module docstring)."""
    exp = next(iter(remainder), ())
    used = [divmod(idx, ctx.k + 1) for idx, e in enumerate(exp) if e]
    pair = (tuple(r + 1 for r, _ in used), tuple(sorted(r + 1 + d for r, d in used)))
    if pair in _catalogs(ctx)[1] and lp.equal(remainder, _band_minor(ctx, *pair)):
        return pair
    return None


@lru_cache(maxsize=None)
def _split_image(
    ctx: GenericMatrixContext, cols: IndexSet
) -> Tuple[Dict[str, int], Poly, Optional[MinorSpec]]:
    """The band image on sorted `cols` with the frozen generators divided
    out greedily: their exponents, the remainder, and the non-frozen
    irreducible minor equal to the remainder, if one is.  A one-variable
    generator divides out to the least exponent of its variable at once."""
    remainder = f_star(ctx, cols)
    content: Dict[str, int] = {}
    for name, gen in _catalogs(ctx)[2]:
        if len(gen) == 1:
            (var,) = gen
            e = min(exp[var.index(1)] for exp in remainder)
            if e:
                remainder = lp.shift(remainder, tuple(-e * v for v in var))
                content[name] = e
            continue
        quot = _polynomial_quotient(remainder, gen)
        while quot is not None:
            remainder = quot
            content[name] = content.get(name, 0) + 1
            quot = _polynomial_quotient(remainder, gen)
    return content, remainder, _name_minor(ctx, remainder)


def factor_fstar(
    ctx: GenericMatrixContext, raw: Sequence[int]
) -> Tuple[Dict[str, int], IndexSet, IndexSet]:
    """Split the band image of a non-frozen Plücker coordinate as frozen
    content times one irreducible row-solid minor.

    The content is divided out greedily; uniqueness comes from unique
    factorization in the band polynomial ring.
    """
    sign, cols = reduce_plucker_index(ctx, raw)
    if sign == 0:
        raise InvalidIndex("zero coordinate has no factorization")
    if is_frozen_plucker(ctx, cols):
        raise NoFactorization(f"{plucker_name(cols)} is frozen")
    content, _, minor = _split_image(ctx, cols)
    if minor is None:
        raise NoFactorization(
            f"image of {plucker_name(cols)} left a non-catalog remainder"
        )
    return dict(content), minor[0], minor[1]


def content_exponents(ctx: GenericMatrixContext, raw: Sequence[int]) -> Dict[str, int]:
    """Frozen-generator exponents of the band image's frozen part; for a
    frozen coordinate the image is required to be a full frozen monomial."""
    sign, cols = reduce_plucker_index(ctx, raw)
    if sign == 0:
        raise InvalidIndex("zero coordinate has no content")
    if not is_frozen_plucker(ctx, cols):
        return factor_fstar(ctx, cols)[0]
    content, remainder, _ = _split_image(ctx, cols)
    if not lp.equal(remainder, lp.constant(1, y_arity(ctx))):
        raise NoFactorization(
            f"image of frozen {plucker_name(cols)} is not a frozen monomial"
        )
    return dict(content)


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
    names = [name for name, _, _ in band_frozen_specs(ctx)]

    def vec(pair: Tuple[int, int]) -> List[int]:
        exps = content_exponents(ctx, list(base) + list(pair))
        return [exps.get(name, 0) for name in names]

    def tot(p1: Tuple[int, int], p2: Tuple[int, int]) -> List[int]:
        return [x + y for x, y in zip(vec(p1), vec(p2))]

    lhs = tot((i, k2), (j, l))
    rhs = [min(x, y) for x, y in zip(tot((i, j), (k2, l)), tot((j, k2), (i, l)))]
    return lhs == rhs


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
    """Composition f(images); exponents must be nonnegative.  Kept as the
    direct form of the composite; `composite_identity` does not use it."""
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


def composite_identity(ctx: GenericMatrixContext) -> List[Tuple[IndexSet, bool]]:
    """Whether substituting the g_star entries into f_star of a coordinate
    gives the frozen run times that coordinate, for every sorted column set
    in lexicographic order, decided in the chart.  The substituted band
    minor is the determinant of the g_star entries on the same columns."""
    run = _run_product_fast(ctx, 1, ctx.rows, True)
    minors = _g_row_minors(ctx, 1, True)[ctx.rows]
    return [
        (cols, minors.get(_mask(cols), {})
         == lp.mul_packed(run, _sorted_plucker_fast(ctx, cols, True)))
        for cols in combinations(range(1, ctx.n + 1), ctx.rows)
    ]


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

    # a spec is a Plücker column set or a band (rows, columns) pair
    def value(spec: Sequence) -> Poly:
        if isinstance(spec[0], int):
            return plucker(ctx, spec)
        return band_minor(ctx, *spec)

    def product(specs: Sequence) -> Poly:
        return reduce(lp.mul, map(value, specs))

    def names(specs: Sequence) -> List[str]:
        return [plucker_name(x) if isinstance(x[0], int) else band_name(*x) for x in specs]

    def record(kind: str, idx: int, left: Sequence, lhs: Poly, first: Sequence,
               second: Sequence, cofactor: Sequence = ()) -> Dict[str, object]:
        """Whether `lhs` equals the cofactor times the sum of the summands."""
        rhs = lp.add(product(first), product(second))
        out: Dict[str, object] = {"kind": kind, "index": idx, "left": names(left)}
        if cofactor:
            rhs = lp.mul(product(cofactor), rhs)
            out["cofactor"] = names(cofactor)
        out.update(summands=[names(first), names(second)], holds=lp.equal(lhs, rhs))
        return out

    records: List[Dict[str, object]] = []
    for idx, (l1, l2, a1, a2, b1, b2) in enumerate(QUINTIC_MINOR_RELATIONS):
        lhs = product((l1, l2))
        records.append(record("minor", idx, (l1, l2), lhs, (a1, a2), (b1, b2)))
    for idx, (left, first, second) in enumerate(QUINTIC_BAND_RELATIONS):
        records.append(record("band", idx, left, product(left), first, second))
    for idx, cofactor in enumerate(QUINTIC_IMAGE_COFACTORS):
        l1, l2 = QUINTIC_MINOR_RELATIONS[idx][:2]
        _, first, second = QUINTIC_BAND_RELATIONS[idx]
        lhs = lp.mul(f_star(ctx, l1), f_star(ctx, l2))
        records.append(record("image", idx, (l1, l2), lhs, first, second, cofactor))
    return records


@dataclass
class GrassmannFixture:
    """Matched cluster presentations of the two sides, with the monomial
    map between them; the determinant value of every generator is computed
    on access."""

    ctx: GenericMatrixContext
    gr_seed: sd.Seed
    band_seed: sd.Seed
    fstar_map: qh.MonomialMap
    gstar_map: Optional[qh.MonomialMap]
    gr_sets: List[IndexSet]
    band_specs: List[Tuple[str, IndexSet, IndexSet]]

    @property
    def gr_values(self) -> Dict[str, Poly]:
        names = self.gr_seed.var_names
        return {name: plucker(self.ctx, c) for name, c in zip(names, self.gr_sets)}

    @property
    def band_values(self) -> Dict[str, Poly]:
        return {name: band_minor(self.ctx, i, j) for name, i, j in self.band_specs}


def build_fixture(ctx: GenericMatrixContext) -> GrassmannFixture:
    """The fixture on the rectangle cluster, for every 2 <= k <= n−2.

    The five-column case turns the rectangle cluster by one column and
    carries the pinned reverse substitution; every other case carries the
    forward map only.
    """
    pinned = (ctx.k, ctx.n) == (2, 5)
    mutable_sets, gr_btilde = _rectangle_layout(ctx, 1 if pinned else 0)
    frozen_sets = plucker_frozen_sets(ctx)
    all_sets = mutable_sets + frozen_sets
    gr_names = [plucker_name(cols) for cols in all_sets]
    factored = [factor_fstar(ctx, cols) for cols in mutable_sets]
    band_specs = [
        (band_name(i_set, j_set), i_set, j_set) for _, i_set, j_set in factored
    ] + band_frozen_specs(ctx)
    band_names = [name for name, _, _ in band_specs]
    if len(set(band_names)) != len(band_names):
        raise NoFactorization("band generator names collide")
    row_of = {name: row for row, name in enumerate(band_names)}
    matrix = la.zeros(len(band_specs), len(all_sets))
    for col, (content, i_set, j_set) in enumerate(factored):
        matrix[row_of[band_name(i_set, j_set)]][col] = 1
        for name, e in content.items():
            matrix[row_of[name]][col] += e
    num = len(mutable_sets)
    for offset, cols in enumerate(frozen_sets):
        for name, e in content_exponents(ctx, cols).items():
            matrix[row_of[name]][num + offset] += e
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

    cases = flattoband_cases(ctx)
    suites.append(("flat_to_band_minors", len(cases), [
        f"rows [{a}, {a + s - 1}], columns {list(j_set)}"
        for a, s, j_set in cases if not flattoband_check(ctx, a, s, j_set)
    ]))

    quads = tropical_cases(ctx)
    suites.append(("tropical_contents", len(quads), [
        f"base {list(base)}, quad {list(quad)}"
        for base, quad in quads if not tropical_c_check(ctx, base, *quad)
    ]))

    # the suite list per size is part of the CLI contract: every size runs
    # the composite suite except (2,6), whose four suites the benchmark pins
    if (ctx.k, ctx.n) != (2, 6):
        results = composite_identity(ctx)
        suites.append(("composite_identity", len(results), [
            plucker_name(cols) for cols, holds in results if not holds
        ]))
    return suites
