"""Surface criterion for quasi-automorphisms, driven by supplied data.

Curves on a marked surface are never manipulated directly.  A lamination
arrives as endpoint descriptors plus optional shear coordinates and
transverse measures, a mapping class arrives as a signed permutation of the
even components, and every check reduces to integer linear algebra: pairing
vectors, lattice stabilizers, residues against arc pairings, and the kernel
test for the signed adjacency matrix.  The annulus fixture packages one
fully worked surface, with the Dehn twist about its core realized as a
monomial map between seed contexts.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import lattice as la
from . import orbits as ob
from . import patterns as pt
from . import quasihom as qh
from . import seeds as sd

End = Tuple
Curve = Tuple[End, End]
Suite = Tuple[str, int, List[str]]


class InvalidSurfaceData(Exception):
    """Inconsistent surface description, lamination, or action data."""


class ExceptionalSurface(Exception):
    """Surface whose symmetry group is not captured by mapping classes."""


class SurfaceShape(NamedTuple("SurfaceShape", [
    ("genus", int), ("punctures", int), ("boundary_cilia", Tuple[int, ...]),
])):
    """Topological type: genus, punctures, and cilia per boundary component."""

    __slots__ = ()


def check_surface(shape: SurfaceShape) -> None:
    """Reject non-cluster surfaces and the known exceptional ones.

    InvalidSurfaceData marks descriptions outside the theory (no marked
    points, small polygons, spheres with too few punctures).  The four
    exceptional shapes have extra seed-pattern symmetries beyond mapping
    classes, so the signed-permutation criterion is unsound there; they
    raise ExceptionalSurface instead.
    """
    if shape.genus < 0 or shape.punctures < 0 or any(c < 0 for c in shape.boundary_cilia):
        raise InvalidSurfaceData("negative counts in surface description")
    if any(c == 0 for c in shape.boundary_cilia):
        raise InvalidSurfaceData("every boundary component needs a marked point")
    closed = not shape.boundary_cilia
    if closed and shape.punctures == 0:
        raise InvalidSurfaceData("closed surface without marked points")
    if closed and shape.genus == 0 and shape.punctures <= 3:
        raise InvalidSurfaceData("sphere needs at least four punctures")
    disk = shape.genus == 0 and len(shape.boundary_cilia) == 1
    if disk:
        cilia = shape.boundary_cilia[0]
        if shape.punctures == 0 and cilia < 4:
            raise InvalidSurfaceData("unpunctured polygon needs at least four vertices")
        if shape.punctures == 1 and cilia == 1:
            raise InvalidSurfaceData("once-punctured monogon is not a cluster surface")
        if shape.punctures == 1 and cilia == 4:
            raise ExceptionalSurface("once-punctured square has exotic symmetries")
        if cilia == 2 and shape.punctures in (1, 2):
            raise ExceptionalSurface("punctured digon has exotic symmetries")
    if closed and shape.genus == 0 and shape.punctures == 4:
        raise ExceptionalSurface("four-punctured sphere has exotic symmetries")


class EvenComponent(NamedTuple("EvenComponent", [("kind", str), ("cilia", int)])):
    """One even component: a puncture, or a boundary circle with evenly many
    cilia carrying the alternating black-white coloring."""

    __slots__ = ()

    def __new__(cls, kind: str, cilia: int = 0):
        if kind not in ("puncture", "boundary"):
            raise InvalidSurfaceData(f"unknown component kind {kind!r}")
        if kind == "puncture" and cilia:
            raise InvalidSurfaceData("puncture carries no cilia")
        if kind == "boundary" and (cilia <= 0 or cilia % 2):
            raise InvalidSurfaceData("even boundary component needs even cilia")
        return super().__new__(cls, kind, cilia)


class EvenComponentTable(
    NamedTuple("EvenComponentTable", [("components", Tuple[EvenComponent, ...])])
):
    __slots__ = ()

    @property
    def r(self) -> int:
        return len(self.components)


def component_table(shape: SurfaceShape) -> EvenComponentTable:
    """Even components of a supported surface: all punctures, then the
    boundary circles with an even number of cilia, in the given order."""
    check_surface(shape)
    parts = [EvenComponent("puncture") for _ in range(shape.punctures)]
    parts += [
        EvenComponent("boundary", c) for c in shape.boundary_cilia if c % 2 == 0
    ]
    return EvenComponentTable(tuple(parts))


def end_sign(end: End, table: EvenComponentTable) -> int:
    """Sign contributed by one curve end.

    Boundary ends are labeled by the color of the nearest cilium in the
    clockwise direction; spiraling ends by their direction.  Ends on odd
    components contribute nothing and carry no component reference.
    """
    kind = end[0]
    if kind == "odd":
        return 0
    if kind not in ("boundary", "spiral") or len(end) != 3:
        raise InvalidSurfaceData(f"malformed curve end {end!r}")
    comp = end[1]
    if not 0 <= comp < table.r:
        raise InvalidSurfaceData(f"curve end references missing component {comp}")
    target = table.components[comp]
    if kind == "boundary":
        if target.kind != "boundary":
            raise InvalidSurfaceData(f"boundary end on non-boundary component {comp}")
        if end[2] not in ("black", "white"):
            raise InvalidSurfaceData(f"unknown cilium color {end[2]!r}")
        return 1 if end[2] == "black" else -1
    if target.kind != "puncture":
        raise InvalidSurfaceData(f"spiral end on non-puncture component {comp}")
    if end[2] not in ("ccw", "cw"):
        raise InvalidSurfaceData(f"unknown spiral direction {end[2]!r}")
    return 1 if end[2] == "ccw" else -1


class Lamination(NamedTuple("Lamination", [
    ("curves", Tuple[Curve, ...]),
    ("shear", Optional[Tuple[int, ...]]),
    ("arc_measures", Optional[Tuple[int, ...]]),
    ("boundary_measures", Optional[Tuple[int, ...]]),
])):
    """Curve system given by end descriptors plus optional coordinate data.

    Shear coordinates are indexed by the arcs of a fixed triangulation,
    arc measures likewise, and boundary measures by the boundary segments;
    the coordinate-free curves stay meaningful across triangulations.
    """

    __slots__ = ()


Lamination.__new__.__defaults__ = (None, None, None)


def lamination_to_json(lam: Lamination) -> dict:
    out: dict = {"ends": [[list(e) for e in curve] for curve in lam.curves]}
    if lam.shear is not None:
        out["shear"] = list(lam.shear)
    if lam.arc_measures is not None or lam.boundary_measures is not None:
        out["measures"] = {
            "arcs": list(lam.arc_measures or ()),
            "boundary": list(lam.boundary_measures or ()),
        }
    return out


def pairing_vector(lam: Lamination, table: EvenComponentTable) -> List[int]:
    """Per even component, the sum of the signs of all curve ends on it."""
    out = [0] * table.r
    for curve in lam.curves:
        for end in curve:
            s = end_sign(end, table)
            if s:
                out[end[1]] += s
    return out


class SignedPermutation(
    NamedTuple("SignedPermutation", [("matrix", Tuple[Tuple[int, ...], ...])])
):
    """Square matrix with exactly one entry of +-1 in every row and column."""

    __slots__ = ()

    def __new__(cls, matrix: Tuple[Tuple[int, ...], ...]):
        r = len(matrix)
        for row in matrix:
            if len(row) != r or any(v not in (-1, 0, 1) for v in row):
                raise InvalidSurfaceData("not a signed permutation matrix")
            if sum(abs(v) for v in row) != 1:
                raise InvalidSurfaceData("row needs exactly one nonzero entry")
        for j in range(r):
            if sum(abs(row[j]) for row in matrix) != 1:
                raise InvalidSurfaceData("column needs exactly one nonzero entry")
        return super().__new__(cls, matrix)

    @property
    def r(self) -> int:
        return len(self.matrix)


def signed_identity(r: int) -> SignedPermutation:
    return SignedPermutation(tuple(tuple(row) for row in la.identity(r)))


def signed_permutation_group(r: int) -> List[SignedPermutation]:
    """All r!·2^r signed permutations of size r: row i carries sign
    signs[i] in column perm[i]."""
    return [
        SignedPermutation(
            tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(r)) for i in range(r))
        )
        for perm in permutations(range(r))
        for signs in product((1, -1), repeat=r)
    ]


def lattice_fixed(g: SignedPermutation, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the lattice spanned by the vectors is carried to itself."""
    vecs = [list(v) for v in vectors]
    if any(len(v) != g.r for v in vecs):
        raise InvalidSurfaceData("vector length differs from matrix size")
    if not vecs:
        return True
    image = [la.mat_vec(g.matrix, v) for v in vecs]
    return la.lattice_equal(vecs, image)


def qa_subgroup_test(g: SignedPermutation) -> Tuple[str, Optional[List[int]]]:
    """Whether the action preserves every pairing lattice.

    Plus or minus the identity works for any lamination choice, so the
    verdict is "always" with no witness.  Otherwise the verdict is
    "sometimes" with the pairing vector of a lamination whose lattice the
    action moves: two positive ends on a relocated component, or one
    positive end on each of a sign-flipped and a fixed component.  Each
    unit of the witness is one black boundary end or one counterclockwise
    spiral on that component.
    """
    ident = signed_identity(g.r).matrix
    negated = tuple(tuple(-v for v in row) for row in ident)
    if g.matrix in (ident, negated):
        return ("always", None)
    witness = [0] * g.r
    for j in range(g.r):
        if g.matrix[j][j] == 0:
            witness[j] = 2
            return ("sometimes", witness)
    flipped = next(j for j in range(g.r) if g.matrix[j][j] < 0)
    fixed = next(j for j in range(g.r) if g.matrix[j][j] > 0)
    witness[flipped] = 1
    witness[fixed] = 1
    return ("sometimes", witness)


def shear_relation_check(
    boundary_matrix: Sequence[Sequence[int]], lam: Lamination
) -> bool:
    """Exact identity tying shear coordinates to transverse measures.

    boundary_matrix stacks the signed adjacency rows over the arcs with one
    coefficient row per boundary segment; the measure vector concatenates
    arc and boundary-segment measures in the same row order, and minus
    twice the shear vector must equal the measure vector times the matrix.
    Spiraling ends have infinite measure, so they are rejected.
    """
    for curve in lam.curves:
        for end in curve:
            if end[0] == "spiral":
                raise InvalidSurfaceData("shear relation needs a spiral-free lamination")
    if lam.shear is None or lam.arc_measures is None or lam.boundary_measures is None:
        raise InvalidSurfaceData("lamination lacks shear coordinates or measures")
    measures = list(lam.arc_measures) + list(lam.boundary_measures)
    if len(measures) != len(boundary_matrix):
        raise InvalidSurfaceData("measure vector length differs from row count")
    width = len(boundary_matrix[0]) if boundary_matrix else 0
    if len(lam.shear) != width:
        raise InvalidSurfaceData("shear vector length differs from arc count")
    return la.vec_mat(measures, boundary_matrix) == [-2 * b for b in lam.shear]


class ArcPairingTable(
    NamedTuple("ArcPairingTable", [("rows", Tuple[Tuple[int, ...], ...])])
):
    """Pairing of each triangulation arc with each even component, from the
    signs of the arc ends."""

    __slots__ = ()

    def __new__(cls, rows: Tuple[Tuple[int, ...], ...]):
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise InvalidSurfaceData("ragged pairing table")
            if any(not -2 <= v <= 2 for v in row):
                raise InvalidSurfaceData("arc pairing outside [-2, 2]")
        return super().__new__(cls, rows)

    @property
    def num_components(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, comp: int) -> List[int]:
        return [row[comp] for row in self.rows]


def residue(
    shear: Sequence[int], table: ArcPairingTable, comp: int
) -> int:
    """Dot product of a shear-coordinate vector with one pairing column.

    For the shear coordinates of a lamination this recovers the pairing of
    the lamination with the component.
    """
    if len(shear) != len(table.rows):
        raise InvalidSurfaceData("shear vector length differs from arc count")
    if not 0 <= comp < table.num_components:
        raise InvalidSurfaceData(
            f"component {comp} out of range for {table.num_components} components")
    return sum(row[comp] * b for row, b in zip(table.rows, shear))


def kernel_basis_check(
    b: Sequence[Sequence[int]], table: ArcPairingTable
) -> bool:
    """Whether the pairing columns exactly cut out the row span of b.

    True when every column annihilates the rows of b, the columns are
    independent, and their number equals the corank, so a vector lies in
    the row span precisely when all its residues vanish.
    """
    n = len(b)
    if any(len(row) != n for row in b) or len(table.rows) != n:
        raise InvalidSurfaceData("pairing table does not match the matrix")
    cols = [table.column(c) for c in range(table.num_components)]
    if any(any(la.mat_vec(b, col)) for col in cols):
        return False
    if la.rank(cols) != len(cols):
        return False
    return len(cols) == n - la.rank(b)


ANNULUS_SEED_MATRIX = [
    [0, 0, 1, 1],
    [0, 0, 1, 1],
    [-1, -1, 0, 0],
    [-1, -1, 0, 0],
    [0, 0, 2, 0],
]

TWIST_SEED_MATRIX = [
    [0, 0, 1, 1],
    [0, 0, 1, 1],
    [-1, -1, 0, 0],
    [-1, -1, 0, 0],
    [2, 2, 0, -2],
]


class AnnulusFixture(NamedTuple("AnnulusFixture", [
    ("table", EvenComponentTable),
    ("seed", sd.Seed),
    ("half_turn_word", Tuple[int, ...]),
    ("twist_seed", sd.Seed),
    ("twist_word", Tuple[int, ...]),
    ("twist_map", qh.MonomialMap),
    ("arc_pairings", ArcPairingTable),
    ("boundary_matrix", List[List[int]]),
    ("laminations", Dict[str, Lamination]),
])):
    """Annulus with two cilia per boundary circle and a doubled curve as the
    single lamination row.

    `seed` is the base triangulation.  `half_turn_word` mutates it onto its
    image under the inner half turn, and `twist_word` onto its image under
    the full Dehn twist about the core, which `twist_seed` gives up to a
    permutation of the slots.  The twist map realizes the Dehn twist as a
    monomial map into the rerooted twist-seed context.
    """

    __slots__ = ()


def annulus_fixture() -> AnnulusFixture:
    arc_names = ("xa", "xb", "xc", "xd")
    image_names = ("xe", "xf", "xg", "xh")
    # crossings of each arc with one copy of the lamination curve
    counts = {
        "xa": 0, "xb": 0, "xc": 1, "xd": 0,
        "xe": 1, "xf": 1, "xg": 2, "xh": 1,
    }
    twist = [[0] * 5 for _ in range(5)]
    twist[4][4] = 1
    for j, (src, dst) in enumerate(zip(arc_names, image_names)):
        twist[j][j] = 1
        twist[4][j] = counts[src] - counts[dst]
    twist_map = qh.MonomialMap(
        twist, list(arc_names) + ["xL"], list(image_names) + ["xL"], 4, 4
    )
    doubled_curve = (("boundary", 0, "white"), ("boundary", 1, "white"))
    laminations = {
        "doubled": Lamination(
            (doubled_curve, doubled_curve),
            shear=(0, 0, 2, 0),
            arc_measures=(0, 0, 2, 0),
            boundary_measures=(2, 0, 2, 0),
        ),
        "inner_loop": Lamination(
            ((("boundary", 0, "black"), ("boundary", 0, "black")),),
            shear=(1, 0, -1, 0),
            arc_measures=(1, 1, 1, 1),
            boundary_measures=(0, 2, 0, 0),
        ),
        "connector": Lamination(
            ((("boundary", 0, "black"), ("boundary", 1, "black")),),
            shear=(0, 0, 0, 1),
            arc_measures=(0, 0, 0, 1),
            boundary_measures=(0, 1, 0, 1),
        ),
    }
    return AnnulusFixture(
        table=component_table(SurfaceShape(0, 0, (2, 2))),
        seed=sd.initial_seed(ANNULUS_SEED_MATRIX, list(arc_names) + ["xL"]),
        half_turn_word=(0, 1),
        twist_seed=sd.initial_seed(
            TWIST_SEED_MATRIX, list(image_names) + ["xL"]
        ),
        twist_word=(0, 1, 2, 3),
        twist_map=twist_map,
        arc_pairings=ArcPairingTable(((1, -1), (-1, 1), (-1, -1), (1, 1))),
        boundary_matrix=[list(row) for row in ANNULUS_SEED_MATRIX[:4]] + [
            [1, 0, -1, 0],
            [0, 1, 0, -1],
            [0, 1, -1, 0],
            [1, 0, 0, -1],
        ],
        laminations=laminations,
    )


def _suite(name: str, outcomes: Sequence[Tuple[str, bool]]) -> Suite:
    """(name, cases, failures) from one (failure, holds) pair per case."""
    return name, len(outcomes), [failure for failure, holds in outcomes if not holds]


def check_suites(fx: AnnulusFixture) -> List[Suite]:
    """The suites of the annulus report, in its order, as (name, cases,
    failures): the twist is a quasi-automorphism, no relabeling of the half
    turn's image lies in the base seed's orbit, the doubled lamination has
    stabilizer index 2 and the central subgroup index 4 in the signed
    permutations, and the shear relations, kernel basis and residues hold.
    """
    n = fx.seed.n
    star = [((), k) for k in range(n)]
    suites = [_suite("twist_realized", [
        ("twist map fails seed verification",
         qh.verify_qh(fx.twist_map, fx.seed, fx.twist_seed)),
        ("twist map fails on the base star",
         qh.check_on_nerve(fx.twist_map, star, fx.seed, fx.twist_seed) == "direct"),
    ])]

    # a relabeling whose principal part differs from the base's fails the
    # first test of `seeds_equivalent`, so only the matching ones are tried;
    # the suite still counts all n! relabelings as its cases
    base = ob.seedlike_from_seed(fx.seed)
    half = sd.mutate_word(fx.seed, fx.half_turn_word)
    equivalent = []
    for perm in pt.relabelings(half.btilde, base.b):
        relabeled = sd.Seed.trusted(
            pt.permute_btilde(half.btilde, n, perm),
            [half.cluster[i] for i in perm],
            half.var_names,
        )
        if ob.seeds_equivalent(base, ob.seedlike_from_seed(relabeled)) is not None:
            equivalent.append(f"equivalent under relabeling {perm}")
    suites.append(("half_turn_inequivalent", factorial(n), equivalent))

    vector = pairing_vector(fx.laminations["doubled"], fx.table)
    suites.append(
        _suite("doubled_pairing", [(f"pairing vector {vector}", vector == [-2, -2])])
    )

    group = signed_permutation_group(fx.table.r)
    stabilizer = len(group) // sum(lattice_fixed(g, [vector]) for g in group)
    central = len(group) // sum(qa_subgroup_test(g)[0] == "always" for g in group)
    suites.append(_suite("stabilizer_indices", [
        (f"stabilizer index {stabilizer}", stabilizer == 2),
        (f"central index {central}", central == 4),
    ]))

    laminations = sorted(fx.laminations.items())
    suites.append(_suite("shear_relations", [
        (name, shear_relation_check(fx.boundary_matrix, lam)) for name, lam in laminations
    ]))

    corank = n - la.rank(fx.seed.principal)
    suites.append(_suite("kernel_basis", [
        (f"corank {corank} differs from {fx.table.r} components", corank == fx.table.r),
        ("pairing columns do not cut out the row span",
         kernel_basis_check(fx.seed.principal, fx.arc_pairings)),
    ]))

    residues = []
    for name, lam in laminations:
        pairing = pairing_vector(lam, fx.table)
        for comp in range(fx.table.r):
            got = residue(lam.shear, fx.arc_pairings, comp)
            residues.append(
                (f"{name} component {comp}: {got} != {pairing[comp]}", got == pairing[comp])
            )
    suites.append(_suite("residues_match_pairings", residues))
    return suites
