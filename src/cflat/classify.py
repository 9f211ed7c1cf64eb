"""Classification of flat vector-bundle total spaces over the catalog
bases, canonical forms for the rank-2 moduli, and affine-equivalence
search.

The diffeomorphism-class oracle finds every Whitney pair (w1, w2)
realized by a sum of flat real line bundles of the right rank, and
takes orbits under the induced action of the base's mapping-class group
on degree-one and degree-two mod-2 cohomology.  It does not enumerate
the multisets of line classes.  Mod 2 and truncated at degree two,
(1 + L)^2 = 1 + L^2 and (1 + L)^4 = 1, so four copies of a line change
nothing; every realized pair therefore has a realizer with at most three
copies of each nontrivial line class.  The search walks the reachable
Whitney states one line class at a time, keeping the least realizer of
each (at most 8 states over a surface).  Published class counts are
cross-reported: when the oracle disagrees with a recorded count the
disagreement is surfaced as data, never patched over.

Each base's record in ``cflat.flatbundle.SURFACES`` lists generators
of its automorphism action on characters.  The affine-equivalence
search walks their orbit on characters with the bounded breadth-first
``orbit`` of ``cflat.orbit``.  ``aut_action`` reduces them mod 2 and
keeps the action on degree-one mod-2 classes as its orbits, each walked
with the same ``orbit`` from one class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, lcm
from operator import mul
from types import MappingProxyType

from .errors import DomainError, InternalCheckError
from .flatbundle import (
    SURFACES,
    FlatBundleSpec,
    LineRep,
    Mod2Class,
    base_data,
    cup_table,
    line_with_w1,
    sw_vector,
)
from .orbit import orbit
from .zlinalg.snf import _prime_divisors

_SURFACE_BASES = tuple(SURFACES)
_DENOM_BOUND = 64
_AFFINE_ORBIT_BOUND = 2_000_000
_EPI_BOUND = 2_000_000
_FIBER_DIM_BOUND = 1000


# ======================================================================
# automorphisms of the base, on characters and on mod-2 cohomology
# ======================================================================

Mod2Matrix = tuple[tuple[int, ...], ...]


def _mat2_apply(m: Mod2Matrix, bits: Mod2Class) -> Mod2Class:
    return tuple(sum(r * b for r, b in zip(row, bits)) % 2 for row in m)


@lru_cache(maxsize=None)
def aut_action(base: str) -> MappingProxyType[Mod2Class, tuple[Mod2Class, ...]]:
    """The orbits of the induced action of fundamental-group
    automorphisms on degree-one mod-2 classes (they fix the degree-two
    class of a surface), walked once per base (on first use) with the
    base's ``SURFACES`` generators as moves.  The result maps each of
    the at most four classes to its sorted orbit, least first, in a
    read-only view shared by every caller.

    A mod-2 class is a real character's row of angles, doubled, read at
    the base's ``mod2_positions`` (so the Klein bottle's alpha, the
    torsion bit at position 1, comes before beta, the free bit at
    position 0).  Each generator is reduced mod 2 and read at those
    positions; it acts on rows, so its transpose acts on the column
    vectors of the classes.
    """
    if base not in SURFACES:
        raise DomainError(f"no automorphism action catalogued for base {base!r}")
    pos = base_data(base).mod2_positions
    gens = [tuple(tuple(m[j][i] % 2 for j in pos) for i in pos) for m in SURFACES[base].actions]
    moves = [partial(_mat2_apply, g) for g in gens]
    classes = _line_classes(base)
    overflow = InternalCheckError("an automorphism orbit outgrew the mod-2 classes")
    orbits = {bits: tuple(sorted(orbit(bits, moves, len(classes), overflow))) for bits in classes}
    return MappingProxyType(orbits)


# ======================================================================
# the diffeomorphism-class oracle
# ======================================================================


def _line_classes(base: str) -> list[Mod2Class]:
    d = len(base_data(base).mod2_positions)
    out = []
    for code in range(1 << d):
        out.append(tuple((code >> i) & 1 for i in range(d)))
    return out


def line_class_name(base: str, bits: Mod2Class) -> str:
    return SURFACES[base].line_names[sum(bit << i for i, bit in enumerate(bits))]


@dataclass(frozen=True)
class DiffeoClass:
    """One diffeomorphism class of total spaces: an orbit of Whitney
    data, with a realizing bundle and a readable name."""

    base: str
    total_dim: int
    label: str
    w1: Mod2Class
    w2: int | None
    orbit: tuple
    bundle: FlatBundleSpec


def _realized_values(base: str, s: int) -> dict[tuple, tuple[Mod2Class, ...]]:
    """Map (w1, w2) -> the least multiset of s line classes realizing it.

    Least means fewest nontrivial lines first, then the least tuple.  A
    least realizer never holds four copies of a class, since dropping
    them leaves the Whitney data unchanged.  So the search walks the
    nontrivial classes in order, taking 0 to 3 copies of each; a copy of
    L moves the Whitney state by (w1, w2) -> (w1 + L, w2 + w1 L).  The
    state is (w1, w2 mod 2) over a surface and (w1, None) over the
    circle.  For each reachable state the walk keeps only the least
    (n, lines) with n <= s: a lesser prefix stays lesser under any common
    suffix, so the least realizer of every final state extends a kept
    prefix.  Padding with the trivial class changes neither the data nor
    the order among realizers with the same number of nontrivial lines,
    so the realizer is the trivial class s - n times followed by the n
    nontrivial lines in class order.
    """
    theta, *nontrivial = _line_classes(base)
    table = cup_table(base)
    surface = base_data(base).ab.spec.dim == 2
    best: dict[tuple, tuple[int, tuple[Mod2Class, ...]]] = {(theta, 0 if surface else None): (0, ())}
    for bits in nontrivial:
        walked = {}
        for (w1, w2), (n, lines) in best.items():
            for k in range(min(3, s - n) + 1):
                if k:
                    w2 = (w2 + table.cup(w1, bits)) % 2 if surface else None
                    w1 = table.sums[w1, bits]
                key = (n + k, lines + (bits,) * k)
                if (w1, w2) not in walked or key < walked[w1, w2]:
                    walked[w1, w2] = key
        best = walked
    return {value: (theta,) * (s - n) + lines for value, (n, lines) in best.items()}


def _class_label(base: str, multiset: tuple[Mod2Class, ...], s: int) -> str:
    nontrivial = [bits for bits in multiset if any(bits)]
    if not nontrivial:
        return f"{base} x R^{s}"
    parts = [line_class_name(base, bits) for bits in nontrivial]
    pad = s - len(nontrivial)
    if pad:
        parts.append(f"Theta^{pad}")
    return "E(" + "+".join(parts) + ")"


def diffeo_classes(base: str, total_dim: int) -> list[DiffeoClass]:
    """Diffeomorphism classes of rank-(total_dim - dim base) sums of
    flat real line bundles over the base.

    Finds every realized Whitney pair with its least realizing multiset
    of line classes (the trivial class included, which is what padding
    means in the stable range) by the state walk of
    ``_realized_values``: four copies of a line change nothing, so at
    most three copies of each nontrivial class are ever needed.  Checks
    against the ``aut_action`` orbits that the realized pairs are closed
    under the automorphism action, groups them into orbits and returns
    one class per orbit, deterministically ordered.  Each class's
    realizer is built from ``line_with_w1`` lines and re-checked with
    ``sw_vector``.
    """
    if base not in _SURFACE_BASES:
        raise DomainError(f"classification implemented over {_SURFACE_BASES}")
    dim = base_data(base).ab.spec.dim
    s = total_dim - dim
    if s < 1:
        raise DomainError(f"total dimension {total_dim} does not exceed base dimension {dim}")
    if dim == 2 and s < 2:
        raise DomainError("surface bases need fibre rank >= 2")
    if total_dim > 40:
        raise DomainError("total dimension bound 40 exceeded")
    aut_orbits = aut_action(base)
    realized = _realized_values(base, s)
    for (w1, w2) in realized:
        for image in aut_orbits[w1]:
            if (image, w2) not in realized:
                raise InternalCheckError(
                    "realized Whitney data is not closed under the automorphism action"
                )
    orbits: dict[tuple, list[tuple]] = {}
    for value in realized:
        w1, w2 = value
        key = (aut_orbits[w1][0], w2)
        orbits.setdefault(key, []).append(value)
    line_reps = {bits: line_with_w1(base, bits) for bits in _line_classes(base)}
    out = []
    for key in sorted(orbits, key=lambda k: (k[1] if k[1] is not None else 0, k[0])):
        members = sorted(orbits[key])
        multiset = realized[members[0]]
        nontrivial = FlatBundleSpec(base, tuple([line_reps[bits] for bits in multiset if any(bits)]))
        vec = sw_vector(nontrivial)
        if (vec.w1, vec.w2) != members[0]:
            raise InternalCheckError("a class realizer does not carry its Whitney data")
        out.append(
            DiffeoClass(
                base=base,
                total_dim=total_dim,
                label=_class_label(base, multiset, s),
                w1=members[0][0],
                w2=members[0][1],
                orbit=tuple(members),
                bundle=FlatBundleSpec(base, tuple([line_reps[bits] for bits in multiset])),
            )
        )
    return out


def _published_class_count(base: str, total_dim: int) -> int:
    """Published class count for a pair that ``diffeo_classes`` accepts."""
    if base == "S1":
        return 2
    if base == "T2":
        return 3 if total_dim == 4 else 4
    return 5


@dataclass(frozen=True)
class ClassificationReport:
    base: str
    total_dim: int
    classes: tuple[DiffeoClass, ...]
    oracle_count: int
    published_count: int

    @property
    def count_matches(self) -> bool:
        return self.oracle_count == self.published_count


def classification_report(base: str, total_dim: int) -> ClassificationReport:
    classes = tuple(diffeo_classes(base, total_dim))
    return ClassificationReport(
        base=base,
        total_dim=total_dim,
        classes=classes,
        oracle_count=len(classes),
        published_count=_published_class_count(base, total_dim),
    )


def stably_diffeomorphic(b1: FlatBundleSpec, b2: FlatBundleSpec) -> bool:
    """Whether the total spaces are stably diffeomorphic: same base and
    Whitney data in one automorphism orbit (read off the orbit minima
    of ``aut_action``)."""
    if b1.base != b2.base:
        raise DomainError("stable comparison needs a common base")
    if b1.base not in _SURFACE_BASES:
        raise DomainError(f"stable comparison implemented over {_SURFACE_BASES}")
    aut_orbits = aut_action(b1.base)
    v1 = sw_vector(b1)
    v2 = sw_vector(b2)
    return (aut_orbits[v1.w1][0], v1.w2) == (aut_orbits[v2.w1][0], v2.w2)


# ======================================================================
# affine equivalence of line-bundle sums
# ======================================================================


def _denominator(values) -> int:
    """The lcm of the angles' denominators, within ``_DENOM_BOUND``."""
    denom = 1
    for v in values:
        denom = lcm(denom, v.denominator)
    if denom > _DENOM_BOUND:
        raise DomainError(f"denominator {denom} exceeds bound {_DENOM_BOUND}")
    return denom


def _state(summands) -> tuple:
    """The sorted multiset of (kind, angles) pairs, each complex summand
    taken at the lesser of its angles and their conjugate."""
    out = []
    for kind, vals in summands:
        if kind == "complex":
            vals = min(vals, tuple((-v) % 1 for v in vals))
        out.append((kind, vals))
    return tuple(sorted(out))


def _move(cols: tuple[tuple[int, ...], ...], state: tuple) -> tuple:
    """Pull a state back along one automorphism, given by the columns of
    its matrix: each row of angles times the matrix, mod 1."""
    return _state(
        (kind, tuple(sum(map(mul, vals, col)) % 1 for col in cols)) for kind, vals in state
    )


def affine_equivalent(b1: FlatBundleSpec, b2: FlatBundleSpec) -> bool:
    """Affine equivalence of two line-bundle sums over one base.

    Two sums are affinely equivalent when some automorphism of the
    base group pulls one list of characters onto the other up to
    reordering and per-summand complex conjugation.  The automorphisms
    are the base's ``SURFACES`` generators, acting on each character's
    row of angles; their orbit is walked on sorted states and the walk stops
    as soon as it meets the second bundle.  Everything is exact rational
    arithmetic.
    """
    if b1.base != b2.base:
        raise DomainError("affine comparison needs a common base")
    if b1.base not in _SURFACE_BASES:
        raise DomainError(f"affine comparison implemented over {_SURFACE_BASES}")
    for b in (b1, b2):
        _denominator([v for rep in b.summands for v in rep.free + rep.torsion])
    if sorted(rep.kind for rep in b1.summands) != sorted(rep.kind for rep in b2.summands):
        return False
    moves = [partial(_move, tuple(zip(*m))) for m in SURFACES[b1.base].actions]
    overflow = InternalCheckError("orbit search outgrew its theoretical bound")
    start, target = (_state((r.kind, r.free + r.torsion) for r in b.summands) for b in (b1, b2))
    walk = orbit(start, moves, _AFFINE_ORBIT_BOUND, overflow)
    return any(state == target for state in walk)


# ======================================================================
# canonical forms on the rank-2 moduli
# ======================================================================


def _check_angles(angles: tuple[Fraction, ...], count: int) -> tuple[Fraction, ...]:
    if len(angles) != count:
        raise DomainError(f"expected {count} angles, got {len(angles)}")
    normd = tuple(Fraction(a) % 1 for a in angles)
    _denominator(normd)
    return normd


def torus_moduli_canonical(angles: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Canonical representative of a rotation-angle pair on the torus
    under the integral linear action: the lexicographically least
    element of the orbit.

    GL2(Z) maps onto the determinant +-1 part of GL2(Z/n), which acts
    transitively on the elements of order n in (Z/n)^2.  So the orbit is
    every pair of the same order n (the lcm of the denominators), and
    its least element is (0, 1/n mod 1).
    """
    a, b = _check_angles(tuple(angles), 2)
    return (Fraction(0), Fraction(1, lcm(a.denominator, b.denominator)) % 1)


def klein_rho_canonical(angles: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Canonical representative under the relation identifying
    (a, b) with (e1*a, e2*(b - k*a)) for signs e1, e2 and integer k.

    The moves never change the subgroup <a> = (1/den a)Z/Z, so the least
    element takes a to min(a, -a) and b to the least of +-b modulo
    1/den a.
    """
    a, b = _check_angles(tuple(angles), 2)
    step = Fraction(1, a.denominator)
    r = b % step
    return (min(a, (-a) % 1), min(r, (-r) % step))


def circle_canonical(angle: Fraction) -> Fraction:
    """Canonical rotation angle on the circle: an angle and its
    reverse are the same rotation up to conjugation."""
    (a,) = _check_angles((Fraction(angle),), 1)
    return min(a, (-a) % 1)


# ======================================================================
# the dimension-4 table
# ======================================================================


@dataclass(frozen=True)
class Dim4Entry:
    label: str
    base: str
    fiber_dim: int
    orientable_total: bool


_DIM4_BASE_ORDER = ("G1", "G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4")


def dim4_table() -> tuple[Dim4Entry, ...]:
    """The fourteen diffeomorphism classes of complete flat
    4-manifolds: Euclidean space, the three lower products/tangent
    spaces, and the orientation line bundles over the ten compact flat
    3-manifolds (ordered as in the catalog)."""
    rows = [
        Dim4Entry("R^4", "point", 4, True),
        Dim4Entry("S1 x R^3", "S1", 3, True),
        Dim4Entry("T2 x R^2", "T2", 2, True),
        Dim4Entry("T(K)", "K", 2, True),
    ]
    for name in _DIM4_BASE_ORDER:
        rows.append(Dim4Entry(f"detT({name})", name, 1, True))
    return tuple(rows)


# ======================================================================
# counting bounds and explicit families
# ======================================================================


@dataclass(frozen=True)
class AffineClassBound:
    epimorphisms: int
    representation_classes: int

    @property
    def bound(self) -> int:
        return self.epimorphisms * self.representation_classes


def affine_class_bound(rank: int, order: int, fiber_dim: int) -> AffineClassBound:
    """Upper bound for affine classes of flat bundles with cyclic
    holonomy of the given order over a rank-``rank`` torus base:
    (number of epimorphisms Z^rank -> Z/order) times (number of
    orthogonal representation classes of Z/order in the fiber).

    Epimorphisms are counted by Jordan's totient, J_rank(order) =
    order^rank * prod over primes p | order of (1 - p^-rank);
    representation classes as multisets of real irreducibles (trivial;
    sign when the order is even; rotation pairs).  Input is bounded:
    order^rank at most 2,000,000 and the fiber dimension at most 1000.
    """
    if rank < 1 or order < 1 or fiber_dim < 1:
        raise DomainError("rank, order and fiber dimension must be positive")
    # for order >= 2, rank >= bit_length(bound) already puts order^rank past
    # the bound; testing it first keeps a huge rank from building a huge power
    if order > 1 and (rank >= _EPI_BOUND.bit_length() or order**rank > _EPI_BOUND):
        raise DomainError(f"order^rank exceeds bound {_EPI_BOUND}")
    if fiber_dim > _FIBER_DIM_BOUND:
        raise DomainError(f"fiber dimension {fiber_dim} exceeds bound {_FIBER_DIM_BOUND}")
    epis = order**rank
    for p in _prime_divisors(order):
        epis = epis // p**rank * (p**rank - 1)
    one_dim_kinds = 2 if order % 2 == 0 else 1
    rotations = (order - 1) // 2
    reps = 0
    for c in range(fiber_dim // 2 + 1):
        if rotations == 0:
            ways_rot = 1 if c == 0 else 0
        else:
            ways_rot = comb(c + rotations - 1, c)
        rest = fiber_dim - 2 * c
        ways_one = comb(rest + one_dim_kinds - 1, one_dim_kinds - 1)
        reps += ways_rot * ways_one
    return AffineClassBound(epimorphisms=epis, representation_classes=reps)


def inequivalent_family(base: str, count: int) -> tuple[FlatBundleSpec, ...]:
    """A family of pairwise affinely inequivalent flat plane bundles:
    complex characters with angles 1/2, 1/3, ..., 1/(count+1) on the
    first free generator.  The holonomy orders differ, so no
    automorphism can match any two."""
    if base not in ("S1", "T2"):
        raise DomainError("family construction implemented over S1 and T2")
    if count < 2:
        raise DomainError("need at least two members")
    if count + 1 > _DENOM_BOUND:
        raise DomainError(f"angles would exceed denominator bound {_DENOM_BOUND}")
    free_rank = base_data(base).ab.group.free_rank
    out = []
    for j in range(count):
        free = [Fraction(0)] * free_rank
        free[0] = Fraction(1, j + 2)
        out.append(FlatBundleSpec(base, (LineRep("complex", tuple(free)),)))
    return tuple(out)
