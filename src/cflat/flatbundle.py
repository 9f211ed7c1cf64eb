"""Flat vector bundles over the catalog manifolds as sums of line reps.

A flat real or complex line bundle over a compact flat manifold is a
character of the fundamental group into {±1} or U(1); both factor
through first homology, so a line bundle is stored as its list of
rational angles (turns in [0,1)) on the computed free and torsion
generators of H_1.  Real characters take values in {0, 1/2}.

From these the module computes first and second Stiefel-Whitney data,
first Chern classes of complex line bundles (valued in Hom of the
torsion subgroup into Z/holonomy-order), orientation characters,
structure statements for bundles with cyclic total holonomy, and the
mod-2 cup tables of the one- and two-dimensional bases.  What is stated
by hand about those three bases (mod-2 basis, class names, cup pairing,
automorphism generators) is one record each in ``SURFACES``.

The public ``w1_of_line`` and ``c1_of_line`` check their input, as a
``FlatBundleSpec`` checks its summands; ``_w1_bits`` and ``_c1`` trust
the summands of a built bundle.

The angle checks, the Whitney path and the structure results read
angles through their integer numerators and denominators, with no
``Fraction`` arithmetic or comparison: a ``Fraction`` is kept in lowest
terms, so 0 <= v < 1 is 0 <= numerator < denominator, a real angle's bit
is whether its denominator is 2, c1 divides numerator times the holonomy
order by the denominator, and a cyclic total holonomy is read off one
Smith form, never walked.  A surface's ``CupTable`` holds the sum and
the cup of every ordered pair of degree-one classes (``sums``, ``cups``),
so ``sw_vector`` and the classification walk look both up.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from types import MappingProxyType

from ._record import record
from .bieberbach import (
    AbelianizationData,
    _cyclic_powers,
    _holonomy_character,
    abelianization,
    catalog_group,
    holonomy_group,
)
from .errors import DomainError, InternalCheckError
from .zlinalg import IntMatrix, cokernel

Mod2Class = tuple[int, ...]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


# ======================================================================
# base manifolds
# ======================================================================


@record
class Surface:
    """What cflat states by hand about one of the bases it classifies
    over: the circle, the torus and the Klein bottle.

    ``mod2_labels`` name the degree-one mod-2 basis and
    ``mod2_positions`` place each basis class in a character's row of
    angles (free angles, then torsion angles).  ``line_names[code]``
    names the line class whose bits, read as a binary number with the
    first bit least, are ``code``.  ``cup`` is the mod-2 cup pairing on
    that basis.  ``actions`` generate the base's automorphism action on
    characters: integer matrices acting on a row of angles by
    v -> v m mod 1.  An orbit under a finite action needs no inverses.
    """

    mod2_labels: tuple[str, ...]
    mod2_positions: tuple[int, ...]
    line_names: tuple[str, ...]
    cup: tuple[tuple[int, ...], ...]
    actions: tuple[tuple[tuple[int, ...], ...], ...]


SURFACES = {
    # the circle has no degree-2 cohomology; it takes f -> -f
    "S1": Surface(("x",), (0,), ("Theta", "mu"), ((0,),), (((-1,),),)),
    # torus: x.y = top, squares vanish; a shear, a rotation and a
    # reflection generate GL2(Z)
    "T2": Surface(
        ("x", "y"),
        (0, 1),
        ("Theta", "mu1", "mu2", "mu1mu2"),
        ((0, 1), (1, 0)),
        (((1, 1), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, 1))),
    ),
    # flat Klein bottle: alpha is dual to the torsion generator t, beta to
    # the free generator f; alpha^2 = alpha.beta = top, beta^2 = 0 (dual
    # to the mod-2 intersection form); it takes f -> -f and f -> f + t
    "K": Surface(
        ("alpha", "beta"),
        (1, 0),
        ("Theta", "lam1", "lam2", "lam1lam2"),
        ((1, 1), (1, 0)),
        (((-1, 0), (0, 1)), ((1, 0), (1, 1))),
    ),
}


@record
class BaseData:
    """A catalog base with its homology and mod-2 cohomology layout.

    ``mod2_positions`` lists, in display order, where each bit of a
    degree-one mod-2 class lives in a character's row of angles (free
    angles, then torsion angles); only even-order torsion carries a bit.
    """

    ab: AbelianizationData
    holonomy_order: int
    mod2_labels: tuple[str, ...]
    mod2_positions: tuple[int, ...]


@lru_cache(maxsize=None)
def base_data(name: str) -> BaseData:
    """The base's layout: a surface's from ``SURFACES``; any other base
    names its free classes x, y, z and its even torsion classes s1, s2,
    ... in row order."""
    spec = catalog_group(name)
    ab = abelianization(spec)
    surface = SURFACES.get(name)
    if surface is not None:
        labels, positions = surface.mod2_labels, surface.mod2_positions
    else:
        r = ab.group.free_rank
        even = [j for j, d in enumerate(ab.group.torsion) if d % 2 == 0]
        labels = tuple("xyz"[i] for i in range(r)) + tuple(f"s{j + 1}" for j in even)
        positions = tuple(range(r)) + tuple(r + j for j in even)
    return BaseData(
        ab=ab,
        holonomy_order=len(holonomy_group(spec)),
        mod2_labels=labels,
        mod2_positions=positions,
    )


def mod2_zero(base: str) -> Mod2Class:
    return (0,) * len(base_data(base).mod2_positions)


def mod2_add(a: Mod2Class, b: Mod2Class) -> Mod2Class:
    return tuple((x + y) % 2 for x, y in zip(a, b))


def mod2_str(base: str, bits: Mod2Class) -> str:
    labels = base_data(base).mod2_labels
    terms = [lab for lab, bit in zip(labels, bits) if bit]
    return "+".join(terms) if terms else "0"


# ======================================================================
# line representations and bundles
# ======================================================================


@record
class LineRep:
    """A character of H_1 of the base: one angle (turn in [0,1)) per
    free generator and per torsion generator.  kind is "real" (angles
    in {0, 1/2}) or "complex"."""

    kind: str
    free: tuple[Fraction, ...]
    torsion: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.kind not in ("real", "complex"):
            raise DomainError(f"unknown line kind {self.kind!r}")
        object.__setattr__(self, "free", _fractions(self.free))
        object.__setattr__(self, "torsion", _fractions(self.torsion))
        real = self.kind == "real"
        for v in (*self.free, *self.torsion):
            # a Fraction is kept in lowest terms with a positive
            # denominator, so 0 <= v < 1 is 0 <= numerator < denominator
            if not 0 <= v.numerator < v.denominator:
                raise DomainError(f"angle {v} outside [0, 1)")
            # in [0, 1), denominator 1 or 2 means 0 or 1/2
            if real and v.denominator > 2:
                raise DomainError(f"real character angle must be 0 or 1/2, got {v}")

    @property
    def rank(self) -> int:
        return 1 if self.kind == "real" else 2


def _fractions(values) -> tuple[Fraction, ...]:
    """The angles as Fractions; Fraction inputs are kept as they are."""
    return tuple([v if isinstance(v, Fraction) else Fraction(v) for v in values])


def validate_line(base: str, rep: LineRep) -> None:
    """Check the character is a well-defined one on H_1 of the base."""
    data = base_data(base)
    g = data.ab.group
    if len(rep.free) != g.free_rank:
        raise DomainError(
            f"{base} has {g.free_rank} free generators, got {len(rep.free)} angles"
        )
    if len(rep.torsion) != len(g.torsion):
        raise DomainError(
            f"{base} has {len(g.torsion)} torsion generators, got {len(rep.torsion)} angles"
        )
    for angle, d in zip(rep.torsion, g.torsion):
        if d % angle.denominator:
            raise DomainError(
                f"angle {angle} is not defined on a torsion generator of order {d}"
            )


@record
class FlatBundleSpec:
    """A sum of flat line bundles over one catalog base."""

    base: str
    summands: tuple[LineRep, ...]

    def __post_init__(self):
        # each summand object is validated once, in first-occurrence
        # order; deduping by identity hashes no Fraction angle
        for rep in {id(rep): rep for rep in self.summands}.values():
            validate_line(self.base, rep)

    @property
    def rank(self) -> int:
        return sum(rep.rank for rep in self.summands)

    @property
    def total_dim(self) -> int:
        return base_data(self.base).ab.spec.dim + self.rank


def line_with_w1(base: str, bits: Mod2Class) -> LineRep:
    """The real character whose degree-one class has the given bits."""
    data = base_data(base)
    if len(bits) != len(data.mod2_positions):
        raise DomainError("bit-vector length mismatch")
    r = data.ab.group.free_rank
    row = [_ZERO] * (r + len(data.ab.group.torsion))
    for bit, pos in zip(bits, data.mod2_positions):
        if bit:
            row[pos] = _HALF
    return LineRep("real", tuple(row[:r]), tuple(row[r:]))


# ======================================================================
# characteristic classes of line bundles
# ======================================================================


def w1_of_line(base: str, rep: LineRep) -> Mod2Class:
    """First Stiefel-Whitney class of a real character, as bits in the
    base's degree-one mod-2 basis."""
    if rep.kind != "real":
        raise DomainError("w1_of_line takes a real character")
    validate_line(base, rep)
    return _w1_bits(base, rep)


def _w1_bits(base: str, rep: LineRep) -> Mod2Class:
    """w1 of a real character already validated against the base: each
    angle is 0 or 1/2, so its bit is whether its denominator is 2."""
    row = rep.free + rep.torsion
    return tuple([1 if row[pos].denominator == 2 else 0 for pos in base_data(base).mod2_positions])


@record
class C1Class:
    """First Chern class of a flat complex line bundle: an element of
    Hom(torsion of H_1, Z/modulus) where modulus is the base's holonomy
    order."""

    values: tuple[int, ...]
    modulus: int

    @property
    def is_trivial(self) -> bool:
        return not any(self.values)

    def mod2_bit(self) -> int:
        """Reduction of the class mod 2 (sum of components)."""
        return sum(self.values) % 2


def c1_of_line(base: str, rep: LineRep) -> C1Class:
    """First Chern class of a complex character.

    The character restricted to the torsion subgroup takes values in
    the holonomy-order roots of unity: a validated line's torsion
    angles have denominators dividing the torsion orders, and on every
    catalog base each torsion order divides the holonomy order.  A
    violation is an internal inconsistency, not an input error.  The
    class is trivial exactly when the bundle is trivial, and
    torsion-free H_1 forces triviality.
    """
    if rep.kind != "complex":
        raise DomainError("c1_of_line takes a complex character")
    validate_line(base, rep)
    return _c1(base, rep)


def _c1(base: str, rep: LineRep) -> C1Class:
    """c1 of a complex character already validated against the base."""
    data = base_data(base)
    k = data.holonomy_order
    values = []
    for angle, d in zip(rep.torsion, data.ab.group.torsion):
        # angle * k is integral exactly when the denominator divides
        # numerator * k, and then it is numerator * k // denominator
        scaled, rest = divmod(angle.numerator * k, angle.denominator)
        if rest:
            order = d // gcd(angle.numerator, d)
            raise InternalCheckError(
                f"character of order {order} on torsion does not divide "
                f"the holonomy order {k}"
            )
        values.append(scaled % k)
    return C1Class(values=tuple(values), modulus=k)


def orientation_character(bundle: FlatBundleSpec) -> Mod2Class:
    """w1 of the bundle: sum of the real summands' first classes."""
    bits = mod2_zero(bundle.base)
    for rep in bundle.summands:
        if rep.kind == "real":
            bits = mod2_add(bits, _w1_bits(bundle.base, rep))
    return bits


def det_line(bundle: FlatBundleSpec) -> LineRep:
    """The determinant character of the bundle (a real line rep): the
    real line whose first class is the bundle's orientation character.

    A real angle is 0 or 1/2 and is 0 on odd torsion, so its bits at
    ``mod2_positions`` fix it."""
    return line_with_w1(bundle.base, orientation_character(bundle))


# ======================================================================
# cup products on the surface bases
# ======================================================================


@record
class CupTable:
    """Mod-2 cup pairing H^1 x H^1 -> H^2 = Z/2 on the base's mod-2
    basis (the order of ``mod2_labels``), with its arithmetic as lookups.

    ``pairing[i][j]`` is the top-class coefficient of the product of
    basis classes i and j.  Two tables over every ordered pair (a, b) of
    degree-one classes, as tuples of bits, are filled once when the
    table is made and kept read-only: ``sums[a, b]`` is a + b and
    ``cups[a, b]`` is the top-class coefficient of a . b.
    """

    pairing: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.pairing)
        classes = list(product((0, 1), repeat=n))
        sums, cups = {}, {}
        for a in classes:
            for b in classes:
                sums[a, b] = tuple(x ^ y for x, y in zip(a, b))
                total = 0
                for i in range(n):
                    if a[i]:
                        for j in range(n):
                            if b[j]:
                                total += self.pairing[i][j]
                cups[a, b] = total % 2
        # read-only views: ``cup_table`` hands one table to every caller
        object.__setattr__(self, "sums", MappingProxyType(sums))
        object.__setattr__(self, "cups", MappingProxyType(cups))

    def cup(self, a: Mod2Class, b: Mod2Class) -> int:
        """The top-class coefficient of a . b; a and b must be tuples of
        bits of the table's length."""
        try:
            return self.cups[a, b]
        except (KeyError, TypeError):
            pass
        n = len(self.pairing)
        if len(a) != n or len(b) != n:
            raise DomainError("class length does not match the cup table")
        raise DomainError("a mod-2 class is not a tuple of bits 0 and 1")


def tangent_w1(base: str) -> Mod2Class:
    """w1 of the tangent bundle of the base: the determinant character
    of the holonomy representation, pushed to the homology basis."""
    data = base_data(base)
    spec = data.ab.spec
    vals = [0] * spec.dim + [(0 if g.linear.det() == 1 else 1) for g in spec.screws]
    free_bits, tors_bits = data.ab.functional_on_basis(vals, 2)
    row = free_bits + tors_bits
    return tuple(row[pos] for pos in data.mod2_positions)


@lru_cache(maxsize=None)
def cup_table(base: str) -> CupTable:
    """The mod-2 cup pairing of a dimension <= 2 base, with its ``sums``
    and ``cups`` tables, made and health-checked once per base.

    Checks: symmetry; nondegeneracy for the closed surfaces; and the
    Wu relation w1^2 = w2 = 0 for the (flat, zero Euler characteristic)
    surfaces.
    """
    data = base_data(base)
    if base not in SURFACES:
        raise DomainError(f"no cup table for base {base!r} (dimension > 2)")
    pairing = SURFACES[base].cup
    table = CupTable(pairing=pairing)
    n = len(pairing)
    for i in range(n):
        for j in range(n):
            if pairing[i][j] != pairing[j][i]:
                raise InternalCheckError("cup pairing is not symmetric")
    if data.ab.spec.dim == 2:
        det = (
            pairing[0][0] * pairing[1][1] - pairing[0][1] * pairing[1][0]
        ) % 2
        if det != 1:
            raise InternalCheckError("cup pairing is degenerate")
        w1 = tangent_w1(base)
        if table.cup(w1, w1) != 0:
            raise InternalCheckError("Wu relation failed: w1^2 != 0")
    return table


# ======================================================================
# Whitney data of bundles
# ======================================================================


@record
class CharClassVector:
    """(w1, w2, c1 list) of a flat bundle.  w2 is None over a
    one-dimensional base."""

    base: str
    w1: Mod2Class
    w2: int | None
    c1: tuple[C1Class, ...]


def sw_vector(bundle: FlatBundleSpec) -> CharClassVector:
    """Stiefel-Whitney data of a sum of flat line bundles.

    One pass over the real summands applies the Whitney product formula
    w(E + L) = w(E)(1 + L): adding a line L maps (w1, w2) to
    (w1 + L, w2 + w1 L).  By bilinearity of the cup product the w2 so
    built is the pairwise sum of the real first classes.  Over a surface
    w2 also gets the mod-2 reductions of the complex summands' Chern
    classes; over the circle it is None.
    """
    base = bundle.base
    dim = base_data(base).ab.spec.dim
    if dim > 2:
        raise DomainError("Whitney vectors are computed over bases of dimension <= 2")
    table = cup_table(base)
    w1 = mod2_zero(base)
    w2 = 0
    for rep in bundle.summands:
        if rep.kind == "real":
            bits = _w1_bits(base, rep)
            w2 += table.cup(w1, bits)
            w1 = table.sums[w1, bits]
    c1s = tuple(_c1(base, rep) for rep in bundle.summands if rep.kind == "complex")
    if dim == 1:
        return CharClassVector(base=base, w1=w1, w2=None, c1=c1s)
    for c in c1s:
        w2 += c.mod2_bit()
    return CharClassVector(base=base, w1=w1, w2=w2 % 2, c1=c1s)


# ======================================================================
# structure of the total space
# ======================================================================


def _total_holonomy_cyclic(bundle: FlatBundleSpec) -> bool:
    """Whether the total holonomy (base linear part, summand angles) is
    cyclic.  Every catalog holonomy is abelian, so the total holonomy is
    the image of H_1 under the holonomy character into Z/k and the
    summands' characters into Q/Z: cyclic exactly when the holonomy is
    and H_1's invariant basis spans a cyclic subgroup of Z/k x (Q/Z)^r.
    Over D, the lcm of k and the angles' denominators, that is the sum of
    Z/(D/a) over the Smith divisors a of [rows | D I], one row for the
    character and one per summand; the D/a form a divisor chain, so it
    is cyclic exactly when at most one a differs from D."""
    ab = base_data(bundle.base).ab
    powers = _cyclic_powers(holonomy_group(ab.spec))
    if powers is None:
        return False
    k, free_vals, tors_vals = _holonomy_character(ab, powers)
    angles = [rep.free + rep.torsion for rep in bundle.summands]
    d = lcm(k, *(v.denominator for row in angles for v in row))
    if d == 1:
        return True
    rows = [[v * (d // k) for v in free_vals + tors_vals]]
    rows += [[v.numerator * (d // v.denominator) for v in row] for row in angles]
    n = len(rows)
    m = IntMatrix._of([row + [d if i == j else 0 for j in range(n)] for i, row in enumerate(rows)], len(rows[0]) + n)
    return n - cokernel(m).torsion.count(d) <= 1


@record
class CyclicStructureResult:
    """The bundle is trivial_rank trivial lines plus (optionally) one
    determinant line."""

    trivial_rank: int
    det_summand: LineRep | None


def cyclic_structure(bundle: FlatBundleSpec) -> CyclicStructureResult:
    """Structure of a flat bundle with cyclic total holonomy.

    Orientable such bundles are trivial; nonorientable ones split as a
    trivial bundle plus the determinant line.
    """
    if not _total_holonomy_cyclic(bundle):
        raise DomainError("cyclic_structure needs cyclic total holonomy")
    s = bundle.rank
    w1 = orientation_character(bundle)
    if not any(w1):
        return CyclicStructureResult(trivial_rank=s, det_summand=None)
    return CyclicStructureResult(trivial_rank=s - 1, det_summand=det_line(bundle))


@record
class TangentStructureResult:
    """Tangent structure of the total space: parallelizable, or a
    trivial bundle plus one line with the recorded w1."""

    parallelizable: bool
    total_dim: int
    split_line_w1: Mod2Class | None


def tangent_structure(bundle: FlatBundleSpec) -> TangentStructureResult:
    """Tangent bundle structure of the total space over a catalog base.

    The total space is parallelizable exactly when it is orientable,
    i.e. when w1 of the base tangent bundle plus w1 of the fibre bundle
    vanishes; otherwise the tangent bundle is trivial except for one
    line bundle with that class.
    """
    if not _total_holonomy_cyclic(bundle):
        raise DomainError("tangent_structure needs cyclic total holonomy")
    w1_total = mod2_add(tangent_w1(bundle.base), orientation_character(bundle))
    m = bundle.total_dim
    if not any(w1_total):
        return TangentStructureResult(
            parallelizable=True, total_dim=m, split_line_w1=None
        )
    return TangentStructureResult(
        parallelizable=False, total_dim=m, split_line_w1=w1_total
    )
