"""Crystallographic (Bieberbach) groups at desk scale.

A group is described by affine generators (integer linear part, exact
rational translation) acting on R^dim with translation lattice Z^dim.
The module carries a named catalog -- the circle, the two compact flat
surfaces, and the ten compact flat 3-manifold groups -- and computes
holonomy closures, abelianizations (with a usable projection onto the
computed invariant-factor coordinates), mapping tori of lattice
automorphisms, and the splitting of first homology along a cyclic
holonomy character.

Presentations are mechanical: generators are the full lattice basis
plus the listed non-translation generators; relations are the
conjugation action on the lattice and the lifts of the holonomy
group's defining relators (cyclic, or the Klein four-group).  First
homology is the cokernel of the resulting relation matrix.

For one screw alpha = (L, t) with L of order k, the cyclic relator
alpha^k is the translation N t, where N = sum of h over the holonomy
group <L> is its norm (Charlap, *Bieberbach Groups and Flat Manifolds*,
1986).  For a catalog screw, k (``IntMatrix.order``) and N
(``IntMatrix.norm``) take at most dim matrix products together; neither the
holonomy walk nor a k-fold affine word is multiplied out.  A mapping
torus needs neither: L = g0 (+) 1 fixes t = e_(n+1) / k, so N t = k t is
the unit translation e_(n+1), and the spec carries that relator in
closed form.

Every finite walk here -- the holonomy closure, walked once per spec,
and the powers of a cyclic generator -- is the bounded breadth-first
``orbit`` of ``cflat.orbit``.

A spec sorts its generators once, when it is built (a mapping torus
hands them to ``BieberbachGroupSpec._of`` already sorted), and the code
below reads its screws and translation vectors instead of testing them
again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InternalCheckError
from .glattice import GLattice
from .orbit import orbit
from .zlinalg import AbelianGroup, IntMatrix, smith_normal_form
from .zlinalg.snf import SNFDecomposition, inverse_unimodular

_HOLONOMY_BOUND = 1000
_ZERO = Fraction(0)
_ONE = Fraction(1)


# ======================================================================
# affine maps and group specs
# ======================================================================


@dataclass(frozen=True)
class AffineMap:
    """x |-> linear @ x + translation, with exact rational translation."""

    linear: IntMatrix
    translation: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.linear.is_square:
            raise DomainError("affine generator needs a square linear part")
        if len(self.translation) != self.linear.rows:
            raise DomainError("translation length does not match the dimension")
        object.__setattr__(
            self,
            "translation",
            tuple(t if isinstance(t, Fraction) else Fraction(t) for t in self.translation),
        )

    @property
    def dim(self) -> int:
        return self.linear.rows

    def __mul__(self, other: "AffineMap") -> "AffineMap":
        if self.dim != other.dim:
            raise DomainError("dimension mismatch in affine composition")
        lin = self.linear * other.linear
        moved = _apply_linear(self.linear, other.translation)
        tr = tuple(a + b for a, b in zip(self.translation, moved))
        return AffineMap(lin, tr)

    def inverse(self) -> "AffineMap":
        inv = inverse_unimodular(self.linear)
        tr = tuple(-t for t in _apply_linear(inv, self.translation))
        return AffineMap(inv, tr)

    def is_translation(self) -> bool:
        return self.linear.is_identity()

    def integral_translation(self) -> tuple[int, ...]:
        """The translation vector, required to be integral."""
        out = []
        for t in self.translation:
            if t.denominator != 1:
                raise DomainError(f"translation {t} is not integral")
            out.append(t.numerator)
        return tuple(out)


def _apply_linear(m: IntMatrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """m @ vec, in integers over the common denominator of ``vec``."""
    den = lcm(*(t.denominator for t in vec))
    scaled = [t.numerator * (den // t.denominator) for t in vec]
    return tuple(Fraction(x, den) for x in m.apply_vector(scaled))


def translation_map(dim: int, vec: Sequence[Fraction | int]) -> AffineMap:
    return AffineMap(IntMatrix.identity(dim), tuple(vec))


@lru_cache(maxsize=None)
def _unit_translations(dim: int) -> tuple[AffineMap, ...]:
    """The lattice basis e_1, ..., e_dim as translations; one shared
    tuple per dimension, as ``IntMatrix.identity`` is shared."""
    ident = IntMatrix.identity(dim)
    return tuple(AffineMap(ident, (_ZERO,) * i + (_ONE,) + (_ZERO,) * (dim - 1 - i)) for i in range(dim))


@dataclass(frozen=True)
class BieberbachGroupSpec:
    """A named crystallographic group with translation lattice Z^dim.

    The listed generators together with the lattice basis generate the
    group; torsion-freeness (and the lattice being exactly Z^dim) is
    catalog data the algorithms trust rather than verify.

    The generators are sorted once: ``_screws`` keeps the screws, and
    ``_translations`` each generator's integer vector (None for a screw),
    read off its Fractions by ``integral_translation``.
    ``_cyclic_relator`` is (k, alpha^k) for the one screw alpha of a
    mapping torus, given to ``_of`` by ``mapping_torus``; None for every
    other spec.
    """

    name: str
    dim: int
    gens: tuple[AffineMap, ...]
    _screws: tuple[AffineMap, ...] = field(init=False, compare=False, repr=False)
    _translations: tuple[tuple[int, ...] | None, ...] = field(init=False, compare=False, repr=False)
    _cyclic_relator: tuple[int, AffineMap] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        screws, translations = [], []
        for g in self.gens:
            if g.dim != self.dim:
                raise DomainError(f"generator dimension {g.dim} != {self.dim}")
            if g.is_translation():
                translations.append(g.integral_translation())  # raises if fractional
            elif abs(g.linear.det()) != 1:
                raise DomainError("generator linear part is not unimodular")
            else:
                screws.append(g)
                translations.append(None)
        object.__setattr__(self, "_screws", tuple(screws))
        object.__setattr__(self, "_translations", tuple(translations))

    @classmethod
    def _of(cls, name, dim, gens, translations, cyclic_relator) -> "BieberbachGroupSpec":
        """A spec from its generators, their integer vectors (None for a
        screw) and its cyclic relator, unchecked, like ``IntMatrix._of``:
        only for parts computed from checked input, as by ``mapping_torus``."""
        self = object.__new__(cls)
        screws = tuple(g for g, vec in zip(gens, translations) if vec is None)
        for f, value in zip(fields(cls), (name, dim, gens, screws, translations, cyclic_relator)):
            object.__setattr__(self, f.name, value)
        return self

    def screw_gens(self) -> tuple[AffineMap, ...]:
        """The listed generators with nontrivial linear part."""
        return self._screws

    @cached_property
    def _holonomy(self) -> tuple[IntMatrix, ...]:
        """The holonomy walk, once per spec; read it through ``holonomy_group``."""
        moves = [lambda m, g=g.linear: m * g for g in self.screw_gens()]
        overflow = DomainError(f"holonomy closure exceeded bound {_HOLONOMY_BOUND}")
        return tuple(orbit(IntMatrix.identity(self.dim), moves, _HOLONOMY_BOUND, overflow))


# ======================================================================
# holonomy
# ======================================================================


def holonomy_group(spec: BieberbachGroupSpec) -> tuple[IntMatrix, ...]:
    """Closure of the generators' linear parts, identity first.

    Breadth-first over the generating set, so the order is
    reproducible: for one screw with linear part L of order k it lists
    L^0, ..., L^(k-1).  Bails out past 1000 elements.  Walked once per
    spec and kept; the abelianization of a one-screw spec does not walk
    it.
    """
    return spec._holonomy


def _cyclic_powers(hol: Sequence, multiply=operator.mul) -> tuple | None:
    """Powers g^0, ..., g^(k-1) of the first element g of the finite
    group ``hol`` (identity first, k elements) that generates it, or
    None when the group is not cyclic."""
    k = len(hol)
    overflow = InternalCheckError("a cyclic subgroup outgrew its group")
    for g in hol:
        powers = tuple(orbit(hol[0], [lambda m, g=g: multiply(m, g)], k, overflow))
        if len(powers) == k:
            return powers
    return None


def is_holonomy_cyclic(spec: BieberbachGroupSpec) -> bool:
    return _cyclic_powers(holonomy_group(spec)) is not None


# ======================================================================
# abelianization
# ======================================================================


@dataclass(frozen=True)
class H1Element:
    """An element of a computed first homology group, in invariant
    coordinates: free part over Z, torsion part reduced mod the chain."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class AbelianizationData:
    """First homology of a group spec plus the projection machinery.

    ``group`` is Z^b + torsion chain.  Presentation coordinates are
    Z^(dim + s) where s counts the listed non-translation generators;
    ``project`` maps a presentation vector to invariant coordinates and
    kills exactly the relation lattice.
    """

    spec: BieberbachGroupSpec
    group: AbelianGroup
    relation_matrix: IntMatrix
    dec: SNFDecomposition
    free_positions: tuple[int, ...]
    torsion_positions: tuple[int, ...]
    gen_words: tuple[tuple[int, ...], ...]  # listed generator -> presentation vector

    @cached_property
    def u_inv(self) -> IntMatrix:
        """The inverse of the Smith witness ``dec.u``, built on first use."""
        return inverse_unimodular(self.dec.u)

    @property
    def n_presentation_gens(self) -> int:
        return self.relation_matrix.rows

    def project(self, vec: Sequence[int]) -> H1Element:
        """Class of a presentation-coordinate vector in H_1."""
        if len(vec) != self.n_presentation_gens:
            raise DomainError(
                f"expected length {self.n_presentation_gens}, got {len(vec)}"
            )
        w = self.dec.u.apply_vector(vec)
        free = tuple(w[i] for i in self.free_positions)
        moduli = self.group.torsion
        tors = tuple(w[i] % d for i, d in zip(self.torsion_positions, moduli))
        return H1Element(free=free, torsion=tors)

    def gen_image(self, idx: int) -> H1Element:
        """Class of the idx-th listed generator."""
        return self.project(self.gen_words[idx])

    def functional_on_basis(
        self, gen_values: Sequence[int], modulus: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Convert a Z/modulus functional given on presentation
        generators into values on (free basis, torsion basis).

        The functional must kill the relation lattice mod ``modulus``;
        a violation means it is not well defined on homology.
        """
        if len(gen_values) != self.n_presentation_gens:
            raise DomainError("functional length mismatch")
        if any(v % modulus for v in self.relation_matrix.transpose().apply_vector(gen_values)):
            raise InternalCheckError("functional does not vanish on the relation lattice")
        # value on the i-th invariant basis vector = gen_values . u_inv e_i
        row = [v % modulus for v in self.u_inv.transpose().apply_vector(gen_values)]
        free = tuple(row[i] for i in self.free_positions)
        tors = tuple(row[i] for i in self.torsion_positions)
        return free, tors


def _holonomy_relators(spec: BieberbachGroupSpec) -> list[tuple[list[int], AffineMap]]:
    """Defining relators of the holonomy group, lifted to affine words.

    Returns (exponent vector over the screw generators, evaluated affine
    word).  Supports the shapes the catalog needs: no screw generators,
    one (cyclic holonomy), or two commuting involutions (Klein
    four-group holonomy).  With one screw (L, t) the other generators
    are translations, so the holonomy is <L> and the relator is
    (1, N t) with N the sum of the holonomy group, L^0 + ... + L^(k-1);
    a mapping torus lists it in closed form.  Two distinct commuting
    involutions always generate a group of order 4.
    """
    if spec._cyclic_relator is not None:
        k, word = spec._cyclic_relator
        return [([k], word)]
    screws = spec.screw_gens()
    s = len(screws)
    if s == 0:
        return []
    if s == 1:
        (alpha,) = screws
        k = alpha.linear.order(_HOLONOMY_BOUND)
        norm = alpha.linear.norm(_HOLONOMY_BOUND)
        return [([k], translation_map(spec.dim, _apply_linear(norm, alpha.translation)))]
    if s == 2:
        a, b = screws
        la, lb = a.linear, b.linear
        if la != lb and (la * la).is_identity() and (lb * lb).is_identity() and la * lb == lb * la:
            comm = a * b * a.inverse() * b.inverse()
            return [([2, 0], a * a), ([0, 2], b * b), ([0, 0], comm)]
        raise DomainError(
            "unsupported holonomy: two screw generators that are not "
            "commuting involutions"
        )
    raise DomainError(f"unsupported holonomy: {s} screw generators")


def abelianization(spec: BieberbachGroupSpec) -> AbelianizationData:
    """First homology of the group, with projection witnesses.

    Relation columns: the conjugation action L - 1 of each screw generator
    on the lattice basis, and each lifted holonomy relator expressed as
    (minus its lattice value, its exponent vector).  Built by rows.
    """
    n = spec.dim
    screws = spec.screw_gens()
    s = len(screws)
    total = n + s
    relators = []
    for exps, word in _holonomy_relators(spec):
        if not word.is_translation():
            raise InternalCheckError("holonomy relator lift is not a translation")
        relators.append((word.integral_translation(), exps))
    ident = IntMatrix.identity(n)
    conj = [g.linear - ident for g in screws]
    rows = [sum((c.row(r) for c in conj), ()) + tuple(-w[r] for w, _ in relators) for r in range(n)]
    rows += [(0,) * (n * s) + tuple(exps[j] for _, exps in relators) for j in range(s)]
    rel = IntMatrix._of(rows, n * s + len(relators))
    dec = smith_normal_form(rel)
    diag = dec.diagonal
    full = list(diag) + [0] * (total - len(diag))
    free_pos = tuple(i for i, d in enumerate(full) if d == 0)
    tors_pos = tuple(i for i, d in enumerate(full) if d >= 2)
    group = AbelianGroup(len(free_pos), tuple(full[i] for i in tors_pos))
    # a translation's word is its vector; the i-th screw's is e_(n+i)
    screw_words = map(IntMatrix.identity(total).row, range(n, total))
    gen_words = [next(screw_words) if vec is None else vec + (0,) * s for vec in spec._translations]
    return AbelianizationData(
        spec=spec,
        group=group,
        relation_matrix=rel,
        dec=dec,
        free_positions=free_pos,
        torsion_positions=tors_pos,
        gen_words=tuple(gen_words),
    )


# ======================================================================
# mapping torus
# ======================================================================


def mapping_torus(lat: GLattice) -> BieberbachGroupSpec:
    """The flat (n+1)-manifold group of a finite-order automorphism.

    New coordinate last: the extra generator acts by the automorphism
    on the old block and translates the new coordinate by 1/order, so
    its order-th power is the new lattice vector; the spec lists that
    relator, ([k], e_(n+1)), in closed form.

    Built by ``BieberbachGroupSpec._of`` on every call, from parts that
    need no check: the lattice checked g0 when it was made, g0 (+) 1 is
    unimodular with g0, and the lattice vectors are the rows of the
    identity.  Its order is the order of g0, which the closed-form
    relator needs; only an order past the holonomy bound is refused here.
    """
    n = lat.rank
    k = lat.order
    dim = n + 1
    g0 = lat.g0
    if k > _HOLONOMY_BOUND:
        raise DomainError(f"order {k} exceeds the holonomy bound {_HOLONOMY_BOUND} of a mapping torus")
    units = _unit_translations(dim)
    vectors = tuple(map(IntMatrix.identity(dim).row, range(dim)))
    name = f"MT{dim}k{k}"
    if k == 1:  # g0 = 1: the extra generator is the translation e_(n+1)
        return BieberbachGroupSpec._of(name, dim, units, vectors, None)
    block = IntMatrix._of([g0.row(i) + (0,) for i in range(n)] + [(0,) * n + (1,)], dim)
    screw = AffineMap(block, (_ZERO,) * n + (Fraction(1, k),))
    return BieberbachGroupSpec._of(name, dim, units[:n] + (screw,), vectors[:n] + (None,), (k, units[n]))


def tors_h1_two_ways(lat: GLattice) -> tuple[AbelianGroup, AbelianGroup]:
    """Torsion of H_1 of the mapping torus, two independent routes.

    Route one abelianizes the mapping-torus group; route two takes the
    torsion of the coinvariant group Z^n / im(g0 - 1), another model of
    H^1 of the action.  Both are returned so the agreement stays an
    observable fact rather than an assumption.  Route one builds the
    mapping torus, and route two reads the lattice's kept
    ``coinvariant_group``.
    """
    ab = abelianization(mapping_torus(lat))
    return ab.group.torsion_subgroup(), lat.coinvariant_group.torsion_subgroup()


# ======================================================================
# splitting along a cyclic holonomy character
# ======================================================================


@dataclass(frozen=True)
class CyclicSplitting:
    """H_1 = <a> (+) B with the holonomy character faithful on <a>.

    ``a`` has infinite order, the character maps it onto the full
    (cyclic) holonomy group, and B -- spanned by ``b_free_gens`` and all
    torsion -- lies in the character's kernel, so it contains the whole
    torsion subgroup.
    """

    a: H1Element
    a_character_value: int  # in Z/holonomy_order, coprime to it
    b_free_gens: tuple[H1Element, ...]
    b_group: AbelianGroup
    holonomy_order: int


def cyclic_splitting(spec: BieberbachGroupSpec) -> CyclicSplitting:
    """Split H_1 along the holonomy character.

    Only defined for cyclic holonomy; the Klein four-group holonomy
    entries are rejected.  The free part is changed to a basis whose
    first vector carries the whole character image (an extended-gcd
    column operation packaged as a Smith step on the character row);
    everything else, torsion included, lands in the kernel.  That needs
    the torsion-free group that ``BieberbachGroupSpec`` requires and does
    not check: a spec with torsion can end in ``InternalCheckError``.
    """
    hol = holonomy_group(spec)
    k = len(hol)
    powers = _cyclic_powers(hol)
    if powers is None:
        raise DomainError(f"holonomy of {spec.name} is not cyclic (order {k})")
    exponent = {power: e for e, power in enumerate(powers)}
    ab = abelianization(spec)
    n = spec.dim
    screws = spec.screw_gens()
    gen_values = [0] * n + [exponent[g.linear] for g in screws]
    free_vals, tors_vals = ab.functional_on_basis(gen_values, k)
    if any(v % k for v in tors_vals):
        raise InternalCheckError(
            "holonomy character does not kill the torsion subgroup"
        )
    b = ab.group.free_rank
    if b == 0:
        raise InternalCheckError("cyclic holonomy with no free homology")
    row = IntMatrix._of([free_vals], b)
    dec = smith_normal_form(row)
    d = dec.d[0, 0]
    sign = dec.u[0, 0]
    if gcd(sign * d, k) != 1:
        raise InternalCheckError(
            "holonomy character is not surjective on free homology"
        )
    # columns of dec.v are the new free basis; first carries the image
    moduli = ab.group.torsion
    zero_tors = tuple(0 for _ in moduli)
    new_basis = [
        H1Element(free=dec.v.column(j), torsion=zero_tors) for j in range(b)
    ]
    a_elt = new_basis[0]
    b_free = tuple(new_basis[1:])
    b_group = AbelianGroup(b - 1, moduli)
    return CyclicSplitting(
        a=a_elt,
        a_character_value=(sign * d) % k,
        b_free_gens=b_free,
        b_group=b_group,
        holonomy_order=k,
    )


# ======================================================================
# the catalog
# ======================================================================


def _diag(*entries: int) -> IntMatrix:
    n = len(entries)
    return IntMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _screw(linear: IntMatrix, *tr) -> AffineMap:
    return AffineMap(linear, tr)


def _torus(name: str, dim: int) -> BieberbachGroupSpec:
    return BieberbachGroupSpec(name=name, dim=dim, gens=_unit_translations(dim))


def _rot3() -> IntMatrix:
    return IntMatrix([[0, -1], [1, -1]])


def _rot4() -> IntMatrix:
    return IntMatrix([[0, -1], [1, 0]])


def _rot6() -> IntMatrix:
    return IntMatrix([[0, -1], [1, 1]])


def _axis_block(rot: IntMatrix) -> IntMatrix:
    """1 (+) rot acting on coordinates (y, z); screw axis is x."""
    return IntMatrix(
        [
            [1, 0, 0],
            [0, rot[0, 0], rot[0, 1]],
            [0, rot[1, 0], rot[1, 1]],
        ]
    )


def _build_catalog() -> dict[str, BieberbachGroupSpec]:
    t3 = _unit_translations(3)
    cat: dict[str, BieberbachGroupSpec] = {}
    cat["S1"] = _torus("S1", 1)
    cat["T2"] = _torus("T2", 2)
    cat["T3"] = _torus("T3", 3)
    # flat Klein bottle: one translation and one glide
    cat["K"] = BieberbachGroupSpec(
        name="K",
        dim=2,
        gens=(
            translation_map(2, [1, 0]),
            _screw(_diag(-1, 1), 0, Fraction(1, 2)),
        ),
    )
    # orientable 3-dimensional groups: screw motions along the x-axis
    cat["G1"] = _torus("G1", 3)
    cat["G2"] = BieberbachGroupSpec(
        name="G2",
        dim=3,
        gens=(*t3, _screw(_diag(1, -1, -1), Fraction(1, 2), 0, 0)),
    )
    cat["G3"] = BieberbachGroupSpec(
        name="G3",
        dim=3,
        gens=(*t3, _screw(_axis_block(_rot3()), Fraction(1, 3), 0, 0)),
    )
    cat["G4"] = BieberbachGroupSpec(
        name="G4",
        dim=3,
        gens=(*t3, _screw(_axis_block(_rot4()), Fraction(1, 4), 0, 0)),
    )
    cat["G5"] = BieberbachGroupSpec(
        name="G5",
        dim=3,
        gens=(*t3, _screw(_axis_block(_rot6()), Fraction(1, 6), 0, 0)),
    )
    # Klein four-group holonomy: two half-turn screws on skew axes
    cat["G6"] = BieberbachGroupSpec(
        name="G6",
        dim=3,
        gens=(
            *t3,
            _screw(_diag(1, -1, -1), Fraction(1, 2), Fraction(1, 2), 0),
            _screw(_diag(-1, 1, -1), 0, Fraction(1, 2), Fraction(1, 2)),
        ),
    )
    # nonorientable 3-dimensional groups
    cat["B1"] = BieberbachGroupSpec(
        name="B1",
        dim=3,
        gens=(*t3, _screw(_diag(-1, 1, 1), 0, Fraction(1, 2), 0)),
    )
    swap_xy = IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cat["B2"] = BieberbachGroupSpec(
        name="B2",
        dim=3,
        gens=(*t3, _screw(swap_xy, 0, 0, Fraction(1, 2))),
    )
    cat["B3"] = BieberbachGroupSpec(
        name="B3",
        dim=3,
        gens=(
            *t3,
            _screw(_diag(1, -1, -1), Fraction(1, 2), 0, 0),
            _screw(_diag(1, 1, -1), 0, Fraction(1, 2), 0),
        ),
    )
    cat["B4"] = BieberbachGroupSpec(
        name="B4",
        dim=3,
        gens=(
            *t3,
            _screw(_diag(1, -1, -1), Fraction(1, 2), 0, 0),
            _screw(_diag(1, 1, -1), 0, Fraction(1, 2), Fraction(1, 2)),
        ),
    )
    return cat


_CATALOG = _build_catalog()

CATALOG_NAMES: tuple[str, ...] = tuple(_CATALOG)


def catalog() -> Mapping[str, BieberbachGroupSpec]:
    """The built-in groups: circle, flat surfaces, flat 3-manifolds."""
    return dict(_CATALOG)


def catalog_group(name: str) -> BieberbachGroupSpec:
    try:
        return _CATALOG[name]
    except KeyError:
        raise DomainError(
            f"unknown group {name!r}; known: {', '.join(CATALOG_NAMES)}"
        ) from None
