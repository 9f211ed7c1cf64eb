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
copies of each nontrivial line class, and the search runs over those
count vectors only (at most 64 of them).  Published class counts are
cross-reported: when the oracle disagrees with a recorded count the
disagreement is surfaced as data, never patched over.

The closure of the automorphism action and the affine-equivalence orbit
search are both the bounded breadth-first ``orbit`` of ``cflat.orbit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, lcm

from .errors import DomainError, InternalCheckError
from .flatbundle import (
    FlatBundleSpec,
    LineRep,
    Mod2Class,
    base_data,
    cup_table,
    line_with_w1,
    mod2_add,
    sw_vector,
    total_holonomy,
)
from .glattice import _prime_divisors
from .orbit import orbit

_SURFACE_BASES = ("S1", "T2", "K")
_DENOM_BOUND = 64
_AUT_CLOSURE_BOUND = 16
_AFFINE_ORBIT_BOUND = 2_000_000
_EPI_BOUND = 2_000_000
_FIBER_DIM_BOUND = 1000


# ======================================================================
# automorphism action on mod-2 cohomology
# ======================================================================

Mod2Matrix = tuple[tuple[int, ...], ...]


def _mat2_apply(m: Mod2Matrix, bits: Mod2Class) -> Mod2Class:
    return tuple(sum(r * b for r, b in zip(row, bits)) % 2 for row in m)


def _mat2_mul(a: Mod2Matrix, b: Mod2Matrix) -> Mod2Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) % 2 for j in range(n))
        for i in range(n)
    )


def _mat2_identity(n: int) -> Mod2Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _closure(gens: list[Mod2Matrix], n: int) -> tuple[Mod2Matrix, ...]:
    moves = [lambda m, g=g: _mat2_mul(m, g) for g in gens]
    overflow = InternalCheckError("automorphism closure exceeded the expected bound")
    return tuple(orbit(_mat2_identity(n), moves, _AUT_CLOSURE_BOUND, overflow))


@dataclass(frozen=True)
class AutAction:
    """Fundamental-group automorphisms acting on degree-one mod-2
    cohomology (they fix the degree-two class of a surface)."""

    base: str
    gens: tuple[Mod2Matrix, ...]
    closure: tuple[Mod2Matrix, ...]

    def orbit_min(self, bits: Mod2Class) -> Mod2Class:
        return min(_mat2_apply(m, bits) for m in self.closure)

    def orbit(self, bits: Mod2Class) -> tuple[Mod2Class, ...]:
        return tuple(sorted({_mat2_apply(m, bits) for m in self.closure}))


@lru_cache(maxsize=None)
def aut_action(base: str) -> AutAction:
    """The induced action for the line-rep bases, built once per base.

    Circle: trivial.  Torus: the full general linear action mod 2.
    Flat Klein bottle: generated by the map fixing beta and sending
    alpha to alpha + beta (the other automorphism generators act
    trivially mod 2).
    """
    if base == "S1":
        gens = [((1,),)]
        return AutAction(base, tuple(gens), _closure(gens, 1))
    if base == "T2":
        gens = [((1, 1), (0, 1)), ((0, 1), (1, 0))]
        return AutAction(base, tuple(gens), _closure(gens, 2))
    if base == "K":
        # coordinates in the (alpha, beta) basis
        gens = [((1, 0), (1, 1))]
        return AutAction(base, tuple(gens), _closure(gens, 2))
    raise DomainError(f"no automorphism action catalogued for base {base!r}")


# ======================================================================
# the diffeomorphism-class oracle
# ======================================================================


def _line_classes(base: str) -> list[Mod2Class]:
    d = len(base_data(base).mod2_sources)
    out = []
    for code in range(1 << d):
        out.append(tuple((code >> i) & 1 for i in range(d)))
    return out


_LINE_NAMES = {
    "S1": {(0,): "Theta", (1,): "mu"},
    "T2": {(0, 0): "Theta", (1, 0): "mu1", (0, 1): "mu2", (1, 1): "mu1mu2"},
    "K": {(0, 0): "Theta", (1, 0): "lam1", (0, 1): "lam2", (1, 1): "lam1lam2"},
}


def line_class_name(base: str, bits: Mod2Class) -> str:
    return _LINE_NAMES[base][bits]


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
    them leaves the Whitney data unchanged, so the search runs over
    count vectors in {0..3}^(classes - 1) with at most s lines.  Each
    candidate's data comes from the Whitney rule
    (w1, w2) -> (w1 + L, w2 + w1 L), one line at a time.  Padding with
    the trivial class changes neither the data nor the order among
    realizers with the same number of nontrivial lines, so the realizer
    is the trivial class s - n times followed by the n nontrivial lines
    in class order.
    """
    theta, *nontrivial = _line_classes(base)
    table = cup_table(base)
    surface = base_data(base).spec.dim == 2
    best: dict[tuple, tuple[int, tuple[Mod2Class, ...]]] = {}
    for counts in product(range(4), repeat=len(nontrivial)):
        n = sum(counts)
        if n > s:
            continue
        lines = tuple([bits for bits, c in zip(nontrivial, counts) for _ in range(c)])
        w1, w2 = theta, 0
        for bits in lines:
            w2 += table.cup(w1, bits)
            w1 = mod2_add(w1, bits)
        value = (w1, w2 % 2 if surface else None)
        key = (n, lines)
        if value not in best or key < best[value]:
            best[value] = key
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
    means in the stable range) by the bounded search of
    ``_realized_values``: four copies of a line change nothing, so at
    most three copies of each nontrivial class are ever needed.  Groups
    the pairs into automorphism orbits and returns one class per orbit,
    deterministically ordered.  Each class's realizer is re-checked
    with ``sw_vector``.
    """
    if base not in _SURFACE_BASES:
        raise DomainError(f"classification implemented over {_SURFACE_BASES}")
    data = base_data(base)
    dim = data.spec.dim
    s = total_dim - dim
    if s < 1:
        raise DomainError(f"total dimension {total_dim} does not exceed base dimension {dim}")
    if dim == 2 and s < 2:
        raise DomainError("surface bases need fibre rank >= 2")
    if total_dim > 40:
        raise DomainError("total dimension bound 40 exceeded")
    action = aut_action(base)
    realized = _realized_values(base, s)
    for (w1, w2) in realized:
        for g in action.closure:
            if (_mat2_apply(g, w1), w2) not in realized:
                raise InternalCheckError(
                    "realized Whitney data is not closed under the automorphism action"
                )
    orbits: dict[tuple, list[tuple]] = {}
    for value in realized:
        w1, w2 = value
        key = (action.orbit_min(w1), w2)
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


def published_class_count(base: str, total_dim: int) -> int | None:
    """Published class counts for the catalog surfaces, where stated."""
    if base == "S1" and total_dim >= 2:
        return 2
    if base == "T2" and total_dim >= 4:
        return 3 if total_dim == 4 else 4
    if base == "K" and total_dim >= 4:
        return 5
    return None


@dataclass(frozen=True)
class ClassificationReport:
    base: str
    total_dim: int
    classes: tuple[DiffeoClass, ...]
    oracle_count: int
    published_count: int | None

    @property
    def count_matches(self) -> bool | None:
        if self.published_count is None:
            return None
        return self.oracle_count == self.published_count


def classification_report(base: str, total_dim: int) -> ClassificationReport:
    classes = tuple(diffeo_classes(base, total_dim))
    return ClassificationReport(
        base=base,
        total_dim=total_dim,
        classes=classes,
        oracle_count=len(classes),
        published_count=published_class_count(base, total_dim),
    )


def stably_diffeomorphic(b1: FlatBundleSpec, b2: FlatBundleSpec) -> bool:
    """Whether the total spaces are stably diffeomorphic: same base and
    Whitney data in one automorphism orbit."""
    if b1.base != b2.base:
        raise DomainError("stable comparison needs a common base")
    if b1.base not in _SURFACE_BASES:
        raise DomainError(f"stable comparison implemented over {_SURFACE_BASES}")
    action = aut_action(b1.base)
    v1 = sw_vector(b1)
    v2 = sw_vector(b2)
    return (action.orbit_min(v1.w1), v1.w2) == (action.orbit_min(v2.w1), v2.w2)


def codim1_classes(base: str) -> list[tuple[Mod2Class, ...]]:
    """Orbits of degree-one mod-2 classes (flat line bundles up to the
    automorphism action), each orbit sorted, lex-least first."""
    action = aut_action(base)
    seen = set()
    orbits = []
    for bits in _line_classes(base):
        if bits in seen:
            continue
        orb = action.orbit(bits)
        seen.update(orb)
        orbits.append(orb)
    orbits.sort(key=lambda orb: orb[0])
    return orbits


# ======================================================================
# affine equivalence of line-bundle sums
# ======================================================================


def _rep_values(rep: LineRep) -> tuple[Fraction, ...]:
    return rep.free + rep.torsion


def _canonical_summand(rep: LineRep) -> tuple:
    vals = _rep_values(rep)
    if rep.kind == "complex":
        conj = tuple((-v) % 1 for v in vals)
        vals = min(vals, conj)
    return (rep.kind, vals)


def _canonical_multiset(bundle: FlatBundleSpec) -> tuple:
    return tuple(sorted(_canonical_summand(rep) for rep in bundle.summands))


def _pullback_state(base: str, state: tuple, transform) -> tuple:
    moved = []
    for kind, vals in state:
        new_vals = transform(vals)
        if kind == "complex":
            conj = tuple((-v) % 1 for v in new_vals)
            new_vals = min(new_vals, conj)
        moved.append((kind, new_vals))
    return tuple(sorted(moved))


def _torus_transforms():
    mats = [
        ((1, 1), (0, 1)),
        ((1, -1), (0, 1)),
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
        ((-1, 0), (0, 1)),
    ]

    def make(m):
        def act(vals):
            a, b = vals
            return (
                (a * m[0][0] + b * m[1][0]) % 1,
                (a * m[0][1] + b * m[1][1]) % 1,
            )

        return act

    return [make(m) for m in mats]


def _klein_transforms():
    out = []
    for sigma in (1, -1):
        for eps in (0, 1):

            def act(vals, sigma=sigma, eps=eps):
                f, t = vals
                return ((sigma * f + eps * t) % 1, t % 1)

            out.append(act)
    return out


def _circle_transforms():
    return [lambda vals: vals, lambda vals: ((-vals[0]) % 1,)]


def affine_equivalent(b1: FlatBundleSpec, b2: FlatBundleSpec) -> bool:
    """Affine equivalence of two line-bundle sums over one base.

    Two sums are affinely equivalent when some automorphism of the
    base group pulls one list of characters onto the other up to
    reordering and per-summand complex conjugation.  The automorphism
    action on characters is walked as an orbit search on canonical
    multisets, which stops as soon as it meets the second bundle;
    everything is exact rational arithmetic.
    """
    if b1.base != b2.base:
        raise DomainError("affine comparison needs a common base")
    if b1.base not in _SURFACE_BASES:
        raise DomainError(f"affine comparison implemented over {_SURFACE_BASES}")
    for b in (b1, b2):
        denom = 1
        for rep in b.summands:
            for v in _rep_values(rep):
                denom = lcm(denom, v.denominator)
        if denom > _DENOM_BOUND:
            raise DomainError(f"denominator {denom} exceeds bound {_DENOM_BOUND}")
    kinds1 = sorted(rep.kind for rep in b1.summands)
    kinds2 = sorted(rep.kind for rep in b2.summands)
    if kinds1 != kinds2:
        return False
    if b1.base == "T2":
        transforms = _torus_transforms()
    elif b1.base == "K":
        transforms = _klein_transforms()
    else:
        transforms = _circle_transforms()
    moves = [partial(_pullback_state, b1.base, transform=tr) for tr in transforms]
    overflow = InternalCheckError("orbit search outgrew its theoretical bound")
    target = _canonical_multiset(b2)
    walk = orbit(_canonical_multiset(b1), moves, _AFFINE_ORBIT_BOUND, overflow)
    return any(state == target for state in walk)


# ======================================================================
# canonical forms on the rank-2 moduli
# ======================================================================


def _check_angles(angles: tuple[Fraction, ...], count: int) -> tuple[Fraction, ...]:
    if len(angles) != count:
        raise DomainError(f"expected {count} angles, got {len(angles)}")
    normd = tuple(Fraction(a) % 1 for a in angles)
    denom = 1
    for a in normd:
        denom = lcm(denom, a.denominator)
    if denom > _DENOM_BOUND:
        raise DomainError(f"denominator {denom} exceeds bound {_DENOM_BOUND}")
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


def holonomy_image_order(bundle: FlatBundleSpec) -> int:
    """Order of the total-space holonomy image (an affine invariant)."""
    return len(total_holonomy(bundle))
