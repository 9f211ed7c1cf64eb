"""Diffeomorphism class tables, canonical forms, equivalence deciders,
and the counting bound, checked against hand-verifiable cases."""

import random
from fractions import Fraction
from itertools import product
from math import lcm
from types import MappingProxyType

import pytest

from conftest import (
    AFFINE_MOVES,
    AUT_MOD2_GENERATORS,
    KLEIN_RHO_MOVES,
    SEED,
    TORUS_MOVES,
    canonical_multiset,
    codim1_classes,
    epimorphism_count_oracle,
    holonomy_image_order,
    mod2_closure,
    orbit,
    random_angles,
    realized_values_oracle,
    realized_values_search_oracle,
)
from cflat import classify, cli
from cflat.classify import (
    affine_class_bound,
    affine_equivalent,
    aut_action,
    circle_canonical,
    classification_report,
    diffeo_classes,
    dim4_table,
    inequivalent_family,
    klein_rho_canonical,
    line_class_name,
    stably_diffeomorphic,
    torus_moduli_canonical,
)
from cflat.errors import DomainError, InternalCheckError
from cflat.flatbundle import CupTable, FlatBundleSpec, LineRep, line_with_w1, sw_vector

F = Fraction


# ----------------------------------------------------------------------
# automorphism actions
# ----------------------------------------------------------------------


def test_aut_action_orders():
    """The orbits of the degree-one mod-2 classes, pinned by hand: each
    class maps to the whole of its orbit."""
    expected = {
        "S1": [((0,),), ((1,),)],
        "T2": [((0, 0),), ((0, 1), (1, 0), (1, 1))],
        "K": [((0, 0),), ((0, 1),), ((1, 0), (1, 1))],
    }
    for base, orbits in expected.items():
        assert aut_action(base) == {bits: orb for orb in orbits for bits in orb}, base
    with pytest.raises(DomainError):
        aut_action("G1")
    assert aut_action("T2") is aut_action("T2")  # built once per base


def test_aut_action_orbits_are_read_only():
    """aut_action hands one cached mapping of orbits to every caller, so
    a write to it is refused and later classifications keep their count."""
    assert type(aut_action("K")) is MappingProxyType
    with pytest.raises(TypeError):
        aut_action("K")[(0, 1)] = ((0, 0),)
    assert aut_action("K")[(0, 1)] == ((0, 1),)
    assert len(diffeo_classes("K", 5)) == 6


def test_realized_data_open_under_the_action_is_an_internal_error(monkeypatch, capsys):
    """No action cflat builds reaches the closure check of diffeo_classes.
    One that moves each class onto all four does: over K at total
    dimension 4, seven of the eight Whitney pairs are realized, and
    ((0, 1), 1) is not.  The check fails as an internal error, exit 2
    at the CLI."""
    classes = tuple(classify._line_classes("K"))
    everything = MappingProxyType({bits: classes for bits in classes})
    monkeypatch.setattr(classify, "aut_action", lambda base: everything)
    with pytest.raises(InternalCheckError, match="^realized Whitney data is not closed under the automorphism action$"):
        diffeo_classes("K", 4)
    assert cli.main(["classify", "--base", "K", "--dim", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "internal check failed" in captured.err


def test_aut_action_tables_match_the_closure():
    """Each class's orbit is its image under every element of the group
    the hand-written mod-2 generators generate, sorted, least first."""
    for base, gens in AUT_MOD2_GENERATORS.items():
        orbits = aut_action(base)
        assert set(orbits) == set(classify._line_classes(base))
        for bits in classify._line_classes(base):
            images = {
                tuple(sum(r * b for r, b in zip(row, bits)) % 2 for row in m)
                for m in mod2_closure(gens)
            }
            assert orbits[bits] == tuple(sorted(images)), (base, bits)
            assert orbits[bits][0] == min(images), (base, bits)


def test_line_class_names():
    """Every line class of the three bases by name; the Klein bottle's
    lam1 is its torsion class alpha and lam2 its free class beta."""
    expected = {
        "S1": {(0,): "Theta", (1,): "mu"},
        "T2": {(0, 0): "Theta", (1, 0): "mu1", (0, 1): "mu2", (1, 1): "mu1mu2"},
        "K": {(0, 0): "Theta", (1, 0): "lam1", (0, 1): "lam2", (1, 1): "lam1lam2"},
    }
    for base, names in expected.items():
        assert {bits: line_class_name(base, bits) for bits in classify._line_classes(base)} == names, base


def test_aut_orbits_on_lines():
    assert codim1_classes("S1") == [((0,),), ((1,),)]
    assert codim1_classes("T2") == [((0, 0),), ((0, 1), (1, 0), (1, 1))]
    # alpha and alpha+beta are swapped, beta is pinned
    assert codim1_classes("K") == [((0, 0),), ((0, 1),), ((1, 0), (1, 1))]


# ----------------------------------------------------------------------
# diffeomorphism classes
# ----------------------------------------------------------------------


def test_class_counts():
    expected = {
        ("S1", 2): 2,
        ("S1", 5): 2,
        ("T2", 4): 3,
        ("T2", 5): 4,
        ("T2", 8): 4,
        ("K", 4): 5,
        ("K", 5): 6,
        ("K", 8): 6,
    }
    for (base, dim), count in expected.items():
        assert len(diffeo_classes(base, dim)) == count, (base, dim)


def test_class_representatives_realize_their_data():
    for base, dim in (("S1", 3), ("T2", 4), ("T2", 6), ("K", 4), ("K", 6)):
        for c in diffeo_classes(base, dim):
            vec = sw_vector(c.bundle)
            assert (vec.w1, vec.w2) == (c.w1, c.w2)
            assert c.bundle.total_dim == dim


def test_realizer_search_matches_enumeration_oracle(monkeypatch):
    """The bounded search finds the same Whitney pairs, each with the same
    least realizer, as enumerating every multiset of line classes; so the
    class tables agree in labels, w1, w2, orbits and bundles."""
    for base, first_dim in (("S1", 2), ("T2", 4), ("K", 4)):
        base_dim = 1 if base == "S1" else 2
        for dim in range(first_dim, 13):
            oracle = realized_values_oracle(base, dim - base_dim)
            assert classify._realized_values(base, dim - base_dim) == oracle, (base, dim)
            fast = diffeo_classes(base, dim)
            with monkeypatch.context() as m:
                m.setattr(classify, "_realized_values", lambda b, s: oracle)
                assert diffeo_classes(base, dim) == fast, (base, dim)


def test_state_walk_matches_count_vector_search():
    """The walk over Whitney states finds the same least realizers as
    running the Whitney rule on every count vector, at every dimension
    ``diffeo_classes`` accepts."""
    for base, first_dim in (("S1", 2), ("T2", 4), ("K", 4)):
        base_dim = 1 if base == "S1" else 2
        for dim in range(first_dim, 41):
            s = dim - base_dim
            assert classify._realized_values(base, s) == realized_values_search_oracle(base, s), (base, dim)


def test_state_walk_cup_budget(monkeypatch):
    """Design pin: the walk applies the Whitney rule a few dozen times per
    search, not once per line of every count vector (289 times at
    dimension 20 over a surface)."""
    calls = []
    cup = CupTable.cup

    def counted(self, a, b):
        calls.append(1)
        return cup(self, a, b)

    monkeypatch.setattr(CupTable, "cup", counted)
    for base in ("T2", "K"):
        for s in (2, 3, 4, 6, 10, 18, 38):
            calls.clear()
            classify._realized_values(base, s)
            assert 0 < len(calls) <= 96, (base, s, len(calls))
    calls.clear()
    classify._realized_values("S1", 10)
    assert not calls  # the circle has no degree-two class to track


def test_class_realizers_are_rechecked(monkeypatch):
    def wrong(bundle):
        vec = sw_vector(bundle)
        return vec.__class__(vec.base, vec.w1, None if vec.w2 is None else 1 - vec.w2, vec.c1)

    monkeypatch.setattr(classify, "sw_vector", wrong)
    with pytest.raises(InternalCheckError):
        diffeo_classes("K", 5)


def test_stable_range_is_stable():
    for base in ("T2", "K"):
        reference = {(c.w1, c.w2) for c in diffeo_classes(base, 5)}
        for dim in (6, 7, 8):
            assert {(c.w1, c.w2) for c in diffeo_classes(base, dim)} == reference


def test_published_count_comparison():
    """The oracle reproduces every published count except the stable
    flat-Klein-bottle table, where it finds six classes against the
    published five: the Whitney pair (beta, top) is realized (e.g. by
    three lines with classes beta, alpha+beta, alpha+beta) but no
    automorphism orbit in the published list carries it."""
    for base, dim in (("S1", 2), ("T2", 4), ("T2", 5), ("K", 4)):
        rep = classification_report(base, dim)
        assert rep.count_matches is True, (base, dim)
    rep = classification_report("K", 5)
    assert rep.oracle_count == 6
    assert rep.published_count == 5
    assert rep.count_matches is False
    extra = [c for c in rep.classes if c.w1 == (0, 1) and c.w2 == 1]
    assert len(extra) == 1  # the class the published table misses


def test_surface_needs_rank_two():
    with pytest.raises(DomainError):
        diffeo_classes("K", 3)
    with pytest.raises(DomainError):
        diffeo_classes("T2", 2)
    assert len(diffeo_classes("S1", 2)) == 2  # rank one is fine on the circle


def test_klein_four_dim_lists_match_published_invariants():
    """The five rank-2 classes over the flat Klein bottle carry the
    five distinct published invariant pairs."""
    got = {(c.w1, c.w2) for c in diffeo_classes("K", 4)}
    assert got == {
        ((0, 0), 0),  # product
        ((0, 1), 0),
        ((1, 0), 0),
        ((0, 0), 1),
        ((1, 0), 1),
    }


def test_stably_diffeomorphic():
    lam1 = line_with_w1("K", (1, 0))
    lam12 = line_with_w1("K", (1, 1))
    theta = line_with_w1("K", (0, 0))
    # alpha vs alpha+beta: same orbit
    assert stably_diffeomorphic(
        FlatBundleSpec("K", (lam1, theta)), FlatBundleSpec("K", (lam12, theta))
    )
    # different ranks, same stable class
    assert stably_diffeomorphic(
        FlatBundleSpec("K", (lam1, theta, theta)), FlatBundleSpec("K", (lam12, theta))
    )
    assert not stably_diffeomorphic(
        FlatBundleSpec("K", (lam1, lam1)), FlatBundleSpec("K", (theta, theta))
    )
    with pytest.raises(DomainError):
        stably_diffeomorphic(
            FlatBundleSpec("K", (theta,)), FlatBundleSpec("T2", (line_with_w1("T2", (0, 0)),))
        )


# ----------------------------------------------------------------------
# canonical forms
# ----------------------------------------------------------------------

def test_torus_canonical_identifications():
    c = torus_moduli_canonical((F(1, 2), F(0)))
    assert c == torus_moduli_canonical((F(0), F(1, 2)))
    assert c == torus_moduli_canonical((F(1, 2), F(1, 2)))
    assert torus_moduli_canonical((F(1, 3), F(0))) == torus_moduli_canonical(
        (F(2, 3), F(1, 3))
    )
    assert torus_moduli_canonical((F(0), F(0))) == (F(0), F(0))


def test_klein_rho_canonical_identifications():
    assert klein_rho_canonical((F(1, 2), F(1, 2))) == klein_rho_canonical(
        (F(1, 2), F(0))
    )
    assert klein_rho_canonical((F(1, 3), F(0))) == klein_rho_canonical(
        (F(2, 3), F(0))
    )
    # the two coordinates are NOT interchangeable here
    assert klein_rho_canonical((F(0), F(1, 3))) != klein_rho_canonical((F(1, 3), F(0)))


def test_circle_canonical():
    assert circle_canonical(F(2, 3)) == F(1, 3)
    assert circle_canonical(F(1, 3)) == F(1, 3)
    assert circle_canonical(F(7, 2)) == F(1, 2)  # reduced mod 1 first
    assert circle_canonical(F(0)) == F(0)


def test_canonical_forms_are_orbit_invariants():
    rng = random.Random(SEED + 50)
    for _ in range(300):
        pair = (F(rng.randrange(12), 12), F(rng.randrange(12), 12))
        canon = torus_moduli_canonical(pair)
        assert torus_moduli_canonical(canon) == canon  # idempotent
        moved = pair
        for _ in range(rng.randint(1, 6)):
            moved = rng.choice(TORUS_MOVES)(moved)
        assert torus_moduli_canonical(moved) == canon
        canon = klein_rho_canonical(pair)
        assert klein_rho_canonical(canon) == canon
        moved = pair
        for _ in range(rng.randint(1, 6)):
            moved = rng.choice(KLEIN_RHO_MOVES)(moved)
        assert klein_rho_canonical(moved) == canon


def test_canonical_forms_match_orbit_oracle():
    """Closed forms against the orbit search, on every angle pair whose
    denominators have lcm <= 16.  The set is closed under the moves, so
    each orbit is searched once and every member is checked against it."""
    fracs = sorted({F(p, q) for q in range(1, 17) for p in range(q)})
    pairs = [(a, b) for a in fracs for b in fracs if lcm(a.denominator, b.denominator) <= 16]
    assert len(pairs) == 1224
    for canonical, moves in ((torus_moduli_canonical, TORUS_MOVES), (klein_rho_canonical, KLEIN_RHO_MOVES)):
        unchecked = set(pairs)
        for pair in pairs:
            if pair in unchecked:
                members = orbit(pair, moves)
                least = min(members)
                assert all(canonical(m) == least for m in members)
                unchecked -= members
    assert torus_moduli_canonical((F(1, 64), F(0))) == min(orbit((F(1, 64), F(0)), TORUS_MOVES))


def test_canonical_denominator_bound():
    with pytest.raises(DomainError):
        torus_moduli_canonical((F(1, 65), F(0)))
    with pytest.raises(DomainError):
        circle_canonical(F(1, 100))


# ----------------------------------------------------------------------
# affine equivalence
# ----------------------------------------------------------------------


def complex_line(base_rank, *angles):
    free = tuple(F(a) for a in angles) + (F(0),) * (base_rank - len(angles))
    return LineRep("complex", free)


def test_affine_equivalent_torus_examples():
    b = lambda *reps: FlatBundleSpec("T2", tuple(reps))
    assert affine_equivalent(b(complex_line(2, "1/3")), b(complex_line(2, 0, "1/3")))
    assert affine_equivalent(
        b(complex_line(2, "1/3")), b(complex_line(2, "1/3", "1/3"))
    )
    assert affine_equivalent(  # conjugate pair
        b(complex_line(2, "1/5")), b(complex_line(2, "4/5"))
    )
    assert not affine_equivalent(b(complex_line(2, "1/3")), b(complex_line(2, "1/4")))
    assert not affine_equivalent(
        b(complex_line(2, "1/3"), complex_line(2, "1/3")),
        b(complex_line(2, "1/3"), complex_line(2, "1/4")),
    )


def test_affine_equivalent_klein_examples():
    beta = FlatBundleSpec("K", (LineRep("real", (F(1, 2),), (F(0),)),))
    alpha = FlatBundleSpec("K", (LineRep("real", (F(0),), (F(1, 2),)),))
    both = FlatBundleSpec("K", (LineRep("real", (F(1, 2),), (F(1, 2),)),))
    assert affine_equivalent(both, alpha)  # beta+alpha ~ alpha
    assert not affine_equivalent(beta, alpha)  # the free direction is pinned


def test_affine_equivalence_relation_properties():
    rng = random.Random(SEED + 51)
    bundles = []
    for _ in range(12):
        n = rng.randint(1, 2)
        reps = tuple(
            LineRep("complex", random_angles(rng, 2, 4)) for _ in range(n)
        )
        bundles.append(FlatBundleSpec("T2", reps))
    for x in bundles:
        assert affine_equivalent(x, x)
    for x in bundles:
        for y in bundles:
            if len(x.summands) != len(y.summands):
                continue
            same = affine_equivalent(x, y)
            assert same == affine_equivalent(y, x)
            if same:
                assert holonomy_image_order(x) == holonomy_image_order(y)


def _bundle_of_state(base: str, state: tuple) -> FlatBundleSpec:
    """The bundle whose canonical multiset is ``state``."""
    if base == "T2":
        return FlatBundleSpec(base, tuple(LineRep(kind, vals) for kind, vals in state))
    return FlatBundleSpec(base, tuple(LineRep(kind, vals[:1], vals[1:]) for kind, vals in state))


def _random_summand(rng: random.Random, base: str, max_denom: int) -> LineRep:
    """A torus character has two free angles and a circle character one;
    a Klein bottle character has one free angle and one of order 2 on
    the torsion generator."""
    kind = rng.choice(("real", "complex"))
    free_rank = 2 if base == "T2" else 1
    if kind == "real":
        free = tuple(rng.choice((F(0), F(1, 2))) for _ in range(free_rank))
    else:
        free = random_angles(rng, free_rank, max_denom)
    torsion = (rng.choice((F(0), F(1, 2))),) if base == "K" else ()
    return LineRep(kind, free, torsion)


def _quarter_turn_bundles(base: str) -> list[FlatBundleSpec]:
    """Every one-summand bundle whose angles have denominator dividing 4."""
    free_rank, torsion_rank = {"T2": (2, 0), "K": (1, 1), "S1": (1, 0)}[base]
    halves = (F(0), F(1, 2))
    quarters = tuple(F(k, 4) for k in range(4))
    return [
        FlatBundleSpec(base, (LineRep(kind, free, torsion),))
        for kind, angles in (("real", halves), ("complex", quarters))
        for free in product(angles, repeat=free_rank)
        for torsion in product(halves, repeat=torsion_rank)
    ]


def test_affine_equivalent_matches_orbit_oracle():
    """affine_equivalent is membership in the full orbit the oracle walk
    finds over hand-written moves.  Inputs: seeded torus, Klein bottle
    and circle sums of at most two summands with denominators at most 8,
    half the right-hand bundles being moved copies of the left-hand one;
    and every ordered pair of one-summand bundles with angles in
    (1/4)Z/Z on each base."""
    rng = random.Random(SEED + 55)
    pairs = []
    for base in ("T2", "K", "S1"):
        moves = AFFINE_MOVES[base]
        for _ in range(40):
            r = rng.randint(1, 2)
            left = FlatBundleSpec(base, tuple(_random_summand(rng, base, 8) for _ in range(r)))
            if rng.random() < 0.5:
                state = canonical_multiset(left)
                for _ in range(rng.randint(0, 6)):
                    state = rng.choice(moves)(state)
                right = _bundle_of_state(base, state)
            else:
                right = FlatBundleSpec(base, tuple(_random_summand(rng, base, 8) for _ in range(r)))
            pairs.append((left, right))
        small = _quarter_turn_bundles(base)
        pairs += [(left, right) for left in small for right in small]
    assert len(pairs) == 3 * 40 + 580
    for left, right in pairs:
        full = orbit(canonical_multiset(left), AFFINE_MOVES[left.base])
        assert affine_equivalent(left, right) == (canonical_multiset(right) in full)


def test_affine_orbit_search_past_its_bound_raises(monkeypatch):
    monkeypatch.setattr(classify, "_AFFINE_ORBIT_BOUND", 5)
    left = FlatBundleSpec("T2", (complex_line(2, "1/8"),))
    right = FlatBundleSpec("T2", (complex_line(2, "1/4"),))
    with pytest.raises(InternalCheckError, match="^orbit search outgrew its theoretical bound$"):
        affine_equivalent(left, right)


def test_affine_equivalent_input_checks():
    t = FlatBundleSpec("T2", (complex_line(2, "1/3"),))
    s = FlatBundleSpec("S1", (complex_line(1, "1/3"),))
    with pytest.raises(DomainError):
        affine_equivalent(t, s)
    big = FlatBundleSpec("T2", (complex_line(2, F(1, 97)),))
    with pytest.raises(DomainError):
        affine_equivalent(big, big)


# ----------------------------------------------------------------------
# the dimension-4 table, the bound, the family
# ----------------------------------------------------------------------

BASE_DIMS = {"point": 0, "S1": 1, "T2": 2, "K": 2}


def test_dim4_table():
    rows = dim4_table()
    assert len(rows) == 14
    labels = [e.label for e in rows]
    assert len(set(labels)) == 14
    for e in rows:
        base_dim = BASE_DIMS.get(e.base, 3)
        assert base_dim + e.fiber_dim == 4
        assert e.orientable_total
    assert sum(1 for e in rows if e.fiber_dim == 1) == 10


def test_affine_class_bound_examples():
    assert affine_class_bound(1, 2, 1).bound == 2
    b = affine_class_bound(2, 2, 1)
    assert (b.epimorphisms, b.representation_classes, b.bound) == (3, 2, 6)
    assert affine_class_bound(2, 3, 2).bound == 16
    assert affine_class_bound(3, 2, 1).bound == 14
    assert affine_class_bound(1, 1, 3).bound == 1  # trivial holonomy
    b = affine_class_bound(2, 4, 2)
    assert (b.epimorphisms, b.representation_classes) == (12, 4)
    with pytest.raises(DomainError):
        affine_class_bound(0, 2, 1)
    with pytest.raises(DomainError):
        affine_class_bound(8, 64, 1)  # input bound: order^rank > 2,000,000


def test_epimorphism_count_matches_enumeration_oracle():
    """Jordan's totient J_r(k) equals the number of surjective tuples in
    (Z/k)^r for every pair with k^r <= 1000."""
    pairs = 0
    for rank in range(1, 11):
        for order in range(1, 1001):
            if order**rank > 1000:
                break
            got = affine_class_bound(rank, order, 1).epimorphisms
            assert got == epimorphism_count_oracle(rank, order), (rank, order)
            pairs += 1
    assert pairs > 1000


def test_affine_class_bound_input_caps():
    """order^rank is capped at 2,000,000 and the fiber dimension at 1000;
    a huge rank is refused without building order**rank."""
    assert affine_class_bound(1, 2_000_000, 1000).bound > 0
    assert affine_class_bound(20, 2, 1).epimorphisms == 2**20 - 1
    assert affine_class_bound(10**12, 1, 1).bound == 1
    for args in ((1, 2_000_001, 1), (21, 2, 1), (10**12, 2, 1), (1, 2, 1001)):
        with pytest.raises(DomainError):
            affine_class_bound(*args)


def test_bound_dominates_enumerated_classes():
    """Enumerate the actual affine classes of single complex planes
    over the torus whose holonomy image is exactly Z/k and check the
    counting bound really is an upper bound."""
    for k in (2, 3, 4):
        chars = []
        for p in range(k):
            for q in range(k):
                angles = (F(p, k), F(q, k))
                if lcm(angles[0].denominator, angles[1].denominator) == k:
                    chars.append(FlatBundleSpec("T2", (LineRep("complex", angles),)))
        classes = []
        for b in chars:
            if not any(affine_equivalent(b, rep) for rep in classes):
                classes.append(b)
        assert 1 <= len(classes) <= affine_class_bound(2, k, 2).bound


def test_inequivalent_family():
    fam = inequivalent_family("T2", 5)
    assert len(fam) == 5
    for i in range(5):
        assert affine_equivalent(fam[i], fam[i])
        for j in range(i + 1, 5):
            assert not affine_equivalent(fam[i], fam[j])
    orders = [holonomy_image_order(b) for b in fam]
    assert orders == [2, 3, 4, 5, 6]
    fam = inequivalent_family("S1", 3)
    assert len(fam) == 3
    assert not affine_equivalent(fam[0], fam[1])
    with pytest.raises(DomainError):
        inequivalent_family("K", 3)
    with pytest.raises(DomainError):
        inequivalent_family("T2", 1)
    with pytest.raises(DomainError):
        inequivalent_family("T2", 64)
