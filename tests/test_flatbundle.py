"""Characteristic classes of flat line-bundle sums: first classes,
cup tables re-derived from the intersection forms, Chern classes,
Whitney vectors, and the structure results."""

import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from conftest import (
    SEED,
    cup_oracle,
    det_line_oracle,
    evaluate_on_generator,
    random_cyclotomic_lattice,
    sw_vector_pairwise,
)
from cflat import cli, flatbundle
from cflat.bieberbach import CATALOG_NAMES, abelianization, mapping_torus
from cflat.classify import _line_classes, aut_action, diffeo_classes, stably_diffeomorphic
from cflat.errors import DomainError, InternalCheckError
from cflat.flatbundle import (
    C1Class,
    FlatBundleSpec,
    LineRep,
    base_data,
    c1_of_line,
    cup_table,
    cyclic_structure,
    det_line,
    line_with_w1,
    mod2_add,
    mod2_str,
    orientation_character,
    sw_vector,
    tangent_structure,
    tangent_w1,
    total_holonomy,
    validate_line,
    w1_of_line,
)
from cflat.glattice import make_glattice
from cflat.zlinalg import IntMatrix

F = Fraction


def real_line(free, tors=()):
    return LineRep("real", tuple(F(x) for x in free), tuple(F(x) for x in tors))


# ----------------------------------------------------------------------
# bases and characters
# ----------------------------------------------------------------------


def test_mod2_bases():
    """Labels and row positions of each base's mod-2 basis; the Klein
    bottle's alpha is its torsion bit (row position 1), beta its free bit."""
    assert base_data("K").mod2_labels == ("alpha", "beta")
    positions = {
        "S1": (0,), "T2": (0, 1), "K": (1, 0), "T3": (0, 1, 2),
        "G2": (0, 1, 2), "B1": (0, 1, 2), "G6": (0, 1),
    }
    for base, expected in positions.items():
        assert base_data(base).mod2_positions == expected, base
    assert base_data("T2").mod2_labels == ("x", "y")
    assert base_data("T3").mod2_labels == ("x", "y", "z")
    assert base_data("G2").mod2_labels == ("x", "s1", "s2")
    assert base_data("G3").mod2_labels == ("x",)  # Z/3 torsion has no mod-2 part
    assert mod2_str("K", (1, 1)) == "alpha+beta"
    assert mod2_str("K", (0, 0)) == "0"


def test_line_w1_roundtrip():
    for base in ("S1", "T2", "T3", "K", "G2", "B1"):
        d = len(base_data(base).mod2_positions)
        for code in range(1 << d):
            bits = tuple((code >> i) & 1 for i in range(d))
            rep = line_with_w1(base, bits)
            assert w1_of_line(base, rep) == bits


def test_validate_line_rejects_bad_characters():
    """Each rejection names the offending input."""
    with pytest.raises(DomainError, match=r"^real character angle must be 0 or 1/2, got 1/3$"):
        validate_line("T2", real_line(("1/3", "0")))  # real must be half-integral
    with pytest.raises(DomainError, match=r"^real character angle must be 0 or 1/2, got 3/4$"):
        LineRep("real", (F(0),), (F(3, 4),))
    with pytest.raises(DomainError, match=r"^T2 has 2 free generators, got 1 angles$"):
        validate_line("T2", real_line((0,)))  # wrong arity
    with pytest.raises(DomainError, match=r"^unknown line kind 'quaternionic'$"):
        LineRep("quaternionic", ())
    for bad in (F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(DomainError, match=rf"^angle {bad} outside \[0, 1\)$"):
            LineRep("complex", (bad,))
    with pytest.raises(DomainError, match=r"^angle 1 outside \[0, 1\)$"):
        LineRep("real", (F(0),), (1,))  # range is checked before the real-angle test
    for angle in (F(1, 3), F(1, 4)):  # kills no 2-torsion
        with pytest.raises(DomainError, match=rf"^angle {angle} is not defined on a torsion generator of order 2$"):
            validate_line("K", LineRep("complex", (F(0),), (angle,)))
    with pytest.raises(DomainError, match=r"^angle 1/2 is not defined on a torsion generator of order 3$"):
        validate_line("G3", LineRep("complex", (F(0),), (F(1, 2),)))
    # G3 has torsion Z/3 and K has Z/2: angles of a dividing order pass
    validate_line("G3", LineRep("complex", (F(0),), (F(2, 3),)))
    validate_line("K", LineRep("complex", (F(1, 7),), (F(1, 2),)))


def test_line_angles_are_fractions():
    """Fraction angles are kept as given; int, str and float angles are
    converted to Fractions."""
    half, third = F(1, 2), F(1, 3)
    rep = LineRep("complex", (half, third))
    assert rep.free[0] is half and rep.free[1] is third
    rep = LineRep("real", [0, "1/2"], (0.5,))
    assert rep.free == (F(0), F(1, 2)) and rep.torsion == (F(1, 2),)
    assert all(type(v) is Fraction for v in rep.free + rep.torsion)
    assert LineRep("complex", ("0.25",)).free == (F(1, 4),)


def test_klein_generator_values():
    """The nontrivial free character takes value 1/2 on the free
    generator and 0 on the torsion one; its class is beta."""
    lam2 = real_line(("1/2",), (0,))
    assert evaluate_on_generator("K", lam2, 0) == F(0)  # listed translation
    assert evaluate_on_generator("K", lam2, 1) == F(1, 2)  # the screw generator
    assert w1_of_line("K", lam2) == (0, 1)
    lam1 = real_line((0,), ("1/2",))
    assert w1_of_line("K", lam1) == (1, 0)


# ----------------------------------------------------------------------
# cup products
# ----------------------------------------------------------------------


def _pd_cup_table(intersection):
    """Re-derive a surface cup table from its mod-2 intersection form:
    dualize each degree-one basis class through the form, then cup by
    intersecting the duals."""
    n = len(intersection)
    duals = []
    for i in range(n):
        # find c with c . e_j = delta_ij under the form
        for code in range(1 << n):
            c = tuple((code >> t) & 1 for t in range(n))
            if all(
                sum(c[a] * intersection[a][j] for a in range(n)) % 2 == (1 if j == i else 0)
                for j in range(n)
            ):
                duals.append(c)
                break
    pair = lambda u, v: sum(u[a] * intersection[a][b] * v[b] for a in range(n) for b in range(n)) % 2
    return tuple(tuple(pair(duals[i], duals[j]) for j in range(n)) for i in range(n))


def test_cup_tables_match_intersection_forms():
    # torus: the two loops meet once, no self-meetings
    assert cup_table("T2").pairing == _pd_cup_table([[0, 1], [1, 0]])
    # Klein bottle in the (torsion, free) loop basis: the free loop
    # meets itself and the torsion loop once
    assert cup_table("K").pairing == _pd_cup_table([[0, 1], [1, 1]])


def test_cup_table_health():
    for base in ("T2", "K"):
        table = cup_table(base)
        n = len(table.pairing)
        for i in range(n):
            for j in range(n):
                assert table.pairing[i][j] == table.pairing[j][i]
        # nondegenerate: no nonzero class cups trivially with everything
        for code in range(1, 1 << n):
            v = tuple((code >> t) & 1 for t in range(n))
            assert any(table.cup(v, tuple(1 if t == j else 0 for t in range(n))) for j in range(n))
        # flat surfaces have vanishing w2 = w1^2
        w1t = tangent_w1(base)
        assert table.cup(w1t, w1t) == 0
    assert cup_table("S1").pairing == ((0,),)
    with pytest.raises(DomainError):
        cup_table("T3")


def test_each_cup_table_check_fires(monkeypatch):
    """cup_table's health checks, each fed a SURFACES record with a wrong
    pairing: an asymmetric and a degenerate one on T2, and one on K in
    which the tangent class beta squares to the top class."""
    faults = [
        ("T2", ((0, 1), (0, 0)), "^cup pairing is not symmetric$"),
        ("T2", ((0, 0), (0, 0)), "^cup pairing is degenerate$"),
        ("K", ((1, 0), (0, 1)), r"^Wu relation failed: w1\^2 != 0$"),
    ]
    cup_table.cache_clear()
    try:
        for base, pairing, message in faults:
            with monkeypatch.context() as m:
                m.setitem(flatbundle.SURFACES, base, dataclasses.replace(flatbundle.SURFACES[base], cup=pairing))
                with pytest.raises(InternalCheckError, match=message):
                    cup_table(base)
    finally:
        cup_table.cache_clear()
    assert cup_table("K").pairing == ((1, 1), (1, 0))


def test_tangent_w1():
    assert tangent_w1("S1") == (0,)
    assert tangent_w1("T2") == (0, 0)
    assert tangent_w1("K") == (0, 1)  # beta
    assert tangent_w1("G2") == (0, 0, 0)  # orientable
    assert any(tangent_w1("B1"))  # one reflection: not orientable


def test_tangent_w1_is_the_determinant_character():
    """Basis-independent check on every catalog base: the class of
    tangent_w1, read back as a character, takes the value det(linear)
    on each listed generator."""
    from cflat.bieberbach import CATALOG_NAMES, catalog_group

    for name in CATALOG_NAMES:
        spec = catalog_group(name)
        rep = line_with_w1(name, tangent_w1(name))
        for idx, g in enumerate(spec.gens):
            expected = F(0) if g.linear.det() == 1 else F(1, 2)
            assert evaluate_on_generator(name, rep, idx) == expected, name


# ----------------------------------------------------------------------
# Chern classes
# ----------------------------------------------------------------------


def test_c1_examples():
    # torsion-free base: the invariant lives in a trivial group
    c = c1_of_line("T2", LineRep("complex", (F(1, 3), F(0))))
    assert c.modulus == 1 and c.is_trivial
    # order must divide the holonomy order
    c = c1_of_line("K", LineRep("complex", (F(0),), (F(1, 2),)))
    assert c == C1Class((1,), 2) and not c.is_trivial
    c = c1_of_line("G3", LineRep("complex", (F(0),), (F(1, 3),)))
    assert c == C1Class((1,), 3)
    c = c1_of_line("G2", LineRep("complex", (F(0),), (F(1, 2), F(0))))
    assert c == C1Class((1, 0), 2)
    assert c.mod2_bit() == 1
    with pytest.raises(DomainError):
        c1_of_line("K", LineRep("real", (F(0),), (F(1, 2),)))  # complex only


def test_c1_past_the_holonomy_order_is_an_internal_error(monkeypatch, capsys):
    """On every catalog base the torsion orders divide the holonomy order,
    so c1's check is reached only through a base table whose holonomy was
    cut short; it fails as an internal error, exit 2 at the CLI."""
    table = flatbundle.base_data

    def cut_holonomy(name):
        data = table(name)
        return dataclasses.replace(data, holonomy_order=1)

    monkeypatch.setattr(flatbundle, "base_data", cut_holonomy)
    line = LineRep("complex", (F(0),), (F(1, 2),))
    message = "^character of order 2 on torsion does not divide the holonomy order 1$"
    with pytest.raises(InternalCheckError, match=message):
        c1_of_line("K", line)
    with pytest.raises(InternalCheckError, match=message):
        sw_vector(FlatBundleSpec("K", (line,)))
    bundle = '{"base": "K", "summands": [{"kind": "complex", "free": ["0"], "torsion": ["1/2"]}]}'
    assert cli.main(["stable-eq", "--left", bundle, "--right", bundle]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "internal check failed" in captured.err


def test_c1_trivial_over_tori_grid():
    angles = [F(p, q) for q in range(1, 7) for p in range(q) if F(p, q).denominator == q]
    for base, rank in (("T2", 2), ("T3", 3)):
        for a0 in angles:
            for a1 in angles:
                free = (a0, a1) + (F(0),) * (rank - 2)
                c = c1_of_line(base, LineRep("complex", free))
                assert c.modulus == 1 and c.is_trivial


# ----------------------------------------------------------------------
# Whitney vectors
# ----------------------------------------------------------------------


def test_sw_vector_examples():
    lam1 = line_with_w1("K", (1, 0))
    lam2 = line_with_w1("K", (0, 1))
    vec = sw_vector(FlatBundleSpec("K", (lam1, lam1)))
    assert (vec.w1, vec.w2) == ((0, 0), 1)  # nonzero w2 with zero w1
    vec = sw_vector(FlatBundleSpec("K", (lam1, lam2)))
    assert (vec.w1, vec.w2) == ((1, 1), 1)
    vec = sw_vector(FlatBundleSpec("S1", (line_with_w1("S1", (1,)),)))
    assert vec.w1 == (1,) and vec.w2 is None
    with pytest.raises(DomainError):
        sw_vector(FlatBundleSpec("T3", (line_with_w1("T3", (1, 0, 0)),)))


def test_complex_summand_contributes_to_w2():
    line = LineRep("complex", (F(0),), (F(1, 2),))
    vec = sw_vector(FlatBundleSpec("K", (line,)))
    assert vec.w1 == (0, 0)  # complex summands are orientable
    assert vec.w2 == 1  # c1 mod 2 survives
    assert vec.c1 == (C1Class((1,), 2),)


def _random_line(rng, base):
    """A random real or complex character over the base; complex torsion
    angles have orders dividing the holonomy order, so c1 is defined."""
    if rng.random() < 0.5:
        return line_with_w1(base, tuple(rng.randint(0, 1) for _ in base_data(base).mod2_positions))
    data = base_data(base)
    k = data.holonomy_order
    free = []
    for _ in range(data.ab.group.free_rank):
        q = rng.randint(1, 12)
        free.append(F(rng.randrange(q), q))
    torsion = []
    for d in data.ab.group.torsion:
        step = gcd(d, k)
        torsion.append(F(rng.randrange(step), step))
    return LineRep("complex", tuple(free), tuple(torsion))


def test_sw_vector_matches_pairwise_whitney_sum():
    """The one-pass Whitney rule agrees with the pairwise sum over all
    pairs of real summands, on mixed real and complex sums."""
    rng = random.Random(SEED + 41)
    for base in ("S1", "T2", "K"):
        for _ in range(60):
            n = rng.randint(0, 30)
            bundle = FlatBundleSpec(base, tuple(_random_line(rng, base) for _ in range(n)))
            vec = sw_vector(bundle)
            assert (vec.w1, vec.w2, vec.c1) == sw_vector_pairwise(bundle)


def test_whitney_data_of_repeated_lines():
    """The lemma behind the bounded realizer search in classify: mod 2 and
    below degree three, (1 + L)^4 = 1 and (1 + L)^2 = 1 + L^2.  So four
    copies of a line change nothing, and two copies add L^2 to w2."""
    rng = random.Random(SEED + 42)
    for base in ("S1", "T2", "K"):
        table = cup_table(base)
        for bits in _line_classes(base):
            line = line_with_w1(base, bits)
            for _ in range(10):
                summands = tuple(_random_line(rng, base) for _ in range(rng.randint(0, 8)))
                vec = sw_vector(FlatBundleSpec(base, summands))
                four = sw_vector(FlatBundleSpec(base, summands + (line,) * 4))
                assert four == vec
                two = sw_vector(FlatBundleSpec(base, summands + (line,) * 2))
                assert (two.w1, two.c1) == (vec.w1, vec.c1)
                if vec.w2 is None:
                    assert two.w2 is None
                else:
                    assert two.w2 == (vec.w2 + table.cup(bits, bits)) % 2


def test_det_line_tracks_orientation_character():
    rng = random.Random(SEED + 40)
    for base in ("S1", "T2", "K"):
        d = len(base_data(base).mod2_positions)
        for _ in range(40):
            n = rng.randint(1, 4)
            summands = tuple(
                line_with_w1(base, tuple(rng.randint(0, 1) for _ in range(d)))
                for _ in range(n)
            )
            bundle = FlatBundleSpec(base, summands)
            assert w1_of_line(base, det_line(bundle)) == orientation_character(bundle)


def test_det_line_matches_the_angle_sum():
    """det_line, read off the orientation character, equals the real
    summands' angles added mod 1, on seeded bundles of real lines (every
    angle 0 or 1/2, and 0 on odd torsion) and complex lines over each of
    the 14 catalog bases."""
    rng = random.Random(SEED + 43)
    for base in CATALOG_NAMES:
        group = base_data(base).ab.group
        for _ in range(30):
            summands = []
            for _ in range(rng.randint(0, 6)):
                free = tuple(rng.choice((F(0), F(1, 2))) for _ in range(group.free_rank))
                tors = tuple(rng.choice((F(0), F(1, 2))) if d % 2 == 0 else F(0) for d in group.torsion)
                summands.append(LineRep("real", free, tors) if rng.random() < 0.7 else _random_line(rng, base))
            bundle = FlatBundleSpec(base, tuple(summands))
            assert det_line(bundle) == det_line_oracle(bundle), (base, summands)


# ----------------------------------------------------------------------
# structure results
# ----------------------------------------------------------------------


def test_cyclic_structure_results():
    lam2 = line_with_w1("K", (0, 1))
    theta = line_with_w1("K", (0, 0))
    res = cyclic_structure(FlatBundleSpec("K", (lam2, theta, theta)))
    assert res.trivial_rank == 2
    assert res.det_summand is not None
    assert w1_of_line("K", res.det_summand) == (0, 1)
    # orientable with cyclic holonomy: fully trivial
    line = LineRep("complex", (F(1, 3), F(0)))
    res = cyclic_structure(FlatBundleSpec("T2", (line,)))
    assert res.trivial_rank == 2 and res.det_summand is None


def test_cyclic_structure_rejects_klein_four_holonomy():
    b = FlatBundleSpec(
        "T2",
        (real_line(("1/2", 0)), real_line((0, "1/2"))),
    )
    assert len(total_holonomy(b)) == 4  # two independent reflections
    with pytest.raises(DomainError):
        cyclic_structure(b)


def test_tangent_structure():
    theta = line_with_w1("K", (0, 0))
    res = tangent_structure(FlatBundleSpec("K", (theta, theta)))
    assert not res.parallelizable
    assert res.split_line_w1 == (0, 1)
    assert res.total_dim == 4
    res = tangent_structure(FlatBundleSpec("T2", (line_with_w1("T2", (0, 0)),) * 2))
    assert res.parallelizable and res.split_line_w1 is None
    # odd-order holonomy: orientable, hence parallelizable
    res = tangent_structure(FlatBundleSpec("G3", (line_with_w1("G3", (0,)),)))
    assert res.parallelizable
    # twisting the fiber can cancel the base character
    lam2 = line_with_w1("K", (0, 1))
    res = tangent_structure(FlatBundleSpec("K", (lam2, theta)))
    assert res.parallelizable


def test_total_holonomy_orders():
    rng = random.Random(SEED + 41)
    for base, base_order in (("T2", 1), ("K", 2), ("G3", 3)):
        d = len(base_data(base).mod2_positions)
        for _ in range(25):
            n = rng.randint(0, 3)
            summands = tuple(
                line_with_w1(base, tuple(rng.randint(0, 1) for _ in range(d)))
                for _ in range(n)
            )
            order = len(total_holonomy(FlatBundleSpec(base, summands)))
            assert order % base_order == 0
            assert order in (1, 2, 4) or base == "G3"


def test_total_holonomy_walk_past_its_bound_raises(monkeypatch):
    monkeypatch.setattr(flatbundle, "_TOTAL_HOLONOMY_BOUND", 3)
    b = FlatBundleSpec("T2", (real_line(("1/2", 0)), real_line((0, "1/2"))))  # order 4
    with pytest.raises(DomainError, match="^total holonomy closure exceeded bound 3$"):
        total_holonomy(b)


def test_each_distinct_summand_is_validated_once(monkeypatch):
    """A bundle validates each distinct summand once; sw_vector and
    orientation_character read the classes of its real and complex
    summands without checking them again."""
    checked = []

    def counting_validate_line(base, rep):
        checked.append(rep)
        return validate_line(base, rep)

    monkeypatch.setattr(flatbundle, "validate_line", counting_validate_line)
    lam2, theta = line_with_w1("K", (0, 1)), line_with_w1("K", (0, 0))
    rot = LineRep("complex", (F(1, 3),), (F(1, 2),))
    bundle = FlatBundleSpec("K", (lam2, theta, rot, lam2, theta, rot, lam2))
    assert checked == [lam2, theta, rot]
    checked.clear()
    vec = sw_vector(bundle)
    assert (vec.w1, vec.w2, vec.c1) == ((0, 1), 0, (C1Class((1,), 2),) * 2)
    assert orientation_character(bundle) == (0, 1)
    assert checked == []
    with pytest.raises(DomainError, match="K has 1 free generators, got 2 angles"):
        FlatBundleSpec("K", (theta, real_line((0, 0), (0,)), theta))


def test_building_a_bundle_hashes_no_fraction(monkeypatch):
    """Summands are deduped by identity, so no Fraction angle is hashed."""
    hashes = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        hashes.append(self)
        return fraction_hash(self)

    lam = line_with_w1("T2", (1, 1))
    rot = LineRep("complex", (F(1, 3), F(2, 5)))
    twin = LineRep("complex", (F(1, 3), F(2, 5)))  # equal to rot, not the same object
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    bundle = FlatBundleSpec("T2", (lam, rot, lam, twin, rot) * 8)
    assert hashes == []
    assert bundle.rank == 8 * (1 + 2 + 1 + 2 + 2)


# ----------------------------------------------------------------------
# integer angle checks and per-base tables
# ----------------------------------------------------------------------


def _angle_grid() -> list[Fraction]:
    """Every p/q with q <= 12 and -2q <= p <= 2q (negatives, 0, 1/2, 1
    and values past 1), then seeded angles with larger numerators."""
    grid = {F(p, q) for q in range(1, 13) for p in range(-2 * q, 2 * q + 1)}
    rng = random.Random(SEED + 60)
    grid |= {F(rng.randint(-100, 100), rng.randint(1, 12)) for _ in range(300)}
    return sorted(grid)


def test_integer_angle_checks_match_fraction_comparisons():
    """LineRep accepts an angle exactly when 0 <= v < 1 (and, for a real
    line, v is 0 or 1/2), with the same messages; a real angle's w1 bit
    is v == 1/2."""
    for v in _angle_grid():
        for kind in ("complex", "real"):
            if not 0 <= v < 1:
                message = rf"^angle {v} outside \[0, 1\)$"
            elif kind == "real" and v not in (0, F(1, 2)):
                message = rf"^real character angle must be 0 or 1/2, got {v}$"
            else:
                message = None
            if message is not None:
                with pytest.raises(DomainError, match=message):
                    LineRep(kind, (v,))
                continue
            LineRep(kind, (v,))
            if kind == "real":
                bit = 1 if v == F(1, 2) else 0
                assert w1_of_line("S1", LineRep("real", (v,))) == (bit,)
                assert w1_of_line("K", LineRep("real", (F(0),), (v,))) == (bit, 0)


def test_c1_matches_the_fraction_product():
    """c1 read by integer division agrees with angle * k on every
    character of the torsion of every catalog base."""
    for base in CATALOG_NAMES:
        data = base_data(base)
        k, torsion = data.holonomy_order, data.ab.group.torsion
        free = tuple(F(j, 5) for j in range(data.ab.group.free_rank))
        for numerators in product(*(range(d) for d in torsion)):
            angles = tuple(F(p, d) for p, d in zip(numerators, torsion))
            rep = LineRep("complex", free, angles)
            scaled = [a * k for a in angles]
            assert all(x.denominator == 1 for x in scaled), base
            assert c1_of_line(base, rep) == C1Class(tuple(x.numerator % k for x in scaled), k), (base, angles)


def test_cup_tables_match_the_oracles():
    """For every ordered pair of classes, the table's sum is mod2_add's
    and its cup is the double loop's; the tables are read-only."""
    for base in ("S1", "T2", "K"):
        table = cup_table(base)
        classes = _line_classes(base)
        assert len(table.sums) == len(table.cups) == len(classes) ** 2
        for a in classes:
            for b in classes:
                assert table.sums[a, b] == mod2_add(a, b), (base, a, b)
                assert table.cup(a, b) == table.cups[a, b] == cup_oracle(table.pairing, a, b), (base, a, b)
        with pytest.raises(TypeError):  # one table serves every caller
            table.cups[classes[0], classes[0]] = 1


_FRACTION_OPS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__divmod__", "__rdivmod__", "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__pos__", "__neg__", "__abs__", "__hash__", "__eq__", "__lt__", "__gt__",
    "__le__", "__ge__", "__bool__",
)


def _clear_base_caches():
    """Empty the per-base caches, so a pin counts the cold path whatever
    ran before it in the process."""
    for cached in (base_data, cup_table, aut_action):
        cached.cache_clear()


def _count_fraction_operators(monkeypatch) -> list:
    """Record the name of every Fraction operator called, and every
    Fraction built, until the monkeypatch is undone."""
    calls = []

    def counting(name):
        method = getattr(Fraction, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        return staticmethod(counted) if name == "__new__" else counted

    for name in _FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, counting(name))
    return calls


def test_whitney_data_runs_no_fraction_operator(monkeypatch):
    """Performance pin: Whitney data, stable comparison and the class
    oracle on real bundles over S1, T2 and K build no Fraction and call
    no Fraction operator, from cold per-base caches.  The cup table
    refuses a pair it does not hold."""
    rng = random.Random(SEED + 61)
    half, zero = F(1, 2), F(0)
    reps = []
    for base, free, tors in (("S1", 1, 0), ("T2", 2, 0), ("K", 1, 1)):
        for _ in range(6):
            angles = [rng.choice((zero, half)) for _ in range(free + tors)]
            reps.append((base, angles[:free], angles[free:], rng.randint(1, 6)))
    _clear_base_caches()
    calls = _count_fraction_operators(monkeypatch)
    for base, free, tors, copies in reps:
        bundle = FlatBundleSpec(base, (LineRep("real", tuple(free), tuple(tors)),) * copies)
        vec = sw_vector(bundle)
        theta = line_with_w1(base, (0,) * len(vec.w1))
        assert stably_diffeomorphic(bundle, FlatBundleSpec(base, (theta,) + bundle.summands))
        diffeo_classes(base, len(base_data(base).mod2_positions) + copies + 1)
    monkeypatch.undo()
    assert calls == []
    table = cup_table("T2")
    with pytest.raises(DomainError, match="^class length does not match the cup table$"):
        table.cup((1, 0), (1,))
    with pytest.raises(DomainError, match="^class length does not match the cup table$"):
        table.cup((1, 0, 0), (1, 0))
    for a in ((2, 0), (1, -1), [1, 0]):
        with pytest.raises(DomainError, match="^a mod-2 class is not a tuple of bits 0 and 1$"):
            table.cup(a, (1, 0))


def test_cold_catalog_runs_no_fraction_operator(monkeypatch):
    """Performance pin: from cold per-base caches, the base data of all
    14 catalog groups, the cup tables and automorphism orbits of the
    surfaces, and the abelianizations of 20 mapping tori call no Fraction
    operator.  The one Fraction built is each mapping torus's screw
    translation 1/k, at k > 1."""
    rng = random.Random(SEED + 62)
    lattices = [make_glattice(IntMatrix([[1, 0], [0, 1]]))]
    lattices += [make_glattice(random_cyclotomic_lattice(rng, max_rank=8)[0]) for _ in range(19)]
    screws = sum(lat.order > 1 for lat in lattices)
    assert screws == 19
    _clear_base_caches()
    calls = _count_fraction_operators(monkeypatch)
    for name in CATALOG_NAMES:
        base_data(name)
    for base in flatbundle.SURFACES:
        cup_table(base)
        aut_action(base)
    for lat in lattices:
        abelianization(mapping_torus(lat))
    monkeypatch.undo()
    assert calls == ["__new__"] * screws
