"""Acceptance gate: one test per criterion, each timed against its
budget and printing a single verdict line (run with ``-s`` to see the
lines as they pass).

Criterion 5 deliberately encodes a count disagreement: over the flat
Klein bottle in the stable range the orbit oracle finds six classes
where the published table lists five. The oracle's internal
consistency checks all pass, every published invariant pair is among
the six, and the extra Whitney pair (beta, top class) is explicitly
realized — so the gate asserts the discrepancy itself, as data, and
fails only if it ever changes shape.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

from conftest import (
    AUT_MOD2_GENERATORS,
    SEED,
    mod2_closure,
    random_finite_order_matrix,
    random_matrix,
)
from cflat.bieberbach import catalog_group
from cflat.classify import (
    aut_action,
    circle_canonical,
    classification_report,
    dim4_table,
    inequivalent_family,
    klein_rho_canonical,
    torus_moduli_canonical,
    affine_equivalent,
)
from cflat.flatbundle import (
    FlatBundleSpec,
    LineRep,
    c1_of_line,
    cup_table,
    cyclic_structure,
    tangent_w1,
)
from cflat.glattice import (
    TrivialityCertificate,
    h1_card_formula,
    h1_card_prime_formula,
    h1_oracle,
    h1_report,
    h1_triviality_certificate,
    make_glattice,
)
from cflat.bieberbach import tors_h1_two_ways
from cflat.zlinalg import AbelianGroup, smith_normal_form

F = Fraction


def _verdict(number, budget, started, label):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"PASS criterion {number:02d} ({elapsed:.2f}s < {budget:.0f}s): {label}")


def test_criterion_01_smith_property_suite():
    started = time.monotonic()
    rng = random.Random(SEED + 100)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, 20)
        dec = smith_normal_form(m)
        dec.check()  # u m v = d, unimodular witnesses, diagonal d
        divs = dec.divisors
        assert all(d > 0 for d in divs)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
    _verdict(1, 5.0, started, "1000-matrix Smith witness and divisor-chain sweep")


def test_criterion_02_cohomology_formula_agreement():
    started = time.monotonic()
    rng = random.Random(SEED + 101)
    for _ in range(200):
        lat = make_glattice(random_finite_order_matrix(rng))
        card = h1_oracle(lat).cardinality()
        qs = [q for q in (2, 3, 5, 7, 11, 13) if lat.order % q][:2]
        for q in qs:
            assert h1_card_formula(lat, q) == card
        if lat.order != 1 and all(lat.order % p for p in range(2, lat.order)):
            for q in qs:
                assert h1_card_prime_formula(lat, q) == card
    _verdict(2, 10.0, started, "counting formula equals kernel/image oracle, 200 lattices, two primes each")


def test_criterion_03_torsion_two_ways():
    started = time.monotonic()
    rng = random.Random(SEED + 102)
    for _ in range(60):
        lat = make_glattice(random_finite_order_matrix(rng, max_rank=4))
        a, b = tors_h1_two_ways(lat)
        assert a == b
    from cflat.bieberbach import abelianization

    assert abelianization(catalog_group("K")).group.torsion == (2,)
    assert abelianization(catalog_group("G2")).group.torsion == (2, 2)
    _verdict(3, 5.0, started, "screw-presentation torsion equals coinvariant torsion, plus catalog spot checks")


def test_criterion_04_certificate_soundness():
    started = time.monotonic()
    rng = random.Random(SEED + 103)
    proven = 0
    for _ in range(150):
        lat = make_glattice(random_finite_order_matrix(rng))
        trivial = h1_oracle(lat).is_trivial
        for q in (2, 3, 5, 7, 11):
            if lat.order % q == 0:
                continue
            cert = h1_triviality_certificate(lat, q)
            if cert is TrivialityCertificate.PROVEN_TRIVIAL:
                proven += 1
                assert trivial
    assert proven > 0  # the certificate does fire on this suite
    _verdict(4, 5.0, started, "vanishing certificate never contradicts the oracle")


def test_criterion_05_class_count_tables():
    started = time.monotonic()
    for base, dim, count in (("S1", 2, 2), ("S1", 6, 2), ("T2", 4, 3), ("T2", 5, 4), ("K", 4, 5)):
        rep = classification_report(base, dim)
        assert rep.oracle_count == count == rep.published_count, (base, dim)
    stable = None
    for dim in (5, 6, 7, 8):
        rep = classification_report("K", dim)
        values = {(c.w1, c.w2) for c in rep.classes}
        if stable is None:
            stable = values
        assert values == stable  # the table stops changing
        assert rep.oracle_count == 6
        assert rep.published_count == 5 and rep.count_matches is False
    assert ((0, 1), 1) in stable  # the realized pair the published list lacks
    _verdict(5, 1.0, started, "class counts 2/3/4/5 reproduced; stable flat-Klein-bottle count 6 vs published 5, reported as data")


def test_criterion_06_dimension_four_table():
    started = time.monotonic()
    rows = dim4_table()
    assert len(rows) == 14
    assert len({e.label for e in rows}) == 14
    assert [e.fiber_dim for e in rows].count(1) == 10
    _verdict(6, 1.0, started, "dimension-4 table has exactly the fourteen classes")


def test_criterion_07_canonical_form_invariance():
    started = time.monotonic()
    rng = random.Random(SEED + 104)
    torus_moves = (
        lambda st: ((-st[1]) % 1, st[0]),
        lambda st: ((st[0] + st[1]) % 1, st[1]),
        lambda st: ((-st[0]) % 1, st[1]),
    )
    rho_moves = (
        lambda st: ((-st[0]) % 1, st[1]),
        lambda st: (st[0], (-st[1]) % 1),
        lambda st: (st[0], (st[1] + st[0]) % 1),
    )
    def draw_pair():
        while True:
            q1, q2 = rng.randint(1, 12), rng.randint(1, 12)
            pair = (F(rng.randrange(q1), q1), F(rng.randrange(q2), q2))
            if lcm(pair[0].denominator, pair[1].denominator) <= 30:
                return pair

    for _ in range(500):
        pair = draw_pair()
        for canonical, moves in ((torus_moduli_canonical, torus_moves), (klein_rho_canonical, rho_moves)):
            canon = canonical(pair)
            assert canonical(canon) == canon
            moved = pair
            for _ in range(rng.randint(1, 5)):
                moved = rng.choice(moves)(moved)
            assert canonical(moved) == canon
    half = torus_moduli_canonical((F(1, 2), F(0)))
    assert half == torus_moduli_canonical((F(0), F(1, 2)))
    assert half == torus_moduli_canonical((F(1, 2), F(1, 2)))
    assert klein_rho_canonical((F(1, 2), F(1, 2))) == klein_rho_canonical((F(1, 2), F(0)))
    assert circle_canonical(F(2, 3)) == circle_canonical(F(1, 3))
    _verdict(7, 5.0, started, "canonical forms idempotent and orbit-invariant, 500 seeded pairs")


def test_criterion_08_inequivalent_family():
    started = time.monotonic()
    fam = inequivalent_family("T2", 10)
    assert len(fam) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert not affine_equivalent(fam[i], fam[j]), (i, j)
    _verdict(8, 5.0, started, "ten-member family pairwise affinely inequivalent (45 searches)")


def test_criterion_09_chern_triviality_over_tori():
    started = time.monotonic()
    angles = sorted(
        {F(p, q) for q in range(1, 7) for p in range(q)}
    )
    assert len(angles) == 12
    for a0 in angles:
        for a1 in angles:
            c = c1_of_line("T2", LineRep("complex", (a0, a1)))
            assert c.modulus == 1 and c.is_trivial
            res = cyclic_structure(FlatBundleSpec("T2", (LineRep("complex", (a0, a1)),)))
            assert res.trivial_rank == 2 and res.det_summand is None
            for a2 in angles:
                c = c1_of_line("T3", LineRep("complex", (a0, a1, a2)))
                assert c.modulus == 1 and c.is_trivial
    _verdict(9, 10.0, started, "every flat complex line over the 2- and 3-torus has trivial first Chern class and trivial bundle structure")


def test_criterion_10_cup_tables_and_actions():
    started = time.monotonic()
    for base in ("S1", "T2", "K"):
        table = cup_table(base)
        n = len(table.pairing)
        for i in range(n):
            for j in range(n):
                assert table.pairing[i][j] == table.pairing[j][i]
        if base != "S1":
            for code in range(1, 1 << n):
                v = tuple((code >> t) & 1 for t in range(n))
                assert any(
                    table.cup(v, tuple(1 if t == j else 0 for t in range(n)))
                    for j in range(n)
                )
        w1t = tangent_w1(base)
        assert table.cup(w1t, w1t) == 0
    # the groups the hand-written mod-2 generators generate: all of
    # GL(2, Z/2) on the torus; each orbit aut_action keeps divides its order
    orders = {b: len(mod2_closure(AUT_MOD2_GENERATORS[b])) for b in ("T2", "K", "S1")}
    assert orders == {"T2": 6, "K": 2, "S1": 1}
    for base, order in orders.items():
        assert all(order % len(orb) == 0 for orb in aut_action(base).orbits.values()), base
    _verdict(10, 2.0, started, "cup tables symmetric, nondegenerate, Wu-consistent; automorphism actions have the right orders")
