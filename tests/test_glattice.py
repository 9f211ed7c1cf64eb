"""First cohomology of finite-order lattice automorphisms: the kernel/
image oracle against the counting formulas, on frozen examples and a
seeded random suite."""

import random

import pytest

from conftest import SEED, power_oracle, random_cyclotomic_lattice, random_finite_order_matrix, random_unimodular
from cflat import glattice
from cflat.errors import DomainError, InternalCheckError
from cflat.glattice import (
    GLattice,
    TrivialityCertificate,
    h1_card_formula,
    h1_card_prime_formula,
    h1_oracle,
    h1_report,
    h1_triviality_certificate,
    make_glattice,
)
from cflat.zlinalg import AbelianGroup, IntMatrix, inverse_unimodular, rank_mod, smith_normal_form

ROT3 = IntMatrix([[0, -1], [1, -1]])
ROT4 = IntMatrix([[0, -1], [1, 0]])
ROT6 = IntMatrix([[0, -1], [1, 1]])
SWAP = IntMatrix([[0, 1], [1, 0]])
NEG1 = IntMatrix([[-1]])


def test_make_glattice_validation():
    assert make_glattice(ROT3).order == 3
    assert make_glattice(ROT4).order == 4
    assert make_glattice(ROT6).order == 6
    assert make_glattice(IntMatrix.identity(3)).order == 1
    with pytest.raises(DomainError):
        make_glattice(IntMatrix([[1, 2, 3]]))
    with pytest.raises(DomainError):
        make_glattice(IntMatrix([[2]]))
    with pytest.raises(DomainError):
        make_glattice(IntMatrix([[1, 1], [0, 1]]))  # infinite order


def test_glattice_is_made_from_g0_alone():
    """rank and order are read off g0: they can be neither stated nor set."""
    with pytest.raises(TypeError):
        GLattice(rank=2, g0=ROT4, order=4)
    lat = GLattice(ROT4)
    assert (lat.rank, lat.order) == (2, 4) and lat == make_glattice(ROT4)
    for attr in ("rank", "order"):
        with pytest.raises(AttributeError):
            setattr(lat, attr, 2)


def test_glattice_checks_g0_with_the_messages_of_make_glattice():
    cases = [
        (IntMatrix([[2, 0], [0, 1]]), r"^matrix is not a lattice automorphism \(det != \+-1\)$"),
        (IntMatrix([[1, 2, 3]]), "^automorphism matrix must be square, got 1x3$"),
        (IntMatrix([[1, 1], [0, 1]]), "^matrix order exceeds bound 10000$"),
    ]
    for g0, message in cases:
        for make in (GLattice, make_glattice):
            with pytest.raises(DomainError, match=message):
                make(g0)


def test_make_glattice_takes_one_product_per_distinct_eigenvalue(monkeypatch):
    """The order is confirmed by evaluating psi(g0) by Horner's rule, psi
    the product of the distinct cyclotomic factors Phi_m, m > 1, of the
    characteristic polynomial, and one more product when Phi_1 divides it:
    deg psi + [Phi_1 divides], the degree of the minimal polynomial of the
    semisimple g0, which is never more than the rank.  The norm comes with
    the order, so h1_report takes no product for it."""
    products = [0]
    mul, norm = IntMatrix.__mul__, IntMatrix.norm

    def counting_mul(self, other):
        products[0] += 1
        return mul(self, other)

    def productless_norm(self, bound):
        before = products[0]
        out = norm(self, bound)
        assert products[0] == before
        return out

    rng = random.Random(SEED + 41)
    lattices = [random_cyclotomic_lattice(rng, max_rank=12) for _ in range(40)]
    lattices += [(IntMatrix(IntMatrix.identity(3).to_lists()), 1), (IntMatrix([]), 1)]  # fresh, no kept order
    # deg of the minimal polynomial: the rank of I, g0, ..., g0^n as vectors
    degrees = [
        smith_normal_form(IntMatrix([sum(power_oracle(g0, i).to_lists(), []) for i in range(g0.rows + 1)])).rank
        for g0, _ in lattices
    ]
    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(IntMatrix, "norm", productless_norm)
    for (g0, k), degree in zip(lattices, degrees):
        before = products[0]
        lat = make_glattice(g0)
        assert lat.order == k
        assert products[0] - before == degree <= g0.rows, (g0, k)
        h1_report(lat)
    assert max(k for _, k in lattices) >= 30


def test_h1_frozen_examples():
    assert h1_oracle(make_glattice(ROT3)) == AbelianGroup(0, (3,))
    assert h1_oracle(make_glattice(ROT4)) == AbelianGroup(0, (2,))
    assert h1_oracle(make_glattice(ROT6)).is_trivial
    assert h1_oracle(make_glattice(SWAP)).is_trivial
    assert h1_oracle(make_glattice(NEG1)) == AbelianGroup(0, (2,))
    assert h1_oracle(make_glattice(IntMatrix.identity(2))).is_trivial


def test_report_runs_one_rank_per_modulus(monkeypatch):
    """h1_report shares g0 - 1 and one rank mod p per prime across the
    counting formula, the prime-order formula and the certificate."""
    moduli = []

    def counting_rank_mod(m, p):
        moduli.append(p)
        return rank_mod(m, p)

    monkeypatch.setattr(glattice, "rank_mod", counting_rank_mod)
    for g0, expected in ((ROT3, [2, 3]), (ROT4, [2, 3]), (ROT6, [2, 3, 5]), (NEG1, [2, 3])):
        moduli.clear()
        h1_report(make_glattice(g0))
        assert sorted(moduli) == expected, g0
    moduli.clear()
    h1_report(make_glattice(IntMatrix.identity(2)))
    assert moduli == []


def test_counting_formula_examples():
    lat = make_glattice(ROT3)
    assert h1_card_formula(lat, 2) == 3
    assert h1_card_prime_formula(lat, 2) == 3
    lat = make_glattice(SWAP)
    assert h1_card_formula(lat, 3) == 1
    assert h1_card_prime_formula(lat, 3) == 1
    lat = make_glattice(IntMatrix.identity(4))
    assert h1_card_formula(lat, 5) == 1


def test_formula_prime_validation():
    lat = make_glattice(ROT3)
    with pytest.raises(DomainError):
        h1_card_formula(lat, 3)  # shares a factor with the order
    with pytest.raises(DomainError):
        h1_card_formula(lat, 4)  # not prime
    with pytest.raises(DomainError):
        h1_card_prime_formula(make_glattice(ROT4), 3)  # order 4 is not prime


def test_certificate_examples():
    assert (
        h1_triviality_certificate(make_glattice(SWAP), 3)
        is TrivialityCertificate.PROVEN_TRIVIAL
    )
    assert (
        h1_triviality_certificate(make_glattice(ROT3), 2)
        is TrivialityCertificate.INCONCLUSIVE
    )


def test_report_cross_checks():
    rep = h1_report(make_glattice(ROT3))
    assert rep.q_used == 2
    assert rep.cardinality == 3 == rep.formula_value == rep.prime_formula_value
    assert rep.certificate is TrivialityCertificate.INCONCLUSIVE
    rep = h1_report(make_glattice(SWAP))
    assert rep.group.is_trivial
    assert rep.certificate is TrivialityCertificate.PROVEN_TRIVIAL
    rep = h1_report(make_glattice(ROT4))
    assert rep.cardinality == 2
    assert rep.prime_formula_value is None  # order 4 is not prime


def _escape(kb, diff):
    raise DomainError("system has no integral solution")


# ((owner, name, wrong replacement), the call on a ROT3 lattice, the message);
# ROT3 has H^1 = Z/3
H1_FAULTS = [
    ((glattice, "solve_columns", _escape), h1_report, "escaped the norm kernel"),
    ((glattice, "cokernel", lambda coords: AbelianGroup(1)), h1_report, "must be finite"),
    ((GLattice, "fixed_dim", lambda self, p: 5), h1_report, r"fixed-point count 3 is not divisible by k\^fixdim = 243"),
    ((GLattice, "fixed_dim", lambda self, p: 0 if p == 3 else 1), lambda lat: h1_card_prime_formula(lat, 2), "dropped below the coprime reference: 0 < 1"),
    ((glattice, "h1_card_formula", lambda lat, q: 1), h1_report, "counting formula 1 disagrees with oracle 3"),
    ((glattice, "h1_card_prime_formula", lambda lat, q: 1), h1_report, "prime-order formula 1 disagrees with oracle 3"),
    ((glattice, "h1_triviality_certificate", lambda lat, q: TrivialityCertificate.PROVEN_TRIVIAL), h1_report, "certificate contradicts the oracle"),
]


def test_each_h1_cross_check_fires(monkeypatch):
    """Each internal check of the H^1 routes fires on one wrong value,
    and the routes agree again once the value is restored."""
    for patch, call, message in H1_FAULTS:
        with monkeypatch.context() as m:
            m.setattr(*patch)
            with pytest.raises(InternalCheckError, match=message):
                call(make_glattice(ROT3))
        assert h1_report(make_glattice(ROT3)).cardinality == 3


def test_coinvariants_torsion_is_h1():
    full = make_glattice(NEG1).coinvariant_group
    assert full == AbelianGroup(0, (2,))
    assert full.torsion_subgroup() == AbelianGroup(0, (2,))
    full = make_glattice(IntMatrix.identity(2)).coinvariant_group
    assert full == AbelianGroup(2, ())
    assert full.torsion_subgroup().is_trivial


def test_random_suite_all_routes_agree():
    """h1_report re-checks oracle vs formula vs certificate internally;
    here we also force a second auxiliary prime."""
    rng = random.Random(SEED + 20)
    for _ in range(120):
        lat = make_glattice(random_finite_order_matrix(rng))
        rep = h1_report(lat)
        q2 = next(
            q for q in (2, 3, 5, 7, 11, 13) if lat.order % q and q != rep.q_used
        )
        assert h1_card_formula(lat, q2) == rep.cardinality
        full = lat.coinvariant_group
        assert full.torsion_subgroup() == rep.group
        assert full.torsion == rep.group.torsion


def test_h1_invariant_under_conjugation():
    rng = random.Random(SEED + 21)
    for _ in range(60):
        g = random_finite_order_matrix(rng, max_rank=4)
        w = random_unimodular(rng, g.rows)
        conj = w * g * inverse_unimodular(w)
        assert h1_oracle(make_glattice(conj)) == h1_oracle(make_glattice(g))


def test_certificate_never_contradicts_oracle():
    rng = random.Random(SEED + 22)
    primes = (2, 3, 5, 7, 11)
    for _ in range(150):
        lat = make_glattice(random_finite_order_matrix(rng))
        group = h1_oracle(lat)
        for q in primes:
            if lat.order % q == 0:
                continue
            cert = h1_triviality_certificate(lat, q)
            if cert is TrivialityCertificate.PROVEN_TRIVIAL:
                assert group.is_trivial


def test_report_rejects_bad_auxiliary_prime():
    with pytest.raises(DomainError):
        h1_report(make_glattice(ROT6), q=2)
    with pytest.raises(DomainError):
        h1_report(make_glattice(ROT6), q=9)
