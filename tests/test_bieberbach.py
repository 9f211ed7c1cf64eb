"""Catalog group homology against hand-written presentation matrices
and the classically known values, plus the splitting machinery."""

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    SEED,
    _block_diag,
    _companion,
    _CYCLOTOMIC,
    affine_inverse,
    affine_product,
    cyclic_relator_oracle,
    functional_on_basis_oracle,
    klein_four_relator_oracle,
    mapping_torus_oracle,
    orbit,
    random_cyclotomic_lattice,
    random_finite_order_matrix,
    random_matrix,
    random_unimodular,
    relation_matrix_oracle,
)
from cflat import bieberbach
from cflat.bieberbach import (
    AbelianizationData,
    AffineMap,
    BieberbachGroupSpec,
    CATALOG_NAMES,
    CyclicSplitting,
    H1Element,
    _holonomy_relators,
    _lattice_vector,
    abelianization,
    catalog,
    catalog_group,
    cyclic_splitting,
    holonomy_group,
    is_holonomy_cyclic,
    mapping_torus,
    tors_h1_two_ways,
    translation_map,
)
from cflat.errors import DomainError, InternalCheckError
from cflat.flatbundle import FlatBundleSpec, LineRep
from cflat.glattice import GLattice, h1_oracle, h1_report, make_glattice
from cflat.zlinalg import AbelianGroup, IntMatrix, backend, cokernel, inverse_unimodular, matrix

# name -> (first homology, holonomy order, holonomy cyclic)
KNOWN = {
    "S1": (AbelianGroup(1, ()), 1, True),
    "T2": (AbelianGroup(2, ()), 1, True),
    "T3": (AbelianGroup(3, ()), 1, True),
    "K": (AbelianGroup(1, (2,)), 2, True),
    "G1": (AbelianGroup(3, ()), 1, True),
    "G2": (AbelianGroup(1, (2, 2)), 2, True),
    "G3": (AbelianGroup(1, (3,)), 3, True),
    "G4": (AbelianGroup(1, (2,)), 4, True),
    "G5": (AbelianGroup(1, ()), 6, True),
    "G6": (AbelianGroup(0, (4, 4)), 4, False),
    "B1": (AbelianGroup(2, (2,)), 2, True),
    "B2": (AbelianGroup(2, ()), 2, True),
    "B3": (AbelianGroup(1, (2, 2)), 4, False),
    "B4": (AbelianGroup(1, (4,)), 4, False),
}


def test_catalog_is_complete():
    assert CATALOG_NAMES == tuple(KNOWN)
    assert set(catalog()) == set(KNOWN)
    with pytest.raises(DomainError):
        catalog_group("X99")


def test_catalog_homology_and_holonomy():
    for name, (h1, order, cyclic) in KNOWN.items():
        spec = catalog_group(name)
        assert abelianization(spec).group == h1, name
        assert len(holonomy_group(spec)) == order, name
        assert is_holonomy_cyclic(spec) is cyclic, name


def test_homology_against_hand_presentations():
    """Relation matrices written out by hand from the generators'
    actions and the lifted squares/commutator, one per flavor:
    one screw generator (K, G2) and two (G6, B4)."""
    hand = {
        "K": [[-2, 0, 0], [0, 0, -1], [0, 0, 2]],
        "G2": [[0, 0, 0, -1], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 2]],
        "G6": [
            [0, 0, -2, 0, -1, 0, -1],
            [-2, 0, 0, 0, 0, -1, 1],
            [0, -2, 0, -2, 0, 0, 1],
            [0, 0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 0, 2, 0],
        ],
        "B4": [
            [0, 0, 0, -1, 0, 0],
            [-2, 0, 0, 0, -1, 1],
            [0, -2, -2, 0, 0, 1],
            [0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 2, 0],
        ],
    }
    for name, rows in hand.items():
        assert cokernel(IntMatrix(rows)) == abelianization(catalog_group(name)).group


def test_projection_kills_relations():
    for name in CATALOG_NAMES:
        ab = abelianization(catalog_group(name))
        rel = ab.relation_matrix
        for j in range(rel.cols):
            img = ab.project(rel.column(j))
            assert not any(img.free) and not any(img.torsion), name


def test_affine_map_algebra():
    """The product and inverse of the test oracles are a group's, and an
    integral translation reads back as integers."""
    a = AffineMap(IntMatrix([[0, -1], [1, 0]]), (Fraction(1, 4), Fraction(0)))
    b = AffineMap(IntMatrix([[1, 0], [0, -1]]), (Fraction(0), Fraction(1, 2)))
    ident = translation_map(2, (0, 0))
    assert affine_product(a, affine_inverse(a)) == ident == affine_product(affine_inverse(a), a)
    assert affine_product(affine_product(a, b), affine_inverse(a)) == affine_product(a, b, affine_inverse(a))
    assert translation_map(2, (1, 2)).integral_translation() == (1, 2)
    with pytest.raises(DomainError):
        translation_map(2, (Fraction(1, 2), 0)).integral_translation()


def test_spec_validation():
    with pytest.raises(DomainError):
        BieberbachGroupSpec(
            "bad", 2, (AffineMap(IntMatrix([[2, 0], [0, 1]]), (Fraction(0),) * 2),)
        )
    with pytest.raises(DomainError):
        # a listed pure translation must be integral
        BieberbachGroupSpec("bad", 1, (translation_map(1, (Fraction(1, 2),)),))


def test_listed_integral_translations_are_absorbed():
    base = catalog_group("K")
    extra = translation_map(2, (3, -1))
    widened = BieberbachGroupSpec("Kplus", 2, base.gens + (extra,))
    assert abelianization(widened).group == abelianization(base).group


def test_mapping_torus_homology():
    rng = random.Random(SEED + 30)
    for _ in range(50):
        lat = make_glattice(random_finite_order_matrix(rng, max_rank=4))
        full = lat.coinvariant_group
        spec = mapping_torus(lat)
        assert spec.dim == lat.rank + 1
        got = abelianization(spec).group
        assert got == AbelianGroup(full.free_rank + 1, full.torsion)


def test_mapping_torus_matches_the_validating_construction(monkeypatch):
    """The spec BieberbachGroupSpec._of builds from checked parts equals
    the one built through the validating constructors, and calls no
    IntMatrix constructor.  The public constructor, given its generators,
    sorts them into the same screws and integer vectors and states the
    same relators, so every check _of skips would have passed: at k = 1,
    on the 1x1 reflection and on random lattices.  The relators equal the
    k-fold affine word."""
    rng = random.Random(SEED + 31)
    lattices = [make_glattice(IntMatrix([[1, 0], [0, 1]])), make_glattice(IntMatrix([[-1]]))]
    lattices += [make_glattice(random_cyclotomic_lattice(rng, max_rank=10)[0]) for _ in range(49)]
    expected = [mapping_torus_oracle(lat) for lat in lattices]
    inits = []
    init = IntMatrix.__init__

    def counting_init(self, entries):
        inits.append(1)
        init(self, entries)

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    built = [mapping_torus(lat) for lat in lattices]
    monkeypatch.undo()
    assert inits == []
    assert [lat.order for lat in lattices[:2]] == [1, 2]
    for got, want in zip(built, expected):
        assert (got.name, got.dim, got.gens) == (want.name, want.dim, want.gens)
        checked = BieberbachGroupSpec(got.name, got.dim, got.gens)
        assert (got._screws, got._translations) == (checked._screws, checked._translations), got.name
        assert _holonomy_relators(got) == _holonomy_relators(checked), got.name
        assert _holonomy_relators(got) == ([cyclic_relator_oracle(got)] if got._screws else []), got.name


def test_an_h1_query_reads_no_translation_back(monkeypatch):
    """A mapping torus hands its spec the integer vectors of its
    generators and its cyclic relator as a lattice vector, so an h1 query
    (the report, the mapping torus's holonomy and torsion two ways) runs
    integral_translation on nothing, at k = 1 and at k > 1.  The spec's
    vectors are those of the validating construction."""
    rng = random.Random(SEED + 32)
    lattices = [make_glattice(IntMatrix([[1, 0], [0, 1]]))]
    lattices += [make_glattice(random_cyclotomic_lattice(rng, max_rank=8)[0]) for _ in range(20)]
    expected = [mapping_torus_oracle(lat)._translations for lat in lattices]
    read = []
    method = AffineMap.integral_translation

    def recording(self):
        read.append(self)
        return method(self)

    monkeypatch.setattr(AffineMap, "integral_translation", recording)
    for lat, want in zip(lattices, expected):
        read.clear()
        h1_report(lat)
        spec = mapping_torus(lat)
        holonomy_group(spec)
        tors_h1_two_ways(lat)
        assert read == [], lat.order
        assert spec._translations == want


def test_a_lattice_made_by_hand_reports_what_make_glattice_reports():
    """A g0 that was once stated with a wrong order (the unipotent
    [[1,1],[0,1]], the order-4 rotation, the swap) made h1_report raise
    InternalCheckError.  Now g0 alone fixes the order: the unipotent one
    is refused as an input fault, and the others report, and build their
    mapping tori, as through make_glattice."""
    with pytest.raises(DomainError, match="^matrix order exceeds bound 10000$"):
        GLattice(IntMatrix([[1, 1], [0, 1]]))
    for rows in ([[0, -1], [1, 0]], [[0, 1], [1, 0]]):
        lat, want = GLattice(IntMatrix(rows)), make_glattice(IntMatrix(rows))
        assert h1_report(lat) == h1_report(want)
        assert tors_h1_two_ways(lat) == tors_h1_two_ways(want)
        got, spec = mapping_torus(lat), mapping_torus(want)
        assert (got.name, got.dim, got.gens) == (spec.name, spec.dim, spec.gens)


def test_matrices_lattices_specs_and_bundles_copy_and_pickle():
    """copy, deepcopy and a pickle round trip give an equal object with
    the same hash that still refuses attribute writes; a lattice copied
    after its report reports the same again."""
    lat = make_glattice(IntMatrix([[0, -1], [1, 0]]))
    report = h1_report(lat)
    tors_h1_two_ways(lat)
    bundle = FlatBundleSpec("K", (LineRep("real", (Fraction(1, 2),), (Fraction(0),)),))
    cases = [(IntMatrix([[0, -1], [1, 0]]), "rows"), (lat, "g0"), (catalog_group("G3"), "name"), (bundle, "base")]
    for obj, attr in cases:
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
            with pytest.raises(AttributeError):
                setattr(twin, attr, getattr(obj, attr))
            if isinstance(obj, GLattice):
                assert h1_report(twin) == report


def test_h1_query_builds_each_piece_once_per_lattice(monkeypatch):
    """The h1 query of the benchmark -- make_glattice, h1_report, the
    holonomy of the mapping torus and the torsion two ways -- factors one
    characteristic polynomial, takes one norm, reduces g0 - 1 once without
    witnesses and walks the holonomy once, per lattice; its mapping tori
    are built unchecked, with no run of the spec's __post_init__."""
    rng = random.Random(SEED + 40)
    matrices = [IntMatrix([[-1]]), IntMatrix([[1, 0], [0, 1]])]  # not the shared identity, which keeps its order
    matrices += [random_cyclotomic_lattice(rng, max_rank=8)[0] for _ in range(32)]
    charpolys, norms, specs, walks, reduced, lists_of = [], [], [], [], [], {}
    charpoly, norm, post_init = matrix._charpoly, IntMatrix.norm, BieberbachGroupSpec.__post_init__
    to_lists, snf_inplace, walk = IntMatrix.to_lists, backend.snf_inplace, bieberbach.orbit

    def counting_charpoly(m):
        charpolys.append(1)
        return charpoly(m)

    def counting_norm(self, bound):
        norms.append(1)
        return norm(self, bound)

    def counting_post_init(self):
        specs.append(1)
        post_init(self)

    def counting_orbit(*args):
        walks.append(1)
        return walk(*args)

    def tracked_to_lists(self):
        rows = to_lists(self)
        lists_of[id(rows)] = (rows, self)
        return rows

    def tracked_snf_inplace(m, nr, nc):
        if id(m) in lists_of:  # the bare rows of a matrix: record which one
            reduced.append(lists_of[id(m)][1])
        return snf_inplace(m, nr, nc)

    monkeypatch.setattr(matrix, "_charpoly", counting_charpoly)
    monkeypatch.setattr(IntMatrix, "norm", counting_norm)
    monkeypatch.setattr(BieberbachGroupSpec, "__post_init__", counting_post_init)
    monkeypatch.setattr(IntMatrix, "to_lists", tracked_to_lists)
    monkeypatch.setattr(backend, "snf_inplace", tracked_snf_inplace)
    monkeypatch.setattr(bieberbach, "orbit", counting_orbit)
    for g0 in matrices:
        for seen in (charpolys, norms, specs, walks, reduced):
            seen.clear()
        lists_of.clear()
        lat = make_glattice(g0)
        h1_report(lat)
        holonomy = holonomy_group(mapping_torus(lat))
        via_spec, via_coinvariants = tors_h1_two_ways(lat)
        assert len(holonomy) == lat.order and via_spec == via_coinvariants
        differences = sum(m is lat.difference for m in reduced)
        assert (len(charpolys), len(norms), differences, len(specs), len(walks)) == (1, 1, 1, 0, 1), g0


def test_h1_query_takes_no_bareiss_determinant(monkeypatch):
    """The order of g0 settles det g0 = +-1, and the mapping torus's block
    g0 (+) 1 carries det g0: the h1 query runs no elimination for a
    determinant."""
    rng = random.Random(SEED + 42)
    matrices = [random_cyclotomic_lattice(rng, max_rank=8)[0] for _ in range(30)]
    dets = []
    det_inplace = backend.det_inplace

    def counting_det_inplace(m):
        dets.append(len(m))
        return det_inplace(m)

    monkeypatch.setattr(backend, "det_inplace", counting_det_inplace)
    for g0 in matrices:
        lat = make_glattice(g0)
        h1_report(lat)
        holonomy_group(mapping_torus(lat))
        tors_h1_two_ways(lat)
    assert dets == []


def test_mapping_torus_of_reflection_is_klein():
    spec = mapping_torus(make_glattice(IntMatrix([[-1]])))
    assert abelianization(spec).group == KNOWN["K"][0]
    assert len(holonomy_group(spec)) == 2


def test_cyclic_relator_is_the_holonomy_norm():
    """With one screw alpha = (L, t) the relator alpha^k is ([k], N t), N
    the sum of the holonomy group; it equals the k-fold affine word."""
    rng = random.Random(SEED + 33)
    specs = [catalog_group(name) for name in ("K", "G2", "G3", "G4", "G5", "B1", "B2")]
    specs += [
        mapping_torus(make_glattice(random_finite_order_matrix(rng, max_rank=6)))
        for _ in range(50)
    ]
    for spec in specs:
        assert _holonomy_relators(spec) == [cyclic_relator_oracle(spec)], spec.name


# name -> the lifted holonomy relators, (exponents, lattice vector), as the
# affine words gave them
RECORDED_RELATORS = {
    "S1": [],
    "T2": [],
    "T3": [],
    "K": [([2], (0, 1))],
    "G1": [],
    "G2": [([2], (1, 0, 0))],
    "G3": [([3], (1, 0, 0))],
    "G4": [([4], (1, 0, 0))],
    "G5": [([6], (1, 0, 0))],
    "G6": [([2, 0], (1, 0, 0)), ([0, 2], (0, 1, 0)), ([0, 0], (1, -1, -1))],
    "B1": [([2], (0, 1, 0))],
    "B2": [([2], (0, 0, 1))],
    "B3": [([2, 0], (1, 0, 0)), ([0, 2], (0, 1, 0)), ([0, 0], (0, -1, 0))],
    "B4": [([2, 0], (1, 0, 0)), ([0, 2], (0, 1, 0)), ([0, 0], (0, -1, -1))],
}


def test_catalog_relators_match_recorded_values():
    assert tuple(RECORDED_RELATORS) == CATALOG_NAMES
    for name, expected in RECORDED_RELATORS.items():
        assert _holonomy_relators(catalog_group(name)) == expected, name


def _relators_or_error(relators, spec):
    try:
        return relators(spec)
    except DomainError as exc:
        return str(exc)


def test_klein_four_relators_match_the_affine_words():
    """With two commuting involutions a and b the relators a^2, b^2 and
    a b a^-1 b^-1 equal the affine words, or raise the same error when a
    lift is not integral: on G6, B3, B4 and on seeded specs whose linear
    parts are distinct sign diagonals conjugated by one unimodular
    matrix."""
    rng = random.Random(SEED + 35)
    specs = [catalog_group(name) for name in ("G6", "B3", "B4")]
    while len(specs) < 63:
        n = rng.randint(2, 4)
        d1, d2 = ([rng.choice((1, -1)) for _ in range(n)] for _ in range(2))
        if d1 == d2 or min(d1) == 1 or min(d2) == 1:
            continue
        w = random_unimodular(rng, n)
        lattice = tuple(translation_map(n, [int(i == j) for j in range(n)]) for i in range(n))
        screws = tuple(
            AffineMap(
                w * IntMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]) * inverse_unimodular(w),
                tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 2, 4))) for _ in range(n)),
            )
            for d in (d1, d2)
        )
        specs.append(BieberbachGroupSpec(f"V{len(specs)}", n, lattice + screws))
    outcomes = []
    for spec in specs:
        want = _relators_or_error(klein_four_relator_oracle, spec)
        assert _relators_or_error(_holonomy_relators, spec) == want, spec.name
        outcomes.append(type(want))
    assert outcomes[:3] == [list] * 3 and 10 < outcomes.count(str) < 50


def test_a_relator_that_is_not_integral_is_refused():
    """A lift off the lattice raises the DomainError of
    integral_translation, for the one screw's N t and for each of the
    three Klein four-group relators."""
    lattice2 = (translation_map(2, (1, 0)), translation_map(2, (0, 1)))
    lattice3 = tuple(translation_map(3, [int(i == j) for j in range(3)]) for i in range(3))
    flip_y = AffineMap(IntMatrix([[-1, 0], [0, 1]]), (0, Fraction(1, 4)))
    half = Fraction(1, 2)
    a_x = IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    b_y = IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    cases = [
        (lattice2 + (flip_y,), "translation 1/2 is not integral"),
        (lattice3 + (AffineMap(a_x, (Fraction(1, 4), half, 0)), AffineMap(b_y, (0, half, half))), "translation 1/2 is not integral"),
        (lattice3 + (AffineMap(a_x, (half, half, 0)), AffineMap(b_y, (0, Fraction(3, 4), half))), "translation 3/2 is not integral"),
        (lattice3 + (AffineMap(a_x, (half, half, Fraction(1, 4))), AffineMap(b_y, (0, half, half))), "translation -1/2 is not integral"),
    ]
    for gens, message in cases:
        spec = BieberbachGroupSpec("X", gens[0].dim, gens)
        oracle = cyclic_relator_oracle if len(spec.screw_gens()) == 1 else klein_four_relator_oracle
        assert _relators_or_error(oracle, spec) == message
        with pytest.raises(DomainError, match=f"^{message}$"):
            abelianization(spec)


def test_mapping_torus_homology_makes_no_affine_product(monkeypatch):
    """Every relator is a lattice vector in closed form: abelianizing a
    mapping torus or a Klein four-group spec builds no affine map."""
    made = []
    post_init = AffineMap.__post_init__

    def counting_post_init(self):
        made.append(1)
        post_init(self)

    rng = random.Random(SEED + 34)
    specs = [mapping_torus(make_glattice(random_finite_order_matrix(rng, max_rank=4))) for _ in range(10)]
    specs += [BieberbachGroupSpec(g.name, g.dim, g.gens) for g in map(catalog_group, ("G6", "B3", "B4"))]
    monkeypatch.setattr(AffineMap, "__post_init__", counting_post_init)
    for spec in specs:
        abelianization(spec)
    assert made == []


def test_mapping_torus_homology_walks_no_holonomy(monkeypatch):
    """A mapping torus lists its cyclic relator ([k], e_(n+1)) in closed
    form, so abelianizing it walks no holonomy; holonomy_group still
    lists the k powers, identity first."""
    walks = []
    walk = bieberbach.orbit

    def counting_orbit(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(bieberbach, "orbit", counting_orbit)
    rng = random.Random(SEED + 37)
    for _ in range(20):
        g0, k = random_cyclotomic_lattice(rng, max_rank=8)
        spec = mapping_torus(make_glattice(g0))
        abelianization(spec)
        assert walks == []
        (screw,) = spec.screw_gens()
        powers = [IntMatrix.identity(spec.dim)]
        for _ in range(k - 1):
            powers.append(powers[-1] * screw.linear)
        assert holonomy_group(spec) == tuple(powers)
        walks.clear()


def test_one_screw_past_the_holonomy_bound_raises(monkeypatch):
    monkeypatch.setattr(bieberbach, "_HOLONOMY_BOUND", 3)
    g4 = catalog_group("G4")  # holonomy of order 4
    fresh = BieberbachGroupSpec(g4.name, g4.dim, g4.gens)
    with pytest.raises(DomainError, match="^matrix order exceeds bound 3$"):
        abelianization(fresh)


def test_lattice_vector_matches_the_fraction_formula():
    """The sum of m t over one or two terms, in integers over the common
    denominator, equals the Fraction sum; a sum that is not integral
    raises at its first fractional entry."""
    rng = random.Random(SEED + 38)
    integral = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(0, 5)
        terms = []
        for _ in range(rng.randint(1, 2)):
            m = random_matrix(rng, rows, cols, 4)
            terms.append((m, tuple(Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 4, 6))) for _ in range(cols))))
        expected = [
            sum((Fraction(m[i, j]) * vec[j] for m, vec in terms for j in range(cols)), Fraction(0)) for i in range(rows)
        ]
        fractional = [t for t in expected if t.denominator != 1]
        if fractional:
            with pytest.raises(DomainError, match=f"^translation {fractional[0]} is not integral$"):
                _lattice_vector(*terms)
        else:
            integral += 1
            got = _lattice_vector(*terms)
            assert got == tuple(expected) and all(type(t) is int for t in got)
    assert 50 < integral < 250


def test_unimodular_inverse_is_built_only_when_read(monkeypatch):
    """The abelianization of a mapping torus inverts no Smith witness;
    the splitting, which reads functionals on the invariant basis, does."""
    calls = []
    invert = bieberbach.inverse_unimodular

    def counting_inverse(m):
        calls.append(1)
        return invert(m)

    monkeypatch.setattr(bieberbach, "inverse_unimodular", counting_inverse)
    rng = random.Random(SEED + 36)
    specs = [mapping_torus(make_glattice(random_finite_order_matrix(rng, max_rank=4))) for _ in range(10)]
    for spec in specs:
        abelianization(spec)
    assert calls == []
    for spec in specs:
        cyclic_splitting(spec)
    assert len(calls) == len(specs)


def test_spec_checks_determinants_of_screws_only(monkeypatch):
    """Pure translations are only checked for integrality; the Bareiss
    determinant runs once per non-translation generator."""
    dets = []
    det = IntMatrix.det

    def counting_det(self):
        dets.append(self.rows)
        return det(self)

    monkeypatch.setattr(IntMatrix, "det", counting_det)
    spec = mapping_torus(make_glattice(IntMatrix([[0, -1], [1, 0]])))
    assert len(spec.gens) == 3
    dets.clear()
    BieberbachGroupSpec(spec.name, spec.dim, spec.gens)
    assert dets == [3]


def test_torsion_two_ways():
    rng = random.Random(SEED + 31)
    for _ in range(60):
        lat = make_glattice(random_finite_order_matrix(rng, max_rank=4))
        a, b = tors_h1_two_ways(lat)
        assert a == b
    a, b = tors_h1_two_ways(make_glattice(IntMatrix([[-1]])))
    assert a == b == AbelianGroup(0, (2,))


# name -> complement group in the character splitting
SPLIT_COMPLEMENT = {
    "S1": AbelianGroup(0, ()),
    "T2": AbelianGroup(1, ()),
    "T3": AbelianGroup(2, ()),
    "K": AbelianGroup(0, (2,)),
    "G1": AbelianGroup(2, ()),
    "G2": AbelianGroup(0, (2, 2)),
    "G3": AbelianGroup(0, (3,)),
    "G4": AbelianGroup(0, (2,)),
    "G5": AbelianGroup(0, ()),
    "B1": AbelianGroup(1, (2,)),
    "B2": AbelianGroup(1, ()),
}


def test_cyclic_splitting_postconditions():
    from math import gcd

    for name, expected_b in SPLIT_COMPLEMENT.items():
        spec = catalog_group(name)
        ab = abelianization(spec)
        split = cyclic_splitting(spec)
        assert split.holonomy_order == KNOWN[name][1]
        assert gcd(split.a_character_value, split.holonomy_order) == 1
        assert split.b_group == expected_b, name
        # the splitting reassembles to the full homology
        assert AbelianGroup(1 + split.b_group.free_rank, split.b_group.torsion) == ab.group, name
        # a is an infinite-order element: nonzero free part
        assert any(split.a.free), name
        assert len(split.b_free_gens) == split.b_group.free_rank


def test_cyclic_splitting_rejects_klein_four_holonomy():
    for name in ("G6", "B3", "B4"):
        with pytest.raises(DomainError):
            cyclic_splitting(catalog_group(name))


def test_cyclic_splitting_of_a_spec_with_torsion_ends_in_an_internal_check():
    """The unit translations of Z^2 with the reflection (x, y) -> (-x, y)
    generate a group with torsion.  The spec does not check the
    torsion-free precondition, so the splitting reaches its own check."""
    lattice = (translation_map(2, (1, 0)), translation_map(2, (0, 1)))
    spec = BieberbachGroupSpec("torsion", 2, lattice + (AffineMap(IntMatrix([[-1, 0], [0, 1]]), (0, 0)),))
    assert abelianization(spec).group == AbelianGroup(1, (2, 2))
    with pytest.raises(InternalCheckError, match="^holonomy character does not kill the torsion subgroup$"):
        cyclic_splitting(spec)


def test_each_splitting_check_fires(monkeypatch):
    """The two checks of cyclic_splitting that no torsion-free spec
    reaches, each fed one wrong value."""
    spec = catalog_group("K")
    expected = cyclic_splitting(spec)
    abelianize = bieberbach.abelianization

    def no_free_rank(s):
        ab = abelianize(s)
        return replace(ab, group=AbelianGroup(0, ab.group.torsion))

    def zero_character(self, gen_values, modulus):
        return (0,) * self.group.free_rank, (0,) * len(self.group.torsion)

    faults = [
        ((bieberbach, "abelianization", no_free_rank), "^cyclic holonomy with no free homology$"),
        ((AbelianizationData, "functional_on_basis", zero_character), "^holonomy character is not surjective on free homology$"),
    ]
    for patch, message in faults:
        with monkeypatch.context() as m:
            m.setattr(*patch)
            with pytest.raises(InternalCheckError, match=message):
                cyclic_splitting(spec)
    assert cyclic_splitting(spec) == expected


def test_cyclic_splitting_of_mapping_tori():
    rng = random.Random(SEED + 32)
    for _ in range(40):
        lat = make_glattice(random_finite_order_matrix(rng, max_rank=3))
        spec = mapping_torus(lat)
        assert is_holonomy_cyclic(spec)
        split = cyclic_splitting(spec)
        assert split.holonomy_order == lat.order
        # complement carries the full torsion: H^1 of the fiber action
        assert split.b_group.torsion == h1_oracle(lat).torsion


def test_holonomy_is_the_breadth_first_closure():
    """The holonomy starts with the identity, repeats nothing, and as a
    set is the closure the oracle walk finds, for every catalog group
    and for mapping tori."""
    rng = random.Random(SEED + 33)
    specs = [catalog_group(name) for name in CATALOG_NAMES]
    specs += [mapping_torus(make_glattice(random_finite_order_matrix(rng))) for _ in range(30)]
    for spec in specs:
        hol = holonomy_group(spec)
        ident = IntMatrix.identity(spec.dim)
        moves = [lambda m, g=g.linear: m * g for g in spec.gens]
        assert hol[0] == ident, spec.name
        assert len(set(hol)) == len(hol), spec.name
        assert set(hol) == orbit(ident, moves), spec.name


# cyclic_splitting as the power loops gave it before the walks shared one
# routine: the generator is the first element of the holonomy that
# generates it, and that choice fixes a_character_value
RECORDED_SPLITTINGS = {
    "K": CyclicSplitting(H1Element((1,), (0,)), 1, (), AbelianGroup(0, (2,)), 2),
    "G2": CyclicSplitting(H1Element((1,), (0, 0)), 1, (), AbelianGroup(0, (2, 2)), 2),
    "G3": CyclicSplitting(H1Element((1,), (0,)), 1, (), AbelianGroup(0, (3,)), 3),
    "G4": CyclicSplitting(H1Element((1,), (0,)), 1, (), AbelianGroup(0, (2,)), 4),
    "G5": CyclicSplitting(H1Element((1,), ()), 1, (), AbelianGroup(0, ()), 6),
    "B1": CyclicSplitting(
        H1Element((0, 1), (0,)), 1, (H1Element((1, 0), (0,)),), AbelianGroup(1, (2,)), 2
    ),
    "B2": CyclicSplitting(
        H1Element((0, 1), ()), 1, (H1Element((1, 0), ()),), AbelianGroup(1, ()), 2
    ),
}


def test_cyclic_splitting_matches_recorded_values():
    for name, expected in RECORDED_SPLITTINGS.items():
        assert cyclic_splitting(catalog_group(name)) == expected, name


def test_holonomy_walk_past_its_bound_raises(monkeypatch):
    monkeypatch.setattr(bieberbach, "_HOLONOMY_BOUND", 3)
    g4 = catalog_group("G4")  # holonomy of order 4
    fresh = BieberbachGroupSpec(g4.name, g4.dim, g4.gens)  # nothing walked yet
    with pytest.raises(DomainError, match="^holonomy closure exceeded bound 3$"):
        holonomy_group(fresh)


def test_mapping_torus_past_the_holonomy_bound_is_refused():
    """Phi_5 + Phi_7 + Phi_8 + Phi_9 has rank 20 and order 2520: a lattice
    within the lattice bound, whose mapping torus is past the holonomy
    bound and is refused with both numbers."""
    lat = make_glattice(_block_diag([_companion(_CYCLOTOMIC[m]) for m in (5, 7, 8, 9)]))
    assert (lat.rank, lat.order) == (20, 2520)
    assert h1_report(lat).group == AbelianGroup(0, (210,))
    for route in (mapping_torus, tors_h1_two_ways):
        with pytest.raises(DomainError, match="^order 2520 exceeds the holonomy bound 1000 of a mapping torus$"):
            route(lat)


def test_abelianization_matches_the_column_construction():
    """Relation matrices and generator words equal the ones assembled by
    columns through the checked constructor, and functionals on the
    invariant basis equal the explicit sums: on every catalog group and
    on 50 mapping tori, for functionals that vanish on the relations
    (c u with c_i d_i = 0 mod m) and for random ones, which mostly do not."""
    rng = random.Random(SEED + 39)
    specs = [catalog_group(name) for name in CATALOG_NAMES]
    specs += [mapping_torus(make_glattice(random_cyclotomic_lattice(rng, max_rank=8)[0])) for _ in range(50)]
    for spec in specs:
        ab = abelianization(spec)
        assert (ab.relation_matrix, ab.gen_words) == relation_matrix_oracle(spec), spec.name
        total = ab.n_presentation_gens
        diag = ab.dec.diagonal + (0,) * total
        for modulus in (2, 3, 4, len(holonomy_group(spec)) + 1):
            c = [rng.randint(-5, 5) * (modulus // gcd(diag[i], modulus)) for i in range(total)]
            vanishing = [sum(c[i] * ab.dec.u[i, j] for i in range(total)) for j in range(total)]
            want = functional_on_basis_oracle(ab, vanishing, modulus)
            assert want is not None
            assert ab.functional_on_basis(vanishing, modulus) == want, spec.name
            values = [rng.randint(-6, 6) for _ in range(total)]
            want = functional_on_basis_oracle(ab, values, modulus)
            if want is None:
                with pytest.raises(InternalCheckError, match="does not vanish on the relation lattice"):
                    ab.functional_on_basis(values, modulus)
            else:
                assert ab.functional_on_basis(values, modulus) == want, spec.name


def test_a_built_spec_tests_only_relator_words(monkeypatch):
    """A spec sorts its generators when it is built, and its relators are
    lattice vectors in closed form: screw_gens and abelianization then
    call is_translation and integral_translation on no generator and no
    relator.  Neither they nor the cyclic splitting build an IntMatrix
    through the checked constructor."""
    rng = random.Random(SEED + 40)
    specs = [catalog_group(name) for name in CATALOG_NAMES]
    specs += [mapping_torus(make_glattice(random_finite_order_matrix(rng, max_rank=5))) for _ in range(20)]
    tested, inits = [], []

    def recording(name):
        method = getattr(AffineMap, name)

        def wrapper(self):
            tested.append((name, self))
            return method(self)

        return wrapper

    for name in ("is_translation", "integral_translation"):
        monkeypatch.setattr(AffineMap, name, recording(name))
    init = IntMatrix.__init__

    def counting_init(self, entries):
        inits.append(1)
        init(self, entries)

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    for spec in specs:
        tested.clear()
        screws = spec.screw_gens()
        ab = abelianization(spec)
        assert tested == [], spec.name
        assert ab.relation_matrix.cols == spec.dim * len(screws) + len(_holonomy_relators(spec)), spec.name
        if is_holonomy_cyclic(spec) and ab.group.free_rank:
            cyclic_splitting(spec)
    assert inits == []


def test_klein_four_relators_take_no_matrix_order(monkeypatch):
    """The Klein four-group branch tests each linear part as an involution
    by one product: no matrix order, no holonomy walk."""
    calls = []
    monkeypatch.setattr(IntMatrix, "order", lambda self, bound: calls.append("order"))
    monkeypatch.setattr(bieberbach, "holonomy_group", lambda spec: calls.append("holonomy"))
    for name in ("G6", "B3", "B4"):
        g = catalog_group(name)
        assert abelianization(BieberbachGroupSpec(g.name, g.dim, g.gens)).group == KNOWN[name][0]
    assert calls == []


def test_two_screws_that_are_not_commuting_involutions_are_refused():
    """Non-commuting involutions, equal ones, an involution with a
    rotation of order 4, and a shear of infinite order."""
    swap = IntMatrix([[0, 1], [1, 0]])
    flip = IntMatrix([[-1, 0], [0, 1]])
    rot4 = IntMatrix([[0, -1], [1, 0]])
    shear = IntMatrix([[1, 1], [0, 1]])
    half = (Fraction(0), Fraction(1, 2))
    lattice = (translation_map(2, (1, 0)), translation_map(2, (0, 1)))
    for la, lb in ((swap, flip), (flip, flip), (flip, rot4), (shear, flip)):
        spec = BieberbachGroupSpec("X", 2, lattice + (AffineMap(la, half), AffineMap(lb, half)))
        with pytest.raises(
            DomainError, match="^unsupported holonomy: two screw generators that are not commuting involutions$"
        ):
            abelianization(spec)
