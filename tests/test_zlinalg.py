"""Integer linear algebra: Smith forms, witnesses, derived operations."""

import random
import re
from itertools import product
from math import comb, gcd

import pytest

from conftest import (
    SEED,
    from_columns,
    gcd_minor_divisors,
    matmul_oracle,
    order_oracle,
    power_oracle,
    power_sum_oracle,
    random_cyclotomic_lattice,
    random_finite_order_matrix,
    random_matrix,
    random_unimodular,
    snf_inplace_oracle,
    trial_division_is_prime,
)
from cflat.errors import DomainError, InternalCheckError
from cflat.zlinalg import backend, matrix
from cflat.zlinalg.matrix import _charpoly, _cyclotomic
from cflat.zlinalg.snf import SNFDecomposition, _is_prime, _smith_diagonal
from cflat.zlinalg import (
    AbelianGroup,
    IntMatrix,
    KERNEL_BACKEND,
    cokernel,
    fixed_card_mod,
    inverse_unimodular,
    kernel_basis,
    rank_mod,
    smith_normal_form,
    solve_columns,
)

# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


def test_matrix_construction_and_access():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.column(2) == (3, 6)
    assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert from_columns([[1, 4], [2, 5], [3, 6]]) == m
    assert from_columns([[1, 4]], rows=2).to_lists() == [[1], [4]]
    assert from_columns([], rows=2).to_lists() == [[], []]


def test_matrix_rejects_bad_input():
    with pytest.raises(DomainError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DomainError):
        IntMatrix([[1, True]])
    with pytest.raises(DomainError):
        IntMatrix([[1.5]])
    with pytest.raises(DomainError):
        from_columns([[1], [2, 3]])  # ragged columns
    with pytest.raises(DomainError):
        from_columns([[1, 2], [3]])
    with pytest.raises(DomainError):
        from_columns([[1, 2], [3, 4]], rows=3)  # columns disagree with rows
    with pytest.raises(DomainError):
        from_columns([[1, True]])
    with pytest.raises(DomainError):
        from_columns([])


def test_matrix_arithmetic():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert -(-a) == a
    assert a.det() == -2
    assert b.det() == -1
    assert a.apply_vector((1, 0)) == (1, 3)
    for m in (a, IntMatrix([[-5, 0, 7]]), IntMatrix([[2], [-3]])):
        assert repr(m).startswith("IntMatrix([[") and eval(repr(m)) == m
    for m in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0)):
        assert eval(repr(m)) == m
    assert repr(IntMatrix.zeros(0, 3)) == "IntMatrix.zeros(0, 3)"


def test_matrix_shapes_with_a_zero_dimension():
    z = IntMatrix.zeros(0, 3)
    assert (z.rows, z.cols) == (0, 3)
    assert z != IntMatrix.zeros(0, 0)
    t = IntMatrix.zeros(2, 0).transpose()
    assert (t.rows, t.cols) == (0, 2)
    assert z.transpose() == IntMatrix.zeros(3, 0)
    assert IntMatrix.zeros(2, 0) * z == IntMatrix.zeros(2, 3)
    assert z * IntMatrix.zeros(3, 2) == IntMatrix.zeros(0, 2)
    assert IntMatrix.identity(0) * IntMatrix.zeros(0, 4) == IntMatrix.zeros(0, 4)
    assert (z + z).cols == 3 and (-z).cols == 3
    empty = from_columns([[], [], []])
    assert (empty.rows, empty.cols) == (0, 3)
    assert IntMatrix([[], []]).cols == 0
    dec = smith_normal_form(z)
    dec.check()
    assert (dec.d.rows, dec.d.cols, dec.v.rows) == (0, 3, 3)
    assert kernel_basis(z) == IntMatrix.identity(3)
    assert cokernel(IntMatrix.zeros(2, 0)) == AbelianGroup(2, ())


def test_matrix_order_matches_a_naive_count():
    """order(bound) is the least k with m^k = 1, found by a product loop
    here; it is 1 on the identity and refuses past ``bound``."""
    rng = random.Random(SEED + 7)
    for _ in range(40):
        m = random_finite_order_matrix(rng, max_rank=6, allow_identity=True)
        power, naive = m, 1
        while not power.is_identity():
            power, naive = power * m, naive + 1
        assert m.order(1000) == naive, m
    assert IntMatrix.identity(3).order(1) == 1
    assert IntMatrix.identity(0).order(1) == 1
    rot6 = IntMatrix([[0, -1], [1, 1]])
    assert rot6.order(6) == 6
    with pytest.raises(DomainError):
        rot6.order(5)
    with pytest.raises(DomainError):
        IntMatrix([[1, 1], [0, 1]]).order(50)  # infinite order
    with pytest.raises(DomainError):
        IntMatrix([[1, 0]]).order(10)
    assert not IntMatrix([[1, 0]]).is_identity()
    assert not IntMatrix.zeros(2, 2).is_identity()


def test_identity_is_one_shared_instance():
    assert IntMatrix.identity(4) is IntMatrix.identity(4)
    assert IntMatrix.identity(4) == IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert IntMatrix.identity(0).rows == IntMatrix.identity(0).cols == 0


def test_order_matches_successive_powers_on_finite_order_lattices():
    """Block sums of cyclotomic companions and signed cycles, conjugated
    by unimodular words: the cyclotomic order is the order the
    successive powers find, and the bound is respected."""
    rng = random.Random(SEED + 8)
    for _ in range(120):
        m, k = random_cyclotomic_lattice(rng, max_rank=12)
        assert order_oracle(m, 1000) == k
        assert m.order(1000) == k, m
        assert m.order(k) == k
        assert m.det() == IntMatrix(m.to_lists()).det()  # the kept (-1)^n chi(0) against Bareiss
        if k > 1:
            with pytest.raises(DomainError, match=f"^matrix order exceeds bound {k - 1}$"):
                m.order(k - 1)


def test_order_is_found_once_per_matrix(monkeypatch):
    """A second order call reads the order kept on the matrix: no second
    characteristic polynomial and no product.  A smaller bound still
    refuses, and a refused matrix keeps nothing."""
    rng = random.Random(SEED + 12)
    lattices = [random_cyclotomic_lattice(rng, max_rank=8) for _ in range(20)]
    jordan = IntMatrix([[1, 1], [0, 1]])
    charpolys, products = [], []
    charpoly, mul = matrix._charpoly, IntMatrix.__mul__

    def counting_charpoly(m):
        charpolys.append(1)
        return charpoly(m)

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(matrix, "_charpoly", counting_charpoly)
    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    for m, k in lattices:
        assert m.order(1000) == k
        assert len(charpolys) == 1
        charpolys.clear()
        products.clear()
        assert m.order(1000) == m.order(k) == k
        if k > 1:
            with pytest.raises(DomainError, match=f"^matrix order exceeds bound {k - 1}$"):
                m.order(k - 1)
        assert charpolys == products == []
    for _ in range(2):
        with pytest.raises(DomainError, match="^matrix order exceeds bound 50$"):
            jordan.order(50)
    assert len(charpolys) == 2


def test_order_builds_its_totient_table_once_per_rank():
    """Repeated order calls at one rank and bound sieve the totients once;
    each further call reads the kept table."""
    matrix._cyclotomic_candidates.cache_clear()
    rng = random.Random(SEED + 11)
    lattices = [random_cyclotomic_lattice(rng, max_rank=6) for _ in range(40)]
    for m, k in lattices:
        assert m.order(1000) == k
    ranks = {m.rows for m, _ in lattices}
    info = matrix._cyclotomic_candidates.cache_info()
    assert (info.misses, info.hits) == (len(ranks), len(lattices) - len(ranks))


def test_order_refuses_infinite_order():
    """Unipotent blocks (cyclotomic characteristic polynomial, not
    semisimple) and small random matrices agree with the successive
    powers: the same order, or a refusal."""
    for n in range(2, 9):
        jordan = IntMatrix([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
        with pytest.raises(DomainError, match="^matrix order exceeds bound 60$"):
            jordan.order(60)
        # the Jordan block plus a rotation of order 3: k = 3 is found, and
        # its power check refuses
        rows = [list(jordan.row(i)) + [0, 0] for i in range(n)]
        rows += [[0] * n + [0, -1], [0] * n + [1, -1]]
        with pytest.raises(DomainError, match="^matrix order exceeds bound 60$"):
            IntMatrix(rows).order(60)
    rng = random.Random(SEED + 9)
    finite = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, 1)
        k = order_oracle(m, 60)
        finite += k is not None
        if k is None:
            with pytest.raises(DomainError):
                m.order(60)
        else:
            assert m.order(60) == k, m
    assert finite  # the draw includes some finite-order matrices


def test_norm_matches_the_summed_powers():
    """The norm kept by ``order`` is the sum of the powers below the order,
    and g - 1 kills it; it refuses as ``order`` does."""
    rng = random.Random(SEED + 10)
    cases = [random_cyclotomic_lattice(rng, max_rank=12) for _ in range(120)]
    cases += [(IntMatrix.identity(3), 1), (IntMatrix.identity(0), 1)]
    for m, k in cases:
        norm = m.norm(1000)
        assert norm == power_sum_oracle(m, k), m
        assert (m - IntMatrix.identity(m.rows)) * norm == IntMatrix.zeros(m.rows, m.cols)
    assert max(k for _, k in cases) >= 30
    with pytest.raises(DomainError, match="^matrix order needs a square matrix$"):
        IntMatrix([[1, 0]]).norm(2)
    with pytest.raises(DomainError, match="^matrix order exceeds bound 50$"):
        IntMatrix([[1, 1], [0, 1]]).norm(50)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def reference(m):
        coeffs = sympy.Matrix(m.to_lists()).charpoly(x).all_coeffs()
        return [int(c) for c in reversed(coeffs)]

    rng = random.Random(SEED + 11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, 3)
        assert _charpoly(m) == reference(m), m
    for _ in range(20):
        m, _ = random_cyclotomic_lattice(rng, max_rank=12)
        assert _charpoly(m) == reference(m), m
    assert _charpoly(IntMatrix.zeros(0, 0)) == [1]


def test_cyclotomic_matches_sympy():
    """Phi_m against sympy for m <= 300; each is tabulated once, as a tuple."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in range(1, 301):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        phi = _cyclotomic(m)
        assert phi == tuple(int(c) for c in reversed(coeffs)), m
        assert _cyclotomic(m) is phi


def test_charpoly_moduli_are_mersenne_primes(monkeypatch):
    """Lucas-Lehmer on every exponent in the table; past the table's
    last rank the characteristic polynomial is refused."""
    for e in matrix._MERSENNE_EXPONENTS:
        mersenne, s = (1 << e) - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % mersenne
        assert s == 0, e
    monkeypatch.setattr(matrix, "_MERSENNE_EXPONENTS", (61,))
    # (x - 1)^59 has the largest coefficients the prime 2^61 - 1 must fix
    assert _charpoly(IntMatrix.identity(59)) == [(-1) ** (59 - i) * comb(59, i) for i in range(60)]
    with pytest.raises(DomainError, match="past rank 59"):
        IntMatrix.identity(60).order(10)


def test_is_prime_matches_trial_division():
    for n in range(-2, 100_000):
        assert _is_prime(n) == trial_division_is_prime(n), n
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801)
    assert not any(_is_prime(n) for n in carmichael)
    # strong pseudoprimes to bases 2; 2 and 3; 2, 3, 5 and 7
    assert not any(_is_prime(n) for n in (2047, 1373653, 3215031751))
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1) and not _is_prime(2**31 + 1)
    # the least strong pseudoprime to every base used is past the bound
    with pytest.raises(DomainError):
        _is_prime(318_665_857_834_031_151_167_461)


def test_known_backend():
    assert KERNEL_BACKEND == "python"


def _product_cases(rng):
    """Seeded factor pairs: empty and 1x1 shapes, powers of finite-order
    lattices, and dense and rectangular matrices up to 20x20."""
    cases = [
        (IntMatrix.zeros(0, 3), random_matrix(rng, 3, 4, 5)),
        (random_matrix(rng, 4, 3, 5), IntMatrix.zeros(3, 0)),
        (IntMatrix.zeros(0, 2), IntMatrix.zeros(2, 0)),
        (IntMatrix([[0]]), IntMatrix([[7]])),
        (IntMatrix([[-3]]), IntMatrix([[5]])),
    ]
    for _ in range(12):
        g, k = random_cyclotomic_lattice(rng, max_rank=16)
        cases.append((power_oracle(g, rng.randint(1, k)), power_oracle(g, rng.randint(0, k))))
    for _ in range(40):
        rows, inner, cols = (rng.randint(1, 20) for _ in range(3))
        a = random_matrix(rng, rows, inner, rng.choice((1, 9, 10**6)))
        b = random_matrix(rng, inner, cols, rng.choice((1, 9, 10**6)))
        cases.append((a, b))
    return cases


def test_sparse_product_matches_the_dense_oracle():
    """Every product equals the dense kernel's entry for entry, and leaves
    both operands as they were, also when one matrix is the right factor
    of many products."""
    rng = random.Random(SEED + 12)
    for a, b in _product_cases(rng):
        before = (a.to_lists(), b.to_lists())
        got = a * b
        assert (got.rows, got.cols) == (a.rows, b.cols)
        if b.rows:
            assert got.to_lists() == matmul_oracle(a.to_lists(), b.to_lists()), (a, b)
        else:
            assert got == IntMatrix.zeros(a.rows, b.cols)
        assert (a.to_lists(), b.to_lists()) == before
        if a.rows and b.rows:
            rows = a.to_lists()
            sparse = backend.sparse_rows(b.to_lists())
            assert backend.matmul(rows, sparse, b.cols) == got.to_lists()
            assert rows == before[0]
    for _ in range(10):
        g, k = random_cyclotomic_lattice(rng, max_rank=12)
        power, dense = g, g.to_lists()
        for _ in range(k):
            power = power * g
            dense = matmul_oracle(dense, g.to_lists())
            assert power.to_lists() == dense
        assert power == g


def _smith_cases(rng):
    """Seeded matrices: empty, 1x1, singular, rectangular, without unit
    entries, and dense up to 20x20."""
    cases = [
        IntMatrix.zeros(0, 3),
        IntMatrix.zeros(3, 0),
        IntMatrix.zeros(2, 2),
        IntMatrix([[5]]),
        IntMatrix([[-1]]),
        IntMatrix([[2, 0], [0, 3]]),
        IntMatrix([[4, 6, 0], [6, 9, 3]]),
    ]
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, rows, cols, rng.choice((1, 3, 40)))
        if rng.random() < 0.3:
            c = rng.choice((2, 6))
            m = IntMatrix([[c * e for e in row] for row in m.to_lists()])  # no unit entry
        if rows > 1 and rng.random() < 0.3:
            lists = m.to_lists()
            lists[-1] = [3 * x for x in lists[0]]  # singular
            m = IntMatrix(lists)
        cases.append(m)
    for n in (12, 16, 20):
        cases.append(random_matrix(rng, n, n, 9))
        cases.append(random_matrix(rng, n - 3, n, 9))
    return cases


def test_smith_kernel_matches_the_dense_oracle():
    """Witnessed Smith forms, whose transforms ride in the kernel's working
    matrix, equal the mirroring oracle's d, u and v entry for entry, and
    the bare reduction its d."""
    rng = random.Random(SEED + 13)
    for m in _smith_cases(rng):
        d, u, v = m.to_lists(), IntMatrix.identity(m.rows).to_lists(), IntMatrix.identity(m.cols).to_lists()
        snf_inplace_oracle(d, u, v)
        dec = smith_normal_form(m)
        assert (dec.d.to_lists(), dec.u.to_lists(), dec.v.to_lists()) == (d, u, v), m
        bare = m.to_lists()
        backend.snf_inplace(bare, m.rows, m.cols)
        assert bare == d


def test_smith_kernel_carries_entries_beside_and_below_the_block():
    """Entries right of the reduced block follow the row transform and rows
    below it the column transform, whatever they hold: [m | b] over the
    rows of I_c ends as [d | u*b] over v."""
    rng = random.Random(SEED + 14)
    shapes = [(r, c) for r in range(6) for c in range(6)]
    for rows, cols in shapes + [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(60)]:
        m = IntMatrix._of([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols)
        width = rng.randint(0, 4)
        b = IntMatrix._of([[rng.randint(-9, 9) for _ in range(width)] for _ in range(rows)], width)
        work = [row + extra for row, extra in zip(m.to_lists(), b.to_lists())]
        work += IntMatrix.identity(cols).to_lists()
        backend.snf_inplace(work, rows, cols)
        dec = smith_normal_form(m)
        assert [row[:cols] for row in work[:rows]] == dec.d.to_lists(), m
        assert [row[cols:] for row in work[:rows]] == (dec.u * b).to_lists(), m
        assert work[rows:] == dec.v.to_lists(), m


def test_benchmark_kernel_hooks_stay_in_place(monkeypatch):
    """The benchmark's tracer wraps the four kernels by these names and
    reads the left factor (or the matrix reduced) as the first argument;
    IntMatrix and the Smith form call them through the module attribute,
    so a wrapper patched onto the module sees every call."""
    names = ("snf_inplace", "rank_mod_inplace", "det_inplace", "matmul")
    assert all(callable(getattr(backend, name)) for name in names)
    seen = []
    for name in names:
        kernel = getattr(backend, name)

        def counting(*args, name=name, kernel=kernel):
            seen.append((name, len(args[0])))
            return kernel(*args)

        monkeypatch.setattr(backend, name, counting)
    a, b = IntMatrix([[1, 2, 0]]), IntMatrix([[1, 0], [0, 1], [5, 5]])
    a * b
    assert seen == [("matmul", 1)]
    smith_normal_form(b)
    cokernel(b)
    IntMatrix([[2, 1], [1, 1]]).det()
    rank_mod(b, 3)
    # the witnessed form hands the kernel b's 3 rows over the 2 rows of I_2
    assert seen[1:] == [("snf_inplace", 5), ("snf_inplace", 3), ("det_inplace", 2), ("rank_mod_inplace", 3)]


# ----------------------------------------------------------------------
# smith forms
# ----------------------------------------------------------------------


def test_snf_frozen_example():
    dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert dec.divisors == (2, 4)
    dec.check()


def test_check_raises_on_each_broken_witness():
    """Hand-built decompositions that break one witness property each;
    the determinant-of-u case once on each certificate's path."""

    def dec(m, u, v, d):
        return SNFDecomposition(matrix=IntMatrix(m), d=IntMatrix(d), u=IntMatrix(u), v=IntMatrix(v))

    eye = [[1, 0], [0, 1]]
    cases = [
        (dec([[1]], [[1]], [[1]], [[2]]), "u*m*v != d"),
        (dec([[1]], [[2]], [[1]], [[2]]), "transform is not unimodular"),  # det m = 1
        (dec([[0]], [[2]], [[1]], [[0]]), "transform is not unimodular"),  # det m = 0
        (dec([[1, 1], [0, 1]], eye, eye, [[1, 1], [0, 1]]), "d is not diagonal"),
        (dec([[-1]], [[1]], [[1]], [[-1]]), "negative diagonal entry"),
        (dec([[0, 0], [0, 1]], eye, eye, [[0, 0], [0, 1]]), "zero divisor before a nonzero one"),
        (dec([[2, 0], [0, 3]], eye, eye, [[2, 0], [0, 3]]), "divisor chain broken: 2 does not divide 3"),
    ]
    for broken, message in cases:
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            broken.check()


def test_check_certifies_a_nonsingular_square_form_by_det_m(monkeypatch):
    """A square m with det m != 0 takes one determinant, of m itself; a
    singular or non-square m takes those of u and v."""
    rng = random.Random(SEED + 13)
    sizes = []
    det_inplace = backend.det_inplace

    def counting_det_inplace(m):
        sizes.append(len(m))
        return det_inplace(m)

    monkeypatch.setattr(backend, "det_inplace", counting_det_inplace)
    # the sizes of the matrices eliminated: m when square, then u and v
    # unless det m != 0
    cases = ((6, 6, False, [6]), (5, 5, True, [5, 5, 5]), (3, 5, False, [3, 5]), (5, 3, False, [5, 3]))
    for rows, cols, singular, expected in cases:
        m = random_matrix(rng, rows, cols, 9)
        if singular:
            m = IntMatrix(m.to_lists()[:-1] + [[2 * x for x in m.row(0)]])
        elif rows == cols:
            assert m.det()
            m = IntMatrix(m.to_lists())  # no kept determinant
        dec = smith_normal_form(m)
        sizes.clear()
        dec.check()
        assert sizes == expected


def test_snf_identity_and_zero():
    assert smith_normal_form(IntMatrix.identity(3)).divisors == (1, 1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 3)).divisors == ()


def test_snf_shapes_preserved():
    m = IntMatrix([[0, 3, 0], [4, 0, 0]])
    dec = smith_normal_form(m)
    assert (dec.d.rows, dec.d.cols) == (2, 3)
    assert dec.u.is_square and dec.u.rows == 2
    assert dec.v.is_square and dec.v.rows == 3
    assert dec.divisors == (1, 12)
    dec.check()


def test_snf_property_sweep():
    rng = random.Random(SEED)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 30)
        dec = smith_normal_form(m)
        dec.check()
        divs = dec.divisors
        assert all(d > 0 for d in divs)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        # off-diagonal of d is zero and the diagonal is exactly divs
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert dec.d[i, j] == 0
        assert tuple(x for x in dec.diagonal if x) == divs


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, 12)
        assert list(smith_normal_form(m).divisors) == gcd_minor_divisors(m)


def test_snf_invariant_under_unimodular_change():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, 9)
        p = random_unimodular(rng, n)
        q = random_unimodular(rng, n)
        assert smith_normal_form(p * m * q).divisors == smith_normal_form(m).divisors


def test_unwitnessed_smith_diagonal_matches_witnessed_form():
    """The kernel run without transforms (what cokernel and fixed_card_mod
    read) gives the witnessed form's diagonal, on empty, singular and
    rectangular matrices too."""
    rng = random.Random(SEED + 3)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(150)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols, rng.choice((1, 3, 12, 40)))
        if rows and cols and rows + cols > 2 and rng.random() < 0.3:
            # singular: repeat a row (or a column) as a multiple of another
            lists = m.to_lists()
            if rows > 1:
                lists[-1] = [2 * x for x in lists[0]]
            else:
                for row in lists:
                    row[-1] = -row[0]
            m = IntMatrix(lists)
        dec = smith_normal_form(m)
        assert _smith_diagonal(m) == dec.diagonal, m.to_lists()
        divisors = dec.divisors
        assert cokernel(m) == AbelianGroup(m.rows - len(divisors), tuple(e for e in divisors if e > 1))
        for modulus in (2, 6):
            expected = modulus ** (m.cols - len(divisors))
            for e in divisors:
                expected *= gcd(e, modulus)
            assert fixed_card_mod(m, modulus) == expected
    assert _smith_diagonal(IntMatrix.zeros(0, 3)) == ()
    assert _smith_diagonal(IntMatrix.zeros(3, 0)) == ()
    assert _smith_diagonal(IntMatrix.zeros(2, 3)) == (0, 0)


# ----------------------------------------------------------------------
# abelian groups and cokernels
# ----------------------------------------------------------------------


def test_abelian_group_api():
    g = AbelianGroup(2, (2, 4))
    assert str(g) == "Z^2 + Z/2 + Z/4"
    assert g.free_rank == 2
    assert g.quotient_card(4) == 4**2 * 2 * 4 and g.quotient_card(3) == 9
    assert g.torsion_cardinality() == 8
    assert g.torsion_subgroup() == AbelianGroup(0, (2, 4))
    assert str(AbelianGroup(0)) == "0"
    with pytest.raises(DomainError):
        AbelianGroup(1).cardinality()
    with pytest.raises(DomainError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(DomainError):
        AbelianGroup(-1)


def test_cokernel_examples():
    assert cokernel(IntMatrix([[2, 0], [0, 3]])) == AbelianGroup(0, (6,))
    assert cokernel(IntMatrix.zeros(2, 2)) == AbelianGroup(2)
    assert cokernel(IntMatrix.identity(4)).is_trivial
    assert cokernel(IntMatrix([[2, 1], [0, 2]])) == AbelianGroup(0, (4,))


def test_kernel_basis():
    m = IntMatrix([[1, 1]])
    basis = kernel_basis(m)
    assert basis.cols == 1
    assert m.apply_vector(basis.column(0)) == (0,)
    rng = random.Random(SEED + 3)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        mm = random_matrix(rng, rows, cols, 8)
        dec = smith_normal_form(mm)
        basis = kernel_basis(mm)
        assert basis.cols == cols - dec.rank
        for j in range(basis.cols):
            assert mm.apply_vector(basis.column(j)) == (0,) * rows


def test_kernel_bases_and_solutions_are_built_unchecked(monkeypatch):
    """kernel_basis and solve_columns wrap the rows they compute from a
    Smith form without the checked constructor; the kernel basis is the
    free columns of v, as the checked construction by columns gives it."""
    rng = random.Random(SEED + 10)
    cases = []
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, 6)
        dec = smith_normal_form(a)
        free = [j for j in range(cols) if j >= len(dec.diagonal) or dec.diagonal[j] == 0]
        basis = from_columns([dec.v.column(j) for j in free], rows=cols)
        cases.append((a, basis, a * random_matrix(rng, cols, rng.randint(1, 3), 6)))
    inits = []
    init = IntMatrix.__init__

    def counting_init(self, entries):
        inits.append(1)
        init(self, entries)

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    for a, basis, b in cases:
        assert kernel_basis(a) == basis
        x = solve_columns(a, b)
        assert (x.rows, x.cols) == (a.cols, b.cols) and a * x == b
    assert inits == []


# ----------------------------------------------------------------------
# modular ranks and fixed-point counts
# ----------------------------------------------------------------------


def test_rank_mod():
    m = IntMatrix([[2, 0], [0, 3]])
    assert rank_mod(m, 2) == 1
    assert rank_mod(m, 3) == 1
    assert rank_mod(m, 5) == 2
    with pytest.raises(DomainError):
        rank_mod(m, 4)
    with pytest.raises(DomainError):
        rank_mod(m, 1)


def test_fixed_card_mod():
    swap = IntMatrix([[0, 1], [1, 0]])
    diff = swap - IntMatrix.identity(2)
    assert fixed_card_mod(diff, 2) == 2
    assert fixed_card_mod(IntMatrix.zeros(2, 2), 5) == 25
    assert fixed_card_mod(IntMatrix([[2]]), 4) == 2
    assert fixed_card_mod(IntMatrix([[6]]), 4) == 2
    with pytest.raises(DomainError):
        fixed_card_mod(diff, 1)


def test_fixed_card_matches_enumeration():
    """Square and rectangular shapes, 0 rows or 0 columns among them: off
    the square the count carries the factor modulus^(cols - rows)."""
    rng = random.Random(SEED + 4)
    shapes = [(n, n) for n in (1, 2, 3)] + [(0, 0), (0, 2), (2, 0), (0, 3), (3, 0)]
    shapes += [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(60)]
    for rows, cols in shapes:
        for _ in range(3):
            modulus = rng.choice((2, 3, 4, 6))
            m = random_matrix(rng, rows, cols, 5) if rows else IntMatrix.zeros(0, cols)
            count = sum(
                all(x % modulus == 0 for x in m.apply_vector(vec))
                for vec in product(range(modulus), repeat=cols)
            )
            assert fixed_card_mod(m, modulus) == count, (m, modulus)


# ----------------------------------------------------------------------
# solving and inverting
# ----------------------------------------------------------------------


def test_solve_columns_roundtrip():
    rng = random.Random(SEED + 5)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, 6)
        x = random_matrix(rng, cols, 2, 6)
        b = a * x
        sol = solve_columns(a, b)
        assert a * sol == b


def test_solve_columns_rejects_unsolvable():
    a = IntMatrix([[2]])
    with pytest.raises(DomainError):
        solve_columns(a, IntMatrix([[1]]))
    a = IntMatrix([[1], [0]])
    with pytest.raises(DomainError):
        solve_columns(a, IntMatrix([[0], [1]]))


def test_inverse_unimodular():
    rng = random.Random(SEED + 6)
    for _ in range(60):
        n = rng.randint(1, 5)
        w = random_unimodular(rng, n)
        assert (w * inverse_unimodular(w)).is_identity()
    with pytest.raises(DomainError):
        inverse_unimodular(IntMatrix([[2]]))
