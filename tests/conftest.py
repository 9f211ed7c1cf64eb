"""Shared deterministic generators for the test suite.

Everything random is driven by explicitly seeded random.Random
instances, so every run sees the same matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from cflat.bieberbach import AffineMap, BieberbachGroupSpec, _holonomy_relators, translation_map
from cflat.classify import _line_classes, aut_action
from cflat.errors import DomainError
from cflat.flatbundle import (
    FlatBundleSpec,
    LineRep,
    _evaluate,
    base_data,
    c1_of_line,
    cup_table,
    line_with_w1,
    mod2_add,
    mod2_zero,
    sw_vector,
    total_holonomy,
    w1_of_line,
)
from cflat.zlinalg import IntMatrix, inverse_unimodular

SEED = 20260816


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    """Product of shears, swaps and sign flips: always det = +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            for t in range(n):
                m[i][t] += c * m[j][t]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


# companion matrices of the cyclotomic polynomials whose roots are the
# eigenvalues a finite-order integer matrix can have in rank <= 2
_CYCLOTOMIC_BLOCKS = {
    1: [[1]],
    2: [[-1]],
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[0, -1], [1, 1]],
}


def _block_diag(blocks: list[list[list[int]]]) -> IntMatrix:
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                m[at + i][at + j] = b[i][j]
        at += k
    return IntMatrix(m)


def random_finite_order_matrix(
    rng: random.Random, max_rank: int = 5, allow_identity: bool = False
) -> IntMatrix:
    """A random integer matrix of finite order: a block sum of
    rotation/reflection blocks conjugated by a random unimodular
    matrix.  Orders realized: 2, 3, 4, 6 (and 1 when allowed)."""
    while True:
        blocks = []
        rank = 0
        while rank < max_rank:
            order = rng.choice((1, 1, 2, 2, 3, 4, 6))
            block = _CYCLOTOMIC_BLOCKS[order]
            if rank + len(block) > max_rank:
                break
            blocks.append(block)
            rank += len(block)
            if rng.random() < 0.35:
                break
        if not blocks:
            continue
        if not allow_identity and all(b == _CYCLOTOMIC_BLOCKS[1] for b in blocks):
            continue
        core = _block_diag(blocks)
        w = random_unimodular(rng, core.rows)
        return w * core * inverse_unimodular(w)


def _minor_det(m: IntMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Cofactor-expansion determinant of a small submatrix."""
    k = len(rows)
    if k == 1:
        return m[rows[0], cols[0]]
    total = 0
    sign = 1
    for t in range(k):
        sub = _minor_det(m, rows[1:], cols[:t] + cols[t + 1 :])
        total += sign * m[rows[0], cols[t]] * sub
        sign = -sign
    return total


def gcd_minor_divisors(m: IntMatrix) -> list[int]:
    """Independent elementary-divisor oracle: the k-th divisor is
    gcd(k x k minors) / gcd((k-1) x (k-1) minors).  Exponential in the
    size, so only for small matrices."""
    divisors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, _minor_det(m, rows, cols))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def random_angles(rng: random.Random, count: int, max_denom: int) -> tuple[Fraction, ...]:
    out = []
    for _ in range(count):
        q = rng.randint(1, max_denom)
        p = rng.randrange(q)
        out.append(Fraction(p, q))
    return tuple(out)


# Orbit search: the oracle for the closed-form canonical forms in
# cflat.classify.  The moves generate the torus's integral linear action
# and the Klein relation (a, b) ~ (e1*a, e2*(b - k*a)) on angle pairs.

TORUS_MOVES = (
    lambda st: ((-st[1]) % 1, st[0]),
    lambda st: ((st[0] + st[1]) % 1, st[1]),
    lambda st: ((st[0] - st[1]) % 1, st[1]),
    lambda st: ((-st[0]) % 1, st[1]),
)

KLEIN_RHO_MOVES = (
    lambda st: ((-st[0]) % 1, st[1]),
    lambda st: (st[0], (-st[1]) % 1),
    lambda st: (st[0], (st[1] - st[0]) % 1),
    lambda st: (st[0], (st[1] + st[0]) % 1),
)


def orbit(start: tuple, moves) -> set:
    """Every state reachable from ``start`` (breadth-first search)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for mv in moves:
                moved = mv(state)
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return seen


# The Fraction orbit walk: the oracle for cflat.classify.affine_equivalent
# and its table of generators.  A state is the sorted multiset of
# (kind, angles) pairs, each complex summand at the lesser of its angles
# and their conjugate.  The moves are hand-written maps on a character's
# angles (free, then torsion), inverses included: five integral linear
# maps of the torus, f -> +-f + eps t on the Klein bottle, and f -> +-f
# on the circle.


def _canonical_summand(kind: str, vals: tuple) -> tuple:
    if kind == "complex":
        conj = tuple((-v) % 1 for v in vals)
        vals = min(vals, conj)
    return (kind, vals)


def canonical_multiset(bundle: FlatBundleSpec) -> tuple:
    return tuple(sorted(_canonical_summand(rep.kind, rep.free + rep.torsion) for rep in bundle.summands))


def pullback_state(state: tuple, transform) -> tuple:
    return tuple(sorted(_canonical_summand(kind, transform(vals)) for kind, vals in state))


def _torus_transform(m):
    def act(vals):
        a, b = vals
        return ((a * m[0][0] + b * m[1][0]) % 1, (a * m[0][1] + b * m[1][1]) % 1)

    return act


def _klein_transform(sigma: int, eps: int):
    return lambda vals: ((sigma * vals[0] + eps * vals[1]) % 1, vals[1] % 1)


_AFFINE_TRANSFORMS = {
    "T2": [
        _torus_transform(m)
        for m in (
            ((1, 1), (0, 1)),
            ((1, -1), (0, 1)),
            ((0, -1), (1, 0)),
            ((0, 1), (-1, 0)),
            ((-1, 0), (0, 1)),
        )
    ],
    "K": [_klein_transform(sigma, eps) for sigma in (1, -1) for eps in (0, 1)],
    "S1": [lambda vals: vals, lambda vals: ((-vals[0]) % 1,)],
}

AFFINE_MOVES = {
    base: tuple(partial(pullback_state, transform=tr) for tr in transforms)
    for base, transforms in _AFFINE_TRANSFORMS.items()
}


# The hand-written mod-2 generators: the oracle for cflat.classify.aut_action,
# which derives its generators from the character action.  They act on
# column vectors in the base's mod-2 basis, the order of its mod2_labels:
# the torus takes all of GL(2, Z/2), the Klein bottle
# (alpha, beta) -> (alpha, alpha + beta).

AUT_MOD2_GENERATORS = {
    "S1": (((1,),),),
    "T2": (((1, 1), (0, 1)), ((0, 1), (1, 0))),
    "K": (((1, 0), (1, 1)),),
}


def mod2_closure(gens) -> set:
    """Every product of the generators mod 2, the identity included."""
    n = len(gens[0])

    def times(g):
        return lambda m: tuple(
            tuple(sum(m[i][t] * g[t][j] for t in range(n)) % 2 for j in range(n)) for i in range(n)
        )

    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return orbit(identity, [times(g) for g in gens])


# Multiset enumeration: the oracle for the bounded realizer search in
# cflat.classify._realized_values.  Every multiset of s line classes goes
# through sw_vector, and the least realizer (fewest nontrivial lines,
# then the least tuple) is kept for each Whitney pair.


def realized_values_oracle(base: str, s: int) -> dict:
    realized = {}
    for multiset in combinations_with_replacement(_line_classes(base), s):
        reps = tuple(line_with_w1(base, bits) for bits in multiset)
        vec = sw_vector(FlatBundleSpec(base, reps))
        value = (vec.w1, vec.w2)
        key = (sum(1 for b in multiset if any(b)), multiset)
        if value not in realized or key < realized[value]:
            realized[value] = key
    return {value: key[1] for value, key in realized.items()}


# Count-vector search: the oracle for the state walk in
# cflat.classify._realized_values.  It runs the Whitney rule from the
# start for every vector of 0 to 3 copies of each nontrivial class with
# at most s lines, and keeps the least (n, lines) for each Whitney pair.


def realized_values_search_oracle(base: str, s: int) -> dict:
    theta, *nontrivial = _line_classes(base)
    pairing = cup_table(base).pairing
    surface = base_data(base).ab.spec.dim == 2
    best = {}
    for counts in product(range(4), repeat=len(nontrivial)):
        n = sum(counts)
        if n > s:
            continue
        lines = tuple([bits for bits, c in zip(nontrivial, counts) for _ in range(c)])
        w1, w2 = theta, 0
        for bits in lines:
            w2 += cup_oracle(pairing, w1, bits)
            w1 = mod2_add(w1, bits)
        value = (w1, w2 % 2 if surface else None)
        key = (n, lines)
        if value not in best or key < best[value]:
            best[value] = key
    return {value: (theta,) * (s - n) + lines for value, (n, lines) in best.items()}


def cup_oracle(pairing, a, b) -> int:
    """The cup product a . b by a double loop over the pairing on the
    basis: the oracle for the ``cups`` table of
    cflat.flatbundle.CupTable."""
    n = len(pairing)
    total = 0
    for i in range(n):
        if a[i]:
            for j in range(n):
                if b[j]:
                    total += pairing[i][j]
    return total % 2


def sw_vector_pairwise(bundle: FlatBundleSpec) -> tuple:
    """(w1, w2, c1) of a line-bundle sum by the pairwise Whitney sum: w1 is
    the sum of the real first classes, and w2 the sum of their cups over
    all pairs plus the complex summands' Chern classes mod 2."""
    base = bundle.base
    firsts = [w1_of_line(base, rep) for rep in bundle.summands if rep.kind == "real"]
    c1s = tuple(c1_of_line(base, rep) for rep in bundle.summands if rep.kind == "complex")
    w1 = tuple(sum(col) % 2 for col in zip(*firsts)) if firsts else mod2_zero(base)
    if base_data(base).ab.spec.dim == 1:
        return w1, None, c1s
    pairing = cup_table(base).pairing
    w2 = sum(cup_oracle(pairing, a, b) for i, a in enumerate(firsts) for b in firsts[i + 1 :])
    w2 += sum(c.mod2_bit() for c in c1s)
    return w1, w2 % 2, c1s


# The real summands' angles added mod 1: the oracle for
# cflat.flatbundle.det_line, which reads the determinant line off the
# orientation character.


def det_line_oracle(bundle: FlatBundleSpec) -> LineRep:
    g = base_data(bundle.base).ab.group
    free = [Fraction(0)] * g.free_rank
    tors = [Fraction(0)] * len(g.torsion)
    for rep in bundle.summands:
        if rep.kind == "real":
            free = [(a + b) % 1 for a, b in zip(free, rep.free)]
            tors = [(a + b) % 1 for a, b in zip(tors, rep.torsion)]
    return LineRep("real", tuple(free), tuple(tors))


# Enumeration of surjective tuples: the oracle for Jordan's totient in
# cflat.classify.affine_class_bound.  A tuple in (Z/order)^rank is onto
# exactly when its entries and the order have gcd 1.


def epimorphism_count_oracle(rank: int, order: int) -> int:
    count = 0
    for code in range(order**rank):
        g = order
        for _ in range(rank):
            g = gcd(g, code % order)
            code //= order
        count += g == 1
    return count


# The lifted holonomy relators multiplied out as affine words in Fraction
# arithmetic -- alpha^k for one screw alpha, and a a, b b, a b a^-1 b^-1 for
# two commuting involutions a and b -- with a product and an inverse of
# their own: the oracles for cflat.bieberbach._holonomy_relators, which
# states each lift in closed form and reads it in integers.  A lift that is
# not integral raises integral_translation's DomainError.


def _fraction_apply(m: IntMatrix, vec) -> tuple:
    return tuple(sum((e * t for e, t in zip(row, vec)), Fraction(0)) for row in m.to_lists())


def affine_product(*maps: AffineMap) -> AffineMap:
    """The composite f g ... of affine maps, x -> f(g(...(x)))."""
    out = maps[0]
    for g in maps[1:]:
        moved = _fraction_apply(out.linear, g.translation)
        out = AffineMap(out.linear * g.linear, tuple(m + t for m, t in zip(moved, out.translation)))
    return out


def affine_inverse(f: AffineMap) -> AffineMap:
    inv = inverse_unimodular(f.linear)
    return AffineMap(inv, tuple(-t for t in _fraction_apply(inv, f.translation)))


def cyclic_relator_oracle(spec: BieberbachGroupSpec) -> tuple:
    (alpha,) = spec.screw_gens()
    word, k = alpha, 1
    while not word.is_translation():
        word, k = affine_product(word, alpha), k + 1
    return [k], word.integral_translation()


def klein_four_relator_oracle(spec: BieberbachGroupSpec) -> list:
    a, b = spec.screw_gens()
    words = [
        ([2, 0], affine_product(a, a)),
        ([0, 2], affine_product(b, b)),
        ([0, 0], affine_product(a, b, affine_inverse(a), affine_inverse(b))),
    ]
    return [(exps, word.integral_translation()) for exps, word in words]


# Trial division: the oracle for the Miller-Rabin test in
# cflat.zlinalg.snf._is_prime.


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# Successive powers: the oracles for IntMatrix.order, which reads the order
# off the cyclotomic factors of the characteristic polynomial, and for
# IntMatrix.norm, which scales psi(g) for psi the product of those factors
# other than Phi_1.


def order_oracle(m: IntMatrix, bound: int) -> int | None:
    """Least k <= bound with m^k = 1 by successive products, else None."""
    power = m
    for k in range(1, bound + 1):
        if power.is_identity():
            return k
        power = power * m
    return None


def power_oracle(m: IntMatrix, e: int) -> IntMatrix:
    power = IntMatrix.identity(m.rows)
    for _ in range(e):
        power = power * m
    return power


def power_sum_oracle(m: IntMatrix, k: int) -> IntMatrix:
    total = IntMatrix.zeros(m.rows, m.cols)
    power = IntMatrix.identity(m.rows)
    for _ in range(k):
        total = total + power
        power = power * m
    return total


# Finite-order lattices of any order: block sums of companion matrices of
# cyclotomic polynomials and of signed cycles, conjugated by a unimodular
# word.  An independent copy of the benchmark's lattice generator.


def cyclotomic_coefficients(m: int) -> list[int]:
    """Phi_m, constant term first: x^m - 1 divided by every Phi_d, d | m, d < m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic_coefficients(d)
            quot = [0] * (len(poly) - len(den) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = c = poly[i + len(den) - 1]
                for j, dj in enumerate(den):
                    poly[i + j] -= c * dj
            assert not any(poly)
            poly = quot
    return poly


_CYCLOTOMIC = {m: cyclotomic_coefficients(m) for m in range(1, 31)}


def _companion(coeffs: list[int]) -> list[list[int]]:
    k = len(coeffs) - 1
    block = [[int(i == j + 1) for j in range(k)] for i in range(k)]
    for i in range(k):
        block[i][k - 1] = -coeffs[i]
    return block


def _signed_cycle(k: int, sign: int) -> list[list[int]]:
    """e_i -> e_(i+1), e_(k-1) -> sign e_0: order k, or 2k when sign = -1."""
    block = [[int(i == j + 1) for j in range(k)] for i in range(k)]
    block[0][k - 1] = sign
    return block


def random_cyclotomic_lattice(rng: random.Random, max_rank: int) -> tuple[IntMatrix, int]:
    """A finite-order matrix of rank at most ``max_rank`` and its order."""
    blocks, order, rank = [], 1, 0
    while True:
        if rng.random() < 0.5:
            m = rng.choice([m for m, phi in _CYCLOTOMIC.items() if len(phi) - 1 <= max_rank])
            block, block_order = _companion(_CYCLOTOMIC[m]), m
        else:
            k, sign = rng.randint(1, max_rank), rng.choice((1, -1))
            block, block_order = _signed_cycle(k, sign), k if sign == 1 else 2 * k
        if rank + len(block) > max_rank:
            break
        blocks.append(block)
        order = order * block_order // gcd(order, block_order)
        rank += len(block)
    core = _block_diag(blocks)  # the first block always fits
    w = random_unimodular(rng, core.rows)
    return w * core * inverse_unimodular(w), order


# The dense kernels: the oracles for the sparse product and the Smith
# reduction of cflat.zlinalg.backend.  The product walks every column of
# the right factor for each nonzero left entry; the Smith reduction scans
# the whole block for its pivot and checks divisibility even at a unit
# pivot.  Both work on lists of lists; the Smith reduction mutates them.


def matmul_oracle(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    k = len(b)
    nc = len(b[0]) if k else 0
    out = []
    for i in range(n):
        ai = a[i]
        row = [0] * nc
        for t in range(k):
            f = ai[t]
            if f:
                bt = b[t]
                for j in range(nc):
                    row[j] += f * bt[j]
        out.append(row)
    return out


def _swap_cols(m, a, b):
    for row in m:
        row[a], row[b] = row[b], row[a]


def _negate_row(m, i):
    row = m[i]
    for j in range(len(row)):
        row[j] = -row[j]


def _row_sub(m, i, t, q):
    ri = m[i]
    rt = m[t]
    for j in range(len(ri)):
        ri[j] -= q * rt[j]


def _row_add(m, t, i):
    rt = m[t]
    ri = m[i]
    for j in range(len(rt)):
        rt[j] += ri[j]


def _col_sub(m, j, t, q):
    for row in m:
        row[j] -= q * row[t]


def snf_inplace_oracle(d, u, v):
    """Smith reduction with the same pivot rule and order of operations as
    ``backend.snf_inplace``, mirroring every operation on ``d`` into the
    identities ``u`` and ``v`` rather than carrying them in one matrix."""
    nr = len(d)
    nc = len(d[0]) if nr else 0
    limit = min(nr, nc)
    t = 0
    while t < limit:
        best_i = -1
        best_j = -1
        best = 0
        for i in range(t, nr):
            di = d[i]
            for j in range(t, nc):
                e = di[j]
                if e:
                    if e < 0:
                        e = -e
                    if best_i < 0 or e < best:
                        best = e
                        best_i = i
                        best_j = j
        if best_i < 0:
            break
        if best_i != t:
            d[t], d[best_i] = d[best_i], d[t]
            u[t], u[best_i] = u[best_i], u[t]
        if best_j != t:
            _swap_cols(d, t, best_j)
            _swap_cols(v, t, best_j)
        while True:
            p = d[t][t]
            if p < 0:
                _negate_row(d, t)
                _negate_row(u, t)
                p = -p
            again = False
            for i in range(t + 1, nr):
                e = d[i][t]
                if e:
                    q = e // p
                    if q:
                        _row_sub(d, i, t, q)
                        _row_sub(u, i, t, q)
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        again = True
                        break
            if again:
                continue
            for j in range(t + 1, nc):
                e = d[t][j]
                if e:
                    q = e // p
                    if q:
                        _col_sub(d, j, t, q)
                        _col_sub(v, j, t, q)
                    if d[t][j]:
                        _swap_cols(d, t, j)
                        _swap_cols(v, t, j)
                        again = True
                        break
            if again:
                continue
            break
        p = d[t][t]
        clean = True
        for i in range(t + 1, nr):
            di = d[i]
            for j in range(t + 1, nc):
                if di[j] % p:
                    _row_add(d, t, i)
                    _row_add(u, t, i)
                    clean = False
                    break
            if not clean:
                break
        if clean:
            t += 1


# The mapping torus through the validating constructors: the oracle for
# cflat.bieberbach.mapping_torus, which builds its generators from rows
# that were already checked.


def mapping_torus_oracle(lat) -> BieberbachGroupSpec:
    n = lat.rank
    k = lat.order
    dim = n + 1
    gens = [translation_map(dim, [1 if j == i else 0 for j in range(dim)]) for i in range(n)]
    block = [
        [lat.g0[i, j] if i < n and j < n else (1 if i == j else 0) for j in range(dim)]
        for i in range(dim)
    ]
    screw = AffineMap(
        IntMatrix(block),
        tuple(Fraction(0) if i < n else Fraction(1, k) for i in range(dim)),
    )
    return BieberbachGroupSpec(name=f"MT{dim}k{k}", dim=dim, gens=tuple(gens) + (screw,))


# The relation matrix assembled column by column through the checked
# constructor, the generator words read off each generator's translation
# test, and the functional on the invariant basis as explicit sums: the
# oracles for cflat.bieberbach.abelianization, which builds the matrix from
# whole rows of L - 1 and reads the words off the sorted generators, and
# for AbelianizationData.functional_on_basis, which takes two products
# with transposes.


def relation_matrix_oracle(spec: BieberbachGroupSpec) -> tuple[IntMatrix, tuple]:
    """(relation matrix, generator words) of a spec."""
    n = spec.dim
    screws = [g for g in spec.gens if not g.is_translation()]
    s = len(screws)
    columns = []
    for g in screws:
        conj = g.linear - IntMatrix.identity(n)
        for i in range(n):
            columns.append([conj[row, i] for row in range(n)] + [0] * s)
    for exps, vec in _holonomy_relators(spec):
        columns.append([-e for e in vec] + list(exps))
    rel = from_columns(columns, rows=n + s)
    words, screw_index = [], 0
    for g in spec.gens:
        if g.is_translation():
            vec = list(g.integral_translation()) + [0] * s
        else:
            vec = [0] * (n + s)
            vec[n + screw_index] = 1
            screw_index += 1
        words.append(tuple(vec))
    return rel, tuple(words)


def functional_on_basis_oracle(ab, gen_values, modulus: int) -> tuple | None:
    """Values on (free basis, torsion basis), or None when the functional
    does not vanish on the relation lattice mod ``modulus``."""
    rel = ab.relation_matrix
    for j in range(rel.cols):
        if sum(gen_values[i] * rel[i, j] for i in range(rel.rows)) % modulus:
            return None
    u_inv = ab.u_inv
    row = [sum(gen_values[i] * u_inv[i, j] for i in range(u_inv.rows)) % modulus for j in range(u_inv.cols)]
    return tuple(row[i] for i in ab.free_positions), tuple(row[i] for i in ab.torsion_positions)


# Helpers that only tests call: a checked constructor by columns, the
# automorphism orbits of line classes, a character's angle on a listed
# generator, and the order of a bundle's total holonomy.


def from_columns(columns, rows: int | None = None) -> IntMatrix:
    """The matrix whose j-th column is ``columns[j]``, through the checked
    constructor.  Every column must have the same length, and that length
    must be ``rows`` when ``rows`` is given."""
    if not columns:
        if rows is None:
            raise DomainError("from_columns with no columns needs an explicit row count")
        return IntMatrix([[] for _ in range(rows)])
    height = len(columns[0]) if rows is None else rows
    for col in columns:
        if len(col) != height:
            raise DomainError(f"column of length {len(col)} in a matrix with {height} rows")
    if not height:
        return IntMatrix._of((), len(columns))
    return IntMatrix([[col[i] for col in columns] for i in range(height)])


def codim1_classes(base: str) -> list[tuple]:
    """Orbits of degree-one mod-2 classes (flat line bundles up to the
    automorphism action), each orbit sorted, lex-least first."""
    aut_orbits = aut_action(base)
    seen = set()
    orbits = []
    for bits in _line_classes(base):
        if bits in seen:
            continue
        orb = aut_orbits[bits]
        seen.update(orb)
        orbits.append(orb)
    orbits.sort(key=lambda orb: orb[0])
    return orbits


def evaluate_on_generator(base: str, rep: LineRep, gen_index: int) -> Fraction:
    """The character's angle on a listed group generator (mod 1)."""
    return _evaluate(rep, base_data(base).ab.gen_image(gen_index))


def holonomy_image_order(bundle: FlatBundleSpec) -> int:
    """Order of the total-space holonomy image (an affine invariant)."""
    return len(total_holonomy(bundle))
