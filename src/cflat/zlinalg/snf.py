"""Smith normal form and the lattice operations derived from it.

Everything is exact integer arithmetic.  The decomposition carries its
unimodular transforms so callers can verify ``u * m * v == d``
directly; derived operations (cokernel, kernel basis, solution of
linear systems over Z, counts of solutions mod m) all reduce to one
Smith reduction.  The transforms ride along in the kernel's working
matrix, as I appended to the right of ``m`` and I below it; the
cokernel reads only the diagonal, so it hands the kernel ``m`` alone,
and a count of solutions mod m is read off the cokernel.
"""

from __future__ import annotations

from math import prod

from .._record import record
from ..errors import DomainError, InternalCheckError
from . import backend
from .abelian import AbelianGroup
from .matrix import IntMatrix


@record
class SNFDecomposition:
    """Witnessed Smith normal form: ``u * matrix * v == d``.

    ``d`` is diagonal with nonnegative entries forming a divisibility
    chain; ``u`` and ``v`` are unimodular.
    """

    matrix: IntMatrix
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        """The full diagonal of ``d`` (length min(rows, cols), zeros kept)."""
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))

    @property
    def divisors(self) -> tuple[int, ...]:
        """The nonzero invariant factors, in ascending divisibility order."""
        return tuple(e for e in self.diagonal if e)

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def check(self) -> None:
        """Re-verify every witness property; raises on any failure.

        Unimodularity: for a square m with det m != 0, u m v = d gives
        det u det v det m = prod diag d once d is checked diagonal, so
        |prod diag d| = |det m| forces |det u| = |det v| = 1; only m's own
        small entries are eliminated.  Otherwise det u and det v are taken.
        """
        if self.u * self.matrix * self.v != self.d:
            raise InternalCheckError("u*m*v != d")
        det_m = self.matrix.det() if self.matrix.is_square else 0
        if det_m:
            unimodular = abs(prod(self.diagonal)) == abs(det_m)
        else:
            unimodular = abs(self.u.det()) == 1 and abs(self.v.det()) == 1
        if not unimodular:
            raise InternalCheckError("transform is not unimodular")
        diag = self.diagonal
        for i in range(self.d.rows):
            for j in range(self.d.cols):
                if i != j and self.d[i, j]:
                    raise InternalCheckError("d is not diagonal")
        seen_zero = False
        for e in diag:
            if e < 0:
                raise InternalCheckError("negative diagonal entry")
            if e == 0:
                seen_zero = True
            elif seen_zero:
                raise InternalCheckError("zero divisor before a nonzero one")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a:
                raise InternalCheckError(f"divisor chain broken: {a} does not divide {b}")


def smith_normal_form(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form with unimodular transforms.

    >>> dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> dec.divisors
    (2, 4)
    """
    r, c = m.rows, m.cols
    work = [row + unit for row, unit in zip(m.to_lists(), IntMatrix.identity(r).to_lists())]
    work += IntMatrix.identity(c).to_lists()
    backend.snf_inplace(work, r, c)
    top = work[:r]
    d = IntMatrix._of([row[:c] for row in top], c)
    u = IntMatrix._of([row[c:] for row in top], r)
    return SNFDecomposition(matrix=m, d=d, u=u, v=IntMatrix._of(work[r:], c))


def _smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith form of ``m`` (zeros kept), reduced
    without building the transforms."""
    d = m.to_lists()
    backend.snf_inplace(d, m.rows, m.cols)
    return tuple(d[i][i] for i in range(min(m.rows, m.cols)))


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Z^rows modulo the lattice spanned by the columns of ``m``.

    >>> str(cokernel(IntMatrix([[2, 0], [0, 3]])))
    'Z/6'
    """
    divisors = [e for e in _smith_diagonal(m) if e]
    return AbelianGroup(m.rows - len(divisors), tuple(e for e in divisors if e > 1))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A primitive basis of the integer kernel lattice of ``m``.

    Returns a cols x k matrix whose columns form a basis of
    ``{x : m @ x = 0}``; the columns extend to a basis of Z^cols, so
    the basis is primitive.  k may be zero.
    """
    dec = smith_normal_form(m)
    diag = dec.diagonal
    free_cols = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return IntMatrix._of([[dec.v[i, j] for j in free_cols] for i in range(m.cols)], len(free_cols))


# Miller-Rabin with these bases decides primality exactly below
# _MR_EXACT_BELOW, the least strong pseudoprime to all of them (Sorenson &
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a ``DomainError`` from 3.1e23 up,
    where these bases no longer decide."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_EXACT_BELOW:
        raise DomainError(f"primality is decided only below {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(k: int) -> list[int]:
    """The distinct primes dividing k, ascending, by trial division."""
    out = []
    n = k
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def rank_mod(m: IntMatrix, p: int) -> int:
    """Rank of ``m`` over the prime field F_p."""
    if not _is_prime(p):
        raise DomainError(f"rank_mod needs a prime modulus, got {p}")
    return backend.rank_mod_inplace(m.to_lists(), p)


def fixed_card_mod(m: IntMatrix, modulus: int) -> int:
    """Number of solutions of ``m @ x == 0`` in (Z/modulus)^cols.

    The modulus may be composite.  With C = coker(m) and r = rank(m), C
    has free rank rows - r and the solutions number modulus^(cols - r)
    times gcd(d, modulus) per Smith divisor d, so they are
    modulus^(cols - rows) * |C / modulus C|, an integer.

    >>> fixed_card_mod(IntMatrix([[-1, 1], [1, -1]]), 2)
    2
    """
    if modulus < 2:
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    return cokernel(m).quotient_card(modulus) * modulus**m.cols // modulus**m.rows


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve ``a @ x == b`` column by column over the integers.

    Raises DomainError when some column of ``b`` is not in the column
    lattice of ``a``.  When a solution exists it is produced exactly;
    free coordinates are set to zero.
    """
    if a.rows != b.rows:
        raise DomainError(f"row mismatch: {a.rows} vs {b.rows}")
    dec = smith_normal_form(a)
    diag = dec.diagonal
    ub = dec.u * b
    z = [[0] * b.cols for _ in range(a.cols)]
    for jb in range(b.cols):
        for i in range(a.rows):
            rhs = ub[i, jb]
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if rhs != 0:
                    raise DomainError("system has no rational solution")
            else:
                if rhs % d:
                    raise DomainError("system has no integral solution")
                if i < a.cols:
                    z[i][jb] = rhs // d
    return dec.v * IntMatrix._of(z, b.cols)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular square matrix.

    Uses the Smith transforms: the Smith form of a unimodular matrix is
    the identity, so inverse = v * u.
    """
    if not m.is_square:
        raise DomainError("inverse of a non-square matrix")
    dec = smith_normal_form(m)
    if not dec.d.is_identity():
        raise DomainError("matrix is not unimodular")
    return dec.v * dec.u
