"""Dense integer matrices with exact arithmetic.

``IntMatrix`` is an immutable rectangular matrix of Python ints.  All
operations are exact; nothing here ever touches floating point.

Entries are checked once, where a matrix enters the program: the public
constructor.  Internal results (products, sums, transposes, Smith
transforms and what is derived from them) are built with the unchecked
``IntMatrix._of``.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from ..errors import DomainError
from . import backend

# Exponents e of Mersenne primes 2^e - 1.  The characteristic polynomial
# of an n x n matrix is computed mod the first such prime with e >= n + 2:
# it exceeds 2^(n+1) >= 2 * C(n, n//2), twice the largest coefficient a
# product of cyclotomic polynomials of degree n can have.  The table stops
# at rank 1277, where the O(n^3) reduction already takes 2e9 steps.
_MERSENNE_EXPONENTS = (61, 127, 521, 607, 1279)

_IDENTITIES: dict[int, "IntMatrix"] = {}


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers.

    >>> m = IntMatrix([[2, 4], [6, 8]])
    >>> m.det()
    -8
    >>> (m * IntMatrix.identity(2)) == m
    True
    """

    __slots__ = ("rows", "cols", "_data", "_sparse", "_order", "_norm", "_det")

    def __init__(self, entries: Iterable[Sequence[int]]):
        data = tuple(tuple(row) for row in entries)
        width = len(data[0]) if data else 0
        for row in data:
            if len(row) != width:
                raise DomainError("ragged rows in matrix input")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise DomainError(f"non-integer matrix entry {e!r}")
        self._fill(data, width)

    @classmethod
    def _of(cls, rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        """Wrap rectangular rows of ints, ``cols`` wide, without checking
        them.  ``cols`` keeps the width of a matrix with no rows.

        Only for rows computed from entries that were already checked.
        """
        self = object.__new__(cls)
        self._fill(tuple(map(tuple, rows)), cols)
        return self

    def _fill(self, data: tuple[tuple[int, ...], ...], cols: int) -> None:
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild through ``_of``, not ``__setattr__``."""
        return IntMatrix._of, (self._data, self.cols)

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        """The n x n identity; one shared instance per dimension."""
        ident = _IDENTITIES.get(n)
        if ident is None:
            if n < 0:
                raise DomainError(f"negative matrix size {n}")
            ident = _IDENTITIES[n] = cls._of(
                [[1 if i == j else 0 for j in range(n)] for i in range(n)], n
            )
        return ident

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise DomainError(f"negative matrix size {rows}x{cols}")
        return cls._of([[0] * cols for _ in range(rows)], cols)

    # -- access ------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._data)

    def to_lists(self) -> list[list[int]]:
        """Mutable copy, the form the elimination kernels work on."""
        return [list(row) for row in self._data]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.rows)

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product by ``backend.matmul``, which reads this matrix's
        row tuples and the right factor's sparse rows without copying.

        A matrix builds its sparse rows the first time it is a right
        factor and keeps them: the holonomy walk and ``order``'s Horner
        steps multiply by the same generator again and again.
        """
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DomainError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if not other.rows:
            return IntMatrix.zeros(self.rows, other.cols)
        return IntMatrix._of(backend.matmul(self._data, other._sparse_rows(), other.cols), other.cols)

    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        try:
            return self._sparse
        except AttributeError:
            sparse = backend.sparse_rows(self._data)
            object.__setattr__(self, "_sparse", sparse)
            return sparse

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ],
            self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of([[-e for e in row] for row in self._data], self.cols)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DomainError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix.zeros(self.cols, 0)
        return IntMatrix._of(zip(*self._data), self.rows)

    def apply_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DomainError(f"vector length {len(vec)} != column count {self.cols}")
        return tuple(sum(e * x for e, x in zip(row, vec)) for row in self._data)

    def order(self, bound: int) -> int:
        """Least k >= 1 with self^k = 1; a ``DomainError`` when there is
        no such k up to ``bound``.

        A finite-order integer matrix is diagonalizable with roots of
        unity as eigenvalues, so its characteristic polynomial chi is a
        product of cyclotomic polynomials Phi_m and its order is the lcm
        of the m (Kuzmanovich & Pavlichenkov, "Finite groups of matrices
        whose entries are integers", Amer. Math. Monthly 109, 2002).
        That lcm k is read off chi.  Then self^k = 1 exactly when self is
        semisimple: when psi(self) = 0, psi the product of the distinct
        Phi_m with m > 1, or (self - 1) psi(self) = 0 when Phi_1 divides
        chi.  Horner's rule takes deg psi products, and self - 1 one more.

        The order is kept on the matrix, with det = (-1)^n chi(0) and the
        norm that come with it, so chi is factored and psi(self) taken
        once; a later call compares the kept order with its own bound.
        """
        if not self.is_square:
            raise DomainError("matrix order needs a square matrix")
        k = getattr(self, "_order", None)
        if k is None:
            n, chi = self.rows, _charpoly(self)
            found = _cyclotomic_order(chi, bound)
            if found is None:
                raise DomainError(f"matrix order exceeds bound {bound}")
            k, psi = found
            p = IntMatrix.identity(n)
            for c in reversed(psi[:-1]):
                rows = (p * self).to_lists()
                for i in range(n):
                    rows[i][i] += c
                p = IntMatrix._of(rows, n)
            if any(map(any, (p if sum(chi) else p * self - p)._data)):  # chi(1) = 0: Phi_1 divides chi
                raise DomainError(f"matrix order exceeds bound {bound}")
            q = k // sum(psi)  # psi(1), the product of the p over the m = p^a, divides k
            object.__setattr__(self, "_norm", IntMatrix._of([[q * e for e in row] for row in p._data], n))
            object.__setattr__(self, "_det", -chi[0] if n % 2 else chi[0])
            object.__setattr__(self, "_order", k)
        if k > bound:
            raise DomainError(f"matrix order exceeds bound {bound}")
        return k

    def norm(self, bound: int) -> "IntMatrix":
        """N = sum of self^i for 0 <= i < k, with k = ``order(bound)``.

        On the fixed space N is k and psi(self) is psi(1); on each other
        eigenvector both vanish.  So N = (k / psi(1)) psi(self), kept by
        ``order``: no product here.
        """
        self.order(bound)
        return self._norm

    def det(self) -> int:
        """Exact determinant (fraction-free elimination), kept on the
        matrix; ``order`` keeps the one it reads off chi."""
        if not self.is_square:
            raise DomainError("determinant of a non-square matrix")
        d = getattr(self, "_det", None)
        if d is None:
            d = backend.det_inplace(self.to_lists())
            object.__setattr__(self, "_det", d)
        return d

    # -- equality / hashing / repr -----------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        if not self.rows and self.cols:  # no row to carry the width
            return f"IntMatrix.zeros(0, {self.cols})"
        body = ", ".join(str(list(row)) for row in self._data)
        return f"IntMatrix([{body}])"


def _charpoly(m: IntMatrix) -> list[int]:
    """det(x - m), constant term first, by a Hessenberg reduction mod a
    Mersenne prime p > 2^(n+1) and a lift to the symmetric range.

    Exact whenever every coefficient is below p/2 in absolute value, as
    it is for every product of cyclotomic polynomials.
    """
    n = m.rows
    e = next((e for e in _MERSENNE_EXPONENTS if e >= n + 2), None)
    if e is None:
        top = _MERSENNE_EXPONENTS[-1] - 2
        raise DomainError(f"characteristic polynomial is not computed past rank {top}")
    p = (1 << e) - 1
    h = [[x % p for x in row] for row in m.to_lists()]
    # similarity transforms to upper Hessenberg form (Cohen, A Course in
    # Computational Algebraic Number Theory, algorithm 2.2.9)
    for j in range(1, n - 1):
        piv = next((i for i in range(j, n) if h[i][j - 1]), None)
        if piv is None:
            continue
        if piv != j:
            h[piv], h[j] = h[j], h[piv]
            for row in h:
                row[piv], row[j] = row[j], row[piv]
        inv = pow(h[j][j - 1], -1, p)
        for i in range(j + 1, n):
            u = h[i][j - 1] * inv % p
            if u:
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[j])]
                for row in h:
                    row[j] = (row[j] + u * row[i]) % p
    # chi_j, the polynomial of the leading j x j block, by expansion
    # along its last column
    chis = [[1]]
    for j in range(n):
        cur = [0] + chis[j]
        for i, c in enumerate(chis[j]):
            cur[i] -= h[j][j] * c
        t = 1
        for i in range(j - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            c = t * h[i][j] % p
            for a, d in enumerate(chis[i]):
                cur[a] -= c * d
        chis.append([c % p for c in cur])
    return [c - p if c > p // 2 else c for c in chis[n]]


def _cyclotomic_order(chi: list[int], bound: int) -> tuple[int, list[int]] | None:
    """The lcm k of the m and psi, the product of the distinct Phi_m with
    m > 1, when the monic ``chi`` (constant term first) is a product of
    cyclotomic Phi_m; None when it is not, or when k passes ``bound``.

    Phi_m has degree phi(m) >= sqrt(m / 2), so no m past 2 deg^2 divides.
    """
    n = len(chi) - 1
    k, psi = 1, [1]
    for m, deg in _cyclotomic_candidates(n, min(bound, 2 * n * n)):
        if len(chi) == 1:
            break
        if deg >= len(chi):
            continue
        phi_m = _cyclotomic(m)
        quot = _divide_monic(chi, phi_m)
        if quot is None:
            continue
        k = lcm(k, m)
        if k > bound:
            return None
        if m > 1:
            psi = _poly_mul(psi, phi_m)
        while quot is not None:
            chi, quot = quot, _divide_monic(quot, phi_m)
    return (k, psi) if len(chi) == 1 and k <= bound else None


@lru_cache(maxsize=None)
def _cyclotomic_candidates(n: int, top: int) -> tuple[tuple[int, int], ...]:
    """The pairs (m, phi(m)) with m <= top and phi(m) <= n, m ascending:
    one totient sieve per (n, top), on first use."""
    totient = list(range(top + 1))
    for q in range(2, top + 1):
        if totient[q] == q:  # q is prime
            for r in range(q, top + 1, q):
                totient[r] -= totient[r] // q
    return tuple((m, totient[m]) for m in range(1, top + 1) if totient[m] <= n)


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m, constant term first: Phi_(rp)(x) = Phi_r(x^p) / Phi_r(x) for
    a prime p not dividing r, and Phi_m(x) = Phi_rad(m)(x^(m / rad(m))).

    Tabulated per m on first use, as a tuple that no caller can change.
    ``_cyclotomic_order`` asks only for the m with phi(m) at most the
    rank of a matrix whose order was asked for.
    """
    phi, rad, rest, q = [-1, 1], 1, m, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            phi = _divide_monic(_substitute(phi, q), phi)
            rad *= q
            while rest % q == 0:
                rest //= q
        q += 1
    return tuple(_substitute(phi, m // rad))


def _substitute(poly: list[int], e: int) -> list[int]:
    """poly(x^e)."""
    out = [0] * ((len(poly) - 1) * e + 1)
    out[::e] = poly
    return out


def _poly_mul(a: list[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide_monic(num: list[int], den: list[int]) -> list[int] | None:
    """num / den for a monic ``den``, or None when it leaves a remainder."""
    num = list(num)
    d = len(den) - 1
    if len(num) <= d:
        return None
    quot = [0] * (len(num) - d)
    for i in range(len(num) - d - 1, -1, -1):
        c = quot[i] = num[i + d]
        if c:
            for j in range(d):
                num[i + j] -= c * den[j]
    return None if any(num[:d]) else quot
