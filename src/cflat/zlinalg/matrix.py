"""Dense integer matrices with exact arithmetic.

``IntMatrix`` is an immutable rectangular matrix of Python ints.  All
operations are exact; nothing here ever touches floating point.

Entries are checked once, where a matrix enters the program: the public
constructor and ``from_columns``.  Matrices computed from matrices that
already passed (products, sums, transposes, Smith transforms) are built
with the unchecked ``IntMatrix._of``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import DomainError
from . import backend


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers.

    >>> m = IntMatrix([[2, 4], [6, 8]])
    >>> m.det()
    -8
    >>> (m * IntMatrix.identity(2)) == m
    True
    """

    __slots__ = ("rows", "cols", "_data")

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

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        """Build a matrix whose j-th column is ``columns[j]``.

        Every column must have the same length, and that length must be
        ``rows`` when ``rows`` is given.
        """
        if not columns:
            if rows is None:
                raise DomainError("from_columns with no columns needs an explicit row count")
            return cls([[] for _ in range(rows)])
        height = len(columns[0]) if rows is None else rows
        for col in columns:
            if len(col) != height:
                raise DomainError(f"column of length {len(col)} in a matrix with {height} rows")
        if not height:
            return cls._of((), len(columns))
        return cls([[col[i] for col in columns] for i in range(height)])

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

    def is_zero(self) -> bool:
        return all(e == 0 for row in self._data for e in row)

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DomainError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if not other.rows:
            return IntMatrix.zeros(self.rows, other.cols)
        return IntMatrix._of(backend.matmul(self.to_lists(), other.to_lists()), other.cols)

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

    def scale(self, c: int) -> "IntMatrix":
        _check_scalar(c)
        return IntMatrix._of([[c * e for e in row] for row in self._data], self.cols)

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

    def pow(self, k: int) -> "IntMatrix":
        """Nonnegative integer power of a square matrix."""
        if not self.is_square:
            raise DomainError("matrix power needs a square matrix")
        if k < 0:
            raise DomainError("negative matrix power not supported")
        out = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def order(self, bound: int) -> int:
        """Least k >= 1 with self^k = 1, by successive products; a
        ``DomainError`` once k would pass ``bound``."""
        if not self.is_square:
            raise DomainError("matrix order needs a square matrix")
        ident = IntMatrix.identity(self.rows)
        power = self
        k = 1
        while power != ident:
            power = power * self
            k += 1
            if k > bound:
                raise DomainError(f"matrix order exceeds bound {bound}")
        return k

    def det(self) -> int:
        """Exact determinant (fraction-free elimination)."""
        if not self.is_square:
            raise DomainError("determinant of a non-square matrix")
        return backend.det_inplace(self.to_lists())

    def mod(self, m: int) -> "IntMatrix":
        _check_scalar(m)
        return IntMatrix._of([[e % m for e in row] for row in self._data], self.cols)

    # -- equality / hashing / repr -----------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        body = ", ".join(str(list(row)) for row in self._data)
        return f"IntMatrix([{body}])"


def _check_scalar(c) -> None:
    if not isinstance(c, int):
        raise DomainError(f"non-integer scalar {c!r}")
