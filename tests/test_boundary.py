"""Input checks at the public entry points: ``cflat.__all__``,
``cflat.zlinalg.__all__`` and the constructors and methods of the types
they take or return.  One row per check, each with the error and
message it gives."""

import re
from fractions import Fraction

import pytest

from cflat import (
    AbelianGroup,
    BieberbachGroupSpec,
    DomainError,
    IntMatrix,
    LineRep,
    abelianization,
    catalog_group,
    diffeo_classes,
    line_with_w1,
    w1_of_line,
)
from cflat.bieberbach import AffineMap
from cflat.zlinalg import inverse_unimodular, solve_columns

ROW = IntMatrix([[1, 2]])
ONE = IntMatrix.identity(1)
REFLECTION = IntMatrix([[-1]])

# (what is checked, the call, the error it raises, the message it gives)
BOUNDARY = [
    ("AffineMap, non-square linear part", lambda: AffineMap(ROW, (0,)), DomainError, "affine generator needs a square linear part"),
    ("AffineMap, translation length", lambda: AffineMap(IntMatrix.identity(2), (0,)), DomainError, "translation length does not match the dimension"),
    ("BieberbachGroupSpec, generator dimension", lambda: BieberbachGroupSpec("bad", 2, (AffineMap(ONE, (1,)),)), DomainError, "generator dimension 1 != 2"),
    ("AbelianizationData.project, length", lambda: abelianization(catalog_group("K")).project((1,)), DomainError, "expected length 3, got 1"),
    ("AbelianizationData.functional_on_basis, length", lambda: abelianization(catalog_group("K")).functional_on_basis((0,), 2), DomainError, "functional length mismatch"),
    ("abelianization, relator off the lattice", lambda: abelianization(BieberbachGroupSpec("quarter", 2, (AffineMap(IntMatrix([[-1, 0], [0, 1]]), (0, Fraction(1, 4))),))), DomainError, "translation 1/2 is not integral"),
    ("abelianization, three screws", lambda: abelianization(BieberbachGroupSpec("three", 1, (AffineMap(REFLECTION, (0,)),) * 3)), DomainError, "unsupported holonomy: 3 screw generators"),
    ("diffeo_classes, base that is not a surface", lambda: diffeo_classes("G1", 5), DomainError, "classification implemented over"),
    ("line_with_w1, bit-vector length", lambda: line_with_w1("K", (1,)), DomainError, "bit-vector length mismatch"),
    ("w1_of_line, complex character", lambda: w1_of_line("K", LineRep("complex", (Fraction(1, 3),), (Fraction(0),))), DomainError, "w1_of_line takes a real character"),
    ("AbelianGroup, torsion below 2", lambda: AbelianGroup(0, (1, 2)), DomainError, r"torsion coefficients must be >= 2, got \(1, 2\)"),
    ("IntMatrix product, shapes", lambda: ROW * ROW, DomainError, "cannot multiply 1x2 by 1x2"),
    ("IntMatrix times a scalar", lambda: ROW * 2, TypeError, "unsupported operand"),
    ("IntMatrix sum, shapes", lambda: ONE + ROW, DomainError, "shape mismatch: 1x1 vs 1x2"),
    ("IntMatrix.apply_vector, length", lambda: ROW.apply_vector((1,)), DomainError, "vector length 1 != column count 2"),
    ("IntMatrix.det, non-square", lambda: ROW.det(), DomainError, "determinant of a non-square matrix"),
    ("solve_columns, rows", lambda: solve_columns(ONE, IntMatrix([[1], [2]])), DomainError, "row mismatch: 1 vs 2"),
    ("inverse_unimodular, non-square", lambda: inverse_unimodular(ROW), DomainError, "inverse of a non-square matrix"),
]


def test_public_entry_points_refuse_bad_input():
    for what, call, error, message in BOUNDARY:
        try:
            call()
        except error as exc:
            assert re.search(message, str(exc)), (what, str(exc))
        else:
            pytest.fail(f"{what}: no {error.__name__}")
