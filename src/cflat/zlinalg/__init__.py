"""Exact integer linear algebra: matrices, Smith normal form, derived
lattice operations, and finitely generated abelian groups."""

from .abelian import AbelianGroup
from .backend import KERNEL_BACKEND
from .matrix import IntMatrix
from .snf import (
    SNFDecomposition,
    cokernel,
    fixed_card_mod,
    inverse_unimodular,
    kernel_basis,
    rank_mod,
    smith_normal_form,
    solve_columns,
)

__all__ = [
    "AbelianGroup",
    "IntMatrix",
    "KERNEL_BACKEND",
    "SNFDecomposition",
    "cokernel",
    "fixed_card_mod",
    "inverse_unimodular",
    "kernel_basis",
    "rank_mod",
    "smith_normal_form",
    "solve_columns",
]
