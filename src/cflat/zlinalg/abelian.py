"""Finitely generated abelian groups in invariant-factor form."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from ..errors import DomainError


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank plus cyclic factors Z/d1 + ... + Z/dk, d1 | d2 | ... .

    The torsion tuple is always a normalized divisor chain with every
    entry >= 2, so equal groups compare equal.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("negative free rank")
        ds = tuple(self.torsion)
        if any(d < 2 for d in ds):
            raise DomainError(f"torsion coefficients must be >= 2, got {ds}")
        for a, b in zip(ds, ds[1:]):
            if b % a:
                raise DomainError(f"torsion {ds} is not a divisor chain")
        object.__setattr__(self, "torsion", ds)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def torsion_cardinality(self) -> int:
        return prod(self.torsion)

    def cardinality(self) -> int:
        """Order of the group; raises if infinite."""
        if self.free_rank:
            raise DomainError("infinite group has no cardinality")
        return self.torsion_cardinality()

    def quotient_card(self, q: int) -> int:
        """Order of G / qG: q per free summand times gcd(d, q) per Z/d."""
        return q**self.free_rank * prod(gcd(d, q) for d in self.torsion)

    def torsion_subgroup(self) -> "AbelianGroup":
        return AbelianGroup(0, self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"
