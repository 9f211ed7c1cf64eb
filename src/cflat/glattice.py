"""First cohomology of a finite-order integer lattice automorphism.

A ``GLattice`` is the lattice Z^n together with one automorphism g0 of
finite order k -- equivalently a module over the cyclic group of order
k.  The module computes H^1 of that action three independent ways:

* an elimination oracle: ker(norm) / im(g0 - 1) via a primitive kernel
  basis and a cokernel,
* a counting formula: the number of fixed vectors mod k corrected by
  the fixed rank at an auxiliary prime q coprime to k (the correction
  divides exactly; non-divisibility is a checked internal error),
* for prime k, a two-dimension count p^(fixdim_p - fixdim_q).

It also gives a sufficient-condition certificate for vanishing of H^1,
and keeps the coinvariant group Z^n / im(g0 - 1) as
``GLattice.coinvariant_group``.

A lattice is made from g0 alone and checks it once, when it is made;
its rank and order are read off g0.  Every route works from the same
g0 - 1 and the same fixed dimensions mod each prime: a lattice builds
its difference matrix once, reduces it to its coinvariant group once,
and runs one ``rank_mod`` per prime, however many routes ask.  The
counting formula reads its fixed-point count off that one group.
"""

from __future__ import annotations

import enum
from functools import cached_property

from ._record import record
from .errors import DomainError, InternalCheckError
from .zlinalg import AbelianGroup, IntMatrix, cokernel, kernel_basis, rank_mod
from .zlinalg.snf import _is_prime, _prime_divisors, solve_columns

_ORDER_BOUND = 10_000
_PRIME_BOUND = 2**31 - 1


@record
class GLattice:
    """Z^n with one automorphism ``g0`` of finite order.

    Made from g0 alone, and checked once, here: g0 must be square with
    det = +-1 and of order at most 10,000.  ``rank`` and ``order`` are
    read off g0; the order is kept on g0, so it is found once.
    """

    g0: IntMatrix

    def __post_init__(self):
        g0 = self.g0
        if not g0.is_square:
            raise DomainError(f"automorphism matrix must be square, got {g0.rows}x{g0.cols}")
        try:
            g0.order(_ORDER_BOUND)  # a finite order settles det = +-1
        except DomainError:
            if abs(g0.det()) != 1:
                raise DomainError("matrix is not a lattice automorphism (det != +-1)") from None
            raise
        object.__setattr__(self, "_fixed_dims", {})  # prime -> fixed dimension, filled by fixed_dim

    @property
    def rank(self) -> int:
        return self.g0.rows

    @property
    def order(self) -> int:
        return self.g0.order(_ORDER_BOUND)

    @cached_property
    def difference(self) -> IntMatrix:
        """g0 - 1, built once per lattice."""
        return self.g0 - IntMatrix.identity(self.rank)

    @cached_property
    def coinvariant_group(self) -> AbelianGroup:
        """Z^n / im(g0 - 1), one Smith reduction without witnesses per lattice."""
        return cokernel(self.difference)

    def fixed_dim(self, p: int) -> int:
        """Dimension of the fixed space of g0 over F_p, computed once per prime."""
        if p not in self._fixed_dims:
            self._fixed_dims[p] = self.rank - rank_mod(self.difference, p)
        return self._fixed_dims[p]


def make_glattice(g0: IntMatrix) -> GLattice:
    """``GLattice(g0)``, which checks g0 (square, det = +-1, finite order).

    The order comes from ``IntMatrix.order``: the lcm of the cyclotomic
    factors of the characteristic polynomial, confirmed by at most rank
    products, and a ``DomainError`` when g0^k = 1 for no k up to 10,000.
    Those products also give the norm; a finite order gives det g0 = +-1.
    """
    return GLattice(g0)


def h1_oracle(lat: GLattice) -> AbelianGroup:
    """H^1 of the action by direct elimination: ker(norm)/im(g0 - 1).

    The image of g0 - 1 lies inside the kernel lattice of the norm map
    (their composite is g0^k - 1 = 0), so the generators of the image
    have exact integer coordinates in a primitive basis of that kernel;
    H^1 is the cokernel of those coordinates.  The result is always
    finite.
    """
    norm = lat.g0.norm(_ORDER_BOUND)  # sum of g0^i, i < k
    kb = kernel_basis(norm)  # rank x r, primitive
    try:
        coords = solve_columns(kb, lat.difference)  # r x rank
    except DomainError as exc:
        raise InternalCheckError(
            f"image of (g0 - 1) escaped the norm kernel: {exc}"
        ) from exc
    group = cokernel(coords)
    if group.free_rank != 0:
        raise InternalCheckError("H^1 of a finite cyclic action must be finite")
    return group


def h1_card_formula(lat: GLattice, q: int) -> int:
    """Cardinality of H^1 by the fixed-point counting formula.

    ``q`` must be a prime not dividing the order k.  The count of fixed
    vectors of g0 on (Z/k)^n is divided by k to the power of the fixed
    dimension at q; the division is exact on valid input and a failure
    is reported as an internal inconsistency.
    """
    k = lat.order
    _require_coprime_prime(q, k)
    if k == 1:
        return 1
    fixed = lat.coinvariant_group.quotient_card(k)  # |(Z/k)^n fixed by g0| = |C / kC|
    fixdim_q = lat.fixed_dim(q)
    denom = k**fixdim_q
    if fixed % denom:
        raise InternalCheckError(
            f"fixed-point count {fixed} is not divisible by k^fixdim = {denom}"
        )
    return fixed // denom


def h1_card_prime_formula(lat: GLattice, q: int) -> int:
    """Cardinality of H^1 when the order k is prime: k^(fixdim_k - fixdim_q)."""
    k = lat.order
    if not _is_prime(k):
        raise DomainError(f"prime-order formula needs prime order, got {k}")
    _require_coprime_prime(q, k)
    fixdim_k = lat.fixed_dim(k)
    fixdim_q = lat.fixed_dim(q)
    if fixdim_k < fixdim_q:
        raise InternalCheckError(
            f"fixed dimension dropped below the coprime reference: {fixdim_k} < {fixdim_q}"
        )
    return k ** (fixdim_k - fixdim_q)


class TrivialityCertificate(enum.Enum):
    """Outcome of the sufficient vanishing test for H^1."""

    PROVEN_TRIVIAL = "proven_trivial"
    INCONCLUSIVE = "inconclusive"


def h1_triviality_certificate(lat: GLattice, q: int) -> TrivialityCertificate:
    """Sufficient condition for H^1 = 0.

    If for every prime p dividing the order the fixed dimension mod p
    equals the fixed dimension mod q (q prime, coprime to the order),
    the cohomology vanishes.  The test never proves nontriviality.
    """
    k = lat.order
    _require_coprime_prime(q, k)
    if k == 1:
        return TrivialityCertificate.PROVEN_TRIVIAL
    fixdim_q = lat.fixed_dim(q)
    for p in _prime_divisors(k):
        if lat.fixed_dim(p) != fixdim_q:
            return TrivialityCertificate.INCONCLUSIVE
    return TrivialityCertificate.PROVEN_TRIVIAL


@record
class H1Report:
    """All H^1 computations for one lattice action, cross-checked."""

    lattice: GLattice
    group: AbelianGroup
    cardinality: int
    formula_value: int
    prime_formula_value: int | None
    q_used: int
    certificate: TrivialityCertificate


def h1_report(lat: GLattice, q: int | None = None) -> H1Report:
    """Run the oracle, the formula(s) and the certificate together.

    Picks the smallest admissible prime q when none is given.  Any
    disagreement between routes is an internal error, never a report.
    """
    if q is None:
        q = _smallest_coprime_prime(lat.order)
    group = h1_oracle(lat)
    card = group.cardinality()
    formula = h1_card_formula(lat, q)
    if formula != card:
        raise InternalCheckError(
            f"counting formula {formula} disagrees with oracle {card}"
        )
    prime_value: int | None = None
    if _is_prime(lat.order):
        prime_value = h1_card_prime_formula(lat, q)
        if prime_value != card:
            raise InternalCheckError(
                f"prime-order formula {prime_value} disagrees with oracle {card}"
            )
    cert = h1_triviality_certificate(lat, q)
    if cert is TrivialityCertificate.PROVEN_TRIVIAL and not group.is_trivial:
        raise InternalCheckError("triviality certificate contradicts the oracle")
    return H1Report(
        lattice=lat,
        group=group,
        cardinality=card,
        formula_value=formula,
        prime_formula_value=prime_value,
        q_used=q,
        certificate=cert,
    )


def _require_coprime_prime(q: int, k: int) -> None:
    if q > _PRIME_BOUND:
        raise DomainError(f"auxiliary modulus {q} exceeds bound {_PRIME_BOUND}")
    if not _is_prime(q):
        raise DomainError(f"auxiliary modulus must be prime, got {q}")
    if k % q == 0:
        raise DomainError(f"auxiliary prime {q} divides the order {k}")


def _smallest_coprime_prime(k: int) -> int:
    q = 2
    while k % q == 0 or not _is_prime(q):
        q += 1
    return q
