"""Posets, the way-below relation, domain bases, and the truncated
flat-semilattice model over exact rationals.

In a finite poset every directed set attains its supremum at its maximum
element, so way-below coincides with <=: the code uses P.le, and
way_below_by_definition is kept as the independent oracle.  For the same
reason the only domain basis of a finite poset is the whole carrier.

All order data is exact (integers and Fractions) so the metric machinery
downstream never sees rounded inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import TooLarge, WorkbenchError


@dataclass(frozen=True)
class FinitePoset:
    """A partial order on 0..n-1 as a boolean relation matrix."""

    leq: tuple[tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.leq)

    def le(self, x: int, y: int) -> bool:
        return self.leq[x][y]

    def elements(self) -> range:
        return range(self.n)

    def upper_bounds(self, subset) -> list[int]:
        return [u for u in self.elements() if all(self.le(x, u) for x in subset)]

    def sup(self, subset) -> Optional[int]:
        """Least upper bound of subset, or None if it does not exist."""
        ubs = self.upper_bounds(subset)
        least = [u for u in ubs if all(self.le(u, v) for v in ubs)]
        return least[0] if least else None

    def is_up_directed(self, subset) -> bool:
        subset = list(subset)
        if not subset:
            return False
        return all(
            any(self.le(x, d) and self.le(y, d) for d in subset)
            for x in subset
            for y in subset
        )


def validate_poset(leq) -> FinitePoset:
    rel = tuple(tuple(bool(v) for v in row) for row in leq)
    n = len(rel)
    if any(len(row) != n for row in rel):
        raise WorkbenchError("leq matrix is not square")
    for x in range(n):
        if not rel[x][x]:
            raise WorkbenchError(f"not reflexive at {x}")
        for y in range(n):
            if x != y and rel[x][y] and rel[y][x]:
                raise WorkbenchError(f"not antisymmetric at ({x},{y})")
            if rel[x][y]:
                for z in range(n):
                    if rel[y][z] and not rel[x][z]:
                        raise WorkbenchError(f"not transitive at ({x},{y},{z})")
    return FinitePoset(rel)


def way_below_by_definition(P: FinitePoset, x: int, y: int) -> bool:
    """x << y by direct enumeration: every nonempty up-directed subset D
    whose sup exists and dominates y must contain some d >= x.

    Exponential in |P|; refuses carriers above 12 elements."""
    if P.n > 12:
        raise TooLarge(f"definition-based way-below limited to 12, got {P.n}")
    elems = list(P.elements())
    for r in range(1, P.n + 1):
        for D in itertools.combinations(elems, r):
            if not P.is_up_directed(D):
                continue
            s = P.sup(D)
            if s is None or not P.le(y, s):
                continue
            if not any(P.le(x, d) for d in D):
                return False
    return True


def is_basis(P, B):
    """Is B a domain basis: each B_x = {b in B : b << x} up-directed with
    sup x?  B_x is finite, so when directed it has a greatest element, and
    sup B_x = x exactly when x is in B.  Returns (True, None) or (False, the
    least element missing from B).  Raises when some element of B lies
    outside P.elements()."""
    elements = P.elements()
    outside = [b for b in B if b not in elements]
    if outside:
        raise WorkbenchError(f"basis element {outside[0]} is not in the poset "
                             f"(elements 0..{len(elements) - 1})")
    members = set(B)
    missing = next((x for x in elements if x not in members), None)
    return missing is None, missing


def _flat_point(i: int) -> Fraction:
    """Element i of the flat model: 0 at index 0, else 1/i."""
    return Fraction(1, i) if i else Fraction(0)


@dataclass(frozen=True)
class LazySemilatticeModel:
    """The flat semilattice {0} u {1/n : 1 <= n <= N} with exact rationals,
    as its own E-model for the series metric.

    rho = |x - y|.  The order is the flat order of the untruncated space
    (0 <= x and x <= x, nothing else), so truncations are consistent with
    the intended infinite model.  The complement of the way-up set of
    b != 0 is everything but b, so the weight a_b(e) is 0 off b and the gap
    to the nearest other point at b; at the minimum, index 0, it is 1.
    Element i is 1/i, so points and gaps are read off N in closed form.
    """

    N: int

    @property
    def n(self) -> int:
        return self.N + 1

    def elements(self) -> range:
        return range(self.n)

    def rho(self, i: int, j: int) -> Fraction:
        return abs(_flat_point(i) - _flat_point(j))

    def le(self, i: int, j: int) -> bool:
        return i == 0 or i == j

    def meet(self, i: int, j: int) -> int:
        return i if i == j else 0

    def minimum(self) -> int:
        return 0

    def a_weight(self, b: int, e: int) -> Fraction:
        """1 at b = 0, 0 at e != b, else the gap to b's nearest neighbour:
        1/(b+1) below 1/b (0 at b = N), 1/(b-1) above it (none at b <= 1)."""
        if b == 0:
            return Fraction(1)
        if e != b:
            return Fraction(0)
        gap = Fraction(1, b * (b + 1)) if b < self.N else Fraction(1, self.N)
        return min(gap, Fraction(1, b * (b - 1))) if b > 1 else gap

    def weight_support(self, e: int) -> tuple[int, ...]:
        """The elements b with a_b(e) != 0: the minimum, and e itself."""
        return (0,) if e == 0 else (0, e)


def flat_model(N: int) -> LazySemilatticeModel:
    """The truncation {0, 1, 1/2, ..., 1/N} of the flat semilattice."""
    if N < 1:
        raise WorkbenchError("N must be >= 1")
    return LazySemilatticeModel(N)
