"""Explicit metrics on strong semilattices of groups.

Three distance functions live here, all over exact rationals and all
reading one `BowmanMetricData`, so a metric-data document is valid for one
of them exactly when it is valid for the others:

* the weighted-series metric combining a semilattice metric rho with group
  metrics sampled against dense enumerations (with rigorous truncation
  bounds when the basis series is cut off),
* the isometric-bonding metric rho(e,f) + d_{ef}(phi(s), phi(t)), which
  reads the meet ef off the E-model and refuses to run unless every
  bonding map is an isometry,
* the disjoint-union metric (d_e inside a block, 1 across blocks).

Plus the exhaustive metric-axiom suite that exercises them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .core import FiniteSemigroup
from .errors import IsometryHypothesisViolated, WorkbenchError
from .order import LazySemilatticeModel, is_basis, minimum
from .semilattice import StrongSemilatticeSpec, group_identity


@dataclass(frozen=True)
class Point:
    """An element (e, g): idempotent index e, local group element g."""

    e: int
    g: int


class SemilatticeEModel:
    """Idempotent-semilattice side of the metric data: the Cayley table of
    E, ordered by e <= f iff ef = e, and an exact metric matrix rho bounded
    by 1.  Way-below is <= on a finite poset, so the weights read le."""

    def __init__(self, E: FiniteSemigroup, rho):
        self.E = E
        self.rho_matrix = tuple(tuple(Fraction(v) for v in row) for row in rho)
        _check_metric_matrix(self.rho_matrix, "rho", E.n)
        self._minimum = minimum(E)

    def elements(self):
        return self.E.elements()

    def le(self, e, f):
        return self.E.table[e][f] == e

    def meet(self, e, f):
        return self.E.table[e][f]

    def rho(self, e, f):
        return self.rho_matrix[e][f]

    def minimum(self):
        return self._minimum

    def a_weight_raw(self, b, e):
        complement = [x for x in self.elements() if not self.le(b, x)]
        if not complement:
            raise WorkbenchError(f"complement of the way-up set of {b} is empty")
        return min(self.rho(e, x) for x in complement)

    def weight_support(self, e):
        """The elements b with a_b(e) != 0: the minimum and the b whose raw
        weight at e is nonzero."""
        m = self.minimum()
        return [b for b in self.elements()
                if b == m or self.a_weight_raw(b, e) != 0]


def _check_metric_matrix(m, name: str, n: int):
    """Is m an n x n metric matrix bounded by 1?  Errors start with name:
    "rho", or "d_e" for the group metric at e."""
    if len(m) != n or any(len(row) != n for row in m):
        raise WorkbenchError(f"{name} is not a {n}x{n} matrix")
    for i in range(n):
        if m[i][i] != 0:
            raise WorkbenchError(f"{name}({i},{i}) != 0")
        for j in range(n):
            if m[i][j] < 0:
                raise WorkbenchError(f"{name}({i},{j}) < 0")
            if m[i][j] > 1:
                raise WorkbenchError(f"{name}({i},{j}) > 1")
            if m[i][j] != m[j][i]:
                raise WorkbenchError(f"{name} not symmetric at ({i},{j})")
            if i != j and m[i][j] == 0:
                raise WorkbenchError(f"{name}({i},{j}) = 0 for distinct points")
            for k in range(n):
                if m[i][k] > m[i][j] + m[j][k]:
                    raise WorkbenchError(f"{name} triangle fails at ({i},{j},{k})")


def discrete_metric(n: int):
    return tuple(
        tuple(Fraction(0) if i == j else Fraction(1) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class GroupBlock:
    """Per-idempotent metric data: the group, a metric d bounded by 1, a base
    point, and the dense enumeration (for a finite group: every element
    exactly once; the enumeration order is part of the data)."""

    group: FiniteSemigroup
    d: tuple
    base_point: int
    enumeration: tuple[int, ...]


@dataclass
class BowmanMetricData:
    """Everything the series metric consumes.

    basis is the enumerated domain basis b_1, b_2, ... (basis[0] must be the
    minimum, whose weight is identically 1); bonding maps are read off the
    originating spec-style table phi[(e, b)] for b <= e.  With pseudo=True a
    deliberately truncated basis is allowed, producing a pseudo-metric whose
    definiteness failures are themselves of interest.

    Every block is read through block(e) and every map through phi(e, b, g).
    blocks and bonding hold each block and each map once, under the first
    element or pair that reads it; spec data has one entry per element and
    per comparable pair.
    """

    emodel: object
    basis: tuple[int, ...]
    blocks: dict
    bonding: dict
    pseudo: bool = False
    # integer kernel of bowman_distance: the profiles of the points read
    _profiles: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not isinstance(self.basis, range):  # flat data keeps its model's range
            self.basis = tuple(self.basis)
        if not self.basis or self.basis[0] != self.emodel.minimum():
            raise WorkbenchError("basis enumeration must start at the minimum")
        if self.basis != self.emodel.elements():  # E's own elements: O(1) for a range
            if len(set(self.basis)) != len(self.basis):
                raise WorkbenchError("basis enumeration repeats an element")
            ok, witness = is_basis(self.emodel, self.basis)  # names an element outside E
            if not (ok or self.pseudo):
                raise WorkbenchError(f"not a domain basis (fails at {witness})")
        for e, blk in self.blocks.items():
            _check_metric_matrix(blk.d, f"d_{e}", blk.group.n)
            if blk.base_point not in blk.group.elements():
                raise WorkbenchError(f"base point {blk.base_point!r} at {e} "
                                     f"is not in G_{e}")
            if sorted(blk.enumeration) != list(blk.group.elements()):
                raise WorkbenchError(f"enumeration at {e} is not the whole group")

    def block(self, e: int) -> GroupBlock:
        return self.blocks[e]

    def phi(self, e: int, b: int, g: int) -> int:
        if e == b:
            return g
        return self.bonding[(e, b)][g]

    def points(self):
        return [Point(e, g) for e in self.emodel.elements()
                for g in self.block(e).group.elements()]


class FlatMetricData(BowmanMetricData):
    """Flat data is its N: blocks holds the shared fibre block first, under
    the first element that reads it, then the base-point overrides; bonding
    holds the one map into the bottom under (1, 0).  An override changes
    only the base point, so every pair (e, 0) reads the same map, d_e and
    d_0."""

    def block(self, e: int) -> GroupBlock:
        if e in self.blocks:
            return self.blocks[e]
        return next(iter(self.blocks.values()))

    def phi(self, e: int, b: int, g: int) -> int:
        if e == b:
            return g
        return self.bonding[(1, 0)][g]


@dataclass(frozen=True)
class BoundedValue:
    """A value plus a rigorous radius containing the untruncated sum."""

    value: Fraction
    tail_bound: Fraction


def a_weight(data: BowmanMetricData, b: int, e: int) -> Fraction:
    """Weight of basis element b at e: distance from e to the complement of
    the way-up set of b; identically 1 at the minimum."""
    if b == data.emodel.minimum():
        return Fraction(1)
    return data.emodel.a_weight_raw(b, e)


def extended_bonding(data: BowmanMetricData, e: int, b: int, g: int) -> int:
    """phi_{e,b}(g) when b <= e; otherwise the constant base point of b."""
    if data.emodel.le(b, e):
        return data.phi(e, b, g)
    return data.block(b).base_point


def _profile(data: BowmanMetricData, p: Point) -> tuple:
    """(D_p, Phi(p)), cached on data.  Phi(p) maps each basis index j over
    the weight support of p.e to D_p 2^-j a_b(e), then D_p 2^-(j+k) a_b(e)
    d_b(phi(g), t_k) for k = 1, 2, ...  D_p is the lcm of the weights'
    denominators times that of the metric entries read (a product: a weight
    multiplies a metric value), shifted by the largest j + len(enumeration)."""
    prof = data._profiles.get(p)
    if prof is None:
        support = []
        for b in data.emodel.weight_support(p.e):
            if b in data.basis:  # a pseudo basis may leave b out
                blk = data.block(b)
                row = blk.d[extended_bonding(data, p.e, b, p.g)]
                support.append((data.basis.index(b) + 1, a_weight(data, b, p.e),
                                [row[t] for t in blk.enumeration]))
        D = (math.lcm(*(a.denominator for _, a, _ in support))
             * math.lcm(*(v.denominator for *_, vs in support for v in vs))
             << max(j + len(vs) for j, _, vs in support))
        terms = {}
        for j, a, vs in support:
            a_D = a.numerator * (D // a.denominator)
            terms[j] = [a_D >> j] + [a_D * v.numerator // v.denominator >> (j + k)
                                     for k, v in enumerate(vs, start=1)]
        prof = data._profiles[p] = (D, terms)
    return prof


def bowman_distance(data: BowmanMetricData, p: Point, q: Point,
                    truncation: Optional[int] = None) -> BoundedValue:
    """rho(e,f) plus the 2^-j series of comparison terms over the basis.

    Every term is a positive weight times |x - y|, so the series is the L1
    distance of the profiles of p and q rescaled to D = lcm(D_p, D_q, rho's
    denominator), over the basis indices j <= J in either weight support.
    With truncation J the tail bound is 2^(1-J) (each term is at most 2);
    with the full finite basis the bound is 0 and the value is exact."""
    J = len(data.basis) if truncation is None else truncation
    if J < 1:
        raise WorkbenchError("truncation must be >= 1")
    (D_p, P), (D_q, Q) = _profile(data, p), _profile(data, q)
    r = data.emodel.rho(p.e, q.e)
    D = math.lcm(D_p, D_q, r.denominator)
    sp, sq = D // D_p, D // D_q
    total = r.numerator * (D // r.denominator)
    for j, x in P.items():
        if j <= J:
            y = Q.get(j)
            total += (sp * sum(x) if y is None
                      else sum(abs(sp * u - sq * v) for u, v in zip(x, y)))
    for j, y in Q.items():
        if j <= J and j not in P:
            total += sq * sum(y)
    tail = Fraction(0) if J >= len(data.basis) else Fraction(2) ** (1 - J)
    return BoundedValue(value=Fraction(total, D), tail_bound=tail)


# k of the points 1/k where convergence along (1/k, g) is sampled
CONVERGENCE_SCHEDULE = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)


def separation_witness(data: BowmanMetricData, e: int, g: int, h: int):
    """A basis element b way-below e whose bonding map separates g and h,
    or None when the (possibly truncated) basis cannot separate them."""
    for b in data.basis:
        if data.emodel.le(b, e) and data.phi(e, b, g) != data.phi(e, b, h):
            return b
    return None


def default_basis_order(emodel) -> tuple[int, ...]:
    """Minimum first, then decreasing way-up-set (weight support) size, ties
    by element index.  Recorded in data files; the 2^-j weights depend on it."""
    m = emodel.minimum()
    rest = [e for e in emodel.elements() if e != m]
    support = {
        e: sum(1 for x in emodel.elements() if emodel.le(e, x)) for e in rest
    }
    rest.sort(key=lambda e: (-support[e], e))
    return (m,) + tuple(rest)


def default_enumeration(group: FiniteSemigroup) -> tuple[int, ...]:
    """Identity first, then remaining elements by index."""
    ident = group_identity(group)
    return (ident,) + tuple(x for x in group.elements() if x != ident)


def bowman_data_from_spec(spec: StrongSemilatticeSpec, rho,
                          basis: Optional[tuple] = None,
                          d: Optional[dict] = None,
                          base_points: Optional[dict] = None,
                          enumerations: Optional[dict] = None,
                          pseudo: bool = False) -> BowmanMetricData:
    """Metric data over a strong-semilattice spec: rho on E, per-group
    metrics (default discrete), base points (default identities), and
    enumerations (default identity-first)."""
    emodel = SemilatticeEModel(spec.E, rho)
    blocks = {}
    for e in spec.E.elements():
        g = spec.groups[e]
        blocks[e] = GroupBlock(
            group=g,
            d=tuple(tuple(Fraction(v) for v in row)
                    for row in (d[e] if d and e in d else discrete_metric(g.n))),
            base_point=(base_points[e] if base_points and e in base_points
                        else group_identity(g)),
            enumeration=(tuple(enumerations[e]) if enumerations and e in enumerations
                         else default_enumeration(g)),
        )
    if basis is None:
        basis = default_basis_order(emodel)
    bonding = {
        (f, e): phi for (f, e), phi in spec.bonding.items() if f != e
    }
    return BowmanMetricData(emodel=emodel, basis=tuple(basis), blocks=blocks,
                            bonding=bonding, pseudo=pseudo)


def flat_bowman_data(model: LazySemilatticeModel, fiber: FiniteSemigroup,
                     bonding_kind: str = "identity",
                     basis: Optional[tuple] = None,
                     base_points: Optional[dict] = None,
                     pseudo: bool = False) -> BowmanMetricData:
    """Metric data on the flat model with a copy of one group at every point
    and either identity or collapse-to-identity bonding into the bottom."""
    ident = group_identity(fiber)
    if bonding_kind == "identity":
        down = tuple(range(fiber.n))
    elif bonding_kind == "collapse":
        down = tuple(ident for _ in fiber.elements())
    else:
        raise WorkbenchError(f"unknown bonding kind {bonding_kind!r}")
    shared = GroupBlock(group=fiber, d=discrete_metric(fiber.n), base_point=ident,
                        enumeration=default_enumeration(fiber))
    blocks = {e: replace(shared, base_point=g)
              for e, g in sorted((base_points or {}).items())
              if e in model.elements()}  # a key outside the model adds no block
    first = next((e for e in model.elements() if e not in blocks), None)
    if first is not None:
        blocks = {first: shared, **blocks}
    return FlatMetricData(
        emodel=model, basis=model.elements() if basis is None else basis,
        blocks=blocks, bonding={(1, 0): down}, pseudo=pseudo)


def isometry_check(data: BowmanMetricData):
    """Does every bonding map preserve distances?  Returns (True, None) or
    (False, ((f, e), (s, t))) with the collapsing pair."""
    for (f, e), phi in data.bonding.items():
        d_e, d_f = data.block(e).d, data.block(f).d
        for s in data.block(f).group.elements():
            for t in data.block(f).group.elements():
                if d_e[phi[s]][phi[t]] != d_f[s][t]:
                    return False, ((f, e), (s, t))
    return True, None


def yeager_distance(data: BowmanMetricData, p: Point, q: Point) -> Fraction:
    """rho(e,f) + d_{ef}(phi_{e,ef}(s), phi_{f,ef}(t)) with the meet ef of
    the E-model; refuses to compute when some bonding map fails the
    isometry hypothesis."""
    ok, witness = isometry_check(data)
    if not ok:
        raise IsometryHypothesisViolated(*witness)
    ef = data.emodel.meet(p.e, q.e)
    s, t = data.phi(p.e, ef, p.g), data.phi(q.e, ef, q.g)
    return data.emodel.rho(p.e, q.e) + data.block(ef).d[s][t]


def disjoint_union_distance(data: BowmanMetricData, p: Point,
                            q: Point) -> Fraction:
    """d_e(s, t) inside one block, 1 across distinct blocks."""
    if p.e == q.e:
        return data.block(p.e).d[p.g][q.g]
    return Fraction(1)


@dataclass
class MetricReport:
    """Outcome of the axiom suite; empty lists mean a clean pass."""

    negativity: list
    symmetry: list
    identity: list
    triangle: list

    @property
    def passed(self) -> bool:
        return not (self.negativity or self.symmetry or self.identity
                    or self.triangle)


def metric_axiom_suite(dist: Callable, points) -> MetricReport:
    """Exhaustive metric-axiom check over a finite point set, with every
    comparison exact: the table is scaled once by the lcm of its
    denominators and checked on integers; violations report the values."""
    points = list(points)
    report = MetricReport([], [], [], [])
    table = [[dist(p, q) for q in points] for p in points]
    scale = math.lcm(*(v.denominator for row in table for v in row))
    m = [[v.numerator * (scale // v.denominator) for v in row] for row in table]
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            v = m[i][j]
            if v < 0:
                report.negativity.append((p, q, table[i][j]))
            if v != m[j][i]:
                report.symmetry.append((p, q, table[i][j], table[j][i]))
            if (v == 0) != (p == q):
                report.identity.append((p, q, table[i][j]))
    for p, row_p in zip(points, m):
        for q, pq, row_q in zip(points, row_p, m):
            report.triangle.extend(
                (p, q, r) for r, pr, qr in zip(points, row_p, row_q)
                if pr > pq + qr
            )
    return report
