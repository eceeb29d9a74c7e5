"""Finite topological models of semigroups: continuity of multiplication,
the minimal-neighborhood property w.r.t. J-classes, the openness equivalence
chain, closedness of the order graph, and the two basic-set constructors.

Topologies are explicit families of subsets (frozensets of indices), so all
checks reduce to exact finite set algebra.  Finite topologies correspond to
preorders, which is how the exhaustive enumeration is generated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import (
    FiniteSemigroup,
    green_j_classes,
    idempotents,
    inverse_structure,
    is_semilattice,
    pi_and_subgroups,
)
from .errors import EOutOfU, InternalInconsistency, NotACover, WorkbenchError
from .semilattice import Assembled


@dataclass(frozen=True)
class FiniteTopology:
    """An explicit topology: the family of all open subsets of 0..n-1."""

    n: int
    opens: frozenset

    def min_open(self, x: int) -> frozenset:
        """Smallest open set containing x (open: finite intersection)."""
        out = frozenset(range(self.n))
        for O in self.opens:
            if x in O and len(O) < len(out):
                out = O
        return out

    def subspace(self, A) -> frozenset:
        A = frozenset(A)
        return frozenset(O & A for O in self.opens)

    def is_hausdorff(self) -> bool:
        for x in range(self.n):
            for y in range(x + 1, self.n):
                if not any(
                    x in O and y in P and not (O & P)
                    for O in self.opens
                    for P in self.opens
                ):
                    return False
        return True


def validate_topology(n: int, opens) -> FiniteTopology:
    fam = frozenset(frozenset(O) for O in opens)
    full = frozenset(range(n))
    if frozenset() not in fam or full not in fam:
        raise WorkbenchError("topology must contain the empty and full sets")
    for O in fam:
        if not O <= full:
            raise WorkbenchError(f"open set {sorted(O)} outside carrier")
    for O in fam:
        for P in fam:
            if O | P not in fam:
                raise WorkbenchError(f"not closed under union: {sorted(O)}, {sorted(P)}")
            if O & P not in fam:
                raise WorkbenchError(
                    f"not closed under intersection: {sorted(O)}, {sorted(P)}"
                )
    return FiniteTopology(n=n, opens=fam)


def discrete_topology(n: int) -> FiniteTopology:
    opens = frozenset(
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(n), r)
    )
    return FiniteTopology(n=n, opens=opens)


def indiscrete_topology(n: int) -> FiniteTopology:
    return FiniteTopology(n=n, opens=frozenset({frozenset(), frozenset(range(n))}))


def all_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n points, one per preorder (finite topologies are
    Alexandrov; opens are the up-sets of the specialization preorder)."""
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    subsets = list(range(1 << n))
    for mask in range(1 << len(offdiag)):
        rel = [[x == y for y in range(n)] for x in range(n)]
        for k, (x, y) in enumerate(offdiag):
            if mask >> k & 1:
                rel[x][y] = True
        if any(
            rel[x][y] and rel[y][z] and not rel[x][z]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            continue
        opens = []
        for s in subsets:
            members = [x for x in range(n) if s >> x & 1]
            if all(not rel[x][y] or s >> y & 1 for x in members for y in range(n)):
                opens.append(frozenset(members))
        yield FiniteTopology(n=n, opens=frozenset(opens))


@dataclass(frozen=True)
class TopologicalSemigroupModel:
    S: FiniteSemigroup
    T: FiniteTopology

    def __post_init__(self):
        if self.S.n != self.T.n:
            raise WorkbenchError("semigroup and topology carrier sizes differ")


def _product_open(T: FiniteTopology, W) -> bool:
    """Is a set of pairs open in the product topology?  On finite spaces a
    set is product-open iff it contains U_x x U_y around each of its points,
    with U_z the minimal open neighborhood."""
    W = set(W)
    for (x, y) in W:
        for a in T.min_open(x):
            for b in T.min_open(y):
                if (a, b) not in W:
                    return False
    return True


def continuity_check(model: TopologicalSemigroupModel):
    """Is multiplication (and inversion, when S is inverse) continuous?

    Returns (True, None) or (False, witness_open)."""
    S, T = model.S, model.T
    for O in sorted(model.T.opens, key=sorted):
        pre = {(x, y) for x in S.elements() for y in S.elements() if S.mul(x, y) in O}
        if not _product_open(T, pre):
            return False, O
    inv = inverse_structure(S)
    if inv is not None:
        for O in sorted(T.opens, key=sorted):
            pre_inv = frozenset(x for x in S.elements() if inv.inv[x] in O)
            if pre_inv not in T.opens:
                return False, O
    return True, None


def mp_check(model: TopologicalSemigroupModel) -> bool:
    """For every open O and x in O, some open U has x in U <= O n J_x."""
    S, T = model.S, model.T
    jclass = {}
    for c in green_j_classes(S):
        for x in c:
            jclass[x] = frozenset(c)
    for O in T.opens:
        for x in O:
            target = O & jclass[x]
            if not any(x in U and U <= target for U in T.opens):
                return False
    return True


@dataclass(frozen=True)
class OpennessRecord:
    mp: bool
    j_classes_open: bool
    subgroups_open: bool
    idempotents_discrete: bool
    disjoint_union_topology: bool

    def all_equal(self) -> bool:
        vals = {
            self.mp,
            self.j_classes_open,
            self.subgroups_open,
            self.idempotents_discrete,
            self.disjoint_union_topology,
        }
        return len(vals) == 1


def prop34_equivalences(model: TopologicalSemigroupModel) -> OpennessRecord:
    """Independently compute the five openness conditions on a continuous
    Clifford model.  Disagreement would falsify the implementation (they are
    provably equivalent) and raises InternalInconsistency.  Raises
    NotClifford on other semigroups."""
    S, T = model.S, model.T
    _, groups = pi_and_subgroups(S)
    mp = mp_check(model)
    j_open = all(frozenset(c) in T.opens for c in green_j_classes(S))
    g_open = all(frozenset(g) in T.opens for g in groups.values())
    E = frozenset(idempotents(S))
    e_discrete = all(
        any(O & E == {e} for O in T.opens) for e in E
    )
    sub = {e: T.subspace(g) for e, g in groups.items()}
    union_opens = set()
    for mask in range(1 << S.n):
        A = frozenset(x for x in S.elements() if mask >> x & 1)
        if all(A & frozenset(g) in sub[e] for e, g in groups.items()):
            union_opens.add(A)
    du_equal = union_opens == set(T.opens)
    rec = OpennessRecord(
        mp=mp,
        j_classes_open=j_open,
        subgroups_open=g_open,
        idempotents_discrete=e_discrete,
        disjoint_union_topology=du_equal,
    )
    cont, _ = continuity_check(model)
    if cont and not rec.all_equal():
        raise InternalInconsistency(f"openness conditions disagree: {rec}")
    return rec


def order_graph_closed(model: TopologicalSemigroupModel) -> tuple[bool, bool]:
    """(order graph closed in S x S, topology Hausdorff) for a semilattice
    model.  The two are equivalent on finite models; callers assert it."""
    S, T = model.S, model.T
    if not is_semilattice(S):
        raise WorkbenchError("order graph is defined for semilattice models")
    graph = {(x, y) for x in S.elements() for y in S.elements() if S.mul(x, y) == x}
    complement = {
        (x, y) for x in S.elements() for y in S.elements() if (x, y) not in graph
    }
    return _product_open(T, complement), T.is_hausdorff()


def _idempotent_subset(assembled: Assembled, U) -> list[int]:
    """U as a sorted list, checked to lie in E."""
    U = sorted(set(U))
    outside = [f for f in U if not 0 <= f < assembled.spec.E.n]
    if outside:
        raise WorkbenchError(f"U element {outside[0]} outside E")
    return U


def _w_set(assembled: Assembled, U, e: int, V) -> frozenset:
    spec = assembled.spec
    V = frozenset(V)
    for v in V:
        if not (0 <= v < spec.groups[e].n):
            raise WorkbenchError(f"V element {v} outside G_{e}")
    out = set()
    for f in U:
        if not spec.le(e, f):
            continue
        for x in spec.groups[f].elements():
            if spec.phi(f, e, x) in V:
                out.add(assembled.point(f, x))
    return frozenset(out)


def basic_set(assembled: Assembled, U, e: int, V) -> frozenset:
    """W(U, (e, V)): the union over f in U above e of the phi_{f,e}-preimages
    of V, as a subset of the assembled carrier."""
    U = _idempotent_subset(assembled, U)
    if e not in U:
        raise EOutOfU(f"anchor {e} not in U")
    return _w_set(assembled, U, e, V)


def bowman_basic_set(assembled: Assembled, U, V) -> frozenset:
    """W_B(U, V) = W(U, (inf U, V)); inf U is the meet-fold of U."""
    U = _idempotent_subset(assembled, U)
    if not U:
        raise WorkbenchError("U must be nonempty")
    E = assembled.spec.E
    inf_u = U[0]
    for f in U[1:]:
        inf_u = E.mul(inf_u, f)
    return _w_set(assembled, U, inf_u, V)


def generate_topology(n: int, basis) -> FiniteTopology:
    """Close a covering family under finite intersections and unions."""
    basis = {frozenset(B) for B in basis}
    cover = set()
    for B in basis:
        cover |= B
    if cover != set(range(n)):
        raise NotACover(f"basis covers only {sorted(cover)}")
    ints = set(basis)
    changed = True
    while changed:
        changed = False
        for A, B in itertools.combinations(list(ints), 2):
            C = A & B
            if C not in ints:
                ints.add(C)
                changed = True
    opens = set(ints)
    opens.add(frozenset())
    opens.add(frozenset(range(n)))
    changed = True
    while changed:
        changed = False
        for A, B in itertools.combinations(list(opens), 2):
            C = A | B
            if C not in opens:
                opens.add(C)
                changed = True
    return validate_topology(n, opens)
