"""Finite topological models of semigroups: continuity of multiplication,
the minimal-neighborhood property w.r.t. J-classes, the openness equivalence
chain, closedness of the order graph, and the two basic-set constructors.

Every finite topology is Alexandrov: it is the family of up-sets of its
specialization preorder, and U_x, the least open set around x, is the up-set
of x.  A topology is held as its least opens, each an int bitmask (bit y set
iff y in U_x), and derives its relation mask R (bit b*n + c set iff c in
U_b) and its open sets, the unions of the U_x, when first read; the
enumeration hands over the open masks it holds.  The data of one open set
(its members, its frozenset and the mask of the pairs leaving it) depends
only on n and its mask, so it is built once per (n, mask) and shared by
every topology that has that open.  A semigroup keeps the data these checks
read of it (FiniteSemigroup.topology_masks): the image of each pair (b, c)
under all translations, as an n^2-bit mask filled when first read, the
order-graph rows, the semilattice verdict, and the masks and members of its
J-classes, maximal subgroups and idempotents.  So continuity of a model is
an OR of pair images and one test against R, and a model derives its
continuity and MP verdicts once each, in the package's lock-free
cached_property.  The open sets are read only to name a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Optional

from .core import FiniteSemigroup, cached_property, idempotents, is_semilattice
from .errors import EOutOfU, InternalInconsistency, NotACover, WorkbenchError
from .semilattice import Assembled


def _mask(A) -> int:
    """The bitmask of a set of indices."""
    return sum(1 << x for x in A)


def _members(m: int) -> list[int]:
    """The indices whose bits are set in m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _least_opens(n: int, family) -> tuple[int, ...]:
    """For each x in 0..n-1 the bitmask of the intersection of the members
    of family that contain x (all of 0..n-1 when none does)."""
    up = [(1 << n) - 1] * n
    for O in family:
        m = _mask(O)
        for x in O:
            up[x] &= m
    return tuple(up)


class _OpenData(dict):
    """Mask m of an open on 0..n-1 -> (its members ascending, (its
    frozenset, the n^2-bit mask of the pairs (z, c) with z in it and c not
    in it)), each built when first read.  It is data of (n, m) alone, so
    every topology on n points shares it; nothing of a topology or a table
    is kept here."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, m: int):
        n = self.n
        O = _members(m)
        leaving = (((1 << n) - 1) ^ m) * _mask(z * n for z in O)
        self[m] = entry = (O, (frozenset(O), leaving))
        return entry


_OPEN_DATA: dict[int, _OpenData] = {}


def _unions(up, most: int):
    """The masks of all unions of members of up (0 for the empty union), or
    None once there are more than most of them."""
    opens = {0}
    for u in up:
        opens |= {O | u for O in opens}
        if len(opens) > most:
            return None
    return opens


@dataclass(frozen=True)
class FiniteTopology:
    """A topology on 0..n-1 held as its least opens: up[x] is the bitmask of
    U_x, so == and hash are those of the preorder.  Construct one through
    validate_topology, all_topologies or generate_topology: the constructor
    does not check that up is a preorder."""

    n: int
    up: tuple[int, ...]

    @cached_property
    def relation(self) -> int:
        """The specialization preorder as an n^2-bit mask: bit b*n + c is
        set iff c is in U_b."""
        return sum(u << b * self.n for b, u in enumerate(self.up))

    @cached_property
    def arrows(self) -> tuple[int, ...]:
        """The pair indices b*n + c with c in U_b and c != b, ascending."""
        out = []
        for b, u in enumerate(self.up):
            u &= ~(1 << b)
            while u:
                low = u & -u
                out.append(b * self.n + low.bit_length() - 1)
                u ^= low
        return tuple(out)

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        """The masks of the open sets, in no set order; all_topologies hands
        over those of its enumeration."""
        return tuple(_unions(self.up, 1 << self.n))

    @cached_property
    def witness_opens(self) -> tuple[tuple[frozenset, int], ...]:
        """(O, the n^2-bit mask of the pairs (z, c) with z in O and c not in
        O) for the opens in sorted(opens, key=sorted) order, the order in
        which a failing open is named."""
        n = self.n
        data = _OPEN_DATA.get(n)
        if data is None:
            data = _OPEN_DATA[n] = _OpenData(n)
        return tuple(pair for _, pair in sorted(map(data.__getitem__,
                                                    self.open_masks)))

    @cached_property
    def opens(self) -> frozenset:
        """The family of all open sets, each a frozenset of indices."""
        return frozenset(O for O, _ in self.witness_opens)

    def is_hausdorff(self) -> bool:
        """Points x != y have disjoint neighborhoods iff U_x and U_y are
        disjoint; on a finite space that makes the topology discrete."""
        return all(not u & v for u, v in itertools.combinations(self.up, 2))


def validate_topology(n: int, opens) -> FiniteTopology:
    fam = frozenset(frozenset(O) for O in opens)
    full = frozenset(range(n))
    if frozenset() not in fam or full not in fam:
        raise WorkbenchError("topology must contain the empty and full sets")
    for O in fam:
        if not O <= full:
            raise WorkbenchError(f"open set {sorted(O)} outside carrier")
    # With the empty and full sets in it, the family is a topology iff it is
    # the set of unions of its least opens U_x; the pairwise scan below only
    # names the witness pair of a family that is not.
    up = _least_opens(n, fam)
    if _unions(up, len(fam)) != {_mask(O) for O in fam}:
        for O in fam:
            for P in fam:
                if O | P not in fam:
                    raise WorkbenchError(
                        f"not closed under union: {sorted(O)}, {sorted(P)}")
                if O & P not in fam:
                    raise WorkbenchError(
                        f"not closed under intersection: {sorted(O)}, {sorted(P)}"
                    )
        raise InternalInconsistency("family closed pairwise but not a topology")
    return FiniteTopology(n, up)


def all_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n points, one per preorder: its opens are the
    up-sets of the specialization preorder, and each yielded topology holds
    the up-set masks of its preorder and, as open_masks, its up-sets."""
    for up, opens in _preorders(n, 0, (), [0]):
        T = FiniteTopology(n, up)
        T.__dict__["open_masks"] = tuple(opens)
        yield T


def _preorders(n: int, k: int, up: tuple, opens: list):
    """(Up-set masks, up-sets) of every preorder on 0..n-1 extending the
    preorder on 0..k-1 that has up-set masks up[x] and up-sets opens.

    Point k joins with a down-set D below it and an up-set U above it.  D is
    the complement of an up-set, and d <= k <= u forces d <= u, so U must lie
    in the up-set of every d in D (Brinkmann and McKay, "Posets on up to 16
    points", Order 19, 2002, grow posets one point at a time the same way).
    Each preorder restricts to one preorder on 0..k-1, so each arises once.
    The new up-sets are the old ones that miss D, and k joined to the old
    ones that contain U."""
    if k == n:
        yield up, opens
        return
    bit = 1 << k
    for A in opens:
        D = (bit - 1) & ~A
        cap = bit - 1
        for d in _members(D):
            cap &= up[d]
        lifted = tuple(u | bit if D >> x & 1 else u for x, u in enumerate(up))
        missing_d = [O for O in opens if not O & D]
        for U in opens:
            if U & ~cap:
                continue
            yield from _preorders(n, k + 1, (*lifted, U | bit),
                                  missing_d + [O | bit for O in opens if O & U == U])


@dataclass(frozen=True, init=False)
class TopologicalSemigroupModel:
    S: FiniteSemigroup
    T: FiniteTopology

    def __init__(self, S: FiniteSemigroup, T: FiniteTopology):
        # no object.__setattr__ per field, as a frozen dataclass's __init__
        if S.n != T.n:
            raise WorkbenchError("semigroup and topology carrier sizes differ")
        d = self.__dict__
        d["S"], d["T"] = S, T

    @cached_property
    def continuity(self) -> tuple[bool, Optional[frozenset]]:
        """The verdict of continuity_check, computed once per model."""
        return _continuity(self)

    @cached_property
    def mp(self) -> bool:
        """The verdict of mp_check, computed once per model."""
        jclass = self.S.topology_masks.jclass_of
        return all(not u & ~j for u, j in zip(self.T.up, jclass))


def continuity_check(model: TopologicalSemigroupModel):
    """Is multiplication (and inversion, when S is inverse) continuous?

    Returns (True, None) or (False, witness_open), the witness being the
    first failing open in sorted(opens, key=sorted) order.  The verdict is
    computed once per model."""
    return model.continuity


def _continuity(model: TopologicalSemigroupModel):
    """The verdict of continuity_check, computed.

    The preimage of an open O under multiplication is product-open iff it
    holds U_x x U_y around each of its pairs (x, y).  Moving one factor at a
    time, that fails iff some translation t (left or right by an element)
    and some c in U_b have t(b) in O and t(c) outside it.  Every open around
    t(b) contains U_t(b), so some O fails iff some pair (t(b), t(c)) lies
    outside the relation R.  The pairs (t(b), t(c)) over all t are the pair
    image of (b, c), kept with S; OR-ing the images of T's arrows costs
    O(sum |U_x|) big-int ORs, and the products are continuous iff the OR
    misses no bit outside R.  Inversion is the same with t = inv, its bits
    set straight from the arrows.  Only a failing model scans the opens."""
    S, T = model.S, model.T
    acc = reduce(or_, map(S.topology_masks.images.__getitem__, T.arrows), 0)
    if not acc & ~T.relation:
        inv = S.classification.inverse
        if inv is None:
            return True, None
        n, inv = S.n, inv.inv
        acc = 0
        for p in T.arrows:
            b, c = divmod(p, n)
            acc |= 1 << inv[b] * n + inv[c]
        if not acc & ~T.relation:
            return True, None
    return False, _failing_open(T, acc)


def _failing_open(T: FiniteTopology, acc: int):
    """The first open O in sorted(opens, key=sorted) order with some z in O
    and need[z] outside O, where need[z] = (acc >> z*n) & full is row z of
    the pair mask acc: the first O whose mask of pairs leaving O meets acc.
    Every open around z contains U_z, so only the points z with need[z]
    outside U_z make an open fail, and some z does since acc leaves R."""
    for O, f in T.witness_opens:
        if acc & f:
            return O
    raise InternalInconsistency("U_z fails but no open set does")


class _PairImages(dict):
    """Pair index b*n + c -> the n^2-bit mask of the pairs t(b)*n + t(c)
    over the 2n left and right translations t of the table, each computed
    when first read."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, p: int) -> int:
        table = self.table
        n = len(table)
        b, c = divmod(p, n)
        rb, rc = table[b], table[c]
        m = 0
        for x, row in enumerate(table):
            m |= 1 << row[b] * n + row[c] | 1 << rb[x] * n + rc[x]
        self[p] = m
        return m


class _SemigroupMasks:
    """The bitmask data of a semigroup that the checks of this module read,
    kept with it as FiniteSemigroup.topology_masks and built on first use:
    the pair images of the continuity test, the order-graph rows, the
    semilattice verdict, and the masks and members of the J-classes, the
    maximal subgroups and the idempotents."""

    def __init__(self, S: FiniteSemigroup):
        self.S = S
        self.images = _PairImages(S.table)

    @cached_property
    def j_masks(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(The mask, the members) of each J-class."""
        return tuple((_mask(c), c) for c in self.S.j_classes)

    @cached_property
    def jclass_of(self) -> tuple[int, ...]:
        """The mask of the J-class of each point."""
        of = [0] * self.S.n
        for m, c in self.j_masks:
            for x in c:
                of[x] = m
        return tuple(of)

    @cached_property
    def group_masks(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(The mask, the members) of each maximal subgroup; raises
        NotClifford on a semigroup that is not Clifford."""
        return tuple((_mask(g), g) for g in self.S.pi_fibers[1].values())

    @cached_property
    def idempotent_mask(self) -> tuple[int, list[int]]:
        """(The mask, the members) of E."""
        E = idempotents(self.S)
        return _mask(E), E

    @cached_property
    def semilattice(self) -> bool:
        """Whether the semigroup is a semilattice."""
        return is_semilattice(self.S)

    @cached_property
    def graph(self) -> tuple[int, ...]:
        """The mask of {y : xy = x} for each x: row x of the order graph."""
        return tuple(_mask(y for y, xy in enumerate(row) if xy == x)
                     for x, row in enumerate(self.S.table))


def mp_check(model: TopologicalSemigroupModel) -> bool:
    """For every open O and x in O, some open U has x in U <= O n J_x.

    The least such candidate is U_x, and U_x <= O for every open O around x,
    so the property is U_x <= J_x for every x, computed once per model."""
    return model.mp


@dataclass(frozen=True)
class OpennessRecord:
    mp: bool
    j_classes_open: bool
    subgroups_open: bool
    idempotents_discrete: bool
    disjoint_union_topology: bool

    def all_equal(self) -> bool:
        return len(set(vars(self).values())) == 1


def prop34_equivalences(model: TopologicalSemigroupModel) -> OpennessRecord:
    """Independently compute the five openness conditions on a continuous
    Clifford model.  Disagreement would falsify the implementation (they are
    provably equivalent) and raises InternalInconsistency.  Raises
    NotClifford on other semigroups."""
    masks, up = model.S.topology_masks, model.T.up
    groups = masks.group_masks
    # a set is open iff it contains U_x for each of its points x
    j_open = all(not up[x] & ~m for m, c in masks.j_masks for x in c)
    g_open = all(not up[x] & ~m for m, g in groups for x in g)
    E, members = masks.idempotent_mask
    # some open meets E in {e} iff U_e, the least open around e, does
    e_discrete = all(up[e] & E == 1 << e for e in members)
    # A is open in the disjoint union of the subspaces G_e iff each A n G_e
    # is a trace of an open set, iff U_x n G_e <= A for every x in A n G_e;
    # so that topology has least opens U_x n G_e, and it equals T iff those
    # are the U_x
    du_equal = all(up[x] & m == up[x] for m, g in groups for x in g)
    rec = OpennessRecord(model.mp, j_open, g_open, e_discrete, du_equal)
    cont, _ = model.continuity
    if cont and not rec.all_equal():
        raise InternalInconsistency(f"openness conditions disagree: {rec}")
    return rec


def order_graph_closed(model: TopologicalSemigroupModel) -> tuple[bool, bool]:
    """(order graph closed in S x S, topology Hausdorff) for a semilattice
    model.  The two are equivalent on finite models; callers assert it.

    The graph is {(x, y) : xy = x}.  Its complement is product-open iff for
    every (x, y) off the graph and every a in U_x, U_y misses the y' with
    (a, y') on the graph: iff the union of those U_y misses row a."""
    masks, T = model.S.topology_masks, model.T
    if not masks.semilattice:
        raise WorkbenchError("order graph is defined for semilattice models")
    graph, up, full = masks.graph, T.up, (1 << T.n) - 1
    off = [reduce(or_, (up[y] for y in _members(full ^ g)), 0) for g in graph]
    closed = not any(off[x] & graph[a] for x, u in enumerate(up) for a in _members(u))
    return closed, T.is_hausdorff()


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
    return _w_set(assembled, U, reduce(assembled.spec.E.mul, U), V)


def generate_topology(n: int, basis) -> FiniteTopology:
    """The topology generated by a covering family: U_x is the intersection
    of the members containing x, and the opens are the unions of U_x's."""
    basis = {frozenset(B) for B in basis}
    cover = set()
    for B in basis:
        cover |= B
    outside = sorted(x for x in cover if not 0 <= x < n)
    if outside:
        raise WorkbenchError(f"basis element {outside[0]} outside carrier")
    if cover != set(range(n)):
        raise NotACover(f"basis covers only {sorted(cover)}")
    return FiniteTopology(n, _least_opens(n, basis))
