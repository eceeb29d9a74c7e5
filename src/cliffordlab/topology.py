"""Finite topological models of semigroups: continuity of multiplication,
the minimal-neighborhood property w.r.t. J-classes, the openness equivalence
chain, closedness of the order graph, and the two basic-set constructors.

Every finite topology is Alexandrov: it is the family of up-sets of its
specialization preorder, and U_x, the least open set around x, is the up-set
of x.  A topology is held as its least opens, each an int bitmask (bit y set
iff y in U_x), and derives its relation mask R (bit b*n + c set iff c in
U_b) and its open sets, the unions of the U_x, when first read; one
frozenset object stands for each mask, so the open sets are shared between
topologies.  A semigroup keeps the data these checks read of it
(FiniteSemigroup.topology_masks): the image of each pair (b, c) under the
translations, as an n^2-bit mask filled when first read, the order-graph
rows, the semilattice verdict, and the masks of its J-classes, maximal
subgroups and idempotents.  So continuity of a model is an OR of pair
images and one test against R, whose failing bits name the witness U_z, and
a model derives its continuity and MP verdicts once each, in the package's
lock-free cached_property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Iterator, Optional

from .core import FiniteSemigroup, cached_property, idempotents, is_semilattice
from .errors import EOutOfU, InternalInconsistency, NotACover, WorkbenchError

if TYPE_CHECKING:
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


_SETS: dict[int, frozenset] = {}


def _set(m: int) -> frozenset:
    """The frozenset of the indices set in m, one object per mask."""
    O = _SETS.get(m)
    if O is None:
        O = _SETS[m] = frozenset(_members(m))
    return O


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
    def opens(self) -> frozenset:
        """The family of all open sets, each a frozenset of indices."""
        return frozenset(map(_set, _unions(self.up, 1 << self.n)))

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
    up-sets of the specialization preorder, held as the up-set masks."""
    for up in _preorders(n, 0, (), [0]):
        yield FiniteTopology(n, up)


def _preorders(n: int, k: int, up: tuple, opens: list):
    """The up-set masks of every preorder on 0..n-1 extending the preorder
    on 0..k-1 that has up-set masks up[x] and up-sets opens, as bitmasks.

    Point k joins with a down-set D below it and an up-set U above it.  D is
    the complement of an up-set, and d <= k <= u forces d <= u, so U must lie
    in the up-set of every d in D (Brinkmann and McKay, "Posets on up to 16
    points", Order 19, 2002, grow posets one point at a time the same way).
    Each preorder restricts to one preorder on 0..k-1, so each arises once.
    The new up-sets are the old ones that miss D, and k joined to the old
    ones that contain U."""
    if k == n:
        yield up
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
        """The verdict of continuity_check.  The preimage of an open O under
        multiplication is product-open iff no translation t and c in U_b
        have t(b) in O and t(c) outside it.  Every open around t(b) contains
        U_t(b), so the products are continuous iff the OR of the pair images
        of T's arrows has no bit outside R.  The lowest failing bit is a
        pair (z, c) with z the least failing t(b), so U_z is the witness.

        The inversion needs no check: in a finite inverse semigroup, a
        compatible preorder (a <= b implies xay <= xby for x, y in S^1; R is
        one iff the products pass) has a^-1 <= b^-1 whenever a <= b, by
        unique inverses and (xy)^-1 = y^-1 x^-1 (Lawson, 1998, ch. 1):
        1. a^-1 = a^-1 a a^-1 <= a^-1 b a^-1, and putting this into its own
           last factor gives a^-1 <= a^-1 (b a^-1)^k for every k >= 1.
        2. b^-1 a b^-1 <= b^-1, hence b^-1 (a b^-1)^k <= b^-1 for all k >= 0.
        3. For x = b a^-1 (so x^-1 = a b^-1) and m a multiple of its period,
           m - 1 >= its index, x^(m-1) inverts x^(m+1): it is (x^-1)^(m+1).
        4. So a^-1 <= a^-1 a . b^-1 (a b^-1)^m <= a^-1 a b^-1 <= a^-1 b b^-1.
        5. In the opposite semigroup under the reversed preorder, step 4's
           a^-1 <= a^-1 a b^-1 reads a^-1 b b^-1 <= b^-1, ending the chain."""
        masks, T = self.S.topology_masks, self.T
        bad = reduce(or_, map(masks.images.__getitem__, T.arrows), 0) & ~T.relation
        if not bad:
            return True, None
        return False, _set(T.up[((bad & -bad).bit_length() - 1) // T.n])

    @cached_property
    def mp(self) -> bool:
        """The verdict of mp_check, computed once per model."""
        jclass = self.S.topology_masks.jclass_of
        return all(not u & ~j for u, j in zip(self.T.up, jclass))


def continuity_check(model: TopologicalSemigroupModel):
    """Is multiplication (and inversion, when S is inverse) continuous?

    Returns (True, None) or (False, witness_open).  The witness is U_z for
    the least z such that some translation maps some b to z and some c in
    U_b outside U_z: an open whose preimage is not open.  The inversion is
    continuous whenever the products are (TopologicalSemigroupModel.continuity
    proves it), so only the translations are read, once per model."""
    return model.continuity


class _PairImages(dict):
    """The pair-image table of a list of maps on 0..n-1: pair index b*n + c
    -> the n^2-bit mask of the pairs t(b)*n + t(c) over the maps t, each
    computed when first read."""

    def __init__(self, maps, n: int):
        super().__init__()
        self.maps, self.n = maps, n

    def __missing__(self, p: int) -> int:
        n = self.n
        b, c = divmod(p, n)
        m = 0
        for t in self.maps:
            m |= 1 << t[b] * n + t[c]
        self[p] = m
        return m


class _SemigroupMasks:
    """The bitmask data that the checks of this module read of a semigroup,
    kept as FiniteSemigroup.topology_masks and built on first use: the pair
    images of the translations (the n rows and the n columns of the table),
    the order-graph rows, the semilattice verdict, each point's J-class
    mask, and the masks and members of the maximal subgroups and E."""

    def __init__(self, S: FiniteSemigroup):
        self.S = S
        self.images = _PairImages((*S.table, *zip(*S.table)), S.n)

    @cached_property
    def jclass_of(self) -> tuple[int, ...]:
        """The mask of the J-class of each point."""
        of = [0] * self.S.n
        for c in self.S.j_classes:
            m = _mask(c)
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
    """The five openness conditions on a Clifford model, from three
    computations.  A set is open iff it contains U_x for each of its points
    x, so j_classes_open is U_x <= J_x for every x, which is mp by
    definition.  A is open in the disjoint union of the subspaces G_e iff
    U_x n G_e <= A for every x in A n G_e, so that topology has least opens
    U_x n G_e and equals T iff U_x <= G_e for every x in G_e, which is
    subgroups_open by definition.  So three things are computed, once each:
    mp from the J-class masks, subgroups_open from the pi fibres, and
    idempotents_discrete (some open meets E in {e} iff U_e does).  The
    J-classes of a Clifford semigroup are its maximal subgroups, so the
    first two agree on every model, read off two sources; all three are
    provably equivalent on a continuous model, and a disagreement among
    them there raises InternalInconsistency.  Raises NotClifford on other
    semigroups."""
    masks, up = model.S.topology_masks, model.T.up
    g_open = all(not up[x] & ~m for m, g in masks.group_masks for x in g)
    E, members = masks.idempotent_mask
    e_discrete = all(up[e] & E == 1 << e for e in members)
    mp = model.mp
    rec = OpennessRecord(mp, mp, g_open, e_discrete, g_open)
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
