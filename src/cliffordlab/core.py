"""Finite semigroups as Cayley tables: validation, inverse structure,
Clifford classification, maximal subgroups, Green's J-classes, and
detection of semigroups isomorphic to a semilattice-group direct product.

Elements are dense integer indices 0..n-1; labels are display metadata only.
All operations are pure functions over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import eq, itemgetter
from typing import Optional

from .errors import (
    IndexOutOfRange,
    InternalInconsistency,
    NotAssociative,
    NotClifford,
    SearchBudgetExceeded,
)


@dataclass(frozen=True)
class FiniteSemigroup:
    """A semigroup of order n with multiplication table[x][y] = x*y.

    Construct via :func:`validate_semigroup`; the constructor itself does not
    re-check associativity.

    The table is immutable, so the structure read off it is computed once per
    instance and kept as a cached property: the classification, pi with its
    fibers, the J-classes, the validated decomposition and the masks of the
    topology checks.  A property that raises caches nothing and raises
    again on the next read.  Cached values live in the instance __dict__,
    not in fields, so ==, hash and repr see only the table and the labels.
    """

    table: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    @cached_property
    def classification(self) -> Classification:
        return _classify(self)

    @cached_property
    def pi_fibers(self) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        return _pi_and_subgroups(self)

    @cached_property
    def j_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_green_j_classes(self))

    @cached_property
    def decomposition(self):
        """The (spec, fibers) pair of semilattice._decompose."""
        from .semilattice import _decompose

        return _decompose(self)

    @cached_property
    def topology_masks(self):
        """The bitmask data that the checks of topology read (its
        _SemigroupMasks); the pair images fill in as models read them."""
        from .topology import _SemigroupMasks

        return _SemigroupMasks(self)

    @property
    def n(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def elements(self) -> range:
        return range(self.n)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


def associativity_witnesses(table) -> list[tuple[int, int, int]]:
    """All triples (x, y, z) with (xy)z != x(yz)."""
    n = len(table)
    bad = []
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            row = table[xy]
            for z in range(n):
                if row[z] != table[x][table[y][z]]:
                    bad.append((x, y, z))
    return bad


def _reader(index):
    """The map seq -> tuple(seq[i] for i in index), in C: an itemgetter,
    which returns a bare item, not a 1-tuple, for a single index."""
    if len(index) == 1:
        i = index[0]
        return lambda seq: (seq[i],)
    return itemgetter(*index)


def _generators(rows) -> tuple[list[int], list[tuple[list[int], ...]]]:
    """A generating set A, chosen greedily in index order: x joins A when
    no left-normed product of earlier generators reaches it; and the steps
    of its right closure (A and every r*a with r in it and a in A).

    The closure grows as generators join.  The step of generator g_k is g_k
    itself, then the products p = r*a it looks up, in order: r*g_k for
    every r reached before g_k, then r*a for every r that g_k newly reaches
    and every a in A so far.  They are kept as three parallel lists
    (ps, rs, as_).  A product that reaches a new p is a derive step, one
    that lands on a reached p a check step.  When a product is looked up,
    r is reached and a is a generator.  Over all steps each pair (r, a)
    with r in S and a in A is looked up exactly once: n |A| lookups."""
    gens, steps, reached, seen = [], [], [], [False] * len(rows)
    for x in range(len(rows)):
        if seen[x]:
            continue
        gens.append(x)
        ps, rs, as_ = [rows[r][x] for r in reached], reached[:], [x] * len(reached)
        for p in chain((x,), ps):  # the derive steps extend ps while it is read
            if not seen[p]:
                seen[p] = True
                reached.append(p)
                ps += map(rows[p].__getitem__, gens)
                rs += [p] * len(gens)
                as_ += gens
        steps.append((ps, rs, as_))
    return gens, steps


def _associative(rows) -> bool:
    """Whether (xy)z = x(yz) for all x, y, z, on a square table of indices.

    Light's test: call y good when (xy)z = x(yz) for all x and z.  Good
    elements are closed under products: if a and b are good, then
    (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z).  So when every
    generator is good, so is the closure of the generators, the whole
    carrier: testing y over a generating set decides associativity, with
    the same answer as testing every y.  For one y, row xy must equal row y
    read through row x; the rows are built and compared one at a time
    inside map, so the inner loops run in C.

    A table of order n <= 256 holds each row as one bytes object, and row x
    padded to 256 bytes is a translation table: row y read through row x is
    b[y].translate(lut[x]), one C call.  A larger table reads its rows
    through itemgetters as tuples."""
    gens, n = _generators(rows)[0], len(rows)
    if n <= 256:
        b = list(map(bytes, rows))
        lut = [row + bytes(256 - n) for row in b]
        for y in gens:
            products = map(b.__getitem__, map(itemgetter(y), rows))
            if not all(map(eq, products, map(b[y].translate, lut))):
                return False
        return True
    for y in gens:
        through = itemgetter(*rows[y])
        products = itemgetter(*[row[y] for row in rows])
        if not all(map(eq, products(rows), map(through, rows))):
            return False
    return True


def validate_semigroup(table, labels=None) -> FiniteSemigroup:
    """Check shape, index range, and associativity; return the semigroup.

    Raises IndexOutOfRange for malformed tables or labels and NotAssociative
    (with the full witness list) when some triple fails.
    """
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise IndexOutOfRange("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise IndexOutOfRange(f"row {i} has length {len(row)}, expected {n}")
        # any other row (int subclasses too) is read cell by cell below
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise IndexOutOfRange(f"table[{i}][{j}] = {v!r} not an index < {n}")
    if not _associative(rows):
        raise NotAssociative(associativity_witnesses(rows))
    return _with_labels(FiniteSemigroup(rows), labels)


def _with_labels(S: FiniteSemigroup, labels) -> FiniteSemigroup:
    """S's table under labels, checked as validate_semigroup checks them."""
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != S.n:
            raise IndexOutOfRange(f"expected {S.n} labels, got {len(labels)}")
        first = {}
        for j, label in enumerate(labels):
            i = first.setdefault(label, j)
            if i != j:
                raise IndexOutOfRange(
                    f"label {label!r} repeats at indices {i} and {j}")
    return FiniteSemigroup(S.table, labels)


def idempotents(S: FiniteSemigroup) -> list[int]:
    return [x for x, row in enumerate(S.table) if row[x] == x]


def is_commutative(S: FiniteSemigroup) -> bool:
    """xy = yx for all x, y: the table equals its transpose."""
    return S.table == tuple(zip(*S.table))


def is_semilattice(S: FiniteSemigroup) -> bool:
    return is_commutative(S) and all(S.mul(x, x) == x for x in S.elements())


@dataclass(frozen=True)
class InverseStructure:
    """The unique-inverse assignment of an inverse semigroup.

    inv[x] is the unique y with xyx = x and yxy = y; pi[x] = x * inv[x].
    """

    inv: tuple[int, ...]
    pi: tuple[int, ...]


def _all_inverses(rows, x: int) -> list[int]:
    """Every y with xyx = x and yxy = y, read off the table rows."""
    rx = rows[x]
    return [
        y
        for y, ry in enumerate(rows)
        if rows[rx[y]][x] == x and rows[ry[x]][y] == y
    ]


def inverse_structure(S: FiniteSemigroup) -> Optional[InverseStructure]:
    """The inverse structure, or None when some element does not have a
    unique inverse (uniqueness is re-verified by full enumeration)."""
    rows = S.table
    inv = []
    for x in S.elements():
        cands = _all_inverses(rows, x)
        if len(cands) != 1:
            return None
        inv.append(cands[0])
    pi = tuple(rows[x][inv[x]] for x in S.elements())
    for x in S.elements():
        e = pi[x]
        if rows[e][e] != e:
            raise InternalInconsistency(f"pi[{x}] = {e} is not idempotent")
    return InverseStructure(tuple(inv), pi)


@dataclass(frozen=True)
class Classification:
    is_inverse: bool
    inverse: Optional[InverseStructure]
    is_clifford: bool
    is_group: bool
    is_left_cancellative: bool
    is_right_cancellative: bool
    idempotents: tuple[int, ...]


def classify(S: FiniteSemigroup) -> Classification:
    """Full structural classification by exhaustive checks, computed once
    per instance (see :func:`_classify`)."""
    return S.classification


def _classify(S: FiniteSemigroup) -> Classification:
    """Full structural classification by exhaustive checks.

    The Clifford property is computed twice, as "x x^-1 = x^-1 x for all x"
    and as "all idempotents are central"; disagreement would be an
    implementation bug and raises InternalInconsistency.
    """
    rows = S.table
    cols = list(zip(*rows))
    E = tuple(sorted(idempotents(S)))
    inv = inverse_structure(S)
    is_inverse = inv is not None
    if is_inverse:
        via_commuting_pi = all(
            rows[x][y] == cols[x][y] for x, y in enumerate(inv.inv)
        )
        via_central = all(tuple(rows[e]) == cols[e] for e in E)
        if via_commuting_pi != via_central:
            raise InternalInconsistency(
                "the two Clifford criteria disagree: "
                f"x x^-1 = x^-1 x gives {via_commuting_pi}, "
                f"central idempotents give {via_central}"
            )
        is_clifford = via_commuting_pi
    else:
        is_clifford = False
    is_group = is_inverse and len(E) == 1
    left_canc = all(len(set(row)) == S.n for row in rows)
    right_canc = all(len(set(col)) == S.n for col in cols)
    return Classification(
        is_inverse=is_inverse,
        inverse=inv,
        is_clifford=is_clifford,
        is_group=is_group,
        is_left_cancellative=left_canc,
        is_right_cancellative=right_canc,
        idempotents=E,
    )


def pi_and_subgroups(S: FiniteSemigroup):
    """The projection pi(x) = x x^-1 and its fibers, the maximal subgroups.

    Returns (pi, groups) where groups maps each idempotent e to the sorted
    tuple of elements of G_e; groups is a fresh dict on every call.
    Verifies that pi is a homomorphism and that each fiber is a group with
    identity e.  Raises NotClifford otherwise; this is the one Clifford
    check on the decomposition path.
    """
    pi, groups = S.pi_fibers
    return pi, dict(groups)


def _pi_and_subgroups(S: FiniteSemigroup):
    """pi_and_subgroups(S), computed."""
    cls = classify(S)
    if not cls.is_clifford:
        raise NotClifford("not a Clifford semigroup")
    pi, inv, rows = cls.inverse.pi, cls.inverse.inv, S.table
    for x, row in enumerate(rows):
        image_row = rows[pi[x]]
        for y, xy in enumerate(row):
            if pi[xy] != image_row[pi[y]]:
                raise InternalInconsistency(f"pi not a homomorphism at ({x},{y})")
    groups: dict[int, tuple[int, ...]] = {}
    for e in cls.idempotents:
        fiber = tuple(sorted(x for x in S.elements() if pi[x] == e))
        if e not in fiber:
            raise InternalInconsistency(f"{e} not in its own fiber")
        for x in fiber:
            if pi[rows[x][inv[x]]] != e:
                raise InternalInconsistency(f"fiber of {e} not inverse-closed")
            if any(pi[xy] != e for xy in map(rows[x].__getitem__, fiber)):
                raise InternalInconsistency(f"fiber of {e} not product-closed")
        groups[e] = fiber
    covered = sorted(x for fiber in groups.values() for x in fiber)
    if covered != list(S.elements()):
        raise InternalInconsistency("fibers do not partition the carrier")
    return pi, groups


def green_j_classes(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """Partition by equality of principal two-sided ideals S^1 x S^1, as a
    fresh list of classes sorted by their least element."""
    return list(S.j_classes)


def _green_j_classes(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """Each ideal is an int bitmask, the union of {u} u uS over u in {x} u Sx:
    O(n^2) big-int ORs in all.  Classes are returned sorted by their least
    element."""
    right = []
    for u, row in enumerate(S.table):
        mask = 1 << u
        for v in set(row):
            mask |= 1 << v
        right.append(mask)
    classes: dict[int, list[int]] = {}
    for x in S.elements():
        ideal = right[x]
        for u in {row[x] for row in S.table}:
            ideal |= right[u]
        classes.setdefault(ideal, []).append(x)
    return [tuple(c) for c in classes.values()]


def element_signature(S: FiniteSemigroup, x: int) -> tuple[int, int, bool]:
    """(index, period) of the monogenic subsemigroup of x, plus idempotency.

    Isomorphism-invariant; used for search pruning."""
    rows = S.table
    seen = {}
    cur = x
    k = 0
    while cur not in seen:
        seen[cur] = k
        cur = rows[cur][x]
        k += 1
    first = seen[cur]
    return (first, k - first, rows[x][x] == x)


def local_group_table(S: FiniteSemigroup, elements) -> FiniteSemigroup:
    """Reindex a subset closed under products, given by global indices (a
    subgroup, or E(S) of a Clifford semigroup), to a standalone table."""
    elements = tuple(elements)
    pos = {g: i for i, g in enumerate(elements)}
    table = tuple(
        tuple(pos[S.mul(a, b)] for b in elements) for a in elements
    )
    labels = tuple(S.label(g) for g in elements)
    return FiniteSemigroup(table, labels)


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise SearchBudgetExceeded(f"search budget {self.limit} exceeded")


def isomorphisms(G: FiniteSemigroup, H: FiniteSemigroup, budget: _Budget):
    """Yield all isomorphisms G -> H (as index tuples) by backtracking, for
    any two semigroup tables.

    The search branches only on the images of the generators g_1, g_2, ...
    that _generators picks in G: g_k goes to each unused element of H with
    its signature in index order, and every such node spends one unit of
    the budget; exceeding it raises SearchBudgetExceeded.  Placing g_k
    replays its closure step against H: a derive step p = r*a sets
    m(p) = m(r)m(a), pruned when that image is used or has another
    signature; a check step prunes unless m(p) = m(r)m(a).

    A map that survives the last step is an isomorphism, with no check at
    the leaf.  It is injective on the whole carrier, so a bijection.  And
    m(ra) = m(r)m(a) for every r in G and every generator a, since the
    steps look up each such pair.  Every y is a generator, or y'a with a a
    generator and y' a shorter left-normed product of generators, so by
    induction on that length, with both tables associative,
    m(xy) = m((xy')a) = m(xy')m(a) = m(x)m(y')m(a) = m(x)m(y):
    Light's closure argument again."""
    if G.n != H.n:
        return
    sig_g = [element_signature(G, x) for x in G.elements()]
    sig_h = [element_signature(H, x) for x in H.elements()]
    if sorted(sig_g) != sorted(sig_h):
        return
    gens, steps = _generators(G.table)
    images = [[u for u in H.elements() if sig_h[u] == sig_g[g]] for g in gens]
    ht = H.table
    mapping = [-1] * G.n
    used = [False] * H.n

    def extend(k):
        if k == len(gens):
            yield tuple(mapping)
            return
        g = gens[k]
        for u in images[k]:
            if used[u]:
                continue
            budget.spend()
            mapping[g] = u
            used[u] = True
            placed = [g]
            for p, r, a in zip(*steps[k]):
                v = ht[mapping[r]][mapping[a]]
                if mapping[p] == -1:
                    if used[v] or sig_h[v] != sig_g[p]:
                        break
                    mapping[p] = v
                    used[v] = True
                    placed.append(p)
                elif mapping[p] != v:
                    break
            else:
                yield from extend(k + 1)
            for p in placed:
                used[mapping[p]] = False
                mapping[p] = -1

    yield from extend(0)


def is_trivial_clifford(S: FiniteSemigroup):
    """The isomorphisms theta_e: G_e -> G_ref exhibiting every bonding map as
    phi_{f,e} = theta_e^-1 o theta_f, i.e. S as the direct product
    E(S) x G_ref, or None when S is no such product.

    Returns {e: theta_e} keyed by idempotent, theta_e mapping global indices
    of G_e to global indices of G_ref, the group of E-index 0; theta_ref = id.
    Proof: E(S) has a minimum m and phi_{f,m} = phi_{e,m} o phi_{f,e}, so any
    family has theta_e = theta_m o phi_{e,m} and needs every phi_{e,m}
    bijective; if they are, theta_e = phi_{ref,m}^-1 o phi_{e,m} is one, and
    the only one with theta_ref = id.  It reads the validated spec of S.
    """
    spec, fibers = S.decomposition
    E, G = spec.E, spec.groups[0]
    m = reduce(E.mul, E.elements())
    to_min = [spec.bonding[(e, m)] for e in E.elements()]
    # phi_{m,m} = id, so the lengths also ask |G_m| = |G_0|
    if any(len(set(phi)) != len(phi) or len(phi) != G.n for phi in to_min):
        return None
    from_min = {t: u for u, t in enumerate(to_min[0])}
    theta = [[from_min[t] for t in phi] for phi in to_min]
    # A positive answer must mean x = (e, i) -> (e, theta_e(i)) is an
    # isomorphism of S onto E(S) x G_ref.
    image = [None] * S.n
    for e, (_, members) in enumerate(fibers):
        for x, u in zip(members, theta[e]):
            image[x] = (e, u)
    for (e, u), row in zip(image, S.table):
        if any(image[xy] != (E.table[e][f], G.table[u][v])
               for xy, (f, v) in zip(row, image)):
            raise InternalInconsistency(
                "trivial-Clifford family does not preserve the products of S")
    _, ref_members = fibers[0]
    return {idem: {x: ref_members[u] for x, u in zip(members, theta[e])}
            for e, (idem, members) in enumerate(fibers)}
