"""Finite semigroups as Cayley tables: validation, inverse structure,
Clifford classification, maximal subgroups, Green's J-classes, and
detection of semigroups isomorphic to a semilattice-group direct product.

Elements are dense integer indices 0..n-1; labels are display metadata only.
All operations are pure functions over immutable values.  The structure read
off a table is kept with it in the package's cached_property, which `topology`
uses too: it stores the value in the instance __dict__ and takes no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, count
from operator import eq, itemgetter, ne, or_
from typing import Optional

from .errors import (
    IndexOutOfRange,
    InternalInconsistency,
    NotAssociative,
    NotClifford,
    SearchBudgetExceeded,
)


class cached_property:
    """A property computed once per instance and kept in its __dict__.

    A non-data descriptor: the first read stores func(obj) under the same
    name in obj.__dict__, which every later read finds before the
    descriptor, and a read that raises stores nothing.  So it behaves as
    functools.cached_property does from Python 3.12 on; before 3.12 that one
    takes a lock shared by every instance of the class on each first read,
    which per-model verdicts would pay once per model.  The values cached
    here are pure functions of immutable fields, so a race only computes
    one twice."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class FiniteSemigroup:
    """A semigroup of order n with multiplication table[x][y] = x*y.

    Construct via :func:`validate_semigroup`; the constructor itself does not
    re-check associativity.

    The table is immutable, so the structure read off it is computed once per
    instance and kept as a cached property: the generators, the classification,
    pi with its fibers, the J-classes and the topology masks.  A property that
    raises caches nothing.  Cached values live in the instance __dict__, not in
    fields, so ==, hash and repr see only the table and the labels.
    """

    table: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], tuple]:
        """_generators(table) as tuples, which the garbage collector stops
        tracking, a level per collection; lists would stay tracked."""
        gens, steps = _generators(self.table)
        return tuple(gens), tuple([(tuple(p), tuple(r), tuple(a)) for p, r, a in steps])

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
    def topology_masks(self):
        """The _SemigroupMasks that the checks of topology read: the pair
        images of the translations, filled in as models read them."""
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


def _reader(index):
    """The map seq -> tuple(seq[i] for i in index), in C: an itemgetter,
    which returns a bare item, not a 1-tuple, for a single index."""
    if len(index) == 1:
        i = index[0]
        return lambda seq: (seq[i],)
    return itemgetter(*index)


def _generators(rows) -> tuple[list[int], list[tuple[list[int], ...]]]:
    """A generating set A, chosen greedily: x joins A when no left-normed
    product of earlier generators reaches it; and the steps of its right
    closure (A and every r*a with r in it and a in A).

    The candidates are the non-idempotents, then the idempotents, each in
    index order.  On a union of groups, such as a Clifford semigroup, a
    power of each group element is the identity of its group, so every
    idempotent whose group is not trivial is reached before its turn; in
    index order it would join A whenever it came first.

    The closure grows as generators join.  The step of generator g_k is g_k
    itself, then the products p = r*a it looks up, in order: r*g_k for
    every r reached before g_k, then r*a for every r that g_k newly reaches
    and every a in A so far.  They are kept as three parallel lists
    (ps, rs, as_).  A product that reaches a new p is a derive step, one
    that lands on a reached p a check step.  When a product is looked up,
    r is reached and a is a generator.  Over all steps each pair (r, a)
    with r in S and a in A is looked up exactly once: n |A| lookups."""
    gens, steps, reached, seen = [], [], [], [False] * len(rows)
    for x in sorted(range(len(rows)), key=lambda x: rows[x][x] == x):
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


BYTE_ROWS_MAX = 256  # the largest order whose table rows are read as bytes


def _row_pairs(rows):
    """The kernel of Light's test: the function of y that gives, as two
    iterables over x, row xy and row y read through row x, on a square table
    of indices.  They are equal for every x exactly when (xy)z = x(yz) for
    all x and z; the rows are built and compared inside map, in C.

    A table of order n <= BYTE_ROWS_MAX holds each row as one bytes object,
    and row x padded to 256 bytes is a translation table: row y read through
    row x is b[y].translate(lut[x]), one C call.  A larger table reads its
    rows, which must be tuples, through itemgetters."""
    n = len(rows)
    if n <= BYTE_ROWS_MAX:
        b = list(map(bytes, rows))
        lut = [row + bytes(256 - n) for row in b]
        return lambda y: (map(b.__getitem__, map(itemgetter(y), rows)),
                          map(b[y].translate, lut))
    return lambda y: (itemgetter(*[row[y] for row in rows])(rows),
                      map(itemgetter(*rows[y]), rows))


def _associative(rows, gens=None) -> bool:
    """Whether (xy)z = x(yz) for all x, y, z, on a square table of indices.

    Light's test: call y good when (xy)z = x(yz) for all x and z.  Good
    elements are closed under products: if a and b are good, then
    (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z).  So when every
    generator is good, so is the closure of the generators, the whole
    carrier: testing y over a generating set (gens, by default the table's)
    decides associativity, with the same answer as testing every y, each
    by the row comparison of _row_pairs."""
    pairs = _row_pairs(rows)
    gens = gens or FiniteSemigroup(rows).generators[0]
    return all(all(map(eq, *pairs(y))) for y in gens)


def _differing(left, right) -> list[int]:
    """The positions z at which two rows of equal length differ."""
    return list(compress(count(), map(ne, left, right)))


def associativity_witnesses(table) -> list[tuple[int, int, int]]:
    """All triples (x, y, z) with (xy)z != x(yz), in lexicographic order.

    For every y the rows of _row_pairs are compared for all x at once, and
    z is enumerated only for the pairs (x, y) whose two rows differ, so a
    table with a few broken cells costs about what Light's test over every
    y costs, not n^3 Python steps."""
    rows = tuple(map(tuple, table))
    pairs, bad = _row_pairs(rows), []
    for y in range(len(rows)):
        products, through = map(list, pairs(y))
        for x in compress(count(), map(ne, products, through)):
            bad += [(x, y, z) for z in _differing(products[x], through[x])]
    bad.sort()
    return bad


def validate_semigroup(table, labels=None) -> FiniteSemigroup:
    """Check shape, index range, and associativity; return the semigroup.

    Raises IndexOutOfRange for malformed tables or labels and NotAssociative
    (with the full witness list) when some triple fails.

    A bytes row is range-checked by its maximum alone, its items being ints
    in 0..255 by type, and reaches Light's test as given when n <=
    BYTE_ROWS_MAX; any other row is read as tuple(row).  S.table is int tuples.
    """
    given = [row if type(row) is bytes else tuple(row) for row in table]
    n = len(given)
    if n == 0:
        raise IndexOutOfRange("empty table")
    for i, row in enumerate(given):
        if len(row) != n:
            raise IndexOutOfRange(f"row {i} has length {len(row)}, expected {n}")
        # any other row (int subclasses too) is read cell by cell below
        if type(row) is bytes:
            if max(row) < n:
                continue
        elif set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise IndexOutOfRange(f"table[{i}][{j}] = {v!r} not an index < {n}")
    rows = tuple(map(tuple, given))
    S = FiniteSemigroup(rows)
    if not _associative(given if n <= BYTE_ROWS_MAX else rows, S.generators[0]):
        raise NotAssociative(associativity_witnesses(rows))
    return _with_labels(S, labels)


def _with_labels(S: FiniteSemigroup, labels) -> FiniteSemigroup:
    """The unlabelled S under labels, checked as validate_semigroup checks
    them, with its generators; S itself when labels is None."""
    if labels is None:
        return S
    labels = tuple(labels)
    if len(labels) != S.n:
        raise IndexOutOfRange(f"expected {S.n} labels, got {len(labels)}")
    first = {}
    for j, label in enumerate(labels):
        i = first.setdefault(label, j)
        if i != j:
            raise IndexOutOfRange(f"label {label!r} repeats at indices {i} and {j}")
    labelled = FiniteSemigroup(S.table, labels)
    object.__setattr__(labelled, "generators", S.generators)
    return labelled


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


def _homomorphic(S: FiniteSemigroup, m) -> bool:
    """Whether the map m: S -> S, a sequence, is a homomorphism, read off
    m(xa) = m(x)m(a) for every x and every generator a: n |A| products, a
    column at a time.  Each y is a generator or y'a, so by induction, with S
    associative, m(xy) = m(xy')m(a) = m(x)m(y')m(a) = m(x)m(y)."""
    rows, through_m, products = S.table, _reader(m), {}
    for a in S.generators[0]:
        if m[a] not in products:  # m(x)m(a) for every x
            products[m[a]] = through_m(list(map(itemgetter(m[a]), rows)))
        if _reader(list(map(itemgetter(a), rows)))(m) != products[m[a]]:
            return False
    return True


def _pi_and_subgroups(S: FiniteSemigroup):
    """pi_and_subgroups(S), computed.  pi is checked on the pairs (x, a), a a
    generator: y = y'a gives pi(xy) = pi(xy')pi(a) by induction.  Only on
    failure are all pairs read, so the message names the first (x, y)."""
    cls = classify(S)
    if not cls.is_clifford:
        raise NotClifford("not a Clifford semigroup")
    pi, inv, rows = cls.inverse.pi, cls.inverse.inv, S.table
    if not _homomorphic(S, pi):
        for x, row in enumerate(rows):
            image_row = rows[pi[x]]
            for y, xy in enumerate(row):
                if pi[xy] != image_row[pi[y]]:
                    raise InternalInconsistency(f"pi not a homomorphism at ({x},{y})")
    members: dict[int, list[int]] = {e: [] for e in cls.idempotents}
    for x, e in enumerate(pi):
        members.get(e, []).append(x)  # any other x fails the partition check
    groups: dict[int, tuple[int, ...]] = {}
    for e in cls.idempotents:
        fiber = tuple(members[e])
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
    """Each ideal is an int bitmask, the union of {u} u uS over u in {x} u Sx.
    The mask of uS is built once per distinct row set and the union over Sx
    once per distinct column set.  Classes are returned sorted by their
    least element."""
    rows, cols = list(map(frozenset, S.table)), list(map(frozenset, zip(*S.table)))
    row_masks = {s: sum(map((1).__lshift__, s)) for s in set(rows)}
    right = [row_masks[s] | 1 << u for u, s in enumerate(rows)]
    col_masks = {s: reduce(or_, map(right.__getitem__, s)) for s in set(cols)}
    classes: dict[int, list[int]] = {}
    for x, s in enumerate(cols):
        classes.setdefault(right[x] | col_masks[s], []).append(x)
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
    pos, read = {g: i for i, g in enumerate(elements)}, _reader(elements)
    table = tuple(tuple(map(pos.__getitem__, read(S.table[a]))) for a in elements)
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
    of G.generators: g_k goes to each unused element of H with
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
    gens, steps = G.generators
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
    of G_e to global indices of G_ref, the group of the least idempotent;
    theta_ref = id.  Proof: E(S) has a minimum m, the product of the
    idempotents, and phi_{f,m} = phi_{e,m} o phi_{f,e}, so any family has
    theta_e = theta_m o phi_{e,m} and needs every phi_{e,m}(x) = mx
    bijective; if they are, theta_e(x) is the y in G_ref with my = mx, the
    only family with theta_ref = id.  It reads only the maximal subgroups
    and row m of the table, and checks theta on the pairs (x, a), a a
    generator: y = y'a gives theta(xy) = theta(xy')theta(a)."""
    groups = S.pi_fibers[1]
    rows = S.table
    to_min = rows[reduce(lambda e, f: rows[e][f], groups)]
    ref = next(iter(groups.values()))
    # phi_{m,m} = id, so the sizes also ask |G_m| = |G_ref|
    if any(len(members) != len(ref) or len({to_min[x] for x in members}) != len(ref)
           for members in groups.values()):
        return None
    from_min = {to_min[y]: y for y in ref}
    theta = [from_min[t] for t in to_min]
    # A positive answer must mean x -> (pi(x), theta(x)) is an isomorphism
    # of S onto E(S) x G_ref; both factors are subsemigroups of S, and
    # pi_fibers checked that pi is a homomorphism, so theta is left.
    if not _homomorphic(S, theta):
        raise InternalInconsistency(
            "trivial-Clifford family does not preserve the products of S")
    return {e: {x: theta[x] for x in members} for e, members in groups.items()}
