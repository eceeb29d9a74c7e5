"""Structure analysis of finite semigroups from their Cayley tables."""

import dataclasses
import enum
import itertools
import math
import pickle
import random
from operator import eq, itemgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffordlab import catalog as cat, core, errors, semilattice
from cliffordlab.core import (
    Classification,
    FiniteSemigroup,
    InverseStructure,
    _Budget,
    _associative,
    _generators,
    associativity_witnesses,
    classify,
    element_signature,
    green_j_classes,
    idempotents,
    inverse_structure,
    is_commutative,
    is_trivial_clifford,
    isomorphisms,
    local_group_table,
    pi_and_subgroups,
    validate_semigroup,
)
from cliffordlab.errors import (
    IndexOutOfRange,
    InternalInconsistency,
    NotAssociative,
    NotClifford,
    NotSemilattice,
    SearchBudgetExceeded,
    WorkbenchError,
)
from cliffordlab.semilattice import (
    assemble,
    decompose,
    direct_product,
    iso_equivalent,
    validate_spec,
)


def test_z2_table_is_valid():
    S = validate_semigroup([[0, 1], [1, 0]])
    assert S.n == 2


def test_non_associative_table_reports_witness():
    # aa=b, ab=a, ba=a, bb=a with a=0, b=1: (aa)b = bb = a but a(ab) = aa = b
    with pytest.raises(NotAssociative) as exc:
        validate_semigroup([[1, 0], [0, 0]])
    assert (0, 0, 1) in exc.value.witnesses


def test_out_of_range_entry_rejected():
    with pytest.raises(IndexOutOfRange):
        validate_semigroup([[0, 2], [1, 0]])


def test_repeated_label_rejected():
    with pytest.raises(IndexOutOfRange, match="^label 'a' repeats at indices 0 and 1$"):
        validate_semigroup([[0, 1], [1, 0]], labels=["a", "a"])
    assert validate_semigroup([[0, 1], [1, 0]], labels=["a", "b"]).labels == ("a", "b")


def test_min_semilattice_is_valid():
    S = validate_semigroup([[min(i, j) for j in range(3)] for i in range(3)])
    assert classify(S).is_clifford


def test_classify_z3():
    c = classify(cat.cyclic_group(3))
    assert c.is_inverse and c.is_clifford and c.is_group
    assert c.is_left_cancellative and c.is_right_cancellative


def test_classify_chain3():
    c = classify(cat.chain_semilattice(3))
    assert c.is_inverse and c.is_clifford
    assert not c.is_group
    assert not c.is_left_cancellative and not c.is_right_cancellative
    assert len(c.idempotents) == 3


def test_left_zero_not_inverse():
    c = classify(cat.left_zero(2))
    assert not c.is_inverse


def test_brandt_is_inverse_but_not_clifford():
    c = classify(cat.brandt_b2())
    assert c.is_inverse
    assert not c.is_clifford


def test_inverse_antihomomorphism_on_catalog():
    for S in cat.semigroup_catalog().values():
        c = classify(S)
        if not c.is_inverse:
            continue
        inv = c.inverse.inv
        for x in S.elements():
            for y in S.elements():
                assert inv[S.mul(x, y)] == S.mul(inv[y], inv[x])


def test_pi_fibers_of_direct_product():
    S = cat.semigroup_catalog()["chain2-x-z2"]
    pi, groups = pi_and_subgroups(S)
    assert sorted(len(g) for g in groups.values()) == [2, 2]
    for e, members in groups.items():
        for x in members:
            assert pi[x] == e


def test_pi_on_pure_semilattice_is_identity():
    pi, groups = pi_and_subgroups(cat.diamond_semilattice())
    assert list(pi) == list(range(4))
    assert all(len(g) == 1 for g in groups.values())


def test_group_has_single_fiber():
    _, groups = pi_and_subgroups(cat.symmetric_group_3())
    (members,) = groups.values()
    assert len(members) == 6


def test_bonding_recovered_as_mod_reduction():
    # chain with a Z4 top fiber bonded onto Z2 by reduction mod 2: the map
    # extracted from the assembled table must be reduction mod 2 again
    spec = cat.spec_catalog()["chain2-z4-z2-mod"]
    back = decompose(assemble(spec).semigroup)
    assert back.bonding[(1, 0)] == (0, 1, 0, 1)


def test_bonding_identity_on_diagonal():
    S = cat.semigroup_catalog()["assembled-chain3-z4-z4-z2"]
    spec = decompose(S)
    for e in spec.E.elements():
        assert spec.bonding[(e, e)] == tuple(range(spec.groups[e].n))


def test_j_classes_of_group_and_left_zero():
    assert len(green_j_classes(cat.cyclic_group(4))) == 1
    assert len(green_j_classes(cat.left_zero(2))) == 1


def test_j_classes_of_clifford_are_the_fibers():
    S = cat.semigroup_catalog()["assembled-diamond-mixed"]
    _, groups = pi_and_subgroups(S)
    assert sorted(green_j_classes(S)) == sorted(
        tuple(g) for g in groups.values()
    )


def test_trivial_clifford_on_direct_product():
    S = cat.semigroup_catalog()["chain2-x-z3"]
    theta = is_trivial_clifford(S)
    assert theta is not None and len(theta) == 2


def test_trivial_clifford_rejects_shrinking_fibers():
    S = cat.semigroup_catalog()["assembled-chain2-z4-z2-mod"]
    assert is_trivial_clifford(S) is None


def test_trivial_clifford_rejects_collapse_bonding():
    # both fibers are Z2 but the bonding is not bijective, while any
    # theta_e^-1 o theta_f necessarily is
    S = cat.semigroup_catalog()["assembled-chain2-z2-z2-collapse"]
    assert is_trivial_clifford(S) is None


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_groups_classify_as_groups(n):
    c = classify(cat.cyclic_group(n))
    assert c.is_group and c.is_clifford


# ---------------------------------------------------------------------------
# the row-level kernels against the loops they replaced


def transformation_closure(gens):
    """All products of the maps in gens (tuples over range(k)), where x*y
    applies x first; returns the Cayley table over the closure."""
    elems = list(dict.fromkeys(gens))
    seen = set(elems)
    i = 0
    while i < len(elems):
        f = elems[i]
        for g in elems[: i + 1]:
            for h in (tuple(g[v] for v in f), tuple(f[v] for v in g)):
                if h not in seen:
                    seen.add(h)
                    elems.append(h)
        i += 1
    pos = {f: i for i, f in enumerate(elems)}
    return [[pos[tuple(g[v] for v in f)] for g in elems] for f in elems]


@st.composite
def transformation_tables(draw, max_order=32):
    k = draw(st.integers(min_value=1, max_value=4))
    point_map = st.tuples(*[st.integers(min_value=0, max_value=k - 1)] * k)
    table = transformation_closure(draw(st.lists(point_map, min_size=1, max_size=3)))
    assume(len(table) <= max_order)
    return table


CATALOG_TABLES = [[list(row) for row in S.table]
                  for S in cat.semigroup_catalog().values()]


@st.composite
def tables_and_mutations(draw):
    """A catalog or transformation-semigroup table, with one cell changed
    half of the time."""
    table = draw(st.one_of(st.sampled_from(CATALOG_TABLES), transformation_tables()))
    table = [list(row) for row in table]
    if draw(st.booleans()):
        n = len(table)
        i, j, v = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(3))
        table[i][j] = v
    return table


def assert_validation_matches_the_witness_loop(table):
    bad = associativity_witnesses(table)
    if bad:
        with pytest.raises(NotAssociative) as exc:
            validate_semigroup(table)
        assert exc.value.witnesses == bad
    else:
        assert validate_semigroup(table).table == tuple(map(tuple, table))


@settings(max_examples=200, deadline=None)
@given(tables_and_mutations())
def test_validation_accepts_exactly_the_tables_without_witnesses(table):
    assert_validation_matches_the_witness_loop(table)


def test_validation_matches_the_witness_loop_on_every_table_of_order_at_most_3():
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            assert_validation_matches_the_witness_loop(
                [list(cells[i * n:(i + 1) * n]) for i in range(n)])


def reference_validate_index(table):
    """The shape and index check of validate_semigroup as it was: every
    cell read with two isinstance calls and a chained comparison."""
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise IndexOutOfRange("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise IndexOutOfRange(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise IndexOutOfRange(f"table[{i}][{j}] = {v!r} not an index < {n}")


class Cell(enum.IntEnum):
    A = 0
    B = 1
    C = 2
    D = 5


def index_check_outcome(check, table):
    """The IndexOutOfRange message of check(table), or None when the table
    passes the index check (a NotAssociative table passes it)."""
    try:
        check(table)
    except IndexOutOfRange as exc:
        return str(exc)
    except NotAssociative:
        pass
    return None


@st.composite
def tables_with_odd_cells(draw):
    """Tables of order 1-4 whose cells are mostly indices, some of them
    bools, floats, negatives, n or more, or IntEnum members; a row is
    ragged now and then."""
    n = draw(st.integers(min_value=1, max_value=4))
    odd = st.one_of(st.booleans(), st.sampled_from([0.0, 1.0, 0.5, float("nan")]),
                    st.integers(min_value=-3, max_value=-1),
                    st.integers(min_value=n, max_value=n + 2), st.sampled_from(Cell))
    cell = st.one_of(st.integers(min_value=0, max_value=n - 1), odd)
    table = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        i = draw(st.integers(min_value=0, max_value=n - 1))
        table[i] = draw(st.lists(cell, max_size=n + 1))
    return table


@settings(max_examples=300, deadline=None)
@given(tables_with_odd_cells())
def test_index_check_matches_the_cell_loop(table):
    expected = index_check_outcome(reference_validate_index, table)
    assert index_check_outcome(validate_semigroup, table) == expected
    if expected is None and not associativity_witnesses(table):
        assert validate_semigroup(table).table == tuple(map(tuple, table))


@pytest.mark.parametrize("table", [
    [[0, 1], [1, True]], [[0, 1], [1, 0.0]], [[0, -1], [1, 0]], [[0, 1], [1, 2]],
    [[Cell.A, Cell.B], [Cell.B, Cell.A]], [[0, 1], [Cell.B, Cell.C]],
    [[0, 1], [1]], [[0, 1], [1, 0, 1]], [], [[0]], [[1]],
])
def test_index_check_matches_the_cell_loop_on_each_kind_of_cell(table):
    assert (index_check_outcome(validate_semigroup, table)
            == index_check_outcome(reference_validate_index, table))


def j_classes_by_ideal_sets(S):
    """Green's J-classes from the ideal sets S^1 x S^1, built element by
    element."""
    ideals = []
    for x in S.elements():
        ideal = {x}
        ideal.update(S.mul(s, x) for s in S.elements())
        ideal.update(S.mul(x, t) for t in S.elements())
        for s in S.elements():
            sx = S.mul(s, x)
            ideal.update(S.mul(sx, t) for t in S.elements())
        ideals.append(frozenset(ideal))
    classes = {}
    for x, ideal in enumerate(ideals):
        classes.setdefault(ideal, []).append(x)
    return sorted((tuple(sorted(c)) for c in classes.values()), key=lambda c: c[0])


@settings(max_examples=200, deadline=None)
@given(transformation_tables())
def test_j_classes_match_the_ideal_sets_on_transformation_semigroups(table):
    S = validate_semigroup(table)
    assert green_j_classes(S) == j_classes_by_ideal_sets(S)


def test_j_classes_match_the_ideal_sets_on_assembled_clifford_semigroups():
    semigroups = [assemble(spec).semigroup for spec in cat.spec_catalog().values()]
    semigroups += [direct_product(cat.diamond_semilattice(), G).semigroup
                   for G in (cat.cyclic_group(3), cat.symmetric_group_3())]
    for S in semigroups:
        assert green_j_classes(S) == j_classes_by_ideal_sets(S)


def reference_isomorphisms(G, H, budget):
    """The index-order backtracking search, as it was before the landing
    lists: the elements of G are mapped in index order, and at every node
    all pairs a, b < x are rescanned for a product landing on x."""
    if G.n != H.n:
        return
    sig_g = [element_signature(G, x) for x in G.elements()]
    sig_h = [element_signature(H, x) for x in H.elements()]
    if sorted(sig_g) != sorted(sig_h):
        return
    n = G.n
    mapping = [-1] * n
    used = [False] * n

    def extend(x):
        if x == n:
            yield tuple(mapping)
            return
        for u in range(n):
            if used[u] or sig_h[u] != sig_g[x]:
                continue
            budget.spend()
            mapping[x] = u
            used[u] = True
            ok = True
            for y in range(x + 1):
                v = mapping[y]
                im_xy = mapping[G.mul(x, y)]
                if im_xy != -1 and im_xy != H.mul(u, v):
                    ok = False
                    break
                im_yx = mapping[G.mul(y, x)]
                if im_yx != -1 and im_yx != H.mul(v, u):
                    ok = False
                    break
            if ok:
                for a in range(x):
                    for b in range(x):
                        if G.mul(a, b) == x and H.mul(mapping[a], mapping[b]) != u:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                yield from extend(x + 1)
            mapping[x] = -1
            used[u] = False

    yield from extend(0)


def first_and_spent(search, G, H, limit=10**9):
    budget = _Budget(limit)
    return next(search(G, H, budget), None), budget.used


def all_isomorphisms(search, G, H):
    return sorted(search(G, H, _Budget(10**9)))


def assert_search_matches_the_reference(G, H, enumerate_all=True):
    """The search finds an isomorphism exactly when the reference does, and
    with enumerate_all the same set of them.  Which one comes first and the
    budget it charges are the search's own, so the budget boundary is
    checked on the search alone."""
    first, spent = first_and_spent(isomorphisms, G, H)
    assert (first is None) == (first_and_spent(reference_isomorphisms, G, H)[0] is None)
    if first is not None:
        assert all(first[G.mul(x, y)] == H.mul(first[x], first[y])
                   for x in G.elements() for y in G.elements())
    if spent:
        with pytest.raises(SearchBudgetExceeded):
            first_and_spent(isomorphisms, G, H, limit=spent - 1)
    assert first_and_spent(isomorphisms, G, H, limit=spent) == (first, spent)
    if enumerate_all:
        assert all_isomorphisms(isomorphisms, G, H) == all_isomorphisms(
            reference_isomorphisms, G, H)


def relabelled(S, seed):
    perm = list(S.elements())
    random.Random(seed).shuffle(perm)
    table = [[0] * S.n for _ in S.elements()]
    for x in S.elements():
        for y in S.elements():
            table[perm[x]][perm[y]] = perm[S.mul(x, y)]
    return FiniteSemigroup(tuple(map(tuple, table)))


def group_product(A, B):
    table = [[A.mul(a1, a2) * B.n + B.mul(b1, b2)
              for a2 in A.elements() for b2 in B.elements()]
             for a1 in A.elements() for b1 in B.elements()]
    return validate_semigroup(table)


def quaternion_group():
    # element 4 s + u is (-1)^s times the unit u in (1, i, j, k)
    units = {(1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
             (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}
    def unit_product(u, v):
        if u == 0 or v == 0:
            return 0, u + v
        return (1, 0) if u == v else units[(u, v)]
    table = []
    for x in range(8):
        row = []
        for y in range(8):
            sign, unit = unit_product(x % 4, y % 4)
            row.append(4 * ((x // 4 + y // 4 + sign) % 2) + unit)
        table.append(row)
    return validate_semigroup(table)


def test_isomorphism_search_matches_the_reference_on_relabelled_catalog_tables():
    for seed, S in enumerate(cat.semigroup_catalog().values()):
        assert_search_matches_the_reference(S, relabelled(S, seed))


def test_isomorphism_search_matches_the_reference_on_round_trips():
    for S in cat.semigroup_catalog().values():
        if classify(S).is_clifford:
            assert_search_matches_the_reference(S, assemble(decompose(S)).semigroup)


def test_isomorphism_search_matches_the_reference_on_same_signature_twins():
    z4z4 = group_product(cat.cyclic_group(4), cat.cyclic_group(4))
    z2q8 = group_product(cat.cyclic_group(2), quaternion_group())
    for E in (cat.chain_semilattice(1), cat.chain_semilattice(2)):
        S = direct_product(E, z4z4).semigroup
        twin = direct_product(E, z2q8).semigroup
        assert sorted(element_signature(S, x) for x in S.elements()) == sorted(
            element_signature(twin, x) for x in twin.elements())
        assert_search_matches_the_reference(S, twin)
        assert_search_matches_the_reference(S, relabelled(S, 7), enumerate_all=False)


def test_isomorphism_search_matches_the_reference_on_every_pair_of_order_3():
    semigroups = [FiniteSemigroup(rows) for rows in (
        (cells[0:3], cells[3:6], cells[6:9])
        for cells in itertools.product(range(3), repeat=9)) if _associative(rows)]
    assert len(semigroups) == 113
    for G in semigroups:
        for H in semigroups:
            assert all_isomorphisms(isomorphisms, G, H) == all_isomorphisms(
                reference_isomorphisms, G, H)


@settings(max_examples=100, deadline=None)
@given(transformation_tables(max_order=10), st.integers(min_value=0, max_value=99))
def test_isomorphism_search_matches_the_reference_on_relabelled_transformation_tables(
        table, seed):
    S = validate_semigroup(table)
    assert_search_matches_the_reference(S, relabelled(S, seed))


def test_left_and_right_zero_bands_are_not_isomorphic():
    # every element is a generator, so only the check steps tell them apart
    assert _generators(cat.left_zero(4).table)[0] == [0, 1, 2, 3]
    assert iso_equivalent(cat.left_zero(4), cat.right_zero(4)) is None


def test_the_null_semigroup_of_order_4_has_3_factorial_automorphisms():
    N = cat.null_semigroup(4)
    assert all_isomorphisms(isomorphisms, N, N) == [
        (0, *perm) for perm in itertools.permutations((1, 2, 3))]


# ---------------------------------------------------------------------------
# decompose and is_trivial_clifford against the bonding-map tabulation in
# global indices that they replaced


def reference_bonding_maps(S):
    """(groups, E, le, bonding): the fibers of S keyed by their idempotent,
    the sorted idempotents, the pairs e <= f of the natural order, and every
    bonding map phi_{f,e}(x) = ex as a dict on global indices, with the
    homomorphism, identity and composition laws checked here."""
    _, groups = pi_and_subgroups(S)
    E = sorted(groups)
    le = {(e, f) for e in E for f in E if S.mul(e, f) == e}
    bonding = {}
    for f in E:
        for e in E:
            if (e, f) not in le:
                continue
            phi = {}
            for x in groups[f]:
                y = S.mul(e, x)
                assert S.mul(x, e) == y and y in groups[e]
                phi[x] = y
            for x in groups[f]:
                for y in groups[f]:
                    assert phi[S.mul(x, y)] == S.mul(phi[x], phi[y])
            bonding[(f, e)] = phi
    for e in E:
        assert all(bonding[(e, e)][x] == x for x in groups[e])
    for e, f in le:
        for g in E:
            if (f, g) in le:
                for x in groups[g]:
                    assert bonding[(g, e)][x] == bonding[(f, e)][bonding[(g, f)][x]]
    return groups, E, le, bonding


def reference_semilattice_of_idempotents(S):
    """E(S) as a standalone table over the sorted idempotent list, as
    decompose built it before reading E as a subtable.

    Requires idempotents to be closed under multiplication (true in any
    Clifford semigroup)."""
    E = sorted(idempotents(S))
    pos = {e: i for i, e in enumerate(E)}
    table = []
    for e in E:
        row = []
        for f in E:
            m = S.mul(e, f)
            if m not in pos:
                raise NotSemilattice(f"{e}*{f} = {m} is not idempotent")
            row.append(pos[m])
        table.append(tuple(row))
    return FiniteSemigroup(tuple(table), tuple(S.label(e) for e in E))


def reference_decompose(S):
    groups, E, _, bonding = reference_bonding_maps(S)
    pos_e = {e: i for i, e in enumerate(E)}
    elem_pos = {e: {g: i for i, g in enumerate(groups[e])} for e in E}
    local = {pos_e[e]: local_group_table(S, groups[e]) for e in E}
    local_bonding = {
        (pos_e[f], pos_e[e]): tuple(elem_pos[e][phi[x]] for x in groups[f])
        for (f, e), phi in bonding.items() if f != e
    }
    E = reference_semilattice_of_idempotents(S)
    return validate_spec(E, local, local_bonding)


def reference_is_trivial_clifford(S):
    """The theta family or None, searching the isomorphisms G_e -> G_ref in
    global indices over the tabulated bonding maps."""
    groups, E, le, bonding = reference_bonding_maps(S)
    ref = max(E, key=lambda e: (len(groups[e]), -e))
    if any(len(groups[e]) != len(groups[ref]) for e in E):
        return None
    bud = _Budget(500_000)
    locals_ = {e: local_group_table(S, groups[e]) for e in E}
    iso_lists = {}
    for e in E:
        isos = list(isomorphisms(locals_[e], locals_[ref], bud))
        if not isos:
            return None
        iso_lists[e] = isos
    chosen = {}

    def global_theta(e, iso):
        return {groups[e][i]: groups[ref][iso[i]] for i in range(len(groups[e]))}

    def compatible(e, th_e, f, th_f):
        for lo, hi in ((e, f), (f, e)):
            if (lo, hi) not in le:
                continue
            th_lo = th_e if lo == e else th_f
            th_hi = th_f if lo == e else th_e
            inv_lo = {v: k for k, v in th_lo.items()}
            if any(bonding[(hi, lo)][x] != inv_lo[th_hi[x]] for x in groups[hi]):
                return False
        return True

    def search(i):
        if i == len(E):
            return {e: dict(chosen[e]) for e in E}
        e = E[i]
        candidates = [tuple(range(len(groups[ref])))] if e == ref else iso_lists[e]
        for iso in candidates:
            bud.spend()
            th = global_theta(e, iso)
            if all(compatible(e, th, f, chosen[f]) for f in E[:i]):
                chosen[e] = th
                out = search(i + 1)
                if out is not None:
                    return out
                del chosen[e]
        return None

    family = search(0)
    if family is None:
        return None
    prod = direct_product(reference_semilattice_of_idempotents(S), locals_[ref])
    if iso_equivalent(prod.semigroup, S) is None:
        raise InternalInconsistency("product not isomorphic to S")
    return family


def assert_structure_matches_the_references(S):
    assert decompose(S) == reference_decompose(S)
    assert is_trivial_clifford(S) == reference_is_trivial_clifford(S)


@st.composite
def strong_semilattice_specs(draw, orders=(1, 2, 3)):
    """A spec over an intersection-closed family of subsets of {0, 1, 2},
    ordered by inclusion.  Fiber e is Z_m with m the lcm of the orders
    drawn from `orders` for the points below e (all equal half of the
    time), relabelled by an automorphism x -> a_e x; bonding is reduction
    mod m through the relabellings, except that the maps from outside a
    down-set into it collapse to 0."""
    family = set(draw(st.lists(st.integers(0, 7), min_size=2, max_size=5, unique=True)))
    while len(closed := family | {a & b for a in family for b in family}) > len(family):
        family = closed
    sets = sorted(family)
    index = {a: i for i, a in enumerate(sets)}
    E = validate_semigroup([[index[a & b] for b in sets] for a in sets])
    points = list(E.elements())

    def below(f):
        return [e for e in points if E.mul(e, f) == e]

    if draw(st.booleans()):
        drawn = [draw(st.sampled_from(orders))] * len(points)
    else:
        drawn = draw(st.lists(st.sampled_from(orders), min_size=len(points),
                              max_size=len(points)))
    m = [math.lcm(*(drawn[e] for e in below(f))) for f in points]
    a = [draw(st.sampled_from([u for u in range(1, m[e] + 1) if math.gcd(u, m[e]) == 1]))
         for e in points]
    tops = draw(st.lists(st.sampled_from(points), unique=True, max_size=2))
    collapsed = {e for t in tops for e in below(t)}
    bonding = {}
    for f in points:
        for e in below(f):
            if e == f:
                continue
            if e in collapsed and f not in collapsed:
                bonding[(f, e)] = (0,) * m[f]
            else:
                scale = a[e] * pow(a[f], -1, m[f])
                bonding[(f, e)] = tuple(scale * x % m[e] for x in range(m[f]))
    return validate_spec(E, {e: cat.cyclic_group(m[e]) for e in points}, bonding)


def test_decompose_and_trivial_check_match_the_references_on_the_catalog():
    for S in cat.semigroup_catalog().values():
        if classify(S).is_clifford:
            assert_structure_matches_the_references(S)


@settings(max_examples=40, deadline=None)
@given(strong_semilattice_specs())
def test_decompose_and_trivial_check_match_the_references_on_generated_specs(spec):
    assert_structure_matches_the_references(assemble(spec).semigroup)


# S3 fibres over two maximal elements 0, 1 and their meet 2, with no top;
# S3 is ordered as sorted(permutations(range(3))), so 2 is (01), 5 is (02)
# and 1 is (12).
S3 = cat.symmetric_group_3()
TWO_MAXIMAL = validate_semigroup([[0, 2, 2], [2, 1, 2], [2, 2, 2]])


def conjugation(t):
    return tuple(S3.mul(S3.mul(t, x), t) for x in S3.elements())


def s3_over_two_maximal(phi_0, phi_1):
    spec = validate_spec(TWO_MAXIMAL, {e: S3 for e in range(3)},
                         {(0, 2): phi_0, (1, 2): phi_1})
    return assemble(spec).semigroup


def test_trivial_check_on_s3_bonded_by_distinct_conjugations():
    S = s3_over_two_maximal(conjugation(2), conjugation(1))
    theta = is_trivial_clifford(S)
    assert theta == reference_is_trivial_clifford(S)
    assert theta[0] == {x: x for x in range(6)}  # theta_ref = id
    for e in theta:
        for f in theta:
            if e != f and S.mul(e, f) == e:
                # phi_{f,e}(x) = ex equals theta_e^-1 theta_f(x)
                assert all(theta[e][S.mul(e, x)] == theta[f][x] for x in theta[f])


def test_trivial_check_rejects_s3_with_a_sign_bonding():
    # onto {id, (01)}: all fibres have order 6, but phi_{1,2} is no bijection
    sign = tuple(0 if p in (0, 3, 4) else 2 for p in S3.elements())
    S = s3_over_two_maximal(conjugation(2), sign)
    assert is_trivial_clifford(S) is None
    assert reference_is_trivial_clifford(S) is None


def test_trivial_check_guard_certifies_the_family_on_the_table(monkeypatch):
    # the identity family of E x S3 read against a table bonded by conjugation
    twisted = s3_over_two_maximal(conjugation(2), conjugation(1))
    product = s3_over_two_maximal(tuple(range(6)), tuple(range(6)))
    monkeypatch.setattr(semilattice, "_decompose",
                        lambda S, real=semilattice._decompose: real(product))
    assert is_trivial_clifford(product) is not None
    with pytest.raises(InternalInconsistency):
        is_trivial_clifford(twisted)


# ---------------------------------------------------------------------------
# Light's associativity test on a generating set against the loop over all y,
# and its byte rows against the itemgetter rows that every order used before


def reference_associative(rows):
    """The row test run for all n values of y: row xy must equal row y read
    through row x."""
    n = len(rows)
    if n == 1:
        return True  # [[0]], the only table of order 1
    for y in range(n):
        through = itemgetter(*rows[y])
        products = itemgetter(*[row[y] for row in rows])
        if not all(map(eq, products(rows), map(through, rows))):
            return False
    return True


def reference_light_test_on_tuple_rows(rows):
    """Light's test over core._generators with each row read as a tuple:
    row xy against row y read through row x by an itemgetter, which returns
    a bare item, not a 1-tuple, for a single index."""
    for y in _generators(rows)[0]:
        through = core._reader(rows[y])
        products = core._reader([row[y] for row in rows])
        if not all(map(eq, products(rows), map(through, rows))):
            return False
    return True


def assert_light_test_matches_the_references(rows):
    assert (_associative(rows) == reference_associative(rows)
            == reference_light_test_on_tuple_rows(rows))


def right_closure(rows, gens):
    """The left-normed products of gens: gens and every r*a with r reached."""
    reached, todo = set(gens), list(gens)
    while todo:
        r = todo.pop()
        for a in gens:
            if rows[r][a] not in reached:
                reached.add(rows[r][a])
                todo.append(rows[r][a])
    return reached


def assert_generators_span_the_carrier(rows):
    """The generators span the carrier, and their closure steps look up
    every product r*a with a generator a once, each after r is reached."""
    gens, steps = _generators(rows)
    assert gens == sorted(set(gens))
    assert right_closure(rows, gens) == set(range(len(rows)))
    assert len(steps) == len(gens)
    reached, pairs = [], set()
    for k, (g, step) in enumerate(zip(gens, steps)):
        assert g not in reached
        reached.append(g)
        for p, r, a in zip(*step):
            assert p == rows[r][a] and r in reached and a in gens[:k + 1]
            if p not in reached:
                reached.append(p)
            pairs.add((r, a))
    assert sorted(reached) == list(range(len(rows)))
    assert len(pairs) == sum(len(ps) for ps, _, _ in steps) == len(rows) * len(gens)


@st.composite
def mutated_large_assembled_tables(draw):
    """The table of an assembled spec of order at least 24, with one cell
    changed."""
    table = assemble(draw(strong_semilattice_specs(orders=(4, 6)))).semigroup.table
    n = len(table)
    assume(n >= 24)
    table = [list(row) for row in table]
    i, j, v = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(3))
    table[i][j] = v
    return tuple(map(tuple, table))


@settings(max_examples=200, deadline=None)
@given(tables_and_mutations())
def test_light_test_matches_the_loop_over_all_y_on_catalog_and_transformation_tables(table):
    rows = tuple(map(tuple, table))
    assert_light_test_matches_the_references(rows)
    assert_generators_span_the_carrier(rows)


@settings(max_examples=40, deadline=None)
@given(mutated_large_assembled_tables())
def test_light_test_matches_the_loop_over_all_y_on_mutated_assembled_tables(rows):
    assert_light_test_matches_the_references(rows)
    assert_generators_span_the_carrier(rows)
    assert_validation_matches_the_witness_loop(rows)


def test_generators_span_every_catalog_table():
    for S in cat.semigroup_catalog().values():
        assert_generators_span_the_carrier(S.table)


@settings(max_examples=40, deadline=None)
@given(strong_semilattice_specs())
def test_generators_span_generated_assembled_tables(spec):
    assert_generators_span_the_carrier(assemble(spec).semigroup.table)


def test_generators_of_left_zero_and_null_tables_are_every_element():
    left_zero = tuple((x,) * 8 for x in range(8))
    null = tuple((0,) * 8 for _ in range(8))
    assert _generators(left_zero)[0] == _generators(null)[0] == list(range(8))


@st.composite
def random_tables(draw):
    """A table with uniformly drawn entries, of order 1 to 8: almost never
    associative, and a magma whose right-closures differ from its
    two-sided closures."""
    n = draw(st.integers(min_value=1, max_value=8))
    cell = st.integers(min_value=0, max_value=n - 1)
    return tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(random_tables())
def test_light_test_and_generators_on_random_tables(rows):
    assert_light_test_matches_the_references(rows)
    assert_generators_span_the_carrier(rows)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_light_test_on_both_sides_of_the_byte_row_limit(n):
    # n <= 256 reads byte rows, n = 257 itemgetter rows; element n - 1 is
    # byte 255 at n = 256, the last entry of a translation table
    cyclic = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    shift = tuple(((x + 1) % n,) * n for x in range(n))  # (xy)z = x + 2, x(yz) = x + 1
    last_cell = cyclic[:-1] + (cyclic[-1][:-1] + (0,),)
    assert _associative(cyclic) and reference_light_test_on_tuple_rows(cyclic)
    for rows in (shift, last_cell):
        assert not _associative(rows)
        assert not reference_light_test_on_tuple_rows(rows)


def test_a_product_past_the_byte_row_limit_assembles_from_byte_row_groups():
    # the groups of order 200 take the byte rows, the table of order 400
    # the itemgetter rows
    S = direct_product(cat.chain_semilattice(2), cat.cyclic_group(200)).semigroup
    assert S.n == 400
    assert classify(S).is_clifford
    assert is_trivial_clifford(S) is not None
    assert decompose(S).groups[1].table == cat.cyclic_group(200).table


# ---------------------------------------------------------------------------
# classify and pi_and_subgroups on table rows against the mul-call loops


def reference_inverse_structure(S):
    inv = []
    for x in S.elements():
        cands = [y for y in S.elements()
                 if S.mul(S.mul(x, y), x) == x and S.mul(S.mul(y, x), y) == y]
        if len(cands) != 1:
            return None
        inv.append(cands[0])
    return InverseStructure(tuple(inv), tuple(S.mul(x, inv[x]) for x in S.elements()))


def reference_classify(S):
    E = tuple(x for x in S.elements() if S.mul(x, x) == x)
    inv = reference_inverse_structure(S)
    is_clifford = inv is not None and all(
        S.mul(x, inv.inv[x]) == S.mul(inv.inv[x], x) for x in S.elements())
    assert is_clifford == (inv is not None and all(
        S.mul(e, x) == S.mul(x, e) for e in E for x in S.elements()))
    return Classification(
        is_inverse=inv is not None,
        inverse=inv,
        is_clifford=is_clifford,
        is_group=inv is not None and len(E) == 1,
        is_left_cancellative=all(
            len({S.mul(a, x) for x in S.elements()}) == S.n for a in S.elements()),
        is_right_cancellative=all(
            len({S.mul(x, a) for x in S.elements()}) == S.n for a in S.elements()),
        idempotents=E,
    )


def reference_pi_and_subgroups(S, cls=None):
    cls = cls or reference_classify(S)
    if not cls.is_clifford:
        raise NotClifford("not a Clifford semigroup")
    pi = cls.inverse.pi
    for x in S.elements():
        for y in S.elements():
            if pi[S.mul(x, y)] != S.mul(pi[x], pi[y]):
                raise InternalInconsistency(f"pi not a homomorphism at ({x},{y})")
    return pi, {e: tuple(x for x in S.elements() if pi[x] == e) for e in cls.idempotents}


def error_or_result(check, *args):
    """check(*args), or the class, message and attributes of the
    WorkbenchError it raises."""
    try:
        return check(*args)
    except WorkbenchError as exc:
        return type(exc), str(exc), vars(exc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(CATALOG_TABLES), transformation_tables()))
def test_classify_and_pi_match_the_mul_loops(table):
    S = validate_semigroup(table)
    assert inverse_structure(S) == reference_inverse_structure(S)
    assert idempotents(S) == list(reference_classify(S).idempotents)
    assert classify(S) == reference_classify(S)
    assert (error_or_result(pi_and_subgroups, S)
            == error_or_result(reference_pi_and_subgroups, S))


def test_pi_homomorphism_check_names_the_first_pair():
    # classify made to return a pi that sends the last element to E[0]: the row
    # check must name the same first failing pair as the loop over (x, y)
    S = cat.semigroup_catalog()["assembled-chain3-z4-z4-z2"]
    cls = classify(S)
    pi = list(cls.inverse.pi)
    pi[-1] = pi[0]
    bad = dataclasses.replace(cls, inverse=InverseStructure(cls.inverse.inv, tuple(pi)))
    expected = error_or_result(lambda S: reference_pi_and_subgroups(S, bad), S)
    assert expected[0] is InternalInconsistency and "(0," not in expected[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "classify", lambda S: bad)
        assert error_or_result(pi_and_subgroups, S) == expected


# ---------------------------------------------------------------------------
# structure computed once per FiniteSemigroup instance


def catalog_tables():
    """Every table of both catalogs: the semigroup catalog, and the
    semilattices and groups of the spec catalog."""
    tables = list(cat.semigroup_catalog().values())
    for spec in cat.spec_catalog().values():
        tables += [spec.E, *spec.groups.values()]
    return tables


def cold(S):
    """A new instance of the table of S, with nothing computed on it."""
    return FiniteSemigroup(S.table, S.labels)


def structure_by_the_cache(S):
    return (classify(S), error_or_result(pi_and_subgroups, S), green_j_classes(S),
            error_or_result(decompose, S), error_or_result(is_trivial_clifford, S))


def structure_computed(S):
    """What the cached properties hold, from their uncached bodies."""
    return (core._classify(S), error_or_result(core._pi_and_subgroups, S),
            core._green_j_classes(S),
            error_or_result(lambda S: semilattice._decompose(S)[0], S),
            error_or_result(is_trivial_clifford, S))


def assert_cache_matches_a_fresh_computation(S):
    warm = cold(S)
    first = structure_by_the_cache(warm)
    assert structure_by_the_cache(warm) == first == structure_computed(cold(S))


def test_cached_structure_matches_a_fresh_computation_on_the_catalogs():
    for S in catalog_tables():
        assert_cache_matches_a_fresh_computation(S)


@settings(max_examples=40, deadline=None)
@given(strong_semilattice_specs())
def test_cached_structure_matches_a_fresh_computation_on_generated_specs(spec):
    assert_cache_matches_a_fresh_computation(assemble(spec).semigroup)


def test_a_non_clifford_table_raises_not_clifford_on_every_call():
    for S in (cat.brandt_b2(), cat.left_zero(2), cat.null_semigroup(3)):
        for _ in range(3):
            for structure in (pi_and_subgroups, decompose, is_trivial_clifford):
                with pytest.raises(NotClifford):
                    structure(S)
        assert not classify(S).is_clifford


def test_mutating_a_returned_container_leaves_the_next_result_alone():
    S = cat.semigroup_catalog()["assembled-chain3-z4-z4-z2"]
    expected = structure_by_the_cache(cold(S))
    classes, (_, groups), spec = green_j_classes(S), pi_and_subgroups(S), decompose(S)
    classes.reverse()
    classes.append((0,))
    groups.clear()
    spec.groups[0] = spec.groups[1]
    spec.bonding.clear()
    assert structure_by_the_cache(S) == expected


def test_a_warmed_instance_equals_a_cold_one():
    for S in catalog_tables():
        warm, fresh = cold(S), cold(S)
        structure_by_the_cache(warm)
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)


def test_commutativity_on_rows_matches_the_pairwise_definition():
    for S in catalog_tables():
        assert is_commutative(S) == all(S.mul(x, y) == S.mul(y, x)
                                        for x in S.elements() for y in S.elements())


# one instance of every workbench error, with its witnesses
ERROR_SAMPLES = {
    "WorkbenchError": ("plain message",),
    "IndexOutOfRange": ("entry 5 at (0, 1)",),
    "NotAssociative": ([(0, 1, 2)] * 7,),
    "NotClifford": ("not Clifford",),
    "NotSemilattice": ("not a semilattice",),
    "NotGroup": ("k", "no identity"),
    "NotHomomorphism": ((1, 0), "not a homomorphism", (2, 3)),
    "FunctorLawViolated": ((2, 1, 0), "phi_20 != phi_10 phi_21"),
    "SearchBudgetExceeded": ("budget 10 spent",),
    "TooLarge": ("n = 9",),
    "NotACover": ("misses 3",),
    "EOutOfU": ("e = 1 not in U",),
    "IsometryHypothesisViolated": ((1, 0), (0, 1)),
    "EvaluationOutsideDomain": ("|x| > 1",),
    "SchemaError": ("body.n", "expected an integer"),
    "InternalInconsistency": ("routes disagree",),
}


def test_every_workbench_error_survives_pickle():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.WorkbenchError)}
    assert sorted(ERROR_SAMPLES) == sorted(classes)
    for name, args in ERROR_SAMPLES.items():
        exc = classes[name](*args)
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is type(exc), name
        assert (str(again), again.args, vars(again)) == (str(exc), exc.args, vars(exc)), name
