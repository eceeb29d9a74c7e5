"""Finite topologies on semigroup carriers and the openness equivalences."""

import dataclasses
import functools
import itertools
import pickle
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cliffordlab import catalog as cat
from cliffordlab.core import (
    FiniteSemigroup,
    _associative,
    cached_property,
    classify,
    green_j_classes,
    idempotents,
    inverse_structure,
    is_semilattice,
    pi_and_subgroups,
    validate_semigroup,
)
from cliffordlab.errors import EOutOfU, NotACover, WorkbenchError
from cliffordlab.semilattice import assemble, direct_product, validate_spec
from cliffordlab.topology import (
    FiniteTopology,
    OpennessRecord,
    TopologicalSemigroupModel,
    _SemigroupMasks,
    _unions,
    all_topologies,
    basic_set,
    bowman_basic_set,
    continuity_check,
    generate_topology,
    mp_check,
    order_graph_closed,
    prop34_equivalences,
    validate_topology,
)

from test_core import transformation_closure


def discrete_topology(n):
    return FiniteTopology(n, tuple(1 << x for x in range(n)))


def indiscrete_topology(n):
    return FiniteTopology(n, ((1 << n) - 1,) * n)


def least_open(T, x):
    """U_x read off the bitmask T.up[x]."""
    return frozenset(y for y in range(T.n) if T.up[x] >> y & 1)


def sierpinski_model():
    S = cat.chain_semilattice(2)
    T = validate_topology(2, [frozenset(), frozenset({1}), frozenset({0, 1})])
    return TopologicalSemigroupModel(S, T)


def test_topology_counts_up_to_five_points():
    # OEIS A000798
    for n, expected in ((1, 1), (2, 4), (3, 29), (4, 355), (5, 6942)):
        assert len(set(all_topologies(n))) == expected


def test_a_topology_is_its_least_opens():
    assert [f.name for f in dataclasses.fields(FiniteTopology)] == ["n", "up"]
    T = FiniteTopology(2, (0b11, 0b10))
    assert T == sierpinski_model().T and "opens" not in T.__dict__
    assert T.opens == {frozenset(), frozenset({1}), frozenset({0, 1})}
    assert [O for O, _ in T.witness_opens] == sorted(T.opens, key=sorted)


def test_discrete_and_indiscrete_are_always_continuous():
    for S in (cat.cyclic_group(3), cat.brandt_b2(), cat.left_zero(2)):
        for T in (discrete_topology(S.n), indiscrete_topology(S.n)):
            ok, _ = continuity_check(TopologicalSemigroupModel(S, T))
            assert ok


def test_sierpinski_chain_is_continuous():
    ok, _ = continuity_check(sierpinski_model())
    assert ok


def test_mp_holds_on_discrete_fails_on_indiscrete():
    S = cat.semigroup_catalog()["chain2-x-z2"]
    assert mp_check(TopologicalSemigroupModel(S, discrete_topology(S.n)))
    assert not mp_check(TopologicalSemigroupModel(S, indiscrete_topology(S.n)))


def test_mp_trivial_for_a_single_group():
    S = cat.cyclic_group(2)
    assert mp_check(TopologicalSemigroupModel(S, indiscrete_topology(2)))


def test_mp_equals_open_j_classes():
    S = cat.semigroup_catalog()["chain2-x-z2"]
    classes = [frozenset(c) for c in green_j_classes(S)]
    for T in all_topologies(S.n):
        model = TopologicalSemigroupModel(S, T)
        assert mp_check(model) == all(c in T.opens for c in classes)


def test_equivalences_all_true_on_discrete_product():
    S = cat.semigroup_catalog()["chain2-x-z2"]
    rec = prop34_equivalences(
        TopologicalSemigroupModel(S, discrete_topology(S.n))
    )
    assert rec.all_equal() and rec.mp


def test_equivalences_all_false_on_indiscrete_product():
    S = cat.semigroup_catalog()["chain2-x-z2"]
    rec = prop34_equivalences(
        TopologicalSemigroupModel(S, indiscrete_topology(S.n))
    )
    assert rec.all_equal() and not rec.mp


def test_equivalences_all_false_on_sierpinski_chain():
    rec = prop34_equivalences(sierpinski_model())
    assert rec.all_equal() and not rec.mp


def test_order_graph_closed_iff_hausdorff():
    S = cat.chain_semilattice(2)
    cases = [
        (discrete_topology(2), True),
        (indiscrete_topology(2), False),
    ]
    for T, expected in cases:
        closed, hausdorff = order_graph_closed(TopologicalSemigroupModel(S, T))
        assert closed == hausdorff == expected
    closed, hausdorff = order_graph_closed(sierpinski_model())
    assert closed == hausdorff == False  # noqa: E712


def test_basic_set_at_single_idempotent_is_the_fiber():
    A = assemble(cat.spec_catalog()["chain2-z4-z2-mod"])
    fiber = frozenset(A.point(1, g) for g in range(4))
    assert basic_set(A, {1}, 1, set(range(4))) == fiber


def test_basic_set_of_identity_product_is_a_cross_section():
    A = assemble(cat.spec_catalog()["chain2-z2-z2-identity"])
    got = basic_set(A, {0, 1}, 0, {1})
    assert got == frozenset({A.point(0, 1), A.point(1, 1)})


def test_basic_set_collects_the_kernel():
    # Z4 over Z2 by reduction mod 2: the preimage of the identity over the
    # top is the kernel {0, 2} of the mod-2 map
    A = assemble(cat.spec_catalog()["chain2-z4-z2-mod"])
    got = basic_set(A, {0, 1}, 0, {0})
    assert got == frozenset({A.point(0, 0), A.point(1, 0), A.point(1, 2)})


def test_basic_set_requires_anchor_in_u():
    A = assemble(cat.spec_catalog()["chain2-z4-z2-mod"])
    with pytest.raises(EOutOfU):
        basic_set(A, {1}, 0, {0})


def test_bowman_basic_set_of_everything_is_the_carrier():
    A = assemble(cat.spec_catalog()["chain2-z2-z2-identity"])
    got = bowman_basic_set(A, {0, 1}, {0, 1})
    assert got == frozenset(range(A.semigroup.n))


def test_bowman_basic_set_on_singleton_reduces_to_basic_set():
    A = assemble(cat.spec_catalog()["chain2-z4-z2-mod"])
    assert bowman_basic_set(A, {1}, {1}) == basic_set(A, {1}, 1, {1})


def test_generate_topology_from_singletons_is_discrete():
    T = generate_topology(3, [{0}, {1}, {2}])
    assert T.opens == discrete_topology(3).opens


def test_generate_topology_from_carrier_is_indiscrete():
    T = generate_topology(3, [{0, 1, 2}])
    assert T.opens == indiscrete_topology(3).opens


def test_generate_topology_requires_a_cover():
    with pytest.raises(NotACover):
        generate_topology(3, [{0, 1}])


def test_generate_topology_names_an_element_outside_the_carrier():
    for basis, x in (([{0, 1, 2, 5}], 5), ([{0, 1}, {-1, 2}], -1)):
        with pytest.raises(WorkbenchError) as exc:
            generate_topology(3, basis)
        assert not isinstance(exc.value, NotACover)
        assert str(exc.value) == f"basis element {x} outside carrier"


def test_validate_topology_names_a_pair_whose_union_is_missing():
    # every union of two singletons is missing; the unions of the least
    # opens {x} would be all 2^20 subsets
    family = [set(), set(range(20)), *({x} for x in range(20))]
    with pytest.raises(WorkbenchError) as exc:
        validate_topology(20, family)
    pair = re.fullmatch(r"not closed under union: \[(\d+)\], \[(\d+)\]", str(exc.value))
    assert pair and pair[1] != pair[2]


def test_validate_topology_names_a_pair_whose_intersection_is_missing():
    with pytest.raises(WorkbenchError) as exc:
        validate_topology(3, [set(), {0, 1}, {1, 2}, {0, 1, 2}])
    assert str(exc.value) in ("not closed under intersection: [0, 1], [1, 2]",
                              "not closed under intersection: [1, 2], [0, 1]")


def test_validate_topology_accepts_exactly_the_enumerated_topologies():
    subsets = [frozenset(c) for r in (1, 2) for c in itertools.combinations(range(3), r)]
    topologies = {T.opens for T in all_topologies(3)}
    accepted = set()
    for k in range(len(subsets) + 1):
        for chosen in itertools.combinations(subsets, k):
            family = frozenset({frozenset(), frozenset(range(3)), *chosen})
            try:
                accepted.add(validate_topology(3, family).opens)
            except WorkbenchError as exc:
                assert str(exc).startswith("not closed under")
    assert accepted == topologies


def test_basic_sets_of_identity_product_generate_discrete():
    A = assemble(cat.spec_catalog()["chain2-z2-z2-identity"])
    E = A.spec.E
    sets = []
    for u_mask in range(1, 1 << E.n):
        U = {e for e in E.elements() if u_mask >> e & 1}
        inf_u = min(U)
        for g in A.spec.groups[inf_u].elements():
            sets.append(bowman_basic_set(A, U, {g}))
    sets = [s for s in sets if s]
    T = generate_topology(A.semigroup.n, sets)
    assert T.opens == discrete_topology(A.semigroup.n).opens


def test_prop34_sweep_on_three_element_clifford():
    S = cat.chain_semilattice(3)
    for T in all_topologies(3):
        model = TopologicalSemigroupModel(S, T)
        ok, _ = continuity_check(model)
        if ok:
            assert prop34_equivalences(model).all_equal()


# ---------------------------------------------------------------------------
# The scan-based forms that the Alexandrov bitmask kernels replaced, kept as
# test-only references.  tests/test_oracle.py checks that they name none of
# the kernels.


@functools.cache
def semigroup_facts(S):
    """(J-classes, inverse structure, maximal subgroups or None), computed
    once per semigroup for the references."""
    groups = pi_and_subgroups(S)[1] if classify(S).is_clifford else None
    return green_j_classes(S), inverse_structure(S), groups


def reference_min_open(T, x):
    out = frozenset(range(T.n))
    for O in T.opens:
        if x in O and len(O) < len(out):
            out = O
    return out


def reference_all_topologies(n):
    """The opens of every topology on n points, filtered from all relations."""
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    for mask in range(1 << len(offdiag)):
        rel = [[x == y for y in range(n)] for x in range(n)]
        for k, (x, y) in enumerate(offdiag):
            if mask >> k & 1:
                rel[x][y] = True
        if any(rel[x][y] and rel[y][z] and not rel[x][z]
               for x in range(n) for y in range(n) for z in range(n)):
            continue
        opens = []
        for s in range(1 << n):
            members = [x for x in range(n) if s >> x & 1]
            if all(not rel[x][y] or s >> y & 1 for x in members for y in range(n)):
                opens.append(frozenset(members))
        yield frozenset(opens)


def reference_product_open(T, W):
    W = set(W)
    least = [reference_min_open(T, x) for x in range(T.n)]
    for (x, y) in W:
        for a in least[x]:
            for b in least[y]:
                if (a, b) not in W:
                    return False
    return True


def reference_continuity_check(model):
    S, T = model.S, model.T
    for O in sorted(T.opens, key=sorted):
        pre = {(x, y) for x in S.elements() for y in S.elements() if S.mul(x, y) in O}
        if not reference_product_open(T, pre):
            return False, O
    inv = semigroup_facts(S)[1]
    if inv is not None:
        for O in sorted(T.opens, key=sorted):
            pre_inv = frozenset(x for x in S.elements() if inv.inv[x] in O)
            if pre_inv not in T.opens:
                return False, O
    return True, None


def reference_mp_check(model):
    S, T = model.S, model.T
    jclass = {}
    for c in semigroup_facts(S)[0]:
        for x in c:
            jclass[x] = frozenset(c)
    return all(any(x in U and U <= O & jclass[x] for U in T.opens)
               for O in T.opens for x in O)


def reference_prop34_equivalences(model):
    S, T = model.S, model.T
    j_classes, _, groups = semigroup_facts(S)
    E = frozenset(idempotents(S))
    sub = {e: frozenset(O & frozenset(g) for O in T.opens) for e, g in groups.items()}
    union_opens = set()
    for mask in range(1 << S.n):
        A = frozenset(x for x in S.elements() if mask >> x & 1)
        if all(A & frozenset(g) in sub[e] for e, g in groups.items()):
            union_opens.add(A)
    return OpennessRecord(
        mp=reference_mp_check(model),
        j_classes_open=all(frozenset(c) in T.opens for c in j_classes),
        subgroups_open=all(frozenset(g) in T.opens for g in groups.values()),
        idempotents_discrete=all(any(O & E == {e} for O in T.opens) for e in E),
        disjoint_union_topology=union_opens == set(T.opens),
    )


def reference_is_hausdorff(T):
    return all(any(x in O and y in P and not O & P for O in T.opens for P in T.opens)
               for x in range(T.n) for y in range(x + 1, T.n))


def reference_order_graph_closed(model):
    S, T = model.S, model.T
    complement = {(x, y) for x in S.elements() for y in S.elements()
                  if S.mul(x, y) != x}
    return reference_product_open(T, complement), reference_is_hausdorff(T)


def reference_least_masks(T):
    """U_x as a bitmask for each x, read off the open sets."""
    return [sum(1 << y for y in reference_min_open(T, x)) for x in range(T.n)]


def reference_arrows(T):
    """The pair indices b*n + c with c in U_b and c != b, as the set bits of
    the relation mask less its diagonal."""
    n = T.n
    rel = sum(u << b * n for b, u in enumerate(reference_least_masks(T)))
    rest = rel & ~sum(1 << b * (n + 1) for b in range(n))
    return tuple(p for p in range(n * n) if rest >> p & 1)


def reference_order_graph_mask_loop(model):
    """Closedness of the order graph by the O(n^3) loop over x, a in U_x and
    y off row x of the graph, each U_y tested against row a."""
    S, T = model.S, model.T
    least = reference_least_masks(T)
    rows = [sum(1 << y for y in S.elements() if S.mul(x, y) == x) for x in S.elements()]
    return not any(least[y] & rows[a]
                   for x, u in enumerate(least) for a in S.elements() if u >> a & 1
                   for y in S.elements() if not rows[x] >> y & 1)


@functools.cache
def reference_topologies(n):
    """Every topology on n points, built from the reference enumeration, so
    that each derives its least opens from its open sets."""
    return [validate_topology(n, opens) for opens in reference_all_topologies(n)]


@functools.cache
def enumerated_topologies(n):
    """Every topology on n points as all_topologies yields it, with the
    least opens it hands over."""
    return list(all_topologies(n))


def assert_kernels_match_the_references(S):
    """The kernels agree with the references on every topology on S's
    carrier, both as the reference enumeration builds it and as
    all_topologies yields it."""
    clifford = classify(S).is_clifford
    semilattice = is_semilattice(S)
    for T in (*reference_topologies(S.n), *enumerated_topologies(S.n)):
        model = TopologicalSemigroupModel(S, T)
        assert continuity_check(model) == reference_continuity_check(model)
        assert mp_check(model) == reference_mp_check(model)
        if clifford:
            assert prop34_equivalences(model) == reference_prop34_equivalences(model)
        if semilattice:
            assert order_graph_closed(model) == reference_order_graph_closed(model)
            assert order_graph_closed(model)[0] == reference_order_graph_mask_loop(model)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumeration_matches_the_relation_filter(n):
    found = list(all_topologies(n))
    opens = [T.opens for T in found]
    assert len(set(opens)) == len(opens)
    assert set(opens) == set(reference_all_topologies(n))
    for T in found:
        assert all(least_open(T, x) == reference_min_open(T, x) for x in range(n))
    assert len(set(found)) == len(found)
    constructed = (discrete_topology(n), indiscrete_topology(n))
    assert constructed[0].opens == {frozenset(c) for r in range(n + 1)
                                    for c in itertools.combinations(range(n), r)}
    assert constructed[1].opens == {frozenset(), frozenset(range(n))}
    # one topology, one value: equal and equally hashed from every constructor
    for T in (*found, *constructed):
        for same in (validate_topology(n, T.opens),
                     generate_topology(n, [least_open(T, x) for x in range(n)])):
            assert same == T and hash(same) == hash(T)
            assert same.opens == T.opens


@pytest.mark.parametrize("name", sorted(
    name for name, S in cat.semigroup_catalog().items() if S.n <= 4))
def test_kernels_match_the_references_on_catalog_tables(name):
    assert_kernels_match_the_references(cat.semigroup_catalog()[name])


def test_kernels_match_the_references_on_every_semigroup_of_order_3():
    tables = [[cells[0:3], cells[3:6], cells[6:9]]
              for cells in itertools.product(range(3), repeat=9)]
    semigroups = [validate_semigroup(t) for t in tables if _associative(t)]
    assert len(semigroups) == 113
    for S in semigroups:
        assert_kernels_match_the_references(S)


def test_witnesses_match_the_reference_on_five_points():
    # a chain of groups 1 < Z2 < Z2 (identity bonding, then collapse), and B2
    z2, one = cat.cyclic_group(2), cat.TRIVIAL_GROUP
    spec = validate_spec(cat.chain_semilattice(3), {0: one, 1: z2, 2: z2},
                         {(2, 1): (0, 1), (1, 0): (0, 0), (2, 0): (0, 0)})
    clifford = assemble(spec).semigroup
    assert clifford.n == 5 and classify(clifford).is_clifford
    topologies = enumerated_topologies(5)[::7]
    assert len(topologies) == 992
    # B2 is continuous under 4 of the 6942 topologies, none of them here
    for S, continuous in ((clifford, 12), (cat.brandt_b2(), 0)):
        verdicts = [continuity_check(TopologicalSemigroupModel(S, T)) for T in topologies]
        assert verdicts == [reference_continuity_check(TopologicalSemigroupModel(S, T))
                            for T in topologies]
        assert sum(ok for ok, _ in verdicts) == continuous
        assert len({witness for _, witness in verdicts}) > 20


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_arrows_match_the_relation_less_its_diagonal(n):
    for T in (*reference_topologies(n), *enumerated_topologies(n)):
        assert T.arrows == reference_arrows(T)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_the_enumeration_hands_over_the_open_sets_of_each_topology(n):
    for T in enumerated_topologies(n):
        handed = T.open_masks
        assert type(handed) is tuple and len(set(handed)) == len(handed)
        assert set(handed) == _unions(T.up, 1 << n)
        bare = FiniteTopology(n, T.up)
        assert "open_masks" not in vars(bare)
        assert bare.witness_opens == T.witness_opens


def test_open_sets_are_shared_between_topologies():
    found = list(all_topologies(4))
    opens = [O for T in found for O in T.opens]
    assert len(opens) > 2000
    assert len(set(opens)) == len(set(map(id, opens))) == 2 ** 4
    pairs = [pair for T in found for pair in T.witness_opens]
    assert len(set(map(id, pairs))) == 2 ** 4


def test_cached_values_stay_out_of_equality_hash_and_repr():
    S, T = cat.semigroup_catalog()["chain2-x-z2"], sierpinski_on(4)
    warm = TopologicalSemigroupModel(FiniteSemigroup(S.table), FiniteTopology(4, T.up))
    fresh = TopologicalSemigroupModel(FiniteSemigroup(S.table), FiniteTopology(4, T.up))
    continuity_check(warm)
    prop34_equivalences(warm)
    warm.T.opens
    assert {"continuity", "mp"} <= set(vars(warm))
    assert {"arrows", "open_masks", "opens"} <= set(vars(warm.T))
    assert vars(warm)["mp"] is mp_check(warm) is prop34_equivalences(warm).mp
    for a, b in ((warm, fresh), (warm.T, fresh.T), (warm.S, fresh.S)):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for cls, name in ((FiniteTopology, "relation"), (FiniteTopology, "arrows"),
                      (FiniteTopology, "open_masks"), (FiniteTopology, "witness_opens"),
                      (FiniteTopology, "opens"), (TopologicalSemigroupModel, "continuity"),
                      (TopologicalSemigroupModel, "mp"), (_SemigroupMasks, "graph"),
                      (_SemigroupMasks, "j_masks"), (_SemigroupMasks, "semilattice")):
        assert isinstance(getattr(cls, name), cached_property)


def test_the_model_keeps_frozen_dataclass_behaviour():
    S, T = cat.semigroup_catalog()["chain2-x-z2"], sierpinski_on(4)
    model = TopologicalSemigroupModel(S, T)
    continuity_check(model)
    same = TopologicalSemigroupModel(FiniteSemigroup(S.table, S.labels),
                                     FiniteTopology(4, T.up))
    other = TopologicalSemigroupModel(S, discrete_topology(4))
    assert [f.name for f in dataclasses.fields(model)] == ["S", "T"]
    assert model == same and hash(model) == hash(same) == hash((S, T))
    assert model != other and model != (S, T)
    assert repr(model) == f"TopologicalSemigroupModel(S={S!r}, T={T!r})"
    for change in (lambda: setattr(model, "S", S), lambda: delattr(model, "T"),
                   lambda: setattr(model, "extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    assert dataclasses.replace(model, T=discrete_topology(4)) == other
    again = pickle.loads(pickle.dumps(model))
    assert again == model and again.continuity == model.continuity
    message = "^semigroup and topology carrier sizes differ$"
    with pytest.raises(WorkbenchError, match=message):
        TopologicalSemigroupModel(S, discrete_topology(3))
    with pytest.raises(WorkbenchError, match=message):
        dataclasses.replace(model, T=discrete_topology(5))


@st.composite
def transformation_tables_of_order_4(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    point_map = st.tuples(*[st.integers(min_value=0, max_value=k - 1)] * k)
    table = transformation_closure(draw(st.lists(point_map, min_size=2, max_size=3)))
    assume(len(table) == 4)
    return table


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(transformation_tables_of_order_4())
def test_kernels_match_the_references_on_transformation_semigroups(table):
    assert_kernels_match_the_references(validate_semigroup(table))


def test_generated_topology_has_the_intersections_as_least_opens():
    T = generate_topology(4, [{0, 1}, {1, 2}, {3}])
    assert T == validate_topology(4, T.opens)
    assert [reference_min_open(T, x) for x in range(4)] == [
        {0, 1}, {1}, {1, 2}, {3}]


def test_verdicts_do_not_depend_on_the_order_in_which_models_are_checked():
    # each run starts from a fresh semigroup, so its pair images are filled
    # by the models in the order they are checked
    table = cat.semigroup_catalog()["chain2-x-z2"].table

    def verdicts(order):
        S, found = validate_semigroup(table), list(all_topologies(4))
        out = {}
        for i in order(range(len(found))):
            model = TopologicalSemigroupModel(S, found[i])
            out[i] = continuity_check(model), mp_check(model)
            if out[i][0][0]:
                out[i] += (prop34_equivalences(model),)
        return out

    forward = verdicts(list)
    assert forward == verdicts(reversed)
    assert 0 < sum(v[0][0] for v in forward.values()) < len(forward)


def sierpinski_on(n):
    """The topology on n points whose only arrow is 0 in U_1."""
    return generate_topology(n, [{x} for x in range(n) if x != 1] + [{0, 1}])


def test_pair_images_are_filled_only_as_models_read_them():
    S = validate_semigroup(cat.semigroup_catalog()["chain2-x-z2"].table)
    assert "topology_masks" not in S.__dict__
    assert continuity_check(TopologicalSemigroupModel(S, discrete_topology(4)))[0]
    assert S.topology_masks.images == {}
    assert not continuity_check(TopologicalSemigroupModel(S, sierpinski_on(4)))[0]
    assert sorted(S.topology_masks.images) == [1 * 4 + 0]
    continuity_check(TopologicalSemigroupModel(S, indiscrete_topology(4)))
    assert len(S.topology_masks.images) == 4 * 3

