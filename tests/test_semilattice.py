"""Strong-semilattice specs: validation, assembly, decomposition, round trips."""

from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffordlab import catalog as cat, core, documents, semilattice
from cliffordlab.core import (
    FiniteSemigroup,
    classify,
    green_j_classes,
    is_semilattice,
    is_trivial_clifford,
    validate_semigroup,
)
from cliffordlab.documents import (
    WorkbenchDocument,
    build_spec,
    parse_document,
    serialize_document,
    spec_to_body,
)
from cliffordlab.errors import (
    FunctorLawViolated,
    IndexOutOfRange,
    InternalInconsistency,
    NotGroup,
    NotHomomorphism,
    NotSemilattice,
)
from cliffordlab.semilattice import (
    Assembled,
    assemble,
    decompose,
    direct_product,
    iso_equivalent,
    validate_spec,
)
from test_core import (
    CATALOG_TABLES,
    error_or_result,
    strong_semilattice_specs,
    transformation_tables,
)


def two_chain_spec():
    return cat.spec_catalog()["chain2-z2-trivial"]


def test_unique_bonding_spec_is_valid():
    spec = two_chain_spec()
    assert spec.groups[1].n == 2 and spec.groups[0].n == 1


def test_wrong_codomain_bonding_rejected():
    z2 = cat.cyclic_group(2)
    with pytest.raises(NotHomomorphism):
        validate_spec(
            cat.chain_semilattice(2),
            {0: cat.TRIVIAL_GROUP, 1: z2},
            {(1, 0): (0, 1)},  # image {0, 1} is not inside the trivial group
        )


def test_bonding_key_outside_e_rejected():
    z2 = cat.cyclic_group(2)
    with pytest.raises(IndexOutOfRange) as exc:
        validate_spec(
            cat.chain_semilattice(2),
            {0: cat.TRIVIAL_GROUP, 1: z2},
            {(1, 0): (0, 0), (5, 0): (0, 0)},
        )
    assert "5->0" in str(exc.value)


@pytest.mark.parametrize("keys", [(0,), (0, 2), (1, 2), (0, 1, 2), (-1, 0, 1)])
def test_groups_keyed_other_than_the_elements_of_e_are_rejected(keys):
    with pytest.raises(IndexOutOfRange, match="groups keyed by"):
        validate_spec(cat.chain_semilattice(2), dict.fromkeys(keys, cat.TRIVIAL_GROUP),
                      {(1, 0): (0,)})


@pytest.mark.parametrize("key", [(-1, 0), (1, -1), (2, 0), (1, 2), (2, 2)])
def test_bonding_keys_one_past_either_end_of_e_are_rejected(key):
    with pytest.raises(IndexOutOfRange, match="outside 0..1"):
        validate_spec(cat.chain_semilattice(2), {0: cat.TRIVIAL_GROUP, 1: cat.TRIVIAL_GROUP},
                      {(1, 0): (0,), key: (0,)})


def test_bonding_keys_at_element_0_are_accepted():
    groups = {0: cat.TRIVIAL_GROUP, 1: cat.TRIVIAL_GROUP}
    spec = validate_spec(cat.chain_semilattice(2), groups, {(1, 0): (0,), (0, 0): (0,)})
    assert spec == validate_spec(cat.chain_semilattice(2), groups, {(1, 0): (0,)})


def test_not_homomorphism_keeps_reason_and_witness_apart():
    z2 = cat.cyclic_group(2)
    with pytest.raises(NotHomomorphism) as exc:
        validate_spec(cat.chain_semilattice(2), {0: z2, 1: z2}, {})
    assert exc.value.pair == (1, 0) and exc.value.witness is None
    assert "missing" in str(exc.value) and "witness" not in str(exc.value)
    with pytest.raises(NotHomomorphism) as exc:
        validate_spec(cat.chain_semilattice(2), {0: z2, 1: z2}, {(1, 0): (1, 0)})
    assert exc.value.witness is not None
    assert f"witness {exc.value.witness}" in str(exc.value)


def test_bonding_entry_shorter_than_its_domain_is_rejected():
    z2 = cat.cyclic_group(2)
    with pytest.raises(NotHomomorphism) as exc:
        validate_spec(cat.chain_semilattice(2), {0: z2, 1: z2}, {(1, 0): [0]})
    assert exc.value.pair == (1, 0) and "domain size 1" in str(exc.value)


def test_bonding_entry_with_a_non_integer_image_is_rejected():
    z2 = cat.cyclic_group(2)
    with pytest.raises(NotHomomorphism) as exc:
        validate_spec(cat.chain_semilattice(2), {0: z2, 1: z2}, {(1, 0): (0, "a")})
    assert exc.value.pair == (1, 0) and "'a'" in str(exc.value)


def test_bonding_entry_that_is_not_a_sequence_is_rejected():
    z2 = cat.cyclic_group(2)
    for phi in (5, {0: 1, 1: 0}):  # a dict would otherwise be read as its keys
        with pytest.raises(NotHomomorphism) as exc:
            validate_spec(cat.chain_semilattice(2), {0: z2, 1: z2}, {(1, 0): phi})
        assert exc.value.pair == (1, 0) and "not a lookup table" in str(exc.value)


def test_functor_law_violation_reports_chain():
    # on the 3-chain, make phi_{2,0} disagree with phi_{1,0} o phi_{2,1}
    z2 = cat.cyclic_group(2)
    with pytest.raises(FunctorLawViolated) as exc:
        validate_spec(
            cat.chain_semilattice(3),
            {0: z2, 1: z2, 2: z2},
            {(1, 0): (0, 0), (2, 1): (0, 1), (2, 0): (0, 1)},
        )
    assert exc.value.chain == (0, 1, 2)  # witnessing chain e <= f <= g


def test_a_diagonal_bonding_map_that_is_no_identity_breaks_the_functor_law():
    # the trivial map of Z2 is an idempotent homomorphism, so the chain
    # e <= e <= e does not catch it: only the phi_{e,e} = id check does
    with pytest.raises(FunctorLawViolated) as exc:
        validate_spec([[0]], {0: cat.cyclic_group(2)}, {(0, 0): (0, 0)})
    assert exc.value.chain == (0, 0)


def test_assemble_two_chain_by_hand():
    # carrier layout: 0 -> (0,z), 1 -> (1,a), 2 -> (1,b)
    S = assemble(two_chain_spec()).semigroup
    assert S.n == 3
    assert S.mul(2, 2) == 1          # b*b = a
    assert S.mul(1, 1) == 1          # a is idempotent
    for x in S.elements():           # z is a zero element
        assert S.mul(x, 0) == 0 and S.mul(0, x) == 0


def test_assemble_single_block_returns_the_group():
    spec = cat.spec_catalog()["point-s3"]
    S = assemble(spec).semigroup
    assert S.table == cat.symmetric_group_3().table


def test_direct_product_matches_identity_bonding_spec():
    A = direct_product(cat.chain_semilattice(2), cat.cyclic_group(2))
    B = assemble(cat.spec_catalog()["chain2-z2-z2-identity"])
    assert iso_equivalent(A.semigroup, B.semigroup) is not None


def test_decompose_group_has_single_idempotent():
    spec = decompose(cat.cyclic_group(6))
    assert spec.E.n == 1


def test_decompose_semilattice_gives_trivial_fibers():
    spec = decompose(cat.diamond_semilattice())
    assert all(g.n == 1 for g in spec.groups.values())


def test_round_trip_over_catalog():
    for name, spec in cat.spec_catalog().items():
        A = assemble(spec)
        B = assemble(decompose(A.semigroup))
        assert iso_equivalent(A.semigroup, B.semigroup) is not None, name


def test_iso_finds_identity_on_self():
    S = cat.symmetric_group_3()
    assert iso_equivalent(S, S) is not None


def test_z4_not_isomorphic_to_klein_four():
    assert iso_equivalent(cat.cyclic_group(4), cat.klein_four()) is None


def test_iso_found_under_permuted_carrier():
    S = cat.semigroup_catalog()["assembled-chain2-z4-z2-mod"]
    perm = [3, 0, 5, 1, 4, 2]
    inv = [perm.index(i) for i in range(S.n)]
    table = [
        [perm[S.mul(inv[i], inv[j])] for j in range(S.n)] for i in range(S.n)
    ]
    from cliffordlab.core import validate_semigroup

    T = validate_semigroup(table)
    mapping = iso_equivalent(S, T)
    assert mapping is not None
    for x in S.elements():
        for y in S.elements():
            assert mapping[S.mul(x, y)] == T.mul(mapping[x], mapping[y])


# ---------------------------------------------------------------------------
# block-pair assembly and up-set validation against the cell-by-cell and
# le-call loops they replaced


def reference_check_group(table, key):
    ident = None
    for e in table.elements():
        if all(table.mul(e, x) == x and table.mul(x, e) == x for x in table.elements()):
            ident = e
            break
    if ident is None:
        raise NotGroup(key, "no identity element")
    for x in table.elements():
        if not any(table.mul(x, y) == ident and table.mul(y, x) == ident
                   for y in table.elements()):
            raise NotGroup(key, f"element {x} has no inverse")
    return ident


def reference_validate_spec(E, groups, bonding):
    """The strong-semilattice laws checked through le calls over all pairs
    and all triples of E, and FiniteSemigroup.mul on the groups."""
    if not isinstance(E, FiniteSemigroup):
        E = validate_semigroup(E)
    if not is_semilattice(E):
        raise NotSemilattice("E is not a commutative idempotent semigroup")
    groups = {int(e): g if isinstance(g, FiniteSemigroup) else validate_semigroup(g)
              for e, g in groups.items()}
    if sorted(groups) != list(E.elements()):
        raise IndexOutOfRange(
            f"groups keyed by {sorted(groups)}, expected 0..{E.n - 1}"
        )
    for e, g in groups.items():
        reference_check_group(g, e)
    for (f, e) in bonding:
        if not (0 <= f < E.n and 0 <= e < E.n):
            raise IndexOutOfRange(f"bonding key {f}->{e} outside 0..{E.n - 1}")

    def le(e, f):
        return E.mul(e, f) == e

    full = {}
    for f in E.elements():
        for e in E.elements():
            if not le(e, f):
                continue
            if e == f:
                phi = bonding.get((f, e), tuple(range(groups[e].n)))
            else:
                if (f, e) not in bonding:
                    raise NotHomomorphism((f, e), "missing bonding map")
                phi = bonding[(f, e)]
            phi = tuple(phi[x] for x in range(groups[f].n)) if not isinstance(
                phi, tuple) else phi
            if len(phi) != groups[f].n:
                raise NotHomomorphism((f, e), f"domain size {len(phi)}")
            for x, y in enumerate(phi):
                if not (0 <= y < groups[e].n):
                    raise NotHomomorphism((f, e), f"image {y} outside G_{e}")
            for x in groups[f].elements():
                for y in groups[f].elements():
                    if phi[groups[f].mul(x, y)] != groups[e].mul(phi[x], phi[y]):
                        raise NotHomomorphism((f, e), "product not preserved",
                                              witness=(x, y))
            full[(f, e)] = phi
    for (f, e) in bonding:
        if not le(e, f):
            raise NotHomomorphism((f, e), "bonding given for incomparable pair")
    for e in E.elements():
        if full[(e, e)] != tuple(range(groups[e].n)):
            raise FunctorLawViolated((e, e), "phi_{e,e} is not the identity")
    for e in E.elements():
        for f in E.elements():
            for g in E.elements():
                if le(e, f) and le(f, g):
                    for x in groups[g].elements():
                        if full[(g, e)][x] != full[(f, e)][full[(g, f)][x]]:
                            raise FunctorLawViolated(
                                (e, f, g), f"composition fails at x={x}"
                            )
    return semilattice.StrongSemilatticeSpec(E=E, groups=groups, bonding=full)


def reference_assemble(spec):
    """The Cayley table filled cell by cell through spec.phi."""
    E = spec.E
    offsets = []
    total = 0
    for e in E.elements():
        offsets.append(total)
        total += spec.groups[e].n
    offsets = tuple(offsets)

    def point(e, g):
        return offsets[e] + g

    table = [[0] * total for _ in range(total)]
    for e in E.elements():
        for f in E.elements():
            ef = E.mul(e, f)
            Gef = spec.groups[ef]
            for s in spec.groups[e].elements():
                ps = spec.phi(e, ef, s)
                for t in spec.groups[f].elements():
                    pt = spec.phi(f, ef, t)
                    table[point(e, s)][point(f, t)] = point(ef, Gef.mul(ps, pt))
    labels = []
    for e in E.elements():
        g = spec.groups[e]
        for x in g.elements():
            labels.append(f"{E.label(e)}:{g.label(x)}")
    S = validate_semigroup(table, labels)
    if not classify(S).is_clifford:
        raise InternalInconsistency("assembled semigroup is not Clifford")
    return Assembled(semigroup=S, spec=spec, offsets=offsets)


def reference_assemble_rows(spec):
    """The Cayley table as assemble built it for every order before byte
    rows: each row a list extended by one itemgetter read per block pair."""
    E, groups, bonding = spec.E, spec.groups, spec.bonding
    sizes = [groups[e].n for e in E.elements()]
    offsets = tuple(accumulate(sizes[:-1], initial=0))
    shifted = [[tuple(offsets[e] + v for v in row) for row in groups[e].table]
               for e in E.elements()]
    table = []
    for e, row_e in enumerate(E.table):
        blocks = [(shifted[ef], bonding[(e, ef)], core._reader(bonding[(f, ef)]))
                  for f, ef in enumerate(row_e)]
        for s in range(sizes[e]):
            row = []
            for block, phi_e, through in blocks:
                row.extend(through(block[phi_e[s]]))
            table.append(row)
    return tuple(map(tuple, table))


CATALOG_SPECS = list(cat.spec_catalog().values())


def test_assembly_matches_the_cell_by_cell_fill_on_the_catalog():
    for spec in CATALOG_SPECS:
        assert assemble(spec) == reference_assemble(spec)


def test_assembly_matches_the_reference_rows_on_the_catalog():
    for spec in CATALOG_SPECS:
        assert assemble(spec).semigroup.table == reference_assemble_rows(spec)


@settings(max_examples=60, deadline=None)
@given(strong_semilattice_specs())
def test_assembly_matches_the_cell_by_cell_fill_on_generated_towers(spec):
    assert assemble(spec) == reference_assemble(spec)
    assert assemble(spec).semigroup.table == reference_assemble_rows(spec)


@pytest.mark.parametrize("chain, order", [(2, 128), (1, 257)])
def test_assembly_matches_the_reference_rows_on_both_sides_of_the_byte_row_limit(
        chain, order):
    # n = 256 writes byte rows, with point 255 the last byte of a
    # translation table; n = 257 writes itemgetter rows
    A = direct_product(cat.chain_semilattice(chain), cat.cyclic_group(order))
    assert A.semigroup.n == chain * order
    assert A.semigroup.table == reference_assemble_rows(A.spec)
    assert all(type(row) is tuple for row in A.semigroup.table)


def colon_spec():
    """E labelled a and a:b, with trivial fibres labelled b:c and c: joined
    with a bare :, both points would read a:b:c."""
    E = validate_semigroup([[0, 0], [0, 1]], labels=["a", "a:b"])
    groups = {0: validate_semigroup([[0]], labels=["b:c"]),
              1: validate_semigroup([[0]], labels=["c"])}
    return validate_spec(E, groups, {(1, 0): (0,)})


def test_assembled_labels_escape_colons_and_backslashes():
    assert assemble(colon_spec()).semigroup.labels == ("a:b\\:c", "a\\:b:c")
    E = validate_semigroup([[0, 0], [0, 1]], labels=["a\\", "a"])
    groups = {0: validate_semigroup([[0]], labels=["\\b"]),
              1: validate_semigroup([[0]], labels=["\\\\b"])}
    S = assemble(validate_spec(E, groups, {(1, 0): (0,)})).semigroup
    assert S.labels == ("a\\\\:\\\\b", "a:\\\\\\\\b")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="a:\\", max_size=4), min_size=4, max_size=4))
def test_joined_label_parts_tell_every_pair_apart(parts):
    e, x, f, y = parts
    joined = [f"{semilattice._label_part(a)}:{semilattice._label_part(b)}"
              for a, b in ((e, x), (f, y))]
    assert (joined[0] == joined[1]) == ((e, x) == (f, y))


def relabelled_table(table, perm):
    """The table with element a renamed perm[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


@st.composite
def repeated_fibre_specs(draw):
    """E x Z2 over a generated semilattice E, under identity bonding or with
    every map collapsing onto the identity: one table and one map repeat
    at every pair."""
    E = draw(strong_semilattice_specs()).E
    z2 = cat.cyclic_group(2)
    phi = draw(st.sampled_from([(0, 1), (0, 0)]))
    bonding = {(f, e): phi for f in E.elements() for e in E.elements()
               if e != f and E.mul(e, f) == e}
    return validate_spec(E, {e: z2 for e in E.elements()}, bonding)


@st.composite
def spec_inputs_with_one_change(draw):
    """The raw E table, group tables and bonding tables of a catalog,
    generated or repeated-fibre spec, its points renamed half of the time
    (so that index order need not extend the order of E), with one change:
    a bonding entry, a group cell or an E cell set to a new value (which
    may lie one past the end of its range), one bonding map collapsed onto
    the identity (a homomorphism that may break the composition law on
    several chains), one group renamed while the bonding maps keep the old
    names, or an explicit phi_{e,e} that is not the identity (the collapse,
    a homomorphism, or any map) on a group of order at least 2."""
    spec = draw(st.one_of(st.sampled_from(CATALOG_SPECS), strong_semilattice_specs(),
                          repeated_fibre_specs()))
    points = list(spec.E.elements())
    perm = draw(st.one_of(st.just(points), st.permutations(points)))
    E = relabelled_table(spec.E.table, perm)
    groups = {perm[e]: [list(row) for row in G.table] for e, G in spec.groups.items()}
    bonding = {(perm[f], perm[e]): list(phi)
               for (f, e), phi in spec.bonding.items() if f != e}
    nontrivial = sorted(e for e, table in groups.items() if len(table) > 1)
    where = draw(st.sampled_from(["bonding", "collapse", "rename"] * bool(bonding)
                                 + ["diagonal"] * bool(nontrivial) + ["group", "E"]))
    if where == "diagonal":
        e = draw(st.sampled_from(nontrivial))
        n = len(groups[e])
        ident = next(i for i, row in enumerate(groups[e]) if row == sorted(row))
        bonding[(e, e)] = draw(st.one_of(
            st.just([ident] * n),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n).filter(
                lambda phi: phi != list(range(n)))))
        return E, groups, {key: tuple(phi) for key, phi in bonding.items()}
    if where in ("collapse", "rename"):
        f, e = draw(st.sampled_from(sorted(bonding)))
        if where == "collapse":
            ident = next(i for i, row in enumerate(groups[e]) if row == sorted(row))
            bonding[(f, e)] = [ident] * len(bonding[(f, e)])
        else:
            groups[e] = relabelled_table(
                groups[e], draw(st.permutations(range(len(groups[e])))))
        return E, groups, {key: tuple(phi) for key, phi in bonding.items()}
    if where == "bonding":
        f, e = draw(st.sampled_from(sorted(bonding)))
        cells, n = bonding[(f, e)], len(groups[e])
    else:
        table = E if where == "E" else groups[draw(st.sampled_from(sorted(groups)))]
        cells, n = table[draw(st.integers(0, len(table) - 1))], len(table)
    j = draw(st.integers(0, len(cells) - 1))
    v = draw(st.integers(0, n))
    assume(v != cells[j])
    cells[j] = v
    return E, groups, {key: tuple(phi) for key, phi in bonding.items()}


@settings(max_examples=300, deadline=None)
@given(spec_inputs_with_one_change())
def test_validation_matches_the_le_call_loops_on_specs_with_one_change(inputs):
    assert (error_or_result(validate_spec, *inputs)
            == error_or_result(reference_validate_spec, *inputs))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(CATALOG_TABLES), transformation_tables()))
def test_group_check_matches_the_mul_loops(table):
    S = validate_semigroup(table)
    assert (error_or_result(semilattice._check_group, S, "key")
            == error_or_result(reference_check_group, S, "key"))


def test_validation_matches_the_le_call_loops_on_the_catalog():
    for spec in CATALOG_SPECS:
        inputs = spec.E, spec.groups, spec.bonding
        assert validate_spec(*inputs) == reference_validate_spec(*inputs) == spec


# validate_spec checks each distinct (G_f, G_e, phi) triple and chain of maps
# once per call; these inputs repeat a table or a map where the verdict
# still changes

Z2 = [[0, 1], [1, 0]]
Z2_FROM_1 = [[1, 0], [0, 1]]  # Z2 with its identity at 1


def test_a_map_shared_by_two_pairs_is_checked_against_each_codomain():
    # (0,1) is the identity of G_2 and maps G_2 into G_0 (same table), but
    # not into G_1, whose identity is 1
    inputs = (cat.chain_semilattice(3).table, {0: Z2, 1: Z2_FROM_1, 2: Z2},
              {(1, 0): (1, 0), (2, 0): (0, 1), (2, 1): (0, 1)})
    result = error_or_result(validate_spec, *inputs)
    assert result[0] is NotHomomorphism and result[2]["pair"] == (2, 1)
    assert result == error_or_result(reference_validate_spec, *inputs)


def test_groups_with_one_table_keep_their_labels():
    z2 = cat.cyclic_group(2)
    groups = {0: validate_semigroup(Z2, ["a", "b"]), 1: validate_semigroup(Z2, ["c", "d"]),
              2: z2}
    inputs = cat.chain_semilattice(3), groups, {(1, 0): (0, 1), (2, 0): (0, 1),
                                                (2, 1): (0, 1)}
    spec = validate_spec(*inputs)
    assert spec == reference_validate_spec(*inputs)
    assert [spec.groups[e].labels for e in range(3)] == [("a", "b"), ("c", "d"),
                                                         z2.labels]


def test_a_list_valued_image_is_no_homomorphism():
    z2 = cat.cyclic_group(2)
    for phi in ([0], 1), (0, [1]):
        with pytest.raises(NotHomomorphism) as exc:
            validate_spec(cat.chain_semilattice(2), {0: z2, 1: z2}, {(1, 0): phi})
        bad = next(y for y in phi if isinstance(y, list))
        assert str(exc.value) == f"bad bonding map (1, 0): image {bad!r} outside G_0"


def test_a_chain_of_maps_that_passed_before_breaks_the_law_with_a_new_composite():
    # the chains (0, 0, 1) and (0, 1, 1) compose id with id to id; the chain
    # (0, 1, 2) composes the same two maps, but phi_{2,0} collapses
    inputs = (cat.chain_semilattice(3), {e: cat.cyclic_group(2) for e in range(3)},
              {(1, 0): (0, 1), (2, 1): (0, 1), (2, 0): (0, 0)})
    result = error_or_result(validate_spec, *inputs)
    assert result[0] is FunctorLawViolated and result[2]["chain"] == (0, 1, 2)
    assert result == error_or_result(reference_validate_spec, *inputs)


@settings(max_examples=40, deadline=None)
@given(repeated_fibre_specs())
def test_validation_matches_the_le_call_loops_on_repeated_fibres(spec):
    inputs = spec.E, spec.groups, spec.bonding
    assert validate_spec(*inputs) == reference_validate_spec(*inputs) == spec


# ---------------------------------------------------------------------------
# the call graph of one structure-style op, as a traced benchmark run counts it


@settings(max_examples=20, deadline=None)
@given(strong_semilattice_specs())
def test_one_structure_op_calls_classify_and_iso_equivalent_a_fixed_number_of_times(spec):
    """spec text -> assemble -> classify -> decompose -> text -> assemble ->
    iso_equivalent, green_j_classes, is_trivial_clifford.  Structure is
    computed once per table, so the op classifies twice (the assembly
    post-checks of S and of S2), decomposes S once and reads its fibers
    once: classify, and the trivial check, which reads the fibers of S and
    no spec, read what the post-check and decompose computed."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def text(spec):
        return serialize_document(WorkbenchDocument("spec", "op", "", spec_to_body(spec)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_classify", counting("classify", core._classify))
        mp.setattr(core, "_pi_and_subgroups",
                   counting("fibers", core._pi_and_subgroups))
        mp.setattr(semilattice, "decompose",
                   counting("decompose", semilattice.decompose))
        mp.setattr(semilattice, "iso_equivalent",
                   counting("iso_equivalent", semilattice.iso_equivalent))
        S = semilattice.assemble(build_spec(parse_document(text(spec)))).semigroup
        core.classify(S)
        S2 = semilattice.assemble(build_spec(parse_document(
            text(semilattice.decompose(S))))).semigroup
        assert semilattice.iso_equivalent(S, S2) is not None
        green_j_classes(S)
        trivial = is_trivial_clifford(S)
    bijective = all(sorted(phi) == list(range(spec.groups[e].n))
                    for (f, e), phi in spec.bonding.items())
    assert (trivial is not None) == bijective
    assert calls == {"classify": 2, "decompose": 1, "fibers": 1, "iso_equivalent": 1}


def spec_text(spec):
    return serialize_document(WorkbenchDocument("spec", "op", "", spec_to_body(spec)))


@settings(max_examples=20, deadline=None)
@given(strong_semilattice_specs())
def test_one_structure_op_computes_the_closure_once_per_distinct_validated_table(spec):
    """The op of the test above computes the right closure of a table only
    while validating it: a document validates each distinct table of a spec
    once, each group keeps the generators of its table under its own labels,
    and isomorphisms, the pi check and the trivial check read the generators
    that validation handed over."""
    validated, closed = [], []

    def validating(table, labels=None):
        validated.append(tuple(map(tuple, table)))
        return validate(table, labels)

    def closing(rows):
        closed.append(rows)
        return generators(rows)

    validate, generators = core.validate_semigroup, core._generators
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_generators", closing)
        mp.setattr(documents, "validate_semigroup", validating)
        mp.setattr(semilattice, "validate_semigroup", validating)
        built = build_spec(parse_document(spec_text(spec)))
        S = semilattice.assemble(built).semigroup
        classify(S)
        built2 = build_spec(parse_document(spec_text(semilattice.decompose(S))))
        S2 = semilattice.assemble(built2).semigroup
        assert semilattice.iso_equivalent(S, S2) is not None
        green_j_classes(S)
        is_trivial_clifford(S)
    for G in (built.E, *built.groups.values(), built2.E, *built2.groups.values()):
        assert "generators" in vars(G)
    distinct = [1 + len({G.table for G in b.groups.values()}) + 1 for b in (built, built2)]
    assert len(validated) == sum(distinct)
    assert closed == validated
