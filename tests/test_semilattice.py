"""Strong-semilattice specs: validation, assembly, decomposition, round trips."""

import pytest

from cliffordlab import catalog as cat
from cliffordlab.errors import (
    EmptyDirectedSet,
    FunctorLawViolated,
    IndexOutOfRange,
    NotHomomorphism,
)
from cliffordlab.semilattice import (
    assemble,
    decompose,
    direct_product,
    eta_injectivity,
    iso_equivalent,
    validate_spec,
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


def test_eta_injectivity_identity_bonding():
    spec = cat.spec_catalog()["chain2-z2-z2-identity"]
    ok, witness = eta_injectivity(spec, 1, {0})
    assert ok and witness is None


def test_eta_injectivity_collapse_bonding_fails():
    spec = two_chain_spec()
    ok, witness = eta_injectivity(spec, 1, {0})
    assert not ok
    assert sorted(witness) == [0, 1]


def test_eta_injectivity_at_e_itself():
    spec = two_chain_spec()
    ok, _ = eta_injectivity(spec, 1, {1})
    assert ok


def test_eta_injectivity_needs_nonempty_d():
    with pytest.raises(EmptyDirectedSet):
        eta_injectivity(two_chain_spec(), 1, set())


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
