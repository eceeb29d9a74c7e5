"""Way-below relation, domain bases, and the flat semilattice model."""

from fractions import Fraction

import pytest

from cliffordlab import catalog as cat
from cliffordlab.errors import TooLarge
from cliffordlab.order import (
    flat_model,
    is_basis,
    lawson_basic,
    minimum,
    poset_of_semilattice,
    validate_poset,
    way_below_by_definition,
)


def chain_poset(n):
    return validate_poset([[i <= j for j in range(n)] for i in range(n)])


def test_two_chain_bottom_way_below_top():
    P = chain_poset(2)
    assert way_below_by_definition(P, 0, 1)


def test_atoms_way_below_themselves_in_flat_poset():
    P = poset_of_semilattice(cat.flat_semilattice(2))
    for a in (1, 2):
        assert way_below_by_definition(P, a, a)


def test_way_below_implies_leq():
    P = poset_of_semilattice(cat.diamond_semilattice())
    for x in P.elements():
        for y in P.elements():
            if way_below_by_definition(P, x, y):
                assert P.le(x, y)


def test_three_chain_way_below_is_lower_triangular():
    P = chain_poset(3)
    for x in P.elements():
        for y in P.elements():
            assert way_below_by_definition(P, x, y) == (x <= y)


def test_definition_oracle_refuses_large_posets():
    with pytest.raises(TooLarge):
        way_below_by_definition(chain_poset(13), 0, 1)


def test_whole_poset_is_a_basis():
    P = poset_of_semilattice(cat.diamond_semilattice())
    ok, witness = is_basis(P, list(P.elements()))
    assert ok and witness is None


def test_bottom_alone_is_not_a_basis_of_flat_poset():
    P = poset_of_semilattice(cat.flat_semilattice(3))
    ok, witness = is_basis(P, [0])
    assert not ok
    assert witness in (1, 2, 3)


def test_lawson_basic_on_flat_poset():
    P = poset_of_semilattice(cat.flat_semilattice(3))
    # way-up of the bottom is everything; removing the upper set of one atom
    # removes exactly that atom
    assert lawson_basic(P, 0, {1}) == frozenset({0, 2, 3})
    # the way-up set of an atom is the atom alone
    assert lawson_basic(P, 2, set()) == frozenset({2})


def test_lawson_basic_at_chain_bottom_with_itself_removed():
    P = chain_poset(3)
    assert lawson_basic(P, 0, {0}) == frozenset()


def test_minimum_of_semilattices():
    assert minimum(cat.chain_semilattice(3)) == 0
    assert minimum(cat.flat_semilattice(4)) == 0
    assert minimum(cat.diamond_semilattice()) == 0


def test_flat_model_points_and_order():
    M = flat_model(3)
    assert M.points == (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3))
    assert M.minimum() == 0
    # the way-up set of 1/2 is {1/2}; the bottom is way below everything
    for x in M.elements():
        assert M.way_below(2, x) == (x == 2)
        assert M.way_below(0, x)
    assert M.rho(2, 3) == Fraction(1, 6)


def test_random_posets_oracle_equivalence():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        rel = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rel[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        P = validate_poset(rel)
        # the library reads way-below as <=; the oracle must agree
        for x in P.elements():
            for y in P.elements():
                assert P.le(x, y) == way_below_by_definition(P, x, y)
