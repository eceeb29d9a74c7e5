"""Series and isometric metrics: weights, reference values, axioms, limits."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cliffordlab import catalog as cat
from cliffordlab.errors import IsometryHypothesisViolated, WorkbenchError
from cliffordlab.metrics import (
    Point,
    YeagerMetricData,
    a_weight,
    bowman_data_from_spec,
    bowman_distance,
    default_basis_order,
    default_enumeration,
    discrete_metric,
    disjoint_union_distance,
    extended_bonding,
    flat_bowman_data,
    metric_axiom_suite,
    p_term,
    separation_witness,
    yeager_distance,
)
from cliffordlab.order import flat_model

RHO01 = [[0, 1], [1, 0]]


def two_chain_data(**kwargs):
    return bowman_data_from_spec(
        cat.spec_catalog()["chain2-z2-trivial"], RHO01, **kwargs
    )


def test_weight_at_minimum_is_one():
    data = two_chain_data()
    for e in (0, 1):
        assert a_weight(data, 0, e) == 1


def test_weight_vanishes_when_not_below():
    data = flat_bowman_data(flat_model(3), cat.cyclic_group(2))
    assert a_weight(data, 2, 3) == 0  # 1/2 is not below 1/3


def test_flat_weight_is_the_gap_to_the_complement():
    data = flat_bowman_data(flat_model(3), cat.cyclic_group(2))
    # a at 1/2 evaluated at 1/2: min(1/2 - 1/3, 1 - 1/2)
    assert a_weight(data, 2, 2) == Fraction(1, 6)


def test_extended_bonding_cases():
    data = two_chain_data()
    assert extended_bonding(data, 1, 1, 1) == 1          # b = e: identity
    assert extended_bonding(data, 0, 1, 0) == 0          # b not below e: c_b
    assert extended_bonding(data, 1, 0, 1) == 0          # collapse bonding


def test_p_term_vanishes_on_equal_points():
    data = two_chain_data()
    p = Point(1, 0)
    for b in data.basis:
        assert p_term(data, b, p, p) == 0


def test_p_term_reference_value_and_symmetry():
    data = two_chain_data()
    p, q = Point(1, 0), Point(1, 1)
    assert p_term(data, 1, p, q) == Fraction(3, 4)
    assert p_term(data, 1, q, p) == Fraction(3, 4)


def test_reference_distances_on_two_chain():
    data = two_chain_data()
    assert bowman_distance(data, Point(1, 0), Point(1, 0)).value == 0
    assert bowman_distance(data, Point(1, 0), Point(1, 1)).value == Fraction(3, 16)
    assert bowman_distance(data, Point(1, 0), Point(0, 0)).value == Fraction(21, 16)


def test_truncation_reports_a_tail_bound():
    data = flat_bowman_data(flat_model(5), cat.cyclic_group(2))
    p, q = Point(1, 0), Point(2, 1)
    full = bowman_distance(data, p, q)
    cut = bowman_distance(data, p, q, truncation=2)
    assert full.tail_bound == 0
    assert cut.tail_bound == Fraction(1, 2)
    assert abs(full.value - cut.value) <= cut.tail_bound


def test_axiom_suite_passes_on_two_chain_and_yeager_product():
    data = two_chain_data()
    points = data.points()
    rep = metric_axiom_suite(
        lambda p, q: bowman_distance(data, p, q).value, points
    )
    assert rep.passed
    yd = YeagerMetricData(
        spec=cat.spec_catalog()["chain2-z2-z2-identity"],
        rho=RHO01,
        d={0: discrete_metric(2), 1: discrete_metric(2)},
    )
    ypoints = [Point(e, g) for e in (0, 1) for g in (0, 1)]
    rep = metric_axiom_suite(lambda p, q: yeager_distance(yd, p, q), ypoints)
    assert rep.passed


def test_alternative_base_points_still_give_a_metric():
    # move the reference point of the top fiber off the identity: the series
    # changes but the axioms must survive
    data = two_chain_data(base_points={1: 1})
    points = data.points()
    rep = metric_axiom_suite(
        lambda p, q: bowman_distance(data, p, q).value, points
    )
    assert rep.passed


def test_corrupted_metric_reports_symmetry_violation():
    d = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    points = [0, 1]
    rep = metric_axiom_suite(lambda p, q: d[p][q], points)
    assert rep.symmetry and not rep.passed


def test_yeager_on_equal_idempotents_is_the_group_metric():
    yd = YeagerMetricData(
        spec=cat.spec_catalog()["chain2-z2-z2-identity"],
        rho=RHO01,
        d={0: discrete_metric(2), 1: discrete_metric(2)},
    )
    assert yeager_distance(yd, Point(1, 0), Point(1, 1)) == 1
    assert yeager_distance(yd, Point(0, 1), Point(1, 1)) == 1  # rho only


def test_yeager_refuses_non_isometric_bonding():
    yd = YeagerMetricData(
        spec=cat.spec_catalog()["chain2-z4-z2-mod"],
        rho=RHO01,
        d={0: discrete_metric(2), 1: discrete_metric(4)},
    )
    with pytest.raises(IsometryHypothesisViolated):
        yeager_distance(yd, Point(1, 1), Point(0, 0))


def test_disjoint_union_distance():
    d = {0: discrete_metric(2), 1: discrete_metric(2)}
    assert disjoint_union_distance(d, Point(0, 0), Point(0, 1)) == 1
    assert disjoint_union_distance(d, Point(0, 0), Point(0, 0)) == 0
    assert disjoint_union_distance(d, Point(0, 0), Point(1, 0)) == 1
    # triangle inequality, exhaustively
    pts = [Point(e, g) for e in (0, 1) for g in (0, 1)]
    for p in pts:
        for q in pts:
            for r in pts:
                assert disjoint_union_distance(d, p, r) <= (
                    disjoint_union_distance(d, p, q)
                    + disjoint_union_distance(d, q, r)
                )


def test_separation_witness_exists_iff_bonding_separates():
    identity = bowman_data_from_spec(
        cat.spec_catalog()["chain2-z2-z2-identity"], RHO01
    )
    assert separation_witness(identity, 1, 0, 1) is not None
    collapse = bowman_data_from_spec(
        cat.spec_catalog()["chain2-z2-z2-collapse"], RHO01, basis=(0,),
        pseudo=True,
    )
    assert separation_witness(collapse, 1, 0, 1) is None
    assert bowman_distance(collapse, Point(1, 0), Point(1, 1)).value == 0


def test_truncated_basis_requires_pseudo_flag():
    with pytest.raises(WorkbenchError):
        bowman_data_from_spec(
            cat.spec_catalog()["chain2-z2-z2-collapse"], RHO01, basis=(0,)
        )


def test_default_orderings():
    data = two_chain_data()
    assert default_basis_order(data.emodel) == (0, 1)
    assert default_enumeration(cat.cyclic_group(3)) == (0, 1, 2)


def test_convergence_toward_the_bottom():
    data = flat_bowman_data(flat_model(30), cat.cyclic_group(2))
    limit = Point(0, 0)
    values = [
        bowman_distance(data, Point(k, 0), limit).value for k in (1, 5, 30)
    ]
    assert values[0] > values[1] > values[2]
    du = {e: discrete_metric(2) for e in data.emodel.elements()}
    assert all(
        disjoint_union_distance(du, Point(k, 0), limit) == 1 for k in (1, 5, 30)
    )


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
def test_symmetry_and_nonnegativity_on_flat_model(e1, e2, g1, g2):
    data = flat_bowman_data(flat_model(8), cat.cyclic_group(2))
    p, q = Point(e1, g1), Point(e2, g2)
    d_pq = bowman_distance(data, p, q).value
    assert d_pq == bowman_distance(data, q, p).value
    assert d_pq >= 0
    if p == q:
        assert d_pq == 0
