"""Way-below relation, domain bases, and the flat semilattice model."""

import dataclasses
import inspect
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cliffordlab import catalog as cat
from cliffordlab import suite
from cliffordlab.errors import NotSemilattice, TooLarge, WorkbenchError
from cliffordlab.metrics import (
    SemilatticeEModel,
    bowman_data_from_spec,
    discrete_metric,
)
from cliffordlab.order import (
    LazySemilatticeModel,
    flat_model,
    is_basis,
    validate_poset,
    way_below_by_definition,
)
from test_core import strong_semilattice_specs
from test_metrics import rational_metric


def chain_poset(n):
    return validate_poset([[i <= j for j in range(n)] for i in range(n)])


def semilattice_poset(S):
    """The natural order x <= y iff xy = x of a semilattice table."""
    return validate_poset([[S.mul(x, y) == x for y in S.elements()]
                           for x in S.elements()])


def test_two_chain_bottom_way_below_top():
    P = chain_poset(2)
    assert way_below_by_definition(P, 0, 1)


def test_atoms_way_below_themselves_in_flat_poset():
    P = semilattice_poset(cat.flat_semilattice(2))
    for a in (1, 2):
        assert way_below_by_definition(P, a, a)


def test_way_below_implies_leq():
    P = semilattice_poset(cat.diamond_semilattice())
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
    assert not way_below_by_definition(chain_poset(12), 11, 10)


def test_whole_poset_is_a_basis():
    P = semilattice_poset(cat.diamond_semilattice())
    ok, witness = is_basis(P, list(P.elements()))
    assert ok and witness is None


def test_bottom_alone_is_not_a_basis_of_flat_poset():
    P = semilattice_poset(cat.flat_semilattice(3))
    ok, witness = is_basis(P, [0])
    assert not ok
    assert witness in (1, 2, 3)


def reference_is_basis(P, B):
    """The definition loop is_basis replaces: each B_x = {b in B : b <= x}
    must be nonempty, up-directed and have sup x."""
    B = sorted(set(B))
    for x in P.elements():
        Bx = [b for b in B if P.le(b, x)]
        if not Bx or not P.is_up_directed(Bx) or P.sup(Bx) != x:
            return False, x
    return True, None


def test_is_basis_matches_the_directed_sup_loop_on_every_subset():
    checked = 0
    for P in suite._poset_family():
        for r in range(P.n + 1):
            for B in itertools.combinations(P.elements(), r):
                assert is_basis(P, B) == reference_is_basis(P, B), (P, B)
                checked += 1
    assert checked > 1000


def test_is_basis_reads_only_the_elements_of_the_flat_model():
    M = flat_model(3)
    assert is_basis(M, [0, 1, 2, 3]) == (True, None)
    assert is_basis(M, [3, 1, 0]) == (False, 2)
    with pytest.raises(WorkbenchError, match="basis element 4"):
        is_basis(M, [0, 4])
    with pytest.raises(WorkbenchError, match="basis element 5 is not"):
        is_basis(M, [0, 5, 4])


def test_minimum_of_semilattices():
    for E in (cat.chain_semilattice(3), cat.flat_semilattice(4),
              cat.diamond_semilattice()):
        assert SemilatticeEModel(E, discrete_metric(E.n)).minimum() == 0
    with pytest.raises(NotSemilattice, match="minimum requires a semilattice"):
        SemilatticeEModel(cat.cyclic_group(2), discrete_metric(2))


def test_flat_model_points_and_order():
    M = flat_model(3)
    points = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    assert M.n == len(points)
    for i, j in itertools.product(M.elements(), repeat=2):
        assert M.rho(i, j) == abs(points[i] - points[j])
    assert M.minimum() == 0
    # way-below is <=: the way-up set of 1/2 is {1/2}, and the bottom is
    # way below everything
    for x in M.elements():
        assert M.le(2, x) == (x == 2)
        assert M.le(0, x)
    assert M.rho(2, 3) == Fraction(1, 6)


def reference_flat_gaps(points):
    """The nearest-point gap loop of the former stand-alone flat E-model."""
    order = sorted(range(len(points)), key=lambda i: points[i])
    gaps = [Fraction(0)] * len(points)
    for k, i in enumerate(order):
        best = None
        if k > 0:
            best = points[i] - points[order[k - 1]]
        if k + 1 < len(order):
            right = points[order[k + 1]] - points[i]
            best = right if best is None else min(best, right)
        gaps[i] = best if best is not None else Fraction(0)
    return gaps


def test_flat_weights_match_the_gap_loop():
    for N in range(1, 61):
        M = flat_model(N)
        gaps = reference_flat_gaps([Fraction(0)] + [Fraction(1, k) for k in range(1, N + 1)])
        for b in M.elements():
            if b:
                assert M.a_weight(b, b) == gaps[b]
                assert M.a_weight(b, (b + 1) % M.n) == 0
            else:
                assert all(M.a_weight(0, e) == 1 for e in M.elements())
        for e in M.elements():
            assert tuple(M.weight_support(e)) == ((0,) if e == 0 else (0, e))


def test_flat_model_holds_n_alone_and_reads_gaps_in_closed_form():
    assert [f.name for f in dataclasses.fields(LazySemilatticeModel)] == ["N"]
    N = 10 ** 6
    M = flat_model(N)
    assert M.n == N + 1

    def point(i):
        return Fraction(1, i) if i else Fraction(0)

    assert M.a_weight(0, 0) == M.a_weight(0, N) == 1
    for b in (1, 2, N - 1, N):
        # the neighbours of 1/b are 1/(b+1) (0 at b = N) and 1/(b-1) (none
        # at b = 1)
        neighbours = [point(b + 1) if b < N else point(0)]
        neighbours += [point(b - 1)] if b > 1 else []
        gap = min(abs(point(b) - x) for x in neighbours)
        assert M.a_weight(b, b) == gap
    for b in (0, 1, 2, N - 1, N):
        assert type(M.rho(b, b)) is Fraction and M.rho(b, b) == 0


def reference_poset_e_model(P, rho):
    """The poset-based E-model that SemilatticeEModel replaced: order and
    minimum read off a FinitePoset, and the weights off the definition: 1 at
    the minimum, else the distance from e to the complement of the up-set of
    b."""
    rho = [[Fraction(v) for v in row] for row in rho]
    m = next(x for x in P.elements() if all(P.le(x, y) for y in P.elements()))

    def a_weight(b, e):
        if b == m:
            return Fraction(1)
        return min(rho[e][x] for x in P.elements() if not P.le(b, x))

    def weight_support(e):
        return [b for b in P.elements() if a_weight(b, e) != 0]

    return SimpleNamespace(elements=P.elements, le=P.le,
                           rho=lambda e, f: rho[e][f], minimum=lambda: m,
                           a_weight=a_weight, weight_support=weight_support)


def assert_e_models_agree(model, ref):
    """Same order, rho, minimum, weights and weight supports, the weight is
    1 at the minimum, and the meet is the greatest lower bound under the
    reference order."""
    elements = list(ref.elements())
    assert list(model.elements()) == elements
    assert model.minimum() == ref.minimum()
    for e, f in itertools.product(elements, repeat=2):
        assert model.le(e, f) == ref.le(e, f)
        assert model.rho(e, f) == ref.rho(e, f)
        lower = [x for x in elements if ref.le(x, e) and ref.le(x, f)]
        glb = [x for x in lower if all(ref.le(y, x) for y in lower)]
        assert [model.meet(e, f)] == glb, (e, f)
    for e in elements:
        assert list(model.weight_support(e)) == ref.weight_support(e)
        assert model.a_weight(ref.minimum(), e) == 1
        for b in elements:
            assert model.a_weight(b, e) == ref.a_weight(b, e)


def assert_spec_e_model_matches_the_poset_reference(spec, rho):
    model = bowman_data_from_spec(spec, rho).emodel
    assert type(model) is SemilatticeEModel and model.E is spec.E
    assert_e_models_agree(model, reference_poset_e_model(semilattice_poset(spec.E), rho))


@pytest.mark.parametrize("name", sorted(cat.spec_catalog()))
def test_semilattice_e_model_matches_the_poset_reference_on_the_catalog(name):
    spec = cat.spec_catalog()[name]
    # entries in (1/2, 1] always satisfy the triangle inequality
    rho = [[0 if i == j else Fraction(1, 2) + Fraction(1, 2 + i + j)
            for j in spec.E.elements()] for i in spec.E.elements()]
    assert_spec_e_model_matches_the_poset_reference(spec, rho)


@settings(max_examples=40, deadline=None)
@given(spec=strong_semilattice_specs(), data=st.data())
def test_semilattice_e_model_matches_the_poset_reference_on_generated_specs(spec, data):
    rho = data.draw(rational_metric(spec.E.n))
    assert_spec_e_model_matches_the_poset_reference(spec, rho)


def test_flat_model_is_the_poset_e_model_of_its_order_and_rho():
    for N in range(1, 9):
        M = flat_model(N)
        P = validate_poset([[M.le(i, j) for j in M.elements()]
                            for i in M.elements()])
        ref = reference_poset_e_model(P, [[M.rho(i, j) for j in M.elements()]
                                          for i in M.elements()])
        assert_e_models_agree(M, ref)


# what the metrics read of an E-model; both models offer exactly this
E_MODEL_METHODS = {"elements", "le", "meet", "rho", "minimum", "a_weight",
                   "weight_support"}


@pytest.mark.parametrize("model", [SemilatticeEModel, LazySemilatticeModel])
def test_each_e_model_offers_exactly_the_e_model_methods(model):
    public = {name for name, value in vars(model).items()
              if inspect.isfunction(value) and not name.startswith("_")}
    assert public == E_MODEL_METHODS


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
