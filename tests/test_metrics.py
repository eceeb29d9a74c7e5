"""Series and isometric metrics: weights, reference values, axioms, limits."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffordlab import catalog as cat
from cliffordlab import suite
from cliffordlab.errors import IsometryHypothesisViolated, WorkbenchError
from cliffordlab.metrics import (
    CONVERGENCE_SCHEDULE,
    BowmanMetricData,
    GroupBlock,
    Point,
    _profile,
    a_weight,
    bowman_data_from_spec,
    bowman_distance,
    default_basis_order,
    default_enumeration,
    discrete_metric,
    disjoint_union_distance,
    extended_bonding,
    flat_bowman_data,
    isometry_check,
    metric_axiom_suite,
    separation_witness,
    yeager_distance,
)
from cliffordlab.order import flat_model, minimum

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


def series_term(data, j, p, q):
    """The j-th comparison term of the series (1-based), read off two
    truncations of the distance: d_j - d_(j-1) = 2^-j * term."""
    below = (bowman_distance(data, p, q, truncation=j - 1).value if j > 1
             else data.emodel.rho(p.e, q.e))
    return (bowman_distance(data, p, q, truncation=j).value - below) * 2 ** j


def test_series_term_vanishes_on_equal_points():
    data = two_chain_data()
    p = Point(1, 0)
    for j in range(1, len(data.basis) + 1):
        assert series_term(data, j, p, p) == 0


def test_series_term_reference_value_and_symmetry():
    data = two_chain_data()
    p, q = Point(1, 0), Point(1, 1)
    assert data.basis[1] == 1
    assert series_term(data, 2, p, q) == Fraction(3, 4)
    assert series_term(data, 2, q, p) == Fraction(3, 4)


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
    yd = yeager_data("identity")
    rep = metric_axiom_suite(lambda p, q: yeager_distance(yd, p, q), yd.points())
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


def yeager_data(bonding):
    """Metric data over a chain of two Z2 fibres, discrete metrics d."""
    return bowman_data_from_spec(cat.spec_catalog()[f"chain2-z2-z2-{bonding}"],
                                 RHO01, d={0: discrete_metric(2),
                                           1: discrete_metric(2)})


def test_yeager_on_equal_idempotents_is_the_group_metric():
    yd = yeager_data("identity")
    assert yeager_distance(yd, Point(1, 0), Point(1, 1)) == 1
    assert yeager_distance(yd, Point(0, 1), Point(1, 1)) == 1  # rho only
    assert yeager_distance(yd, Point(1, 0), Point(0, 1)) == 2


def test_yeager_refuses_non_isometric_bonding():
    yd = bowman_data_from_spec(
        cat.spec_catalog()["chain2-z4-z2-mod"],
        RHO01,
        d={0: discrete_metric(2), 1: discrete_metric(4)},
    )
    with pytest.raises(IsometryHypothesisViolated) as exc:
        yeager_distance(yd, Point(1, 1), Point(0, 0))
    assert (exc.value.pair, exc.value.witness) == ((1, 0), (0, 2))  # 0 and 2 collapse
    with pytest.raises(IsometryHypothesisViolated):
        yeager_distance(yeager_data("collapse"), Point(1, 0), Point(1, 1))


def flat_point(i):
    return Fraction(1, i) if i else Fraction(0)


@pytest.mark.parametrize("order", [2, 3])
def test_yeager_on_flat_data_is_the_closed_form(order):
    G = cat.cyclic_group(order)
    for N in range(1, 9):
        data = flat_bowman_data(flat_model(N), G, "identity")
        points = data.points()
        for p in points:
            for q in points:
                # the meet of distinct points is 0, and identity bonding
                # carries (g, h) there unchanged
                d = Fraction(int(p.g != q.g))
                expected = d if p.e == q.e else d + abs(flat_point(p.e)
                                                        - flat_point(q.e))
                assert yeager_distance(data, p, q) == expected, (N, p, q)
        rep = metric_axiom_suite(lambda p, q: yeager_distance(data, p, q), points)
        assert rep.passed, N
        collapse = flat_bowman_data(flat_model(N), G, "collapse")
        with pytest.raises(IsometryHypothesisViolated) as exc:
            yeager_distance(collapse, Point(1, 0), Point(0, 0))
        assert (exc.value.pair, exc.value.witness) == ((1, 0), (0, 1))


def reference_isometry_check(data):
    """The walk over every pair e < f of the E-model, f then e ascending,
    reading each map through data.phi and each block through data.block."""
    elements = data.emodel.elements()
    for f in elements:
        for e in elements:
            if e == f or not data.emodel.le(e, f):
                continue
            d_e, d_f = data.block(e).d, data.block(f).d
            for s in data.block(f).group.elements():
                for t in data.block(f).group.elements():
                    if d_e[data.phi(f, e, s)][data.phi(f, e, t)] != d_f[s][t]:
                        return False, ((f, e), (s, t))
    return True, None


def near_discrete_metric(n):
    """Entries in (1/2, 1] off the diagonal: a metric, and not discrete."""
    return [[0 if i == j else Fraction(1, 2) + Fraction(1, 2 + i + j)
             for j in range(n)] for i in range(n)]


def isometry_cases():
    for name, spec in sorted(cat.spec_catalog().items()):
        rho = near_discrete_metric(spec.E.n)
        yield name, bowman_data_from_spec(spec, rho)
        yield f"{name}-near-discrete", bowman_data_from_spec(
            spec, rho, d={e: near_discrete_metric(G.n)
                          for e, G in spec.groups.items()})
    for bonding in ("identity", "collapse"):
        for base_points in (None, {2: 1}, {0: 1, 3: 1}):
            yield (f"flat-{bonding}-{base_points}",
                   flat_bowman_data(flat_model(5), cat.cyclic_group(2), bonding,
                                    base_points=base_points))
    # spec-style data on the flat order, one entry per element and per pair:
    # (2, 0) shares the map of (1, 0) and (3, 0) but not the metric of 2
    model, G = flat_model(3), cat.cyclic_group(2)
    block = GroupBlock(group=G, d=discrete_metric(G.n), base_point=0,
                       enumeration=(0, 1))
    blocks = {e: block for e in model.elements()}
    blocks[2] = replace(block, d=near_discrete_metric(G.n))
    shared = (0, 1)
    yield "flat-shared-map-other-metric", BowmanMetricData(
        emodel=model, basis=tuple(model.elements()), blocks=blocks,
        bonding={(e, 0): shared for e in model.elements() if e != 0})


def test_isometry_check_matches_the_walk_over_every_entry():
    verdicts = {}
    for name, data in isometry_cases():
        verdicts[name] = isometry_check(data)
        assert verdicts[name] == reference_isometry_check(data), name
    assert verdicts["chain2-z2-z2-identity-near-discrete"] == (True, None)
    assert verdicts["flat-collapse-None"] == (False, ((1, 0), (0, 1)))
    assert verdicts["flat-shared-map-other-metric"] == (False, ((2, 0), (0, 1)))


class CountingMap(tuple):
    """A bonding map that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        CountingMap.reads += 1
        return tuple.__getitem__(self, i)


def test_isometry_check_reads_a_shared_map_once_per_pair():
    G = cat.cyclic_group(3)
    data = flat_bowman_data(flat_model(10 ** 4), G)
    shared = CountingMap(range(G.n))
    data.bonding = dict.fromkeys(data.bonding, shared)
    CountingMap.reads = 0
    assert isometry_check(data) == (True, None)
    # phi(s) and phi(t) for each pair (s, t), for one entry rather than N
    assert CountingMap.reads == 2 * G.n ** 2


def test_one_isometric_distance_on_flat_data_reads_the_map_a_fixed_number_of_times():
    G = cat.cyclic_group(3)
    N = 10 ** 5
    data = flat_bowman_data(flat_model(N), G)
    data.bonding = {pair: CountingMap(phi) for pair, phi in data.bonding.items()}
    CountingMap.reads = 0
    d = yeager_distance(data, Point(N, 1), Point(3, 2))
    # 2|G|^2 reads to check the one map, and phi(s), phi(t) into the meet 0
    assert CountingMap.reads <= 2 * G.n ** 2 + 2
    assert d == Fraction(1, 3) - Fraction(1, N) + 1


def test_every_flat_pair_reads_one_map_and_one_pair_of_metrics():
    # isometry_check reads the pair (1, 0) alone, and that stands for all
    G = cat.cyclic_group(2)
    for bonding in ("identity", "collapse"):
        for base_points in (None, {2: 1}, {0: 1, 3: 1}):
            data = flat_bowman_data(flat_model(5), G, bonding,
                                    base_points=base_points)
            triples = {(tuple(data.phi(f, 0, g) for g in G.elements()),
                        data.block(f).d, data.block(0).d) for f in range(1, 6)}
            assert len(triples) == 1 and list(data.bonding) == [(1, 0)]


def test_disjoint_union_distance():
    d = two_chain_data(d={1: [[0, "1/2"], ["1/2", 0]]})
    assert disjoint_union_distance(d, Point(1, 0), Point(1, 1)) == Fraction(1, 2)
    assert disjoint_union_distance(d, Point(0, 0), Point(0, 0)) == 0
    assert disjoint_union_distance(d, Point(0, 0), Point(1, 0)) == 1
    # triangle inequality, exhaustively
    pts = d.points()
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
    assert all(
        disjoint_union_distance(data, Point(k, 0), limit) == 1 for k in (1, 5, 30)
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


def test_basis_element_outside_e_is_rejected():
    with pytest.raises(WorkbenchError, match="basis element 5"):
        two_chain_data(basis=(0, 5), pseudo=True)


def test_basis_element_outside_e_is_rejected_without_pseudo():
    with pytest.raises(WorkbenchError, match="basis element 5 is not in the poset"):
        two_chain_data(basis=(0, 1, 5))


def test_a_basis_that_repeats_an_element_is_rejected():
    with pytest.raises(WorkbenchError, match="repeats an element"):
        two_chain_data(basis=(0, 1, 1))


def test_flat_data_on_10_to_the_6_points_checks_its_range_basis_in_place():
    """The model's own range never repeats and misses no element, so no
    set or list of the 10**6 + 1 points is built."""
    import tracemalloc

    tracemalloc.start()
    try:
        data = flat_bowman_data(flat_model(10 ** 6), cat.cyclic_group(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.basis == range(10 ** 6 + 1) and peak < 2 ** 20


@pytest.mark.parametrize("basis, pseudo, message", [
    (range(4), False, r"not a domain basis \(fails at 4\)"),
    (range(7), False, "basis element 6 is not in the poset"),
    ((0, 1, 1), True, "repeats an element"),
    ((0, 2, 1, 3, 4, 5), False, None),
    (range(4), True, None),
], ids=["short-range", "long-range", "tuple-repeats", "tuple-whole", "short-pseudo"])
def test_a_flat_basis_other_than_the_model_range_is_scanned(basis, pseudo, message):
    def build():
        return flat_bowman_data(flat_model(5), cat.cyclic_group(2), basis=basis,
                                pseudo=pseudo)

    if message is None:
        assert build().basis == basis
    else:
        with pytest.raises(WorkbenchError, match=message):
            build()


def test_a_profile_reads_only_the_denominators_it_touches():
    # (1/5, 1) touches the weights 1 and 1/30 and 0/1 metric rows: its profile
    # is the same whatever the number of other points of the flat model
    fiber = cat.cyclic_group(2)
    small, large = (flat_bowman_data(flat_model(N), fiber) for N in (50, 2000))
    assert _profile(small, Point(5, 1)) == _profile(large, Point(5, 1))


def test_flat_data_shares_one_block_but_for_base_point_overrides():
    fiber = cat.cyclic_group(2)
    shared = GroupBlock(group=fiber, d=discrete_metric(fiber.n), base_point=0,
                        enumeration=(0, 1))
    for N, base_points in ((50, None), (50, {2: 1, 99: 0}), (50, {0: 1, 1: 1}),
                           (1, {0: 1, 1: 1})):
        data = flat_bowman_data(flat_model(N), fiber, base_points=base_points)
        overrides = {e: g for e, g in (base_points or {}).items() if e <= N}
        for e in range(N + 1):
            assert data.block(e) == replace(shared, base_point=overrides.get(e, 0))
        # every element without an override reads one block object
        assert len({id(data.block(e)) for e in range(N + 1)}) == \
            len(overrides) + (len(overrides) <= N)
        assert data.points() == [Point(e, g) for e in range(N + 1) for g in (0, 1)]
    data = flat_bowman_data(flat_model(10 ** 5), fiber, base_points={2: 1, 99: 0})
    assert len(data.blocks) <= 1 + 2 and len(data.bonding) <= 1
    assert data.block(10 ** 5) == shared and data.block(99) == shared
    assert data.block(2) == replace(shared, base_point=1)


@pytest.mark.parametrize("fiber, bonding, base_points", [
    (2, "identity", {5: 1}), (2, "collapse", {0: 1}),
    (3, "identity", {0: 2}), (3, "collapse", {2000: 1}),
], ids=["z2-identity", "z2-collapse", "z3-identity", "z3-collapse"])
def test_series_distances_on_flat_2000_equal_the_oracle(fiber, bonding, base_points):
    G = cat.cyclic_group(fiber)
    data = flat_bowman_data(flat_model(2000), G, bonding, base_points=base_points)
    schedule = [Point(k, k % G.n) for k in CONVERGENCE_SCHEDULE]
    # the schedule against the Bowman limits (0, phi(g)), then against itself
    pairs = [(p, Point(0, data.phi(p.e, 0, p.g))) for p in schedule]
    pairs += [(schedule[0], schedule[-1]), (schedule[3], schedule[4])]
    for p, q in pairs:
        assert bowman_distance(data, p, q).value == suite.oracle_bowman(data, p, q)


@st.composite
def rational_metric(draw, size):
    """A random metric bounded by 1 with mixed denominators: off-diagonal
    entries in [1/2, 1] always satisfy the triangle inequality."""
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            den = draw(st.integers(min_value=1, max_value=7))
            num = draw(st.integers(min_value=0, max_value=den))
            m[i][j] = m[j][i] = Fraction(1, 2) + Fraction(num, 2 * den)
    return m


@st.composite
def spec_metric_data(draw):
    """Series-metric data over a catalog spec with rational rho and group
    metrics, shuffled enumerations, random base points, and a basis that
    may be cut down (pseudo) or reordered."""
    catalog = cat.spec_catalog()
    spec = catalog[draw(st.sampled_from(sorted(catalog)))]
    m = minimum(spec.E)
    rest = [e for e in spec.E.elements() if e != m]
    kept = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    groups = spec.groups
    return bowman_data_from_spec(
        spec,
        draw(rational_metric(spec.E.n)),
        basis=(m, *kept),
        d={e: draw(rational_metric(g.n)) for e, g in groups.items()},
        base_points={e: draw(st.sampled_from(range(g.n)))
                     for e, g in groups.items()},
        enumerations={e: draw(st.permutations(range(g.n)))
                      for e, g in groups.items()},
        pseudo=len(kept) < len(rest),
    )


@settings(max_examples=25, deadline=None)
@given(spec_metric_data())
def test_integer_kernel_matches_the_oracle_and_its_tail_bounds(data):
    points = data.points()
    for p in points:
        for q in points:
            full = bowman_distance(data, p, q)
            assert full.value == suite.oracle_bowman(data, p, q)
            assert full.tail_bound == 0
            for J in range(1, len(data.basis) + 2):
                cut = bowman_distance(data, p, q, truncation=J)
                assert cut.value <= full.value <= cut.value + cut.tail_bound


def test_axiom_suite_reports_the_triangle_violations_of_a_plain_check():
    # mixed denominators; d(0,2) = d(0,1) + d(1,2) holds with equality, and
    # d(2,3) = 1 is planted above d(2,1) + d(1,3)
    d = [[Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)],
         [Fraction(1, 3), Fraction(0), Fraction(1, 6), Fraction(3, 11)],
         [Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(1)],
         [Fraction(5, 7), Fraction(3, 11), Fraction(1), Fraction(0)]]
    points = range(4)
    plain = [(p, q, r) for p in points for q in points for r in points
             if d[p][r] > d[p][q] + d[q][r]]
    rep = metric_axiom_suite(lambda p, q: d[p][q], points)
    assert (2, 1, 3) in plain and (0, 1, 2) not in plain
    assert rep.triangle == plain
    assert not (rep.negativity or rep.symmetry or rep.identity)


def test_axiom_suite_reports_the_original_fractions():
    d = [[Fraction(0), Fraction(-1, 3)], [Fraction(1, 2), Fraction(0)]]
    rep = metric_axiom_suite(lambda p, q: d[p][q], [0, 1])
    assert rep.negativity == [(0, 1, Fraction(-1, 3))]
    assert rep.symmetry == [(0, 1, Fraction(-1, 3), Fraction(1, 2)),
                            (1, 0, Fraction(1, 2), Fraction(-1, 3))]
