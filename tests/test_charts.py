"""Chart models around an idempotent: derivatives, the displacement
operator, and fixed-point scans."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliffordlab import charts
from cliffordlab.charts import (
    BUILTIN_MODELS,
    ChartModel,
    additive_model,
    affine_model,
    differentiability_probe,
    discrete_product_model,
    fixed_point_scan,
    min_plus_model,
    polynomial_model,
    rigidity_report,
    _matmul,
    _nonsingular,
    _symbolic_parts,
)
from cliffordlab.errors import EvaluationOutsideDomain, WorkbenchError


def projection_model():
    """mu(u, v) = P u + P v with P = diag(1, 0)."""
    return polynomial_model(
        2,
        [
            [(1.0, (1, 0, 0, 0)), (1.0, (0, 0, 1, 0))],
            [],
        ],
        name="projection",
    )


def reference_bilinear_parts(model, step=1e-3):
    """L and R, the partial derivatives of mu at (0,0) in each slot, by
    Richardson-extrapolated central differences of evaluate: the float
    route that the exact parts of polynomial models replaced."""
    n = model.dim

    def column(slot, j, t):
        w = np.zeros(n)
        w[j] = t
        z = np.zeros(n)
        if slot == 0:
            return (model.evaluate(w, z) - model.evaluate(-w, z)) / (2 * t)
        return (model.evaluate(z, w) - model.evaluate(z, -w)) / (2 * t)

    def matrix(slot):
        cols = []
        for j in range(n):
            d1 = column(slot, j, step)
            d2 = column(slot, j, step / 2)
            cols.append((4 * d2 - d1) / 3)
        return np.column_stack(cols)

    return matrix(0), matrix(1)


def assert_reference_parts_match_the_exact_parts(model):
    L, R = reference_bilinear_parts(model)
    Ls, Rs = (np.array(P, dtype=float) for P in _symbolic_parts(model))
    assert np.linalg.norm(L - Ls) <= 1e-6
    assert np.linalg.norm(R - Rs) <= 1e-6


def test_additive_model_is_differentiable_with_identity_parts():
    model = additive_model(2)
    assert differentiability_probe(model).differentiable
    eye = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
    assert _symbolic_parts(model) == (eye, eye)


def test_min_plus_mismatch_is_one():
    verdict = differentiability_probe(min_plus_model())
    assert not verdict.differentiable
    assert verdict.worst_mismatch == 1.0


def reference_differentiability_probe(model, directions=None, steps=None):
    """The probe before its directions and steps became constants: one-sided
    difference quotients at the smallest step along each direction, and
    additivity over the axis sums that are among the directions.  Returns
    (differentiable, worst mismatch)."""
    n = model.dim
    if directions is None:
        base = np.eye(2 * n)
        directions = list(base) + [a + b for a, b in
                                   itertools.combinations(base, 2)]
    if steps is None:
        steps = [10.0 ** (-k) for k in range(2, 7)]
    t_min = min(steps)
    threshold = 10.0 * max(t_min, 1e-14 / t_min)

    def quotient(w, t):
        w = np.asarray(w, dtype=float)
        tt = t / max(np.linalg.norm(w), 1.0)
        return model.evaluate(tt * w[:n], tt * w[n:]) / tt

    worst = 0.0
    deriv = {}
    for w in directions:
        q_plus = quotient(w, t_min)
        q_minus = quotient(w, -t_min)
        mismatch = float(np.linalg.norm(q_plus - q_minus))
        deriv[tuple(w)] = 0.5 * (q_plus + q_minus)
        if mismatch > worst:
            worst = mismatch
    for a, b in itertools.combinations(np.eye(2 * n), 2):
        s = a + b
        if tuple(s) not in deriv:
            continue
        gap = float(np.linalg.norm(deriv[tuple(s)] - deriv[tuple(a)]
                                   - deriv[tuple(b)]))
        if gap > worst:
            worst = gap
    return worst <= threshold, worst


@pytest.mark.parametrize("model", [
    min_plus_model(), min_plus_model(radius=0.25),
    additive_model(1), additive_model(3), affine_model(1), affine_model(2),
    discrete_product_model(2), discrete_product_model(3),
], ids=lambda m: f"{m.name}-{m.dim}-{m.radius}")
def test_probe_equals_the_reference_probe(model):
    verdict = differentiability_probe(model)
    differentiable, worst = reference_differentiability_probe(model)
    assert verdict.differentiable == differentiable
    assert abs(verdict.worst_mismatch - worst) <= 1e-5


def test_reference_bilinear_parts_match_the_exact_parts():
    for model in (additive_model(2), affine_model(1), affine_model(2),
                  discrete_product_model(2), projection_model()):
        assert_reference_parts_match_the_exact_parts(model)


def test_repeated_linear_terms_add_up():
    model = polynomial_model(1, [[(1.0, (1, 0)), (0.5, (1, 0)), (1.0, (0, 1))]])
    assert _symbolic_parts(model) == ([[Fraction(3, 2)]], [[Fraction(1)]])
    assert_reference_parts_match_the_exact_parts(model)


def test_the_probe_never_evaluates_the_chart(monkeypatch):
    def mu(self, u, v):
        raise AssertionError("the probe evaluated the chart")

    monkeypatch.setattr(ChartModel, "mu", mu)
    for name, build in BUILTIN_MODELS.items():
        for dim in (1, 2, 3):
            model = build(dim=dim)
            assert differentiability_probe(model).differentiable == (name != "min-plus")


# pieces of dim-1 charts: u + v + u^2 and u + v - u^2 share their linear part
SHARED = [[(1.0, (1, 0)), (1.0, (0, 1)), (1.0, (2, 0))],
          [(1.0, (1, 0)), (1.0, (0, 1)), (-1.0, (2, 0))]]


def test_pieces_that_share_a_linear_part_make_a_c1_chart():
    model = ChartModel(dim=1, pieces=[SHARED], name="shared")
    assert differentiability_probe(model) == charts.ProbeVerdict(True, 0.0)
    assert _symbolic_parts(model) == ([[Fraction(1)]], [[Fraction(1)]])
    assert_reference_parts_match_the_exact_parts(model)
    rep = rigidity_report(model, scan_radius=0.25, grid_step=0.05)
    assert rep.differentiable_at_origin and rep.prediction == "isolated idempotent"
    assert reference_differentiability_probe(model)[0]


# the fields of a RigidityReport that only a C1 chart fills
EXACT_FIELDS = ("L", "R", "DH0", "DH0_invertible", "smallest_singular_value")


@pytest.mark.parametrize("pieces, worst", [
    # min(u + v + u^2, 2u - v^2): gap 1 along u and along v
    ([[(1.0, (1, 0)), (1.0, (0, 1)), (1.0, (2, 0))],
      [(2.0, (1, 0)), (-1.0, (0, 2))]], 1.0),
    # min(u, 3u, 0.5 v): gap 3 along u, 0.5 along v
    ([[(1.0, (1, 0))], [(3.0, (1, 0))], [(0.5, (0, 1))]], 3.0),
    # min(u + v, u + 2v): no gap along u, gap 1 along v
    ([[(1.0, (1, 0)), (1.0, (0, 1))], [(1.0, (1, 0)), (2.0, (0, 1))]], 1.0),
], ids=["quadratic-pieces", "three-pieces", "v-axis-only"])
def test_pieces_that_differ_make_a_chart_that_is_not_c1(pieces, worst):
    model = ChartModel(dim=1, pieces=[pieces], name="kinked")
    verdict = differentiability_probe(model)
    assert not verdict.differentiable and verdict.worst_mismatch == worst
    differentiable, reference_worst = reference_differentiability_probe(model)
    assert not differentiable
    assert abs(verdict.worst_mismatch - reference_worst) <= 1e-5
    rep = rigidity_report(model, scan_radius=0.25, grid_step=0.05)
    assert rep.prediction == "not C1 at the idempotent; no prediction"
    assert all(getattr(rep, name) is None for name in EXACT_FIELDS)


def test_the_default_scan_radius_is_a_quarter_or_half_the_model_radius(monkeypatch):
    radii = []
    scan = charts.fixed_point_scan

    def spy(model, radius, *args):
        radii.append(radius)
        return scan(model, radius, *args)

    monkeypatch.setattr(charts, "fixed_point_scan", spy)
    for radius in (0.2, 0.5, 1.0):
        rigidity_report(additive_model(2, radius=radius))
    assert radii == [0.1, 0.25, 0.25]


def test_a_displacement_derivative_beyond_the_float_range_is_refused():
    # L = R = 1e308, so DH0 = 2e308 - 1 is beyond the float range
    model = polynomial_model(1, [[(1e308, (1, 0)), (1e308, (0, 1))]])
    with pytest.raises(WorkbenchError, match="beyond the float range"):
        rigidity_report(model)


def reference_determinant(A):
    """The Leibniz expansion over all permutations."""
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


ENTRIES = st.sampled_from([Fraction(k, d) for k in range(-2, 3) for d in (1, 2, 3)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_exact_elimination_agrees_with_the_determinant(A):
    assert _nonsingular(A) == (reference_determinant(A) != 0)


def test_a_nonzero_constant_term_is_refused_exactly():
    with pytest.raises(WorkbenchError,
                       match="coordinate 1 term 0: constant term 1e-13"):
        polynomial_model(2, [[(1.0, (1, 0, 0, 0))], [(1e-13, (0, 0, 0, 0))]])
    with pytest.raises(WorkbenchError,
                       match="coordinate 0 piece 1 term 1: constant term 1e-13"):
        ChartModel(dim=1, pieces=[[[(1.0, (1, 0))], [(1.0, (0, 1)), (1e-13, (0, 0))]]])
    with pytest.raises(WorkbenchError, match="coordinate 0 has no piece"):
        ChartModel(dim=1, pieces=[[]])
    polynomial_model(1, [[(0.0, (0, 0)), (1.0, (1, 0))]])  # a zero constant is allowed


def test_a_negative_or_fractional_exponent_is_refused():
    # int(1.5) would read u^1.5 as u, and v^-1 would pass as a linear term
    with pytest.raises(WorkbenchError, match=re.escape(
            "coordinate 0 term 0: exponents [1.5, 0] must be non-negative integers")):
        polynomial_model(1, [[(1.0, (1.5, 0)), (1.0, (0, 1))]])
    with pytest.raises(WorkbenchError, match=re.escape(
            "coordinate 0 term 2: exponents [2, -1] must be non-negative integers")):
        polynomial_model(1, [[(1.0, (1, 0)), (1.0, (0, 1)), (1.0, (2, -1))]])
    with pytest.raises(WorkbenchError, match=re.escape(
            "coordinate 0 piece 1 term 0: exponents [nan, 1] must be non-negative")):
        ChartModel(dim=1, pieces=[[[(1.0, (1, 0))], [(1.0, (math.nan, 1))]]])
    model = polynomial_model(1, [[(1.0, (1.0, 0)), (1.0, (0, 1))]])
    assert model.pieces == [[[(1.0, (1, 0)), (1.0, (0, 1))]]]


def assert_exact_parts(rep, P, DH0):
    """L = R = P and the displacement derivative is DH0, every entry of the
    three a Fraction, and DH0^2 = I exactly (P is a projection here)."""
    assert rep.L == rep.R == P and rep.DH0 == DH0
    assert all(type(x) is Fraction for A in (rep.L, rep.R, rep.DH0)
               for row in A for x in row)
    eye = [[Fraction(int(i == j)) for j in range(len(DH0))] for i in range(len(DH0))]
    assert _matmul(rep.DH0, rep.DH0) == eye


def test_projection_model_prediction_isolated():
    # a degenerate-looking P whose displacement derivative diag(1, -1) is
    # still invertible
    rep = rigidity_report(projection_model(), scan_radius=0.25, grid_step=0.05)
    assert_exact_parts(rep, [[1, 0], [0, 0]], [[1, 0], [0, -1]])
    assert rep.DH0_invertible
    assert rep.prediction == "isolated idempotent"
    assert len(rep.fixed_points_found) == 1


def test_additive_report_has_identity_displacement():
    rep = rigidity_report(additive_model(2), scan_radius=0.25, grid_step=0.05)
    assert_exact_parts(rep, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert rep.smallest_singular_value >= 0.9
    assert rep.worst_mismatch == 0


def test_min_plus_report_flags_non_differentiability():
    rep = rigidity_report(min_plus_model(), scan_radius=0.25, grid_step=0.05)
    assert not rep.differentiable_at_origin
    assert all(getattr(rep, name) is None for name in EXACT_FIELDS)
    assert rep.worst_mismatch >= 0.5


def test_additive_scan_finds_only_the_origin():
    points, diverged = fixed_point_scan(additive_model(2), 0.5, 0.1)
    assert len(points) == 1
    assert np.linalg.norm(points[0]) <= 1e-8


def test_a_scan_in_more_than_32_dimensions_seeds_from_the_origin():
    # a grid step above the radius leaves the origin as the one seed; numpy's
    # meshgrid, which takes at most 32 arrays, cannot build even that grid
    assert fixed_point_scan(additive_model(33), 0.25, 1.0) == ([(0.0,) * 33], 0)


def test_affine_scan_finds_only_the_origin():
    # u + v + u*v in one dimension: f(u) = 2u + u^2 has roots 0 and -1, and
    # -1 is outside the scan ball
    points, _ = fixed_point_scan(affine_model(1), 0.5, 0.05)
    assert len(points) == 1
    assert abs(points[0][0]) <= 1e-8


def test_min_plus_scan_samples_the_continuum():
    points, _ = fixed_point_scan(min_plus_model(), 0.5, 0.05)
    on_axis = [p for p in points if abs(p[1]) <= 1e-8]
    assert len(on_axis) >= 10


def test_discrete_product_model_displacement():
    rep = rigidity_report(discrete_product_model(2), scan_radius=0.25,
                          grid_step=0.05)
    assert_exact_parts(rep, [[0, 0], [0, 1]], [[-1, 0], [0, 1]])
    assert rep.DH0_invertible


def test_evaluation_outside_domain_rejected():
    with pytest.raises(EvaluationOutsideDomain):
        additive_model(2, radius=0.5).evaluate(
            np.array([1.0, 0.0]), np.array([0.0, 0.0])
        )


def test_scan_radius_must_fit_the_model():
    with pytest.raises(WorkbenchError):
        fixed_point_scan(additive_model(2, radius=0.2), 0.5, 0.1)


def test_polynomial_powers_round_as_numpy_scalars():
    # the array power of numpy may differ from C pow in the last bit
    model = polynomial_model(1, [[(1.0, (3, 0))]])
    xs = np.linspace(-1.0, 1.0, 2001)
    got = model.mu(xs[:, None], np.zeros((xs.size, 1)))[:, 0]
    assert [float(g) for g in got] == [float(x ** 3) for x in xs]


def reference_fixed_point_scan(model, radius, grid_step, newton_iters=30,
                               residual_tol=1e-9, dedup_tol=1e-6):
    """The per-seed damped-Newton loop that fixed_point_scan batches, on
    single-point evaluations; arguments are taken as valid."""
    n = model.dim

    def H(u):
        return model.evaluate(u, u) - u

    def jac(u, h=1e-6):
        cols = []
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            cols.append((H(u + step) - H(u - step)) / (2 * h))
        return np.column_stack(cols)

    k = math.floor(radius / grid_step)
    axes = grid_step * np.arange(-k, k + 1)
    seeds = []
    for idx in np.ndindex(*([len(axes)] * n)):
        u = np.array([axes[i] for i in idx])
        if np.linalg.norm(u) <= radius:
            seeds.append(u)

    found = []
    diverged = 0
    for seed in seeds:
        u = seed.astype(float)
        ok = True
        try:
            r = float(np.linalg.norm(H(u)))
            for _ in range(newton_iters):
                if r < residual_tol:
                    break
                J = jac(u)
                delta, *_ = np.linalg.lstsq(J, -H(u), rcond=None)
                t = 1.0
                for _ in range(12):
                    cand = u + t * delta
                    if np.linalg.norm(cand) > model.radius:
                        t /= 2
                        continue
                    rc = float(np.linalg.norm(H(cand)))
                    if rc < r:
                        u, r = cand, rc
                        break
                    t /= 2
                else:
                    break
                if np.linalg.norm(u) > 4 * radius:
                    ok = False
                    break
        except EvaluationOutsideDomain:
            ok = False
        if not ok:
            diverged += 1
            continue
        if float(np.linalg.norm(H(u))) < residual_tol and \
                np.linalg.norm(u) <= radius + 1e-9:
            if not any(np.linalg.norm(u - np.array(p)) < dedup_tol
                       for p in found):
                found.append(tuple(float(x) for x in u))
    found.sort()
    return found, diverged


COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 2.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def polynomial_models(draw, max_dim, radius, max_pieces=1):
    """A chart of dim 1 to max_dim whose coordinates are mins of 1 to
    max_pieces polynomials with terms of degree 1 to 3 (so mu(0, 0) = 0) and
    coefficients in [-2, 2]."""
    dim = draw(st.integers(1, max_dim))
    pieces = []
    for _ in range(dim):
        coord = []
        for _ in range(draw(st.integers(1, max_pieces))):
            terms = []
            for _ in range(draw(st.integers(0, 3))):
                exps = [0] * (2 * dim)
                for k in draw(st.lists(st.integers(0, 2 * dim - 1), min_size=1,
                                       max_size=3)):
                    exps[k] += 1
                terms.append((draw(COEFFS), tuple(exps)))
            coord.append(terms)
        pieces.append(coord)
    return ChartModel(dim, pieces, radius, name="polynomial")


@st.composite
def chart_models(draw):
    """A builtin model or a random chart of dim 1 to 3, with up to three
    pieces per coordinate."""
    radius = draw(st.sampled_from([0.25, 0.5, 1.0]))
    name = draw(st.sampled_from(sorted(BUILTIN_MODELS) + ["polynomial"] * 3))
    if name == "min-plus":
        return BUILTIN_MODELS[name](radius=radius)
    if name == "polynomial":
        return draw(polynomial_models(3, radius, max_pieces=3))
    return BUILTIN_MODELS[name](dim=draw(st.integers(1, 3)), radius=radius)


@settings(max_examples=200, deadline=None)
@given(polynomial_models(2, 1.0))
def test_reference_bilinear_parts_match_the_exact_parts_of_random_polynomials(model):
    assert_reference_parts_match_the_exact_parts(model)


@settings(max_examples=40, deadline=None)
@given(chart_models(), st.data())
def test_batched_scan_equals_the_per_seed_loop(model, data):
    # the scan radius reaches the model radius, so stencils leave the ball
    radius = model.radius * data.draw(st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    fractions = [0.25, 1 / 3, 0.5] if model.dim == 3 else [0.1, 0.125, 0.2, 0.25]
    grid_step = model.radius * data.draw(st.sampled_from(fractions))
    newton_iters = data.draw(st.sampled_from([0, 1, 3, 30]))
    dedup_tol = data.draw(st.sampled_from([1e-6, 1e-2]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charts, "_DEDUP_TOL", dedup_tol)
        assert fixed_point_scan(model, radius, grid_step, newton_iters) == \
            reference_fixed_point_scan(model, radius, grid_step, newton_iters,
                                       dedup_tol=dedup_tol)


@pytest.mark.parametrize("model, radius, grid_step", [
    # seeds on the sphere: a norm that rounds differently moves the count
    (additive_model(3, radius=0.25), 0.25, 0.25 / 3),
    # near-equal fixed points: the kept one depends on the dedup order
    (min_plus_model(radius=0.25), 0.125, 0.025),
])
def test_batched_scan_equals_the_per_seed_loop_on_known_edges(model, radius,
                                                              grid_step):
    assert fixed_point_scan(model, radius, grid_step, newton_iters=1) == \
        reference_fixed_point_scan(model, radius, grid_step, newton_iters=1)


@settings(max_examples=40, deadline=None)
@given(chart_models(), st.data())
def test_stacked_mu_rows_equal_single_point_evaluations(model, data):
    n = model.dim
    shape = data.draw(st.sampled_from([(5,), (2, 3)]))
    size = n * int(np.prod(shape))
    coords = st.lists(st.floats(-model.radius / n, model.radius / n),
                      min_size=size, max_size=size)
    u, v = (np.array(data.draw(coords)).reshape(shape + (n,)) for _ in range(2))
    stacked = model.mu(u, v)
    assert stacked.shape == shape + (n,)
    for idx in np.ndindex(*shape):
        assert stacked[idx].tobytes() == model.evaluate(u[idx], v[idx]).tobytes()
