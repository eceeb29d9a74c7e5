"""Chart models around an idempotent: derivatives, the displacement
operator, and fixed-point scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliffordlab.charts import (
    BUILTIN_MODELS,
    additive_model,
    affine_model,
    bilinear_parts,
    differentiability_probe,
    discrete_product_model,
    fixed_point_scan,
    min_plus_model,
    polynomial_model,
    rigidity_report,
    _symbolic_parts,
)
from cliffordlab.errors import (
    EvaluationOutsideDomain,
    NotDifferentiable,
    WorkbenchError,
)


def test_additive_model_is_differentiable_with_identity_parts():
    model = additive_model(2)
    assert differentiability_probe(model).differentiable
    L, R = bilinear_parts(model)
    assert np.allclose(L, np.eye(2)) and np.allclose(R, np.eye(2))


def test_min_plus_mismatch_is_one():
    verdict = differentiability_probe(min_plus_model())
    assert not verdict.differentiable
    assert verdict.worst_mismatch >= 1 - 1e-9


def test_min_plus_bilinear_parts_refuse():
    with pytest.raises(NotDifferentiable):
        bilinear_parts(min_plus_model())


def test_affine_polynomial_matches_symbolic_derivative():
    for model in (affine_model(1), affine_model(2)):
        assert differentiability_probe(model).differentiable
        L, R = bilinear_parts(model)
        Ls, Rs = _symbolic_parts(model)
        assert np.linalg.norm(L - Ls) <= 1e-6
        assert np.linalg.norm(R - Rs) <= 1e-6


def test_projection_model_prediction_isolated():
    # mu(u, v) = P u + P v with P = diag(1, 0): a degenerate-looking P whose
    # displacement derivative diag(1, -1) is still invertible
    model = polynomial_model(
        2,
        [
            [(1.0, (1, 0, 0, 0)), (1.0, (0, 0, 1, 0))],
            [],
        ],
        name="projection",
    )
    rep = rigidity_report(model, scan_radius=0.25, grid_step=0.05)
    assert np.allclose(rep.L, np.diag([1.0, 0.0]), atol=1e-6)
    assert np.allclose(rep.DH0, np.diag([1.0, -1.0]), atol=1e-6)
    assert rep.DH0_invertible
    assert rep.prediction == "isolated idempotent"
    assert len(rep.fixed_points_found) == 1


def test_additive_report_has_identity_displacement():
    rep = rigidity_report(additive_model(2), scan_radius=0.25, grid_step=0.05)
    assert np.allclose(rep.DH0, np.eye(2), atol=1e-6)
    assert rep.smallest_singular_value >= 0.9
    assert rep.involution_defect <= 1e-8


def test_min_plus_report_flags_non_differentiability():
    rep = rigidity_report(min_plus_model(), scan_radius=0.25, grid_step=0.05)
    assert not rep.differentiable_at_origin
    assert rep.DH0 is None
    assert rep.worst_mismatch >= 0.5


def test_additive_scan_finds_only_the_origin():
    points, diverged = fixed_point_scan(additive_model(2), 0.5, 0.1)
    assert len(points) == 1
    assert np.linalg.norm(points[0]) <= 1e-8


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
    assert np.allclose(rep.DH0, np.diag([-1.0, 1.0]), atol=1e-6)
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

    axes = np.arange(-radius, radius + grid_step / 2, grid_step)
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
def chart_models(draw):
    """A builtin model or a random polynomial model of dim 1 to 3 whose
    terms have degree 1 to 3 (so mu(0, 0) = 0)."""
    radius = draw(st.sampled_from([0.25, 0.5, 1.0]))
    name = draw(st.sampled_from(sorted(BUILTIN_MODELS) + ["polynomial"] * 3))
    if name == "min-plus":
        return BUILTIN_MODELS[name](radius=radius)
    dim = draw(st.integers(1, 3))
    if name != "polynomial":
        return BUILTIN_MODELS[name](dim=dim, radius=radius)
    polys = []
    for _ in range(dim):
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            exps = [0] * (2 * dim)
            for k in draw(st.lists(st.integers(0, 2 * dim - 1), min_size=1,
                                   max_size=3)):
                exps[k] += 1
            terms.append((draw(COEFFS), tuple(exps)))
        polys.append(terms)
    return polynomial_model(dim, polys, radius)


@settings(max_examples=40, deadline=None)
@given(chart_models(), st.data())
def test_batched_scan_equals_the_per_seed_loop(model, data):
    # the scan radius reaches the model radius, so stencils leave the ball
    radius = model.radius * data.draw(st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    fractions = [0.25, 1 / 3, 0.5] if model.dim == 3 else [0.1, 0.125, 0.2, 0.25]
    grid_step = model.radius * data.draw(st.sampled_from(fractions))
    kwargs = dict(newton_iters=data.draw(st.sampled_from([0, 1, 3, 30])),
                  dedup_tol=data.draw(st.sampled_from([1e-6, 1e-2])))
    assert fixed_point_scan(model, radius, grid_step, **kwargs) == \
        reference_fixed_point_scan(model, radius, grid_step, **kwargs)


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
