"""Lab for local multiplication charts around an idempotent.

A chart model is a map mu: R^n x R^n -> R^n whose coordinate i is the min
of polynomial pieces without constant term; a polynomial coordinate has one
piece.  Every piece is active at the origin, so mu is C1 there exactly when
the pieces of each coordinate share one linear part, and then the partial-
derivative operators L and R are that part, read as exact Fractions.  Exact
arithmetic decides whether L = R =: P is a projection, (2P - I)^2 = I, and
whether the displacement derivative L + R - I is invertible, which isolates
the idempotent.  Damped Newton on f(u) = mu(u, u) from a grid of seeds
confirms the verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import EvaluationOutsideDomain, InternalInconsistency, WorkbenchError


@dataclass
class ChartModel:
    """Local multiplication in chart coordinates, with domain ball radius.

    pieces[i] lists the polynomial pieces of coordinate i, each a list of
    (coefficient, exponent tuple) terms in the 2n variables (u, v); the
    coordinate is their min.  No piece has a nonzero constant term, so every
    piece is active at the origin and mu(0, 0) = 0."""

    dim: int
    pieces: list
    radius: float = 1.0
    name: str = "custom"

    def __post_init__(self):
        self.pieces = [
            [[(float(c), tuple(exps)) for c, exps in piece] for piece in coord]
            for coord in self.pieces
        ]
        if len(self.pieces) != self.dim:
            raise WorkbenchError(f"need {self.dim} coordinates")
        for i, coord in enumerate(self.pieces):
            if not coord:
                raise WorkbenchError(f"coordinate {i} has no piece")
            for p, piece in enumerate(coord):
                where = f"coordinate {i}" + (f" piece {p}" if len(coord) > 1 else "")
                for k, (coeff, exps) in enumerate(piece):
                    if len(exps) != 2 * self.dim:
                        raise WorkbenchError("exponent tuples must have length 2*dim")
                    if not all(e >= 0 and e % 1 == 0 for e in exps):
                        raise WorkbenchError(f"{where} term {k}: exponents {list(exps)} "
                                             "must be non-negative integers")
                    piece[k] = (coeff, tuple(map(int, exps)))
                    if coeff and not any(exps):
                        raise WorkbenchError(
                            f"{where} term {k}: constant term {coeff!r} makes "
                            "mu(0, 0) nonzero")

    def mu(self, u, v) -> np.ndarray:
        """mu on the last axis: for stacks u, v of shape (..., n) the (..., n)
        stack of products, each row rounded exactly as the single-point call
        rounds it."""
        w = np.concatenate([u, v], axis=-1)
        return np.stack([functools.reduce(np.minimum,
                                          (_poly_eval(piece, w) for piece in coord))
                         for coord in self.pieces], axis=-1)

    def evaluate(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.linalg.norm(u) > self.radius + 1e-12 or \
                np.linalg.norm(v) > self.radius + 1e-12:
            raise EvaluationOutsideDomain(
                f"|u|={np.linalg.norm(u):.3g}, |v|={np.linalg.norm(v):.3g} "
                f"exceed radius {self.radius}"
            )
        return np.asarray(self.mu(u, v), dtype=float)


def _power(x, e):
    """x ** e rounded as numpy's scalar power (C pow) rounds it; numpy's
    float array power can differ in the last bit for e >= 2."""
    if e == 1:
        return x
    x = np.asarray(x)
    return np.fromiter((v ** e for v in x.flat), float, x.size).reshape(x.shape)


def _poly_eval(terms, w) -> np.ndarray:
    """One polynomial piece on the last axis of w (shape (..., 2n))."""
    total = np.zeros(w.shape[:-1])
    for coeff, exps in terms:
        prod = coeff
        for k, e in enumerate(exps):
            if e:
                prod = prod * _power(w[..., k], e)
        total = total + prod
    return total


def polynomial_model(dim: int, polynomials, radius: float = 1.0,
                     name: str = "polynomial") -> ChartModel:
    """The chart whose coordinate i is the polynomial polynomials[i]."""
    return ChartModel(dim=dim, pieces=[[coord] for coord in polynomials],
                      radius=radius, name=name)


def _sum_terms(dim: int, i: int, *products) -> list:
    """The terms of u_i + v_i, then one unit term per tuple of slots in
    products: slot k < dim is u_k, slot dim + k is v_k."""
    terms = []
    for slots in [(i,), (dim + i,), *products]:
        exps = [0] * (2 * dim)
        for k in slots:
            exps[k] += 1
        terms.append((1.0, tuple(exps)))
    return terms


def additive_model(dim: int = 2, radius: float = 1.0) -> ChartModel:
    """mu(u, v) = u + v: the chart of a group-like (single-idempotent) point."""
    polys = [_sum_terms(dim, i) for i in range(dim)]
    return polynomial_model(dim, polys, radius, name="additive")


def affine_model(dim: int = 1, radius: float = 1.0) -> ChartModel:
    """mu(u, v) = u + v + u*v coordinatewise; smooth with a second fixed
    point of the squaring map at -1 per coordinate, outside small balls."""
    polys = [_sum_terms(dim, i, (i, dim + i)) for i in range(dim)]
    return polynomial_model(dim, polys, radius, name="affine")


def min_plus_model(radius: float = 1.0) -> ChartModel:
    """mu((e,s),(f,t)) = (min(e,f), s+t): a continuum of idempotents along
    the first axis; not differentiable at the origin."""
    u0, v0 = [(1.0, (1, 0, 0, 0))], [(1.0, (0, 0, 1, 0))]
    return ChartModel(dim=2, pieces=[[u0, v0], [_sum_terms(2, 1)]],
                      radius=radius, name="min-plus")


def discrete_product_model(dim: int = 2, radius: float = 1.0) -> ChartModel:
    """Chart of an isolated idempotent in a product with a discrete factor:
    the first coordinate is killed, the second adds."""
    polys = [[]] + [_sum_terms(dim, i) for i in range(1, dim)]
    return polynomial_model(dim, polys, radius, name="discrete-product")


BUILTIN_MODELS = {
    "additive": additive_model,
    "affine": affine_model,
    "min-plus": lambda dim=2, radius=1.0: min_plus_model(radius),
    "discrete-product": discrete_product_model,
}


@dataclass
class ProbeVerdict:
    differentiable: bool
    worst_mismatch: float


def _linear_part(piece, n: int) -> list:
    """The linear coefficients of a piece at the 2n variables (u, v), as
    Fractions (a float is a dyadic rational, so Fraction(c) is c exactly);
    repeated terms add up."""
    row = [Fraction(0)] * (2 * n)
    for coeff, exps in piece:
        if sum(exps) == 1:
            row[exps.index(1)] += Fraction(coeff)
    return row


def differentiability_probe(model: ChartModel) -> ProbeVerdict:
    """The exact C1 verdict at the origin.  Along axis j of (u, v) the
    one-sided derivatives of coordinate i are the min (forward) and max
    (backward) of its pieces' coefficients at j; their gap is max - min.
    worst_mismatch is the largest Euclidean norm over the 2 dim axes of the
    per-coordinate gaps, and mu is C1 at 0 exactly when every gap is 0."""
    gaps = [[max(col) - min(col) for col in
             zip(*(_linear_part(piece, model.dim) for piece in coord))]
            for coord in model.pieces]
    worst = max(math.hypot(*(_float(row[j]) for row in gaps))
                for j in range(2 * model.dim))
    return ProbeVerdict(differentiable=not any(map(any, gaps)),
                        worst_mismatch=worst)


def _symbolic_parts(model: ChartModel):
    """Exact L and R of a C1 model: the linear part that the pieces of each
    coordinate share, read off the first piece and split at u | v."""
    n = model.dim
    rows = [_linear_part(coord[0], n) for coord in model.pieces]
    return [row[:n] for row in rows], [row[n:] for row in rows]


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _nonsingular(A) -> bool:
    """Whether the square matrix A of Fractions is invertible: exact
    Gaussian elimination, one column at a time."""
    while A:
        pivot = next((row for row in A if row[0]), None)
        if pivot is None:
            return False
        A = [[x - row[0] / pivot[0] * y for x, y in zip(row[1:], pivot[1:])]
             for row in A if row is not pivot]
    return True


def _float(x) -> float:
    """x rounded to a float; a signed infinity beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass
class RigidityReport:
    """The dichotomy check of one chart.  On a C1 chart L, R and the
    displacement derivative DH0 = L + R - I are exact matrices of Fractions
    (lists of rows) and DH0_invertible is decided exactly; off C1 all four
    are None.  The floats are worst_mismatch, the smallest singular value of
    DH0 rounded to floats, and the points of the fixed-point scan."""

    model_name: str
    differentiable_at_origin: bool
    worst_mismatch: float
    prediction: str
    fixed_points_found: list = field(default_factory=list)
    divergent_seeds: int = 0
    L: Optional[list] = None
    R: Optional[list] = None
    DH0: Optional[list] = None
    DH0_invertible: Optional[bool] = None
    smallest_singular_value: Optional[float] = None


def rigidity_report(model: ChartModel, scan_radius: Optional[float] = None,
                    grid_step: float = 0.05, newton_iters: int = 30
                    ) -> RigidityReport:
    """Full dichotomy check of a chart: the exact C1 verdict, then on a C1
    chart its exact parts L and R, the displacement derivative L + R - I
    with its involution identity and the invertibility prediction, all
    decided in Fractions, and the confirming fixed-point scan.  A chart that
    is not C1 at the origin gets the scan, no prediction and None for the
    exact-verdict fields."""
    if scan_radius is None:
        scan_radius = min(0.25, model.radius / 2)
    verdict = differentiability_probe(model)
    rep = RigidityReport(model.name, verdict.differentiable,
                         verdict.worst_mismatch,
                         "not C1 at the idempotent; no prediction")
    if verdict.differentiable:
        L, R = _symbolic_parts(model)
        n = model.dim
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        DH0 = [[l + r - e for l, r, e in zip(*rows)] for rows in zip(L, R, eye)]
        if _matmul(L, L) == L and L == R and _matmul(DH0, DH0) != eye:
            raise InternalInconsistency(
                "L = R is a projection but (L + R - I)^2 != I")
        rep.L, rep.R, rep.DH0 = L, R, DH0
        rep.DH0_invertible = _nonsingular(DH0)
        if L != R:
            rep.prediction = "left and right parts differ; out of theorem scope"
        elif rep.DH0_invertible:
            rep.prediction = "isolated idempotent"
        else:
            rep.prediction = "displacement derivative singular; no isolation claim"
        DH0_floats = np.array([[_float(x) for x in row] for row in DH0])
        if not np.isfinite(DH0_floats).all():
            raise WorkbenchError(
                f"model {model.name}: the displacement derivative has an entry "
                "beyond the float range, so its smallest singular value cannot "
                "be reported")
        rep.smallest_singular_value = float(
            np.linalg.svd(DH0_floats, compute_uv=False)[-1])
    rep.fixed_points_found, rep.divergent_seeds = fixed_point_scan(
        model, scan_radius, grid_step, newton_iters)
    return rep


MAX_GRID_POINTS = 10 ** 6  # seed grid of fixed_point_scan, before the ball filter
_BATCH = 8192              # seeds per Newton batch, to bound memory
_RESIDUAL_TOL = 1e-9       # a seed has converged once |H(u)| is below it
_DEDUP_TOL = 1e-6          # a point this close to a kept one is dropped


def _norms(x) -> np.ndarray:
    """Norms over the last axis, each rounded as np.linalg.norm rounds one
    vector: sqrt of the BLAS dot product.  A sum of squares can differ in
    the last bit and flip the comparisons of the scan."""
    return np.sqrt(np.vecdot(x, x))


def _damped_newton(model: ChartModel, seeds: np.ndarray, radius: float,
                   newton_iters: int):
    """Damped Newton on H(u) = mu(u,u) - u from every row of seeds at once.

    Each row takes exactly the steps a one-seed loop takes: Jacobian by
    central differences (a stencil point outside the model's domain, or a
    Jacobian or residual that is not finite, makes the seed diverge), a
    least-squares step, a line search over t = 2^-k, k < 12, that keeps the
    first candidate in the domain with a smaller residual (a seed whose
    search fails stops), divergence once |u| exceeds 4 * radius.  Returns the converged points inside the scan ball, in seed
    order, and the number of divergent seeds."""
    m, n = seeds.shape
    h = 1e-6  # central-difference step

    def H(x):
        return model.mu(x, x) - x

    u = seeds.copy()
    hu = H(u)
    r = _norms(hu)
    active = np.ones(m, dtype=bool)
    diverged = np.zeros(m, dtype=bool)
    steps = np.eye(n) * h  # row j is the stencil step along axis j
    for _ in range(newton_iters):
        active &= ~(r < _RESIDUAL_TOL)
        rows = np.flatnonzero(active)
        x = u[rows][:, None, :]
        plus, minus = x + steps, x - steps  # (k, n, n): point j of the stencil
        outside = ((_norms(plus) > model.radius + 1e-12) |
                   (_norms(minus) > model.radius + 1e-12)).any(axis=1)
        diverged[rows[outside]] = True
        active[rows[outside]] = False
        rows, plus, minus = rows[~outside], plus[~outside], minus[~outside]
        if not rows.size:
            break
        jac = ((H(plus) - H(minus)) / (2 * h)).transpose(0, 2, 1)
        finite = (np.isfinite(jac).all(axis=(1, 2))
                  & np.isfinite(hu[rows]).all(axis=1))
        diverged[rows[~finite]] = True
        active[rows[~finite]] = False
        rows, jac = rows[finite], jac[finite]
        if not rows.size:
            break
        delta = np.empty((rows.size, n))
        for i, row in enumerate(rows):
            delta[i], *_ = np.linalg.lstsq(jac[i], -hu[row], rcond=None)
        t = np.ones(rows.size)
        searching = np.ones(rows.size, dtype=bool)
        for _ in range(12):
            s = np.flatnonzero(searching)
            if not s.size:
                break
            cand = u[rows[s]] + t[s, None] * delta[s]
            inside = ~(_norms(cand) > model.radius)
            s, cand = s[inside], cand[inside]
            hc = H(cand)
            rc = _norms(hc)
            better = rc < r[rows[s]]
            won = rows[s[better]]
            u[won], hu[won], r[won] = cand[better], hc[better], rc[better]
            searching[s[better]] = False
            t[searching] /= 2
        active[rows[searching]] = False
        stepped = rows[~searching]
        far = stepped[_norms(u[stepped]) > 4 * radius]
        diverged[far] = True
        active[far] = False
    ok = ~diverged & (r < _RESIDUAL_TOL) & (_norms(u) <= radius + 1e-9)
    return u[ok], int(diverged.sum())


def fixed_point_scan(model: ChartModel, radius: float, grid_step: float,
                     newton_iters: int = 30):
    """Damped Newton on H(u) = mu(u,u) - u from the seeds in the ball whose
    coordinates are integer multiples of grid_step, the origin among them.

    Jacobians by central finite differences; singular Jacobians are handled
    by least-squares steps (so continua of fixed points are sampled, not
    fatal).  All seeds run as one batch (see _damped_newton); the points
    are deduplicated in seed order.  Returns (sorted fixed points, number of
    divergent seeds)."""
    if not radius >= 0:  # also rejects nan
        raise WorkbenchError(f"scan radius must be >= 0, got {radius}")
    if newton_iters < 0:
        raise WorkbenchError(f"Newton iterations must be >= 0, got {newton_iters}")
    if radius > model.radius:
        raise WorkbenchError("scan radius exceeds the model's domain ball")
    if not 0 < grid_step < math.inf:
        raise WorkbenchError(
            f"grid step must be positive and finite, got {grid_step}")
    n = model.dim
    per_side = radius / grid_step  # inf for a subnormal step: test it as a float
    if not per_side < MAX_GRID_POINTS or \
            (2 * math.floor(per_side) + 1) ** n > MAX_GRID_POINTS:
        raise WorkbenchError(
            f"grid step {grid_step} makes a seed grid of more than "
            f"{MAX_GRID_POINTS} points in dimension {n}")

    k = math.floor(per_side)
    axes = grid_step * np.arange(-k, k + 1)  # the integer multiples, 0 among them
    # axes ** n in C order, as np.ndindex walks it; column by column, since
    # meshgrid takes at most 32 arrays
    m = len(axes)
    grid = np.column_stack([np.tile(np.repeat(axes, m ** (n - 1 - i)), m ** i)
                            for i in range(n)])
    seeds = grid[_norms(grid) <= radius]

    points, diverged = [np.empty((0, n))], 0
    # an overflowing mu only makes seeds diverge; it is no cause for warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(seeds), _BATCH):
            found, lost = _damped_newton(model, seeds[start:start + _BATCH],
                                         radius, newton_iters)
            points.append(found)
            diverged += lost
    points = np.concatenate(points)
    kept = 0
    for u in points:
        if not (_norms(u - points[:kept]) < _DEDUP_TOL).any():
            points[kept] = u
            kept += 1
    return sorted(map(tuple, points[:kept].tolist())), diverged
