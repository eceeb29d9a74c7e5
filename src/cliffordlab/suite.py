"""The built-in verification suite: one entry per acceptance-style check,
run over the shipped catalog, with a deterministic machine-readable report.

A criterion takes no argument and returns (title, detail, failures): its
title, its detail on a pass and its list of failure messages.  `run_all`
numbers, times and judges each one.

Each criterion recomputes its expected values through an independent route
(full-summation oracles, definition-based enumerations, exhaustive checks)
rather than trusting the code path it exercises.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog as cat
from .charts import (
    additive_model,
    affine_model,
    min_plus_model,
    rigidity_report,
    _symbolic_parts,
)
from .core import classify, green_j_classes, is_semilattice, pi_and_subgroups
from .errors import InternalInconsistency
from .metrics import (
    CONVERGENCE_SCHEDULE,
    FlatMetricData,
    Point,
    bowman_data_from_spec,
    bowman_distance,
    disjoint_union_distance,
    extended_bonding,
    flat_bowman_data,
    metric_axiom_suite,
    separation_witness,
)
from .order import flat_model, validate_poset, way_below_by_definition
from .semilattice import assemble, decompose, iso_equivalent
from .topology import (
    TopologicalSemigroupModel,
    all_topologies,
    continuity_check,
    order_graph_closed,
    prop34_equivalences,
)

RANDOM_SEED = 20260823


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed: float


def criterion_algebra():
    """Classification soundness over the whole catalog."""
    instances = cat.semigroup_catalog()
    failures = [] if len(instances) >= 15 else ["fewer than 15 instances"]
    for name, S in instances.items():
        c = classify(S)  # raises if the two Clifford criteria disagree
        if c.is_inverse:
            inv = c.inverse.inv
            for x in S.elements():
                for y in S.elements():
                    if inv[S.mul(x, y)] != S.mul(inv[y], inv[x]):
                        failures.append(f"{name}: (xy)^-1 != y^-1 x^-1 at ({x},{y})")
            # product characterization of groups, computed independently
            via_e = len(c.idempotents) == 1
            via_product = all(
                S.mul(S.mul(x, y), inv[y]) == x
                for x in S.elements()
                for y in S.elements()
            )
            if not (c.is_group == via_e == via_product):
                failures.append(f"{name}: group criteria disagree")
            if (c.is_left_cancellative or c.is_right_cancellative) and not c.is_group:
                failures.append(f"{name}: cancellative inverse semigroup not a group")
    return "algebra soundness", f"{len(instances)} instances", failures


def criterion_round_trip():
    failures = []
    specs = cat.spec_catalog()
    for name, spec in specs.items():
        A = assemble(spec)
        A2 = assemble(decompose(A.semigroup))
        if iso_equivalent(A.semigroup, A2.semigroup) is None:
            failures.append(f"{name}: round trip not isomorphic")
        _, groups = pi_and_subgroups(A.semigroup)
        if sorted(green_j_classes(A.semigroup)) != sorted(
            tuple(g) for g in groups.values()
        ):
            failures.append(f"{name}: J-classes differ from group fibers")
    return "spec round trip", f"{len(specs)} specs", failures


def _poset_family():
    def chain(n):
        return validate_poset([[i <= j for j in range(n)] for i in range(n)])

    def antichain_bottom(k):
        return validate_poset(
            [[i == j or i == 0 for j in range(k + 1)] for i in range(k + 1)]
        )

    def boolean(bits):
        n = 1 << bits
        return validate_poset([[(i & j) == i for j in range(n)] for i in range(n)])

    fam = [chain(n) for n in range(1, 7)]
    fam += [antichain_bottom(k) for k in range(1, 6)]
    fam += [boolean(b) for b in (1, 2)]
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        n = rng.randint(1, 6)
        rel = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    rel[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        fam.append(validate_poset(rel))
    return fam


def criterion_way_below():
    failures = []
    fam = _poset_family()
    for idx, P in enumerate(fam):
        for x in P.elements():
            for y in P.elements():
                if P.le(x, y) != way_below_by_definition(P, x, y):
                    failures.append(f"poset {idx}: disagreement at ({x},{y})")
    return "way-below oracle equivalence", f"{len(fam)} posets", failures


def criterion_openness():
    failures = []
    cliffords = {
        name: S
        for name, S in cat.semigroup_catalog().items()
        if S.n <= 4 and classify(S).is_clifford
    }
    pairs = continuous = 0
    for n in (1, 2, 3, 4):
        members = [(name, S) for name, S in cliffords.items() if S.n == n]
        for T in all_topologies(n):
            for name, S in members:
                pairs += 1
                model = TopologicalSemigroupModel(S, T)
                ok, _ = continuity_check(model)
                if not ok:
                    continue
                continuous += 1
                rec = prop34_equivalences(model)
                if not rec.all_equal():
                    failures.append(f"{name}: openness conditions diverge")
                j_open = all(
                    frozenset(c) in T.opens for c in green_j_classes(S)
                )
                if rec.mp != j_open:
                    failures.append(f"{name}: MP and open J-classes disagree")
                if is_semilattice(S):
                    closed, hd = order_graph_closed(model)
                    if closed != hd:
                        failures.append(f"{name}: order-graph/Hausdorff disagree")
    return ("openness equivalence sweep", f"{pairs} pairs, {continuous} continuous",
            failures)


def two_chain_reference_data():
    """The order-3 reference model: E = {0 < 1}, G_1 = Z2, G_0 trivial,
    rho(0,1) = 1, 0/1-valued group metrics."""
    spec = cat.spec_catalog()["chain2-z2-trivial"]
    return bowman_data_from_spec(spec, [[0, 1], [1, 0]])


def oracle_bowman(data, p, q) -> Fraction:
    """Independent full-summation oracle for the series metric: everything
    re-expanded term by term with no shortcuts or cached weights."""
    total = data.emodel.rho(p.e, q.e)
    for j, b in enumerate(data.basis, start=1):
        ae = data.emodel.a_weight(b, p.e)
        af = data.emodel.a_weight(b, q.e)
        blk = data.block(b)
        gb = extended_bonding(data, p.e, b, p.g)
        hb = extended_bonding(data, q.e, b, q.g)
        term = abs(ae - af)
        for k, t in enumerate(blk.enumeration, start=1):
            term += Fraction(1, 2 ** k) * abs(
                ae * blk.d[gb][t] - af * blk.d[hb][t]
            )
        total += Fraction(1, 2 ** j) * term
    return total


def _metric_instances():
    out = {"two-chain": two_chain_reference_data()}
    for N in (3, 5, 8):
        for gname, fiber in (("z2", cat.cyclic_group(2)), ("z3", cat.cyclic_group(3))):
            for kind in ("identity", "collapse"):
                out[f"flat{N}-{gname}-{kind}"] = flat_bowman_data(
                    flat_model(N), fiber, kind
                )
    return out


def weight_by_definition(M, b, e) -> Fraction:
    """The weight a_b(e) read off the E-model's le, rho and elements alone:
    1 when b is the minimum, else min over x with not b <= x of rho(e, x)."""
    if all(M.le(b, x) for x in M.elements()):
        return Fraction(1)
    return min(M.rho(e, x) for x in M.elements() if not M.le(b, x))


def metric_instance_failures(name, inst) -> list:
    """Criterion 5 on one instance: the kernel against the full-summation
    oracle at every pair, the [0,3] range, the metric axioms, 1-Lipschitz
    weights equal to their definition and, on flat data, the bonding maps
    of the kind its name ends in."""
    failures = []
    points = inst.points()
    dist = {}
    for p in points:
        for q in points:
            v = bowman_distance(inst, p, q).value
            dist[(p, q)] = v
            if oracle_bowman(inst, p, q) != v:
                failures.append(f"{name}: oracle mismatch at ({p},{q})")
            if not (0 <= v <= 3):
                failures.append(f"{name}: d out of [0,3] at ({p},{q})")
    rep = metric_axiom_suite(lambda p, q: dist[(p, q)], points)
    if not rep.passed:
        failures.append(f"{name}: metric axioms fail")
    M = inst.emodel
    for b in inst.basis:
        for e in M.elements():
            if M.a_weight(b, e) != weight_by_definition(M, b, e):
                failures.append(f"{name}: weight of {b} at {e} is not its definition")
            for f in M.elements():
                if abs(M.a_weight(b, e) - M.a_weight(b, f)) > M.rho(e, f):
                    failures.append(f"{name}: weight not 1-Lipschitz")
    if isinstance(inst, FlatMetricData):
        collapse = name.endswith("-collapse")
        for e in M.elements():
            G = inst.block(e).group
            unit = next(u for u in G.elements()
                        if all(G.mul(u, x) == x for x in G.elements()))
            for b in M.elements():
                if M.le(b, e):
                    for g in G.elements():
                        if inst.phi(e, b, g) != (unit if collapse and b != e else g):
                            failures.append(f"{name}: phi_{{{e},{b}}}({g}) "
                                            f"is not the bonding kind")
    return failures


def _metric_head(instances):
    """Criterion 5's title and detail, and the failures of its two reference
    values on the two-chain instance."""
    failures = []
    data = instances["two-chain"]
    pa, pb, pz = Point(1, 0), Point(1, 1), Point(0, 0)
    if bowman_distance(data, pa, pb).value != Fraction(3, 16):
        failures.append("reference d((1,a),(1,b)) != 3/16")
    if bowman_distance(data, pa, pz).value != Fraction(21, 16):
        failures.append("reference d((1,a),(0,z)) != 21/16")
    return "series metric axioms", f"{len(instances)} instances", failures


def criterion_metric_axioms():
    """The two reference values, then every instance through
    `metric_instance_failures`; run_all checks each part as a unit."""
    instances = _metric_instances()
    title, detail, failures = _metric_head(instances)
    for name, inst in instances.items():
        failures += metric_instance_failures(name, inst)
    return title, detail, failures


def eta_injective_on_data(data, e):
    """Injectivity of g -> (phi_{e,b}(g)) over the basis elements way-below
    e, straight from the definition."""
    D = [b for b in data.basis if data.emodel.le(b, e)]
    seen = {}
    for g in data.block(e).group.elements():
        key = tuple(data.phi(e, b, g) for b in D)
        if key in seen:
            return False, (seen[key], g)
        seen[key] = g
    return True, None


def truncated_pseudo_instance():
    """2-chain with Z2 over Z2, collapse bonding, basis cut down to the
    minimum: the bonding tuple map cannot separate the top group."""
    spec = cat.spec_catalog()["chain2-z2-z2-collapse"]
    return bowman_data_from_spec(spec, [[0, 1], [1, 0]], basis=(0,), pseudo=True)


def criterion_separation():
    failures = []
    checked = 0
    for name, inst in _metric_instances().items():
        for e in inst.emodel.elements():
            injective, _ = eta_injective_on_data(inst, e)
            group = inst.block(e).group
            for g in group.elements():
                for h in group.elements():
                    if g >= h:
                        continue
                    checked += 1
                    d = bowman_distance(inst, Point(e, g), Point(e, h)).value
                    if injective:
                        if d <= 0:
                            failures.append(f"{name}: zero distance at e={e}")
                        b = separation_witness(inst, e, g, h)
                        if b is None or not inst.emodel.le(b, e):
                            failures.append(f"{name}: no separating witness at e={e}")
                    elif d > 0:
                        failures.append(f"{name}: unexpected separation at e={e}")
    pseudo = truncated_pseudo_instance()
    injective, witness = eta_injective_on_data(pseudo, 1)
    if injective:
        failures.append("pseudo instance: eta unexpectedly injective")
    d = bowman_distance(pseudo, Point(1, 0), Point(1, 1)).value
    if d != 0:
        failures.append("pseudo instance: truncated metric still separates")
    if separation_witness(pseudo, 1, 0, 1) is not None:
        failures.append("pseudo instance: witness should not exist")
    return ("separation/definiteness linkage",
            f"{checked} pairs + pseudo-metric failure", failures)


def convergence_instance():
    return flat_bowman_data(flat_model(2000), cat.cyclic_group(2), "identity")


def criterion_convergence():
    failures = []
    data = convergence_instance()
    limit = Point(0, 0)
    for k in CONVERGENCE_SCHEDULE:
        p = Point(k, 0)  # the point 1/k sits at index k
        bv = bowman_distance(data, p, limit)
        j_k = k + 1  # position of 1/k in the basis enumeration (1-based)
        bound = Fraction(1, k) + Fraction(2) ** (1 - j_k + 1)
        if bv.value > bound:
            failures.append(f"k={k}: distance {bv.value} exceeds bound {bound}")
        if disjoint_union_distance(data, p, limit) != 1:
            failures.append(f"k={k}: disjoint-union distance not 1")
    final = bowman_distance(data, Point(2000, 0), limit).value
    if final >= Fraction(1, 1000):
        failures.append(f"k=2000: distance {final} not below 1e-3")
    return ("convergence dichotomy",
            f"schedule of {len(CONVERGENCE_SCHEDULE)} points, "
            f"d(k=2000) = {float(final):.6e}", failures)


def oracle_chart_parts(model):
    """L and R by plain central differences of evaluate at the origin: the
    independent check of the exact parts that the rigidity verdict reads."""
    h = 1e-4
    z = np.zeros(model.dim)
    steps = np.eye(model.dim) * h
    return (np.column_stack([(model.evaluate(w, z) - model.evaluate(-w, z)) / (2 * h)
                             for w in steps]),
            np.column_stack([(model.evaluate(z, w) - model.evaluate(z, -w)) / (2 * h)
                             for w in steps]))


def oracle_one_sided_gap(model):
    """The largest gap over the 2n axes w of (u, v) between the one-sided
    difference quotients of evaluate at the origin, |mu(t w) + mu(-t w)| / t:
    the independent check of the exact mismatch that the C1 verdict reads."""
    t = 1e-6
    n = model.dim
    return max(float(np.linalg.norm(model.evaluate(t * w[:n], t * w[n:])
                                    + model.evaluate(-t * w[:n], -t * w[n:]))) / t
               for w in np.eye(2 * n))


def criterion_rigidity():
    failures = []
    reports = [(model, rigidity_report(model, scan_radius=0.25, grid_step=0.01,
                                       newton_iters=30))
               for model in (additive_model(2), affine_model(1), min_plus_model())]
    for model, rep in reports:
        gap = oracle_one_sided_gap(model)
        if abs(rep.worst_mismatch - gap) > 1e-5:
            failures.append(f"{model.name}: mismatch {rep.worst_mismatch:.3g}, "
                            f"one-sided gap {gap:.3g}")
    for model, rep in reports[:2]:
        if not rep.differentiable_at_origin:
            failures.append(f"{model.name}: probe failed")
            continue
        if rep.smallest_singular_value < 0.9:
            failures.append(f"{model.name}: smallest singular value "
                            f"{rep.smallest_singular_value:.3g}")
        if len(rep.fixed_points_found) != 1:
            failures.append(f"{model.name}: {len(rep.fixed_points_found)} fixed points")
    mp = reports[2][1]
    if mp.differentiable_at_origin:
        failures.append("min-plus: not flagged non-differentiable")
    if mp.worst_mismatch < 0.5:
        failures.append(f"min-plus: mismatch {mp.worst_mismatch:.3g} < 0.5")
    axis = [p for p in mp.fixed_points_found if abs(p[1]) < 1e-9]
    if len(axis) < 10:
        failures.append(f"min-plus: only {len(axis)} fixed points on the axis")
    for model in (additive_model(2), affine_model(1), affine_model(2)):
        L, R = oracle_chart_parts(model)
        Ls, Rs = (np.array(P, dtype=float) for P in _symbolic_parts(model))
        gap = max(float(np.linalg.norm(L - Ls)), float(np.linalg.norm(R - Rs)))
        if gap > 1e-6:
            failures.append(f"{model.name}: Jacobian off symbolic by {gap:.3g}")
    return ("rigidity dichotomy", "additive/affine isolated, min-plus continuum",
            failures)


def criterion_determinism():
    """Two fresh passes over representative exact computations must agree
    byte for byte (the CLI-level check reruns the whole suite)."""

    def snapshot():
        data = two_chain_reference_data()
        lines = []
        for p in data.points():
            for q in data.points():
                lines.append(f"{p.e},{p.g}\t{q.e},{q.g}\t"
                             f"{bowman_distance(data, p, q).value}")
        for name, S in cat.semigroup_catalog().items():
            c = classify(S)
            lines.append(f"{name}\t{c.is_inverse}\t{c.is_clifford}\t{c.is_group}")
        return "\n".join(lines)

    return ("determinism probe", "two fresh passes byte-identical",
            [] if snapshot() == snapshot() else ["outputs differ"])


CRITERIA = (
    criterion_algebra,
    criterion_round_trip,
    criterion_way_below,
    criterion_openness,
    criterion_metric_axioms,
    criterion_separation,
    criterion_convergence,
    criterion_rigidity,
    criterion_determinism,
)


# Static costs in the currency of criterion 5's instances (about 11 us each on
# a 2-core VM); the other whole criteria take a few ms and count as 0.
CRITERION_COSTS = {3: 10000, 4: 1300, 8: 6000}


def _units() -> list:
    """run_all's units in (criterion, unit) order as (number, name, cost,
    call).  A criterion is one unit, except criterion 5: its head, then each
    instance, costing points^2 x basis length x fibre order, the oracle's
    work."""
    units = []
    for number, fn in enumerate(CRITERIA, start=1):
        if fn is not criterion_metric_axioms:  # looked up now: a tracer may wrap it
            units.append((number, fn.__name__, CRITERION_COSTS.get(number, 0), fn))
            continue
        instances = _metric_instances()
        units.append((number, "reference values", 0,
                      functools.partial(_metric_head, instances)))
        for name, inst in instances.items():
            fibre = max(inst.block(e).group.n for e in inst.emodel.elements())
            cost = len(inst.points()) ** 2 * len(inst.basis) * fibre
            units.append((number, name, cost,
                          functools.partial(metric_instance_failures, name, inst)))
    return units


def _deal(costs):
    """Graham's list scheduling, largest first, onto two processes: by
    decreasing cost, ties in list order, each unit goes to the side holding
    less cost so far, the first on a tie.  Returns each side's indices,
    ascending; the heavier holds at most (total + largest) / 2."""
    sides, held = ([], []), [0, 0]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        side = int(held[1] < held[0])
        sides[side].append(i)
        held[side] += costs[i]
    return sorted(sides[0]), sorted(sides[1])


def _outcome(call):
    """(value, seconds) of one unit, or the exception it raised."""
    t0 = time.perf_counter()
    try:
        value = call()
    except Exception as exc:
        return exc
    return value, time.perf_counter() - t0


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in run_all's child."""


def _sendable(outcome):
    """An outcome as the child pipes it: an exception as the pair (exception,
    formatted traceback), replaced by an InternalInconsistency that names
    its type and message if it does not survive pickle."""
    if not isinstance(outcome, Exception):
        return outcome
    text = "".join(traceback.format_exception(outcome))
    try:
        pickle.loads(pickle.dumps(outcome))
    except Exception:
        outcome = InternalInconsistency(f"unpicklable {type(outcome).__name__}: {outcome}")
    return outcome, text


def _received(outcome):
    """An outcome of either process, raised if it is an exception: the
    child's as the pair of `_sendable`, caused by its traceback there."""
    if isinstance(outcome, Exception):
        raise outcome
    if isinstance(outcome, tuple) and isinstance(outcome[0], Exception):
        raise outcome[0] from _ChildTraceback(outcome[1])
    return outcome


def run_all() -> list:
    """Run every criterion and number, judge and return each one.

    `_deal` splits the `_units` by static cost between this process and one
    forked child, which pipes back {unit: outcome}.  Outcomes merge in
    (criterion, unit) order: a criterion's seconds are the sum of its units'
    in whichever process ran them, and the first exception in that order is
    raised, whichever process raised it."""
    units = _units()
    here, there = _deal([cost for _, _, cost, _ in units])
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            theirs = {i: _sendable(_outcome(units[i][3])) for i in there}
            with open(write_end, "wb") as pipe:
                pickle.dump(theirs, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            outcomes = {i: _outcome(units[i][3]) for i in here}
            payload = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise InternalInconsistency(
            f"the criteria child ended with exit status {code} and sent no result")
    outcomes.update(pickle.loads(payload))
    results = []
    for number, group in itertools.groupby(range(len(units)), key=lambda i: units[i][0]):
        (title, detail, failures), elapsed = _received(outcomes[next(group)])
        for i in group:
            more, seconds = _received(outcomes[i])
            failures, elapsed = failures + more, elapsed + seconds
        if failures:
            detail += "; " + "; ".join(failures[:3])
        results.append(CriterionResult(number, title, not failures, detail, elapsed))
    return results


def machine_report(results) -> str:
    """Deterministic TSV (no timings): number, title, PASS/FAIL, detail."""
    lines = ["criterion\ttitle\tstatus\tdetail"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.number}\t{r.title}\t{status}\t{r.detail}")
    return "\n".join(lines) + "\n"


def human_report(results) -> str:
    lines = ["verification suite over the built-in catalog", ""]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.number}. {r.title} "
                     f"({r.elapsed:.2f}s) - {r.detail}")
    lines.append("")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"
