"""The nine gate criteria, run through the shared verification suite.

Each test pins the tolerance and scope stated in the project gate; the
underlying checks recompute expected values through independent oracles
(definition-based enumeration, full summation, symbolic derivatives).
"""

import ast
import dataclasses
import inspect
import json
import os
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cliffordlab import catalog as cat, cli, suite
from cliffordlab.errors import InternalInconsistency, NotGroup, SchemaError
from cliffordlab.metrics import flat_bowman_data
from cliffordlab.order import LazySemilatticeModel, flat_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# `cliffordlab demo --format tsv` on a passing run: every criterion's title
# and detail, byte for byte.
SUITE_TSV = """\
criterion\ttitle\tstatus\tdetail
1\talgebra soundness\tPASS\t26 instances
2\tspec round trip\tPASS\t9 specs
3\tway-below oracle equivalence\tPASS\t63 posets
4\topenness equivalence sweep\tPASS\t2610 pairs, 227 continuous
5\tseries metric axioms\tPASS\t13 instances
6\tseparation/definiteness linkage\tPASS\t153 pairs + pseudo-metric failure
7\tconvergence dichotomy\tPASS\tschedule of 11 points, d(k=2000) = 5.000000e-04
8\trigidity dichotomy\tPASS\tadditive/affine isolated, min-plus continuum
9\tdeterminism probe\tPASS\ttwo fresh passes byte-identical
"""


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in suite.run_all()}


def _check(results, number, max_seconds):
    r = results[number]
    print(f"[{'PASS' if r.passed else 'FAIL'}] {number}. {r.title} - {r.detail}")
    assert r.passed, r.detail
    assert r.elapsed < max_seconds


def test_criterion_1_algebra_soundness(results):
    _check(results, 1, 5)
    assert "26 instances" in results[1].detail


def test_criterion_2_round_trip(results):
    _check(results, 2, 30)


def test_criterion_3_way_below_equivalence(results):
    _check(results, 3, 30)
    assert "63 posets" in results[3].detail


def test_criterion_4_openness_equivalences(results):
    _check(results, 4, 60)
    assert "continuous" in results[4].detail


def test_criterion_5_metric_axioms(results):
    _check(results, 5, 60)


def test_criterion_6_separation_linkage(results):
    _check(results, 6, 10)


def test_criterion_7_convergence_dichotomy(results):
    _check(results, 7, 30)


def test_criterion_8_rigidity_dichotomy(results):
    _check(results, 8, 60)


def test_criterion_9_determinism(results):
    _check(results, 9, 10)
    # the real bar: two complete fresh runs must serialize byte-identically
    first = suite.machine_report(suite.run_all())
    second = suite.machine_report(suite.run_all())
    assert first == second


def test_the_suite_tsv_is_pinned(results):
    assert suite.machine_report([results[n] for n in range(1, 10)]) == SUITE_TSV


def run_demo(monkeypatch, capsys, results, fmt):
    """(exit code, stdout) of `cliffordlab demo --format fmt` over results."""
    monkeypatch.setattr(suite, "run_all", lambda: list(results))
    code = cli.main(["demo", "--format", fmt])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def test_demo_prints_the_suite_in_each_format(monkeypatch, capsys, results):
    ordered = [results[n] for n in range(1, 10)]
    assert run_demo(monkeypatch, capsys, ordered, "tsv") == (0, SUITE_TSV)
    code, out = run_demo(monkeypatch, capsys, ordered, "text")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "9/9 criteria passed"
    assert [line.split("] ")[1].split(".")[0] for line in lines
            if line.startswith("  [PASS] ")] == [str(n) for n in range(1, 10)]
    code, out = run_demo(monkeypatch, capsys, ordered, "structured")
    assert code == 0 and json.loads(out)["passed"] is True


def test_demo_exits_1_when_a_criterion_fails(monkeypatch, capsys, results):
    ordered = [dataclasses.replace(results[n], passed=n != 4) for n in range(1, 10)]
    code, out = run_demo(monkeypatch, capsys, ordered, "text")
    assert code == 1 and out.splitlines()[-1] == "8/9 criteria passed"
    assert "  [FAIL] 4. openness equivalence sweep (" in out


def test_run_all_numbers_times_and_judges_each_criterion(monkeypatch):
    monkeypatch.setattr(suite, "CRITERIA", (
        lambda: ("a", "x", []),
        lambda: ("b", "y", ["1", "2", "3", "4"]),
    ))
    first, second = suite.run_all()
    assert (first.number, first.title, first.passed, first.detail) == (1, "a", True, "x")
    assert (second.number, second.title, second.passed, second.detail) == \
        (2, "b", False, "y; 1; 2; 3")
    assert first.elapsed >= 0 and second.elapsed >= 0


def reference_run_all():
    """run_all as one serial loop in this process."""
    results = []
    for number, fn in enumerate(suite.CRITERIA, start=1):
        t0 = time.perf_counter()
        title, detail, failures = fn()
        elapsed = time.perf_counter() - t0
        if failures:
            detail += "; " + "; ".join(failures[:3])
        results.append(suite.CriterionResult(number, title, not failures, detail, elapsed))
    return results


def passing(title, detail, failures=()):
    return lambda: (title, detail, list(failures))


def raising(exc):
    def criterion():
        raise exc
    return criterion


def install(monkeypatch, fns):
    """Stand-ins for the nine criteria and no criterion-5 instance for the
    child; the fifth takes the place of criterion 5, which run_all runs in
    this process and passes the child's share, which the stand-in ignores."""
    fifth = fns[4]
    fns = [*fns[:4], lambda elsewhere=None: fifth(), *fns[5:]]
    monkeypatch.setattr(suite, "_metric_instances", dict)
    monkeypatch.setattr(suite, "criterion_metric_axioms", fns[4])
    monkeypatch.setattr(suite, "CRITERIA", tuple(fns))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TSV_ROWS = [line.split("\t") for line in SUITE_TSV.splitlines()[1:]]


@pytest.mark.parametrize("failing", [(), (3, 5)], ids=["passing", "failing"])
def test_run_all_equals_the_serial_loop(monkeypatch, failing):
    install(monkeypatch, [
        passing(title, detail, ["f1", "f2", "f3", "f4"] if int(number) in failing else [])
        for number, title, _, detail in TSV_ROWS])
    got, want = suite.run_all(), reference_run_all()
    assert_no_child_left()
    assert [(r.number, r.title, r.passed, r.detail) for r in got] == \
        [(r.number, r.title, r.passed, r.detail) for r in want]
    assert suite.machine_report(got) == suite.machine_report(want)
    assert (suite.machine_report(got) == SUITE_TSV) == (not failing)
    assert all(r.elapsed >= 0 for r in got)


def test_criterion_5_runs_here_and_the_others_in_one_child(monkeypatch):
    install(monkeypatch, [lambda: ("pid", str(os.getpid()), []) for _ in range(9)])
    pids = [int(r.detail) for r in suite.run_all()]
    assert_no_child_left()
    assert pids[4] == os.getpid()
    assert len(set(pids[:4] + pids[5:])) == 1 and pids[0] != os.getpid()


@pytest.mark.parametrize("raisers, first", [
    ({2: NotGroup("k", "no identity"), 5: SchemaError("body.n", "expected an integer")}, 2),
    ({5: SchemaError("body.n", "expected an integer"), 7: NotGroup("k", "no identity")}, 5),
    ({8: NotGroup("k", "no identity")}, 8),
], ids=["child-first", "parent-first", "child-only"])
def test_run_all_raises_the_first_exception_in_criterion_order(monkeypatch, raisers, first):
    install(monkeypatch, [raising(raisers[n]) if n in raisers else passing("t", "d")
                          for n in range(1, 10)])
    with pytest.raises(type(raisers[first])) as exc:
        suite.run_all()
    assert_no_child_left()
    assert (str(exc.value), vars(exc.value)) == (str(raisers[first]), vars(raisers[first]))


def test_an_exception_from_the_child_is_caused_by_its_traceback_there(monkeypatch):
    install(monkeypatch, [raising(NotGroup("k", "no identity")) if n == 2
                          else passing("t", "d") for n in range(1, 10)])
    with pytest.raises(NotGroup) as exc:
        suite.run_all()
    assert_no_child_left()
    cause = exc.value.__cause__
    assert isinstance(cause, suite._ChildTraceback)
    assert ", in criterion\n    raise exc\n" in str(cause)
    assert str(cause).endswith("NotGroup: not a group at 'k': no identity\n")


def test_an_exception_that_cannot_be_pickled_keeps_its_type_and_message(monkeypatch):
    unpicklable = ValueError("bad value")
    unpicklable.callback = lambda: None
    install(monkeypatch, [raising(unpicklable) if n == 3 else passing("t", "d")
                          for n in range(1, 10)])
    with pytest.raises(InternalInconsistency) as exc:
        suite.run_all()
    assert_no_child_left()
    assert str(exc.value) == "unpicklable ValueError: bad value"
    assert str(exc.value.__cause__).endswith("ValueError: bad value\n")


def test_a_child_that_sends_no_result_is_an_internal_inconsistency(monkeypatch):
    install(monkeypatch, [(lambda: os._exit(3)) if n == 3 else passing("t", "d")
                          for n in range(1, 10)])
    with pytest.raises(InternalInconsistency, match="exit status 3"):
        suite.run_all()
    assert_no_child_left()


PARENT_SHARE = ["flat8-z2-identity", "flat8-z3-identity", "flat8-z3-collapse"]


def test_the_metric_shares_partition_the_instances_the_same_way_each_call():
    instances = suite._metric_instances()
    parent, child = suite._metric_shares(instances)
    assert parent == PARENT_SHARE
    assert sorted(parent + child) == sorted(instances) and len(instances) == 13
    assert child == [name for name in instances if name not in parent]
    assert suite._metric_shares(suite._metric_instances()) == (parent, child)


def test_the_split_criterion_5_equals_the_serial_one(monkeypatch):
    """Oracle mismatches in one instance of each share: flat3-z2-collapse,
    the child's, and flat8-z3-identity, the parent's.  The child's come
    first in the detail, as in the serial loop."""
    oracle = suite.oracle_bowman

    def skewed(data, p, q):
        key = (len(data.emodel.elements()), data.block(0).group.n, data.phi(1, 0, 1))
        skew = key in {(4, 2, 0), (9, 3, 1)} and p == q and p.e == 1
        return oracle(data, p, q) + (1 if skew else 0)

    monkeypatch.setattr(suite, "oracle_bowman", skewed)
    got = suite.run_all()
    assert_no_child_left()
    want = reference_run_all()
    assert [(r.number, r.title, r.passed, r.detail) for r in got] == \
        [(r.number, r.title, r.passed, r.detail) for r in want]
    assert suite.machine_report(got) == suite.machine_report(want)
    assert got[4].detail == (
        "13 instances; flat3-z2-collapse: oracle mismatch at "
        "(Point(e=1, g=0),Point(e=1, g=0)); flat3-z2-collapse: oracle mismatch "
        "at (Point(e=1, g=1),Point(e=1, g=1)); flat8-z3-identity: oracle "
        "mismatch at (Point(e=1, g=0),Point(e=1, g=0))")
    assert [r.number for r in got if not r.passed] == [5]


def test_a_wrong_flat_weight_fails_criterion_5(monkeypatch):
    """The flat gap 1/(b(b+2)) instead of 1/(b(b+1)): the oracle shares the
    weight with the kernel, so only the check by definition catches it."""
    def mutant(self, b, e):
        if b == 0:
            return Fraction(1)
        if e != b:
            return Fraction(0)
        gap = Fraction(1, b * (b + 2)) if b < self.N else Fraction(1, self.N)
        return min(gap, Fraction(1, b * (b - 1))) if b > 1 else gap

    monkeypatch.setattr(LazySemilatticeModel, "a_weight", mutant)
    results = suite.run_all()
    assert_no_child_left()
    assert not results[4].passed
    assert "flat3-z2-identity: weight of 1 at 1 is not its definition" in results[4].detail


def test_a_flat_bonding_of_the_wrong_kind_is_a_failure():
    data = flat_bowman_data(flat_model(3), cat.cyclic_group(2), "identity")
    assert suite.metric_instance_failures("flat3-z2-identity", data) == []
    assert suite.metric_instance_failures("flat3-z2-collapse", data) == [
        f"flat3-z2-collapse: phi_{{{e},0}}(1) is not the bonding kind" for e in (1, 2, 3)]


def with_instance_raisers(monkeypatch, raisers, criteria=None):
    """The real criterion 5 over stand-in instance checks that raise
    raisers[name] or pass, and stand-ins for the other criteria: criteria
    maps a number to the exception that it raises."""
    def check(name, inst):
        if name in raisers:
            raise raisers[name]
        return []

    criteria = criteria or {}
    monkeypatch.setattr(suite, "metric_instance_failures", check)
    monkeypatch.setattr(suite, "CRITERIA", tuple(
        suite.criterion_metric_axioms if n == 5
        else raising(criteria[n]) if n in criteria else passing("t", "d")
        for n in range(1, 10)))


@pytest.mark.parametrize("raisers, criteria, first, from_child", [
    ({"flat3-z3-identity": NotGroup("k", "no identity")},
     {4: SchemaError("body.n", "expected an integer")}, "criterion 4", True),
    ({"flat3-z3-identity": NotGroup("k", "no identity")},
     {6: SchemaError("body.n", "expected an integer")}, "flat3-z3-identity", True),
    ({"flat8-z2-collapse": NotGroup("k", "no identity"),
      "flat8-z3-identity": SchemaError("body.n", "expected an integer")},
     {}, "flat8-z2-collapse", True),
    ({"flat8-z2-identity": NotGroup("k", "no identity"),
      "flat8-z2-collapse": SchemaError("body.n", "expected an integer")},
     {7: NotGroup("k", "no identity")}, "flat8-z2-identity", False),
], ids=["criterion-4-first", "child-share-before-6", "child-instance-first",
        "parent-instance-first"])
def test_an_exception_in_either_share_is_criterion_5s_in_instance_order(
        monkeypatch, raisers, criteria, first, from_child):
    with_instance_raisers(monkeypatch, raisers, criteria)
    want = criteria[4] if first == "criterion 4" else raisers[first]
    with pytest.raises(type(want)) as exc:
        suite.run_all()
    assert_no_child_left()
    assert (str(exc.value), vars(exc.value)) == (str(want), vars(want))
    cause = exc.value.__cause__
    assert isinstance(cause, suite._ChildTraceback) == from_child
    if from_child and first != "criterion 4":
        assert ", in check\n    raise raisers[name]\n" in str(cause)


def test_a_child_that_dies_in_its_share_is_an_internal_inconsistency(monkeypatch):
    with_instance_raisers(monkeypatch, {})
    monkeypatch.setattr(suite, "metric_instance_failures",
                        lambda name, inst: os._exit(4) if name == "two-chain" else [])
    with pytest.raises(InternalInconsistency, match="exit status 4"):
        suite.run_all()
    assert_no_child_left()


def test_criteria_are_the_flat_tuple_the_benchmark_spans_wrap():
    """perfbench/spans.py times each criterion by function name and looks
    only one level into suite.CRITERIA; read its list without importing it."""
    tree = ast.parse(SPANS.read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CRITERIA" for t in node.targets))
    assert isinstance(suite.CRITERIA, tuple)
    assert all(inspect.isfunction(fn) for fn in suite.CRITERIA)
    assert tuple(fn.__name__ for fn in suite.CRITERIA) == names
