"""Golden outputs of the command-line front end.

Every case runs `cliffordlab.cli.main` in process, once per output channel
(text, tsv, structured), and compares the exit code and every stdout byte
with the files under tests/golden/.  `demo` is left out: its text channel
prints timings, and its TSV channel is pinned by the acceptance tests.

After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_goldens.py
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

import pytest

from cliffordlab import documents as docs
from cliffordlab.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

SHIPPED = ("additive.chart", "chain3.poset", "flat3.metric", "minplus.chart",
           "sierpinski.topology", "twochain.metric", "twochain.spec",
           "z2.cayley")


def beside(name):
    """An input document kept beside the goldens, by its path."""
    return str(GOLDEN / f"{name}.json")


# case name -> (argv, exit code)
CASES = {
    **{f"validate-{name}": (["validate", name], 0) for name in SHIPPED},
    "classify-z2": (["classify", "z2.cayley"], 0),
    "decompose-z2": (["decompose", "z2.cayley"], 0),
    "j-classes-z2": (["j-classes", "z2.cayley"], 0),
    "trivial-check-z2": (["trivial-check", "z2.cayley"], 0),
    "assemble-twochain": (["assemble", "twochain.spec"], 0),
    "product-chain2-z2": (["product", beside("chain2.cayley"), "z2.cayley"], 0),
    "way-below-chain3": (["way-below", "chain3.poset"], 0),
    "basis-check-chain3": (["basis-check", "chain3.poset", "--basis", "0,1,2"], 0),
    "topo-check-sierpinski": (["topo-check", "sierpinski.topology"], 0),
    # Brandt B2 is inverse and not Clifford: the products fail at {0} here,
    "topo-check-b2-zero-open": (["topo-check", beside("b2-zero-open.topology")], 1),
    # and pass here, which makes the inversion continuous too
    "topo-check-b2-units-discrete": (["topo-check",
                                      beside("b2-units-discrete.topology")], 0),
    # NotAssociative: exit 1, nothing on stdout
    "validate-z4-broken": (["validate", beside("z4-broken.cayley")], 1),
    "basic-set-inf": (["basic-set", "twochain.spec", "--u", "0,1", "--v", "0"], 0),
    "basic-set-e1": (["basic-set", "twochain.spec", "--u", "0,1", "--v", "0",
                      "--e", "1"], 0),
    "metric-eval-bowman": (["metric-eval", "bowman", "twochain.metric",
                            "--p", "1,a", "--q", "1,b"], 0),
    "metric-eval-disjoint": (["metric-eval", "disjoint", "twochain.metric",
                              "--p", "1,a", "--q", "0,z"], 0),
    # the collapse bonding is no isometry: exit 1, nothing on stdout
    "metric-eval-yeager": (["metric-eval", "yeager", "twochain.metric",
                            "--p", "1,a", "--q", "1,b"], 1),
    "metric-eval-yeager-identity": (["metric-eval", "yeager",
                                     beside("chain2-identity.metric"),
                                     "--p", "1,g1", "--q", "0,g0"], 0),
    "metric-eval-yeager-flat3": (["metric-eval", "yeager", "flat3.metric",
                                  "--p", "1,1", "--q", "0,0"], 0),
    "metric-suite-flat3": (["metric-suite", "flat3.metric"], 0),
    "metric-suite-twochain": (["metric-suite", "twochain.metric"], 0),
    "converge-flat3": (["converge", "flat3.metric", "--ks", "1,2,3"], 0),
    "c1-probe-additive": (["c1-probe", "additive.chart"], 0),
    "c1-probe-minplus": (["c1-probe", "minplus.chart", "--scan", "0.5"], 0),
}

FORMATS = {"text": "txt", "tsv": "tsv", "structured": "json"}


def run(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    return code, out.getvalue()


def golden_path(case, fmt):
    return GOLDEN / f"{case}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_golden(case, fmt):
    argv, expected_code = CASES[case]
    code, out = run(argv, fmt)
    assert code == expected_code
    assert out == golden_path(case, fmt).read_text(encoding="utf-8")


def test_every_subcommand_but_demo_has_a_golden_case():
    parser = build_parser()
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    covered = {argv[0] for argv, _ in CASES.values()}
    assert set(sub.choices) - covered == {"demo"}


def test_validate_accepts_a_shipped_document_of_every_kind():
    kinds = set()
    for name in SHIPPED:
        code, out = run(["validate", name], "structured")
        assert code == 0
        kinds.add(json.loads(out)["kind"])
    assert kinds == set(docs.KINDS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (argv, expected_code) in CASES.items():
        for fmt in FORMATS:
            code, out = run(argv, fmt)
            if code != expected_code:
                sys.exit(f"{case} --format {fmt}: exit {code}, "
                         f"expected {expected_code}")
            golden_path(case, fmt).write_text(out, encoding="utf-8")
