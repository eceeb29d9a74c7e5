"""Document parsing, shipped example files, and the command-line front end."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cliffordlab import catalog as cat
from cliffordlab import documents as docs
from cliffordlab.cli import _parse_ints, main
from cliffordlab.errors import NotHomomorphism, SchemaError


def shipped_files():
    base = resources.files("cliffordlab") / "data"
    return sorted(entry.name for entry in base.iterdir()
                  if entry.name.endswith(".json"))


def read_shipped(name):
    return (resources.files("cliffordlab") / "data" / name).read_text()


def test_catalog_ships_one_example_per_kind():
    kinds = {docs.parse_document(read_shipped(f)).kind for f in shipped_files()}
    assert kinds == set(docs.KINDS)


def test_every_shipped_file_round_trips():
    for name in shipped_files():
        text = read_shipped(name)
        doc = docs.parse_document(text)
        again = docs.parse_document(docs.serialize_document(doc))
        assert again == doc, name


def test_unknown_field_rejected_with_path():
    raw = json.loads(read_shipped("z2.cayley.json"))
    raw["body"]["surprise"] = 1
    with pytest.raises(SchemaError) as exc:
        docs.parse_document(json.dumps(raw))
    assert "surprise" in str(exc.value)


def test_truncated_file_reports_position():
    text = read_shipped("z2.cayley.json")
    with pytest.raises(SchemaError) as exc:
        docs.parse_document(text[: len(text) // 2])
    assert "line" in str(exc.value)


def test_unknown_kind_rejected():
    raw = json.loads(read_shipped("z2.cayley.json"))
    raw["kind"] = "mystery"
    with pytest.raises(SchemaError):
        docs.parse_document(json.dumps(raw))


@pytest.mark.parametrize("kind", [["cayley"], {"cayley": 1}, None])
def test_a_kind_that_is_no_string_is_an_unknown_kind(kind):
    raw = json.loads(read_shipped("z2.cayley.json"))
    raw["kind"] = kind
    with pytest.raises(SchemaError) as exc:
        docs.parse_document(json.dumps(raw))
    assert str(exc.value) == (
        f"$.kind: unknown kind {kind!r}; have ('cayley', 'spec', 'poset', "
        "'topology-model', 'metric-data', 'chart-model')")


def test_broken_bonding_parses_but_fails_to_build():
    # shape-valid spec whose bonding is not a homomorphism: parsing is
    # strictly syntactic, the algebra check fires in the builder
    raw = json.loads(read_shipped("twochain.spec.json"))
    raw["body"]["groups"]["0"] = {"n": 2, "table": [[0, 1], [1, 0]]}
    raw["body"]["bonding"]["1->0"] = [0, 1]
    doc = docs.parse_document(json.dumps(raw))
    bad = dict(doc.body)
    bad["bonding"] = {"1->0": [1, 0]}  # does not send identity to identity
    broken = docs.WorkbenchDocument(doc.kind, doc.name, doc.description, bad)
    with pytest.raises(NotHomomorphism):
        docs.build_spec(broken)


def test_rational_encoding():
    from fractions import Fraction

    assert docs.parse_rational("3/16", "x") == Fraction(3, 16)
    assert docs.format_rational(Fraction(21, 16)) == "21/16"
    assert docs.format_rational(Fraction(2)) == "2"
    with pytest.raises(SchemaError):
        docs.parse_rational("1/0", "x")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_classify_z2(capsys):
    code, out = run_cli(capsys, "classify", "z2.cayley")
    assert code == 0
    assert out.splitlines()[0] == (
        "inverse, clifford, group, left-cancellative, right-cancellative"
    )


def test_cli_metric_eval_reference_values(capsys):
    code, out = run_cli(capsys, "metric-eval", "bowman", "twochain.metric",
                        "--p", "1,a", "--q", "1,b")
    assert code == 0 and out == "3/16 (tail 0)\n"
    code, out = run_cli(capsys, "metric-eval", "bowman", "twochain.metric",
                        "--p", "1,a", "--q", "0,z")
    assert code == 0 and out == "21/16 (tail 0)\n"


def test_cli_c1_probe_min_plus(capsys):
    code, out = run_cli(capsys, "c1-probe", "minplus.chart", "--scan", "0.5")
    assert code == 0
    assert "NOT C1 at idempotent" in out
    assert "continuum" in out


def test_cli_c1_probe_on_a_chart_of_dimension_33(capsys, tmp_path):
    path = tmp_path / "big.chart.json"
    path.write_text(json.dumps({"kind": "chart-model", "meta": {"name": "big"},
                                "body": {"builtin": "additive", "dim": 33}}))
    code, out = run_cli(capsys, "c1-probe", str(path), "--grid", "1")
    assert code == 0
    assert "isolated idempotent" in out


def test_cli_validate_every_shipped_file(capsys):
    for name in shipped_files():
        code, out = run_cli(capsys, "validate", name)
        assert code == 0 and "valid" in out, name


def test_cli_missing_file_is_an_error(capsys):
    code = main(["classify", "no-such-file.cayley"])
    err = capsys.readouterr().err
    assert code == 1 and "no such document" in err


def test_a_too_deeply_nested_document_is_a_schema_error_at_the_root(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(SchemaError) as exc:
        docs.parse_document("[" * 100000)
    assert exc.value.path == "$"
    err = cli_error(capsys, "classify", str(path))
    assert err == "error: $: arrays or objects nested too deeply\n"


def test_an_integer_past_the_digit_limit_is_a_schema_error_at_the_root(capsys, tmp_path):
    raw = json.loads(read_shipped("twochain.spec.json"))
    text = json.dumps(raw).replace('"body": {', '"body": {"n": ' + "1" * 5000 + ", ", 1)
    path = tmp_path / "digits.spec.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as exc:
        docs.parse_document(text)
    assert exc.value.path == "$"
    err = cli_error(capsys, "classify", str(path))
    assert err == (f"error: $: an integer literal has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


def test_a_file_that_is_not_utf8_is_an_error_naming_the_path(capsys, tmp_path):
    path = tmp_path / "bytes.cayley.json"
    path.write_bytes(b"\xff\xfe{")
    err = cli_error(capsys, "classify", str(path))
    assert err == f"error: cannot read {path}: not UTF-8 text at byte 0\n"


def test_a_directory_is_an_error_naming_the_path(capsys, tmp_path):
    err = cli_error(capsys, "classify", str(tmp_path))
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_cli_structured_output_is_json(capsys):
    code, out = run_cli(capsys, "classify", "z2.cayley",
                        "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] is True


def test_cli_way_below_tsv(capsys):
    code, out = run_cli(capsys, "way-below", "chain3.poset", "--format", "tsv")
    assert code == 0
    rows = [tuple(line.split("\t")) for line in out.splitlines()]
    assert rows[0] == ("x", "y")
    assert ("0", "2") in rows


def test_cli_topo_check_sierpinski(capsys):
    code, out = run_cli(capsys, "topo-check", "sierpinski.topology",
                        "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["continuous"] is True
    assert payload["mp"] is False and payload["hausdorff"] is False


def test_cli_trivial_check_prints_the_images_of_theta(capsys, tmp_path):
    # E = {0 < 1} times Z3: G_0 is 0,1,2 and G_3 is 3,4,5, and theta_3 maps
    # 3,4,5 onto the reference group G_0
    table = [list(row) for row in cat.semigroup_catalog()["chain2-x-z3"].table]
    doc = {"kind": "cayley", "meta": {"name": "chain2-x-z3"},
           "body": {"n": 6, "table": table}}
    path = tmp_path / "chain2-x-z3.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "trivial-check", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["  theta at idempotent 0: 0,1,2",
                                    "  theta at idempotent 3: 0,1,2"]
    code, out = run_cli(capsys, "trivial-check", str(path), "--format", "structured")
    assert json.loads(out)["theta"] == {"0": [0, 1, 2], "3": [0, 1, 2]}


def test_cli_converge_tsv_is_deterministic(capsys):
    args = ("converge", "flat3.metric", "--ks", "1,2,3", "--format", "tsv")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert first.splitlines()[0].startswith("k\tdistance")


def test_cli_topo_check_non_semilattice_model(capsys, tmp_path):
    # Z2 with the discrete topology: continuous, Clifford, no order graph
    doc = {"kind": "topology-model", "meta": {"name": "z2-discrete"},
           "body": {"semigroup": {"n": 2, "table": [[0, 1], [1, 0]]},
                    "opens": [[], [0], [1], [0, 1]]}}
    path = tmp_path / "z2-discrete.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "topo-check", str(path), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["continuous"] is True and payload["mp-check"] is True
    assert "order-graph-closed" not in payload and "hausdorff" not in payload


@pytest.mark.parametrize("opens", [[[], [0], [1], [0, 1]], [[], [0, 1]]],
                         ids=["discrete", "indiscrete"])
def test_cli_topo_check_of_a_continuous_model_that_is_not_clifford(
        capsys, tmp_path, opens):
    # the left-zero semigroup xy = x: continuous under any topology, one
    # J-class, and no maximal subgroups to test for openness
    path = write_changed(tmp_path, "sierpinski.topology.json", [],
                         {"semigroup": {"n": 2, "table": [[0, 0], [1, 1]]},
                          "opens": opens})
    code, out = run_cli(capsys, "topo-check", str(path))
    assert code == 0 and out == "continuous: true\nmp-check: true\n"


@pytest.mark.parametrize("name", ["flat3.metric", "twochain.metric"])
def test_cli_converge_default_schedule_stops_at_the_last_block(capsys, name):
    code, out = run_cli(capsys, "converge", name, "--format", "tsv")
    ks = [int(line.split("\t")[0]) for line in out.splitlines()[1:]]
    assert code == 0
    assert ks == {"flat3.metric": [1, 2], "twochain.metric": [1]}[name]


def cli_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    return captured.err


def test_cli_converge_rejects_a_k_without_block(capsys):
    err = cli_error(capsys, "converge", "flat3.metric", "--ks", "9")
    assert err == "error: no group block at element 9\n"


@pytest.mark.parametrize("argv", [
    ("converge", "flat3.metric", "--ks=,"),
    ("converge", "flat3.metric", "--ks=1,,2"),
    ("converge", "flat3.metric", "--ks=1,"),
    ("basis-check", "chain3.poset", "--basis=,0"),
    ("basic-set", "twochain.spec", "--u=0,", "--v=0"),
], ids=["lone-comma", "inner", "trailing", "leading", "basic-set"])
def test_cli_rejects_an_empty_item_in_an_integer_list(capsys, argv):
    value = argv[2].split("=", 1)[1]
    err = cli_error(capsys, *argv)
    assert err == f"error: expected comma-separated integers, got {value!r}\n"


def test_an_empty_integer_list_is_the_empty_list():
    assert _parse_ints("") == []
    assert _parse_ints("-1,0, 2") == [-1, 0, 2]


@pytest.mark.parametrize("k", ["0", "-3"])
def test_cli_converge_rejects_a_k_below_1(capsys, k):
    # 1/0 is no term of the sequence, though element 0 is the limit point
    err = cli_error(capsys, "converge", "flat3.metric", f"--ks=1,{k}")
    assert err == f"error: k must be >= 1: 1/{k} is no point of the sequence\n"


def test_cli_converge_rejects_a_g_outside_the_group(capsys):
    err = cli_error(capsys, "converge", "flat3.metric", "--ks", "1", "--g", "5")
    assert err.startswith("error:") and "5" in err


def test_cli_basic_set_rejects_u_outside_e(capsys):
    err = cli_error(capsys, "basic-set", "twochain.spec", "--u", "0,9", "--v", "0")
    assert err.startswith("error:") and "9" in err


@pytest.mark.parametrize("anchor", [[], ["--e", "0"]], ids=["inf-u", "e-0"])
def test_cli_basic_set_rejects_v_outside_the_anchor_group(capsys, anchor):
    err = cli_error(capsys, "basic-set", "twochain.spec", "--u", "0,1", "--v", "9",
                    *anchor)
    assert err == "error: V element 9 outside G_0\n"


def test_cli_reads_integer_rho_entries_as_rationals(capsys, tmp_path):
    path = write_changed(tmp_path, "twochain.metric.json", ["rho"], [[0, 1], [1, 0]])
    assert run_cli(capsys, "validate", str(path))[0] == 0
    code, out = run_cli(capsys, "metric-eval", "bowman", str(path),
                        "--p", "1,a", "--q", "1,b")
    assert code == 0 and out == "3/16 (tail 0)\n"


@pytest.mark.parametrize("one", [True, 1.0], ids=["bool", "float"])
def test_cli_refuses_a_boolean_or_float_rho_entry(capsys, tmp_path, one):
    path = write_changed(tmp_path, "twochain.metric.json", ["rho"], [[0, one], [one, 0]])
    err = cli_error(capsys, "validate", str(path))
    assert err == ("error: body.rho[0][1]: expected rational string, "
                   f"got {type(one).__name__}\n")


def test_cli_c1_probe_rejects_a_zero_grid_step(capsys):
    err = cli_error(capsys, "c1-probe", "additive.chart", "--grid", "0")
    assert err.startswith("error:") and "0" in err


@pytest.mark.parametrize("grid", ["inf", "1e-300", "5e-324"])
def test_cli_c1_probe_rejects_a_grid_that_cannot_be_built(capsys, grid):
    err = cli_error(capsys, "c1-probe", "additive.chart", "--grid", grid)
    assert err.startswith("error: grid step") and grid in err


@pytest.mark.parametrize("body, field", [
    ({"dim": 1, "polynomials": [5]}, "body.polynomials[0]"),
    ({"dim": 1, "polynomials": [[[1.0, [1, "a"]]]]}, "body.polynomials[0][0]"),
    ({"dim": 1, "polynomials": [[[1.0, [1.5, 0]]]]}, "body.polynomials[0][0]"),
    ({"dim": 1, "polynomials": [[[True, [1, 0]]]]}, "body.polynomials[0][0]"),
    ({"dim": 1, "polynomials": [[[float("inf"), [1, 0]]]]},
     "body.polynomials[0][0]"),
    ({"dim": 1, "polynomials": [[[1.0, [True, 0]]]]}, "body.polynomials[0][0]"),
    ({"dim": 1, "polynomials": [[[1.0, [-1, 1]]]]}, "body.polynomials[0][0]"),
    ({"builtin": "min-plus", "dim": 3}, "body.dim"),
    ({"builtin": "additive", "radius": 0}, "body.radius"),
    ({"builtin": "additive", "radius": -1.0}, "body.radius"),
    ({"builtin": []}, "body.builtin"),
    ({"builtin": {"additive": 1}}, "body.builtin"),
    ({"builtin": "additive", "dim": 65}, "body.dim"),
    ({"dim": 65, "polynomials": []}, "body.dim"),
], ids=["coordinate-not-a-list", "string-exponent", "float-exponent",
        "bool-coefficient", "infinite-coefficient", "bool-exponent",
        "negative-exponent", "min-plus-dim-3", "zero-radius",
        "negative-radius", "builtin-list", "builtin-object", "additive-dim-65",
        "polynomial-dim-65"])
def test_cli_validate_rejects_a_bad_chart_model(capsys, tmp_path, body, field):
    path = tmp_path / "bad.chart.json"
    path.write_text(json.dumps({"kind": "chart-model", "meta": {"name": "bad"},
                                "body": body}))
    err = cli_error(capsys, "validate", str(path))
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("basis, bad", [("0,9", "9"), ("-1", "-1")])
def test_cli_basis_check_rejects_an_element_outside_the_poset(capsys, basis, bad):
    err = cli_error(capsys, "basis-check", "chain3.poset", "--basis", basis)
    assert err.startswith("error:") and bad in err


def write_chart(tmp_path, dim, polynomials, radius=None):
    body = {"dim": dim, "polynomials": polynomials}
    if radius is not None:
        body["radius"] = radius
    path = tmp_path / "poly.chart.json"
    path.write_text(json.dumps({"kind": "chart-model", "meta": {"name": "poly"},
                                "body": body}))
    return path


U, V, UV, UU = [1, 0], [0, 1], [1, 1], [2, 0]


@pytest.mark.parametrize("polynomials, radius, prediction", [
    ([[[1.0, U], [1.0, V], [10.0, UV]]], None, "isolated idempotent"),
    ([[[1.0, U], [1.0, V], [1e300, UU]]], None, "isolated idempotent"),
    ([[[0.5, U], [0.5 + 1e-10, V]]], None,
     "left and right parts differ; out of theorem scope"),
    ([[[1.0, U], [1.0, V]]], 1e-300, "isolated idempotent"),
    ([[[0.5, U], [0.5, V]]], None,
     "displacement derivative singular; no isolation claim"),
], ids=["10uv", "1e300-square", "parts-1e-10-apart", "radius-1e-300", "half-sum"])
def test_cli_c1_probe_decides_a_polynomial_chart_exactly(capsys, tmp_path,
                                                         polynomials, radius,
                                                         prediction):
    path = write_chart(tmp_path, 1, polynomials, radius)
    code, out = run_cli(capsys, "c1-probe", str(path), "--format", "tsv")
    assert code == 0
    assert out.splitlines()[1].split("\t")[:2] == ["true", "0"]
    assert out.splitlines()[1].split("\t")[-1] == prediction


@pytest.mark.parametrize("polynomials", [
    [[[1e308, U], [1.0, V]]],
    [[[1e308, U], [1e308, V]]],
    [[[1e308, U], [1e308, U], [1.0, V]]],
], ids=["one-1e308", "two-1e308", "repeated-1e308"])
def test_cli_c1_probe_on_a_1e308_coefficient_ends_in_a_result_or_an_error_line(
        tmp_path, polynomials):
    path = write_chart(tmp_path, 1, polynomials)
    assert_result_or_error_line("c1-probe", path, polynomials)


def test_cli_c1_probe_scan_through_an_overflowing_jacobian_ends_cleanly(tmp_path):
    # the Jacobian is inf near 0, so each seed diverges; LAPACK, handed inf,
    # would print its DLASCL complaint to the process's own stdout
    path = write_chart(tmp_path, 1,
                       [[[1.0, U], [1.0, V], [1e308, UU], [1e308, [0, 2]]]])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cliffordlab.cli import main; sys.exit(main(sys.argv[1:]))",
         "c1-probe", str(path), "--scan", "1.0"],
        capture_output=True, text=True, env=env)
    if run.returncode == 0:
        assert "fixed points in the scan ball" in run.stdout and not run.stderr
    else:
        assert run.returncode == 1 and run.stderr.startswith("error: ")
    for word in ("Traceback", "LAPACK", "DLASCL"):
        assert word not in run.stdout + run.stderr


def test_cli_c1_probe_scan_seeds_the_origin(capsys, tmp_path):
    # on 1e300 u^2 Newton stalls or diverges from every seed off the origin,
    # so the scan finds the fixed point 0 only if 0 is a seed
    path = write_chart(tmp_path, 1, [[[1.0, U], [1.0, V], [1e300, UU]]])
    code, out = run_cli(capsys, "c1-probe", str(path), "--scan", "1.0")
    assert code == 0
    assert out.splitlines()[-1] == "1 fixed points in the scan ball"


def test_cli_c1_probe_rejects_a_nonzero_constant_term(capsys, tmp_path):
    path = write_chart(tmp_path, 1, [[[1.0, U], [1.0, V], [1e-13, [0, 0]]]])
    err = cli_error(capsys, "c1-probe", str(path))
    assert err.startswith("error: coordinate 0 term 2: constant term 1e-13")


@pytest.mark.parametrize("option, value", [("--scan", "-1"), ("--newton", "-1"),
                                           ("--scan", "nan"), ("--grid", "nan")])
def test_cli_c1_probe_rejects_a_negative_or_nan_scan_argument(capsys, option, value):
    err = cli_error(capsys, "c1-probe", "additive.chart", option, value)
    assert err.startswith("error:") and value in err


@pytest.mark.parametrize("name, command, where, field", [
    ("z2.cayley.json", "classify", [], "body.labels"),
    ("twochain.spec.json", "validate", ["groups", "1"], "body.groups.1.labels"),
])
def test_cli_wrong_label_count_names_its_field(capsys, tmp_path, name, command,
                                                where, field):
    raw = json.loads(read_shipped(name))
    body = raw["body"]
    for key in where:
        body = body[key]
    body["labels"] = ["a"]
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    err = cli_error(capsys, command, str(path))
    assert err == f"error: {field}: expected 2 labels, got 1\n"


@pytest.mark.parametrize("command", [
    ["validate"], ["metric-eval", "bowman", "--p", "1,a", "--q", "1,a"]])
def test_cli_refuses_a_repeated_label(capsys, tmp_path, command):
    # a repeated label would leave the point "1,a" ambiguous
    raw = json.loads(read_shipped("twochain.metric.json"))
    raw["body"]["spec"]["groups"]["1"]["labels"] = ["a", "a"]
    path = tmp_path / "twochain.metric.json"
    path.write_text(json.dumps(raw))
    err = cli_error(capsys, command[0], *command[1:2], str(path), *command[2:])
    assert err == ("error: body.spec.groups.1.labels: "
                   "label 'a' repeats at indices 0 and 1\n")


def write_changed(directory, name, where, value):
    """A shipped document with the body entry at path `where` (the whole
    body when empty) set to value; returns its path."""
    raw = json.loads(read_shipped(name))
    *outer, last = ["body", *where]
    parent = raw
    for key in outer:
        parent = parent[key]
    parent[last] = value
    path = directory / name
    path.write_text(json.dumps(raw))
    return path


ONE_POINT = {"n": True, "table": [[0]]}
TRIVIAL = {"n": 1, "table": [[0]]}
# the 3-chain 0 < 1 < 2, and the flat E with 0 below the incomparable 1 and 2
CHAIN3 = {"n": 3, "table": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]}
FLAT3 = {"n": 3, "table": [[0, 0, 0], [0, 1, 0], [0, 0, 2]]}


def spec_body(E, bonding_keys):
    """A spec body over E with trivial groups and the given bonding keys."""
    return {"e": E, "groups": {str(e): TRIVIAL for e in range(E["n"])},
            "bonding": {key: [0] for key in bonding_keys}}


@pytest.mark.parametrize("name, command, where, value, field", [
    ("flat3.metric.json", "converge", ["truncation"], True, "body.truncation"),
    ("z2.cayley.json", "classify", [], ONE_POINT, "body.n"),
    ("sierpinski.topology.json", "topo-check", [],
     {"semigroup": ONE_POINT, "opens": [[], [0]]}, "body.semigroup.n"),
    ("flat3.metric.json", "converge", ["fiber"], ONE_POINT, "body.fiber.n"),
    ("chain3.poset.json", "way-below", [], {"n": True, "leq": [[True]]}, "body.n"),
    ("chain3.poset.json", "way-below", ["leq", 0, 1], 7, "body.leq[0][1]"),
    ("twochain.metric.json", "metric-suite", ["rho", 0, 1], True, "body.rho[0][1]"),
], ids=["truncation-true", "cayley-n-true", "semigroup-n-true", "fiber-n-true",
        "poset-n-true", "leq-entry-7", "rho-entry-true"])
def test_cli_rejects_a_boolean_or_out_of_range_integer_field(
        capsys, tmp_path, name, command, where, value, field):
    path = write_changed(tmp_path, name, where, value)
    err = cli_error(capsys, command, str(path))
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("name, where, value, err", [
    ("chain3.poset.json", ["leq", 0, 0], False, "not reflexive at 0"),
    ("chain3.poset.json", ["leq", 1, 0], True, "not antisymmetric at (0,1)"),
    ("chain3.poset.json", ["leq", 0, 2], False, "not transitive at (0,1,2)"),
    ("twochain.metric.json", ["rho"], [["1", "1"], ["1", "0"]], "rho(0,0) != 0"),
    ("twochain.metric.json", ["rho"], [["0", "-1"], ["-1", "0"]], "rho(0,1) < 0"),
    ("twochain.metric.json", ["rho"], [["0", "2"], ["2", "0"]], "rho(0,1) > 1"),
    ("twochain.metric.json", ["rho"], [["0", "1"], ["1/2", "0"]],
     "rho not symmetric at (0,1)"),
    ("twochain.metric.json", ["rho"], [["0", "0"], ["0", "0"]],
     "rho(0,1) = 0 for distinct points"),
    ("sierpinski.topology.json", ["opens"], [[], [0, 5], [0, 1]],
     "open set [0, 5] outside carrier"),
    ("sierpinski.topology.json", ["opens"], [[1], [0, 1]],
     "topology must contain the empty and full sets"),
    ("sierpinski.topology.json", ["opens"], "[]",
     "body.opens: expected a list of open sets"),
    ("chain3.poset.json", ["leq", 1], [0, 1], "body.leq[1]: expected 3 entries"),
    ("twochain.spec.json", [], spec_body(FLAT3, ["1->0", "2->0", "1->2"]),
     "bad bonding map (1, 2): bonding given for incomparable pair"),
    ("twochain.metric.json", [],
     {"type": "spec", "spec": spec_body(CHAIN3, ["1->0", "2->0", "2->1"]),
      "rho": [["0", "1/4", "1"], ["1/4", "0", "1/4"], ["1", "1/4", "0"]]},
     "rho triangle fails at (0,1,2)"),
    ("flat3.metric.json", ["fiber"], {"n": 2, "table": [[0, 0], [1, 1]]},
     "not a group at 'fiber': no identity element"),
    ("additive.chart.json", [], [], "body: expected object"),
    ("additive.chart.json", ["builtin"], "no-such-model",
     "body.builtin: unknown builtin; have "
     "['additive', 'affine', 'discrete-product', 'min-plus']"),
    ("additive.chart.json", [], {"dim": 2, "polynomials": [[]]},
     "body.polynomials: expected a list of 2 coordinates"),
], ids=["leq-not-reflexive", "leq-not-antisymmetric", "leq-not-transitive",
        "rho-diagonal", "rho-negative", "rho-above-1", "rho-not-symmetric",
        "rho-zero-off-diagonal", "open-set-outside-carrier",
        "topology-without-empty-set", "opens-string", "leq-row-short",
        "bonding-on-incomparable-pair", "rho-triangle-on-chain3",
        "flat-fiber-not-a-group", "chart-body-list", "unknown-builtin",
        "polynomials-shorter-than-dim"])
def test_cli_validate_names_the_broken_law(capsys, tmp_path, name, where, value,
                                           err):
    path = write_changed(tmp_path, name, where, value)
    assert cli_error(capsys, "validate", str(path)) == f"error: {err}\n"


def test_cli_topo_check_of_a_discontinuous_model_names_a_witness(capsys, tmp_path):
    # Z2 under the Sierpinski opens: translation by 1 swaps 0 and 1, so the
    # preimage of the open set {1} is {0}, which is not open
    path = write_changed(tmp_path, "sierpinski.topology.json", ["semigroup"],
                         {"n": 2, "table": [[0, 1], [1, 0]]})
    code, out = run_cli(capsys, "topo-check", str(path))
    assert code == 1 and out == "continuous: false\n  witness open set: {1}\n"


def test_cli_trivial_check_of_the_assembled_two_chain_is_false(capsys, tmp_path):
    # Z2 over the trivial group: fibres of different orders
    code, out = run_cli(capsys, "assemble", "twochain.spec", "--format", "structured")
    assert code == 0
    path = tmp_path / "twochain-assembled.json"
    path.write_text(out)
    code, out = run_cli(capsys, "trivial-check", str(path), "--format", "tsv")
    assert code == 0 and out == "trivial\nfalse\n"


def test_cli_classify_refuses_a_spec_document(capsys):
    err = cli_error(capsys, "classify", "twochain.spec")
    assert err == "error: $.kind: expected 'cayley', got 'spec'\n"


def test_cli_product_refuses_a_first_factor_that_is_no_semilattice(capsys):
    err = cli_error(capsys, "product", "z2.cayley", "z2.cayley")
    assert err == "error: first factor must be a semilattice\n"


def test_a_meta_name_that_is_no_string_is_a_schema_error(capsys, tmp_path):
    raw = json.loads(read_shipped("z2.cayley.json"))
    raw["meta"]["name"] = 5
    path = tmp_path / "z2.cayley.json"
    path.write_text(json.dumps(raw))
    assert cli_error(capsys, "validate", str(path)) == (
        "error: $.meta.name: expected a string\n")


def test_cli_metric_suite_reports_a_pseudo_metric(capsys, tmp_path):
    # the basis cut down to the minimum cannot separate the top group
    path = write_metric_doc(tmp_path, "twochain", {"basis": [0], "pseudo": True})
    code, out = run_cli(capsys, "metric-suite", str(path))
    assert code == 1 and out == ("3 points, 9 pairs\n  non-negativity: ok\n"
                                 "  symmetry: ok\n  identity: 2 violations\n"
                                 "  triangle: ok\nFAIL\n")


def test_a_builtin_chart_takes_its_radius(capsys, tmp_path):
    raw = {"kind": "chart-model", "meta": {"name": "additive"},
           "body": {"builtin": "additive", "radius": 0.5}}
    assert docs.build(docs.parse_document(json.dumps(raw))).radius == 0.5
    path = tmp_path / "additive.chart.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "c1-probe", str(path), "--format", "tsv")
    assert code == 0 and out.splitlines()[1].split("\t")[-1] == "isolated idempotent"


# a canonical decimal key past Python's 4300-digit limit on str-to-int conversion
LONG_KEY = "1" * 5000


@pytest.mark.parametrize("name, command, changes, err", [
    ("twochain.spec.json", ["assemble"],
     [(["groups", "01"], TRIVIAL), (["bonding", "1->0"], [0])],
     "error: body.groups.01: keys are element indices\n"),
    ("twochain.spec.json", ["validate"], [(["bonding", "01->0"], [0, 0])],
     'error: body.bonding.01->0: keys look like "f->e"\n'),
    ("twochain.metric.json", ["metric-eval", "bowman", "--p", "1,0", "--q", "1,1"],
     [(["d"], {"1": [["0", "1"], ["1", "0"]], "01": [["0", "1/2"], ["1/2", "0"]]})],
     "error: body.d.01: keys are element indices 0..1\n"),
], ids=["group-key", "bonding-key", "d-key"])
def test_cli_rejects_an_element_key_that_is_not_canonical(capsys, tmp_path, name,
                                                         command, changes, err):
    # "01" names the same element as "1": if accepted, the later key wins
    # (the group case assembles without Z2, the d case gives 3/32 for 3/16)
    raw = json.loads(read_shipped(name))
    for (*outer, last), value in changes:
        parent = raw["body"]
        for key in outer:
            parent = parent[key]
        parent[last] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    assert cli_error(capsys, command[0], *command[1:2], str(path),
                     *command[2:]) == err


def write_metric_doc(directory, name, change=None, drop=None):
    """A shipped metric-data document with body fields replaced or dropped,
    written as JSON text; returns its path."""
    raw = json.loads(read_shipped(f"{name}.metric.json"))
    raw["body"].update(change or {})
    raw["body"].pop(drop, None)
    path = directory / f"{name}.metric.json"
    # a sentinel stands for the float literal 1e999, which parses to inf
    path.write_text(json.dumps(raw).replace('"<1e999>"', "1e999"))
    return path


@pytest.mark.parametrize("name, change, field", [
    ("twochain", {"rho": 5}, "body.rho"),
    ("twochain", {"rho": [5, 6]}, "body.rho"),
    ("twochain", {"d": 5}, "body.d"),
    ("twochain", {"d": {"0": 5}}, "body.d.0"),
    ("twochain", {"d": {"x": [[0]]}}, "body.d.x"),
    ("twochain", {"d": {"9": [["0"]]}}, "body.d.9"),
    ("twochain", {"basis": 5}, "body.basis"),
    ("twochain", {"base_points": 5}, "body.base_points"),
    ("twochain", {"base_points": {"x": 0}}, "body.base_points.x"),
    ("twochain", {"base_points": {"1": "a"}}, "body.base_points.1"),
    ("twochain", {"enumerations": 5}, "body.enumerations"),
    ("twochain", {"enumerations": {"1": 5}}, "body.enumerations.1"),
    ("twochain", {"enumerations": {"1": [0, "a"]}}, "body.enumerations.1"),
    ("flat3", {"base_points": 5}, "body.base_points"),
    ("flat3", {"base_points": {"4": 0}}, "body.base_points.4"),
    ("twochain", {"d": {LONG_KEY: [["0"]]}}, f"body.d.{LONG_KEY}"),
    ("twochain", {"base_points": {LONG_KEY: 0}}, f"body.base_points.{LONG_KEY}"),
    ("twochain", {"enumerations": {LONG_KEY: [0]}},
     f"body.enumerations.{LONG_KEY}"),
], ids=["rho-int", "rho-row-int", "d-int", "d-value-int", "d-key-x",
        "d-key-outside-e", "basis-int", "base-points-int", "base-points-key-x",
        "base-point-string", "enumerations-int", "enumeration-int",
        "enumeration-string", "flat-base-points-int",
        "flat-base-points-key-outside-e", "d-key-5000-digits",
        "base-points-key-5000-digits", "enumerations-key-5000-digits"])
def test_cli_validate_names_the_bad_metric_data_field(capsys, tmp_path, name,
                                                       change, field):
    err = cli_error(capsys, "validate", str(write_metric_doc(tmp_path, name, change)))
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("name, change, command, block", [
    ("twochain", {"d": {"1": [["0"]]}}, ["validate"], "d_1"),
    ("twochain", {"d": {"1": [["0"]]}}, ["metric-suite"], "d_1"),
    ("twochain", {"d": {"1": [["0"]]}}, ["metric-eval", "bowman"], "d_1"),
    ("twochain", {"d": {"1": [["0"]]}}, ["metric-eval", "yeager"], "d_1"),
    ("twochain", {"d": {"1": [["0", "1"], ["1"]]}}, ["validate"], "d_1"),
    ("twochain", {"d": {"1": [["0", "1"], ["1"]]}}, ["metric-eval", "yeager"],
     "d_1"),
    ("twochain", {"rho": [["0", "1"], ["1"]]}, ["metric-eval", "yeager"], "rho"),
    ("twochain", {"rho": [["0"]]}, ["metric-eval", "yeager"], "rho"),
    ("twochain", {"base_points": {"1": 7}}, ["validate"], "base point 7 at 1"),
    ("flat3", {"base_points": {"1": 7}}, ["validate"], "base point 7 at 1"),
    ("twochain", {"basis": []}, ["validate"], "basis"),
], ids=["d-too-small-validate", "d-too-small-suite", "d-too-small-bowman",
        "d-too-small-yeager", "d-ragged-validate", "d-ragged-yeager",
        "rho-ragged-yeager", "rho-too-small-yeager", "base-point-outside-group",
        "flat-base-point-outside-group", "basis-empty"])
def test_cli_metric_shape_errors_name_the_block(capsys, tmp_path, name, change,
                                                command, block):
    path = str(write_metric_doc(tmp_path, name, change))
    points = ["--p", "1,0", "--q", "0,0"] if command[0] == "metric-eval" else []
    err = cli_error(capsys, *command, path, *points)
    assert err.startswith(f"error: {block} ")


@pytest.mark.parametrize("change", [
    {"basis": [1]},
    {"base_points": {"1": 7}},
    {"enumerations": {"1": [0]}},
], ids=["basis-not-at-minimum", "base-point-outside-group",
        "enumeration-not-the-group"])
def test_validate_and_the_isometric_metric_refuse_the_same_metric_data(
        capsys, tmp_path, change):
    golden = Path(__file__).parent / "golden" / "chain2-identity.metric.json"
    raw = json.loads(golden.read_text())
    raw["body"].update(change)
    path = tmp_path / golden.name
    path.write_text(json.dumps(raw))
    err = cli_error(capsys, "validate", str(path))
    assert err.startswith("error: ")
    assert cli_error(capsys, "metric-eval", "yeager", str(path),
                     "--p", "1,0", "--q", "0,0") == err


def test_cli_isometric_metric_runs_on_a_flat_document(capsys):
    code, out = run_cli(capsys, "metric-eval", "yeager", "flat3.metric",
                        "--p", "1,1", "--q", "0,0")
    assert code == 0 and out == "2\n"


@pytest.mark.parametrize("metric", ["yeager", "disjoint"])
@pytest.mark.parametrize("truncation", ["0", "1", "64"])
def test_cli_exact_metrics_refuse_a_truncation(capsys, metric, truncation):
    err = cli_error(capsys, "metric-eval", metric, "flat3.metric",
                    "--p", "1,1", "--q", "0,0", "--truncation", truncation)
    assert err == (f"error: --truncation belongs to the series metric; "
                   f"the {metric} metric is exact\n")
    assert run_cli(capsys, "metric-eval", "bowman", "flat3.metric", "--p", "1,1",
                   "--q", "0,0", "--truncation", "1")[0] == 0


BODY_FIELDS = {
    "twochain": ["type", "spec", "rho", "basis", "d", "base_points",
                 "enumerations", "pseudo"],
    "flat3": ["type", "truncation", "fiber", "bonding", "basis", "base_points",
              "pseudo"],
}
DROP = object()
WRONG_VALUES = [5, 0.5, "<1e999>", True, False, "a", None, [], [0, 1], {},
                {"1": 0}, {"1": [0, 1]}, [[0, 1], [1]], [["0", "1"], ["1"]],
                [["0", "1"], ["1", "0"]], [["0"]], {LONG_KEY: 0}]


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(BODY_FIELDS)), data=st.data())
def test_fuzzed_metric_data_ends_in_a_result_or_an_error_line(name, data):
    field = data.draw(st.sampled_from(BODY_FIELDS[name]))
    value = data.draw(st.sampled_from([DROP, *WRONG_VALUES]))
    with tempfile.TemporaryDirectory() as tmp:
        path = (write_metric_doc(Path(tmp), name, drop=field) if value is DROP
                else write_metric_doc(Path(tmp), name, {field: value}))
        for command in ("validate", "metric-suite"):
            assert_result_or_error_line(command, path, (field, value))


# subcommands that exit 1 with their report on stdout on a negative verdict
VERDICT_COMMANDS = {"basis-check", "metric-suite", "topo-check"}


def assert_result_or_error_line(command, path, case, *options):
    """Run `command path options` in-process: exit 0 with output (or exit 1
    with output on a negative verdict), or exit 1 with an `error:` line and
    no output.  command may carry a positional argument that comes before
    the file, as in "metric-eval bowman"."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command.split(), str(path), *options])
    if code == 0 or (code == 1 and command in VERDICT_COMMANDS and out.getvalue()):
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 1 and err.getvalue().startswith("error: "), \
            (case, command, err.getvalue())


def test_an_exact_value_too_long_to_print_ends_in_an_error_line(capsys, tmp_path):
    # the full series at truncation 20000 has a denominator past Python's
    # 4300-digit limit on int-to-str conversion
    path = write_metric_doc(tmp_path, "flat3", {"truncation": 20000})
    for command, options in [("converge", ["--ks", "20000"]),
                             ("metric-eval bowman", ["--p", "20000,1", "--q", "0,0"])]:
        assert_result_or_error_line(command, path, options, *options)
    err = cli_error(capsys, "converge", str(path), "--ks", "20000")
    assert err == "error: the exact value is too long to print; --truncation cuts the series\n"
    assert run_cli(capsys, "converge", str(path), "--ks", "20000",
                   "--truncation", "64")[0] == 0


@pytest.mark.parametrize("where, old, new", [
    ("groups", "1", "²"),
    ("bonding", "1->0", "¹->0"),
    ("groups", "1", "١"),
    ("bonding", "1->0", "١->0"),
    ("groups", "1", LONG_KEY),
    ("bonding", "1->0", f"{LONG_KEY}->0"),
], ids=["group-key-superscript", "bonding-key-superscript", "group-key-arabic",
        "bonding-key-arabic", "group-key-5000-digits", "bonding-key-5000-digits"])
def test_cli_validate_rejects_a_spec_key_that_is_no_decimal_index(
        capsys, tmp_path, where, old, new):
    raw = json.loads(read_shipped("twochain.spec.json"))
    keys = raw["body"][where]
    keys[new] = keys.pop(old)
    path = tmp_path / "twochain.spec.json"
    path.write_text(json.dumps(raw))
    err = cli_error(capsys, "validate", str(path))
    assert err.startswith(f"error: body.{where}.{new}: ")


@pytest.mark.parametrize("point", ["1,²", "1,--1"])
def test_cli_metric_eval_rejects_a_point_that_is_no_index_or_label(capsys, point):
    err = cli_error(capsys, "metric-eval", "bowman", "twochain.metric",
                    "--p", point, "--q", "1,b")
    assert err == f"error: unknown group element {point[2:]!r} at 1\n"


SCHEMA_FIELDS = {"twochain.spec": ["e", "groups", "bonding"],
                 "z2.cayley": ["n", "table", "labels"]}
NON_ASCII_DIGITS = ["²", "¹", "٣", "１"]


def key_paths(node, path=()):
    """The path of every object key inside a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from key_paths(value, (*path, key))


def renamed(key, digit):
    """key with its first ASCII digit, or the whole key if it has none,
    replaced by digit."""
    i = next((i for i, c in enumerate(key) if c in "0123456789"), None)
    return digit if i is None else key[:i] + digit + key[i + 1:]


def fuzzed_document(name, fields, data):
    """The shipped document `name` with one key renamed to a non-ASCII digit,
    or one of `fields` dropped or replaced by a wrong value; returns the
    JSON text and the edit."""
    raw = json.loads(read_shipped(f"{name}.json"))
    body = raw["body"]
    edit = data.draw(st.sampled_from(["rename", "drop", "replace"]))
    if edit == "rename":
        *outer, key = data.draw(st.sampled_from(list(key_paths(body))))
        parent = body
        for k in outer:
            parent = parent[k]
        case = (key, renamed(key, data.draw(st.sampled_from(NON_ASCII_DIGITS))))
        parent[case[1]] = parent.pop(key)
    elif edit == "drop":
        case = (data.draw(st.sampled_from(fields)), "dropped")
        body.pop(case[0], None)  # an optional field may be absent
    else:
        case = (data.draw(st.sampled_from(fields)), data.draw(st.sampled_from(WRONG_VALUES)))
        body[case[0]] = case[1]
    return json.dumps(raw).replace('"<1e999>"', "1e999"), case


def assert_fuzzed_document_ends_in_a_result_or_an_error_line(name, fields, commands,
                                                             data):
    text, case = fuzzed_document(name, fields, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(text)
        for command in commands:
            assert_result_or_error_line(command, path, case)


@settings(max_examples=70, deadline=None)
@given(name=st.sampled_from(sorted(SCHEMA_FIELDS)), data=st.data())
def test_fuzzed_structure_documents_end_in_a_result_or_an_error_line(name, data):
    assert_fuzzed_document_ends_in_a_result_or_an_error_line(
        name, SCHEMA_FIELDS[name], ("validate", "trivial-check"), data)


# Fields and commands of the other shipped documents; the chart documents
# also run the chart schema branch and the probe.
MODEL_FIELDS = {
    "additive.chart": (["builtin", "dim", "radius"], ("validate", "c1-probe")),
    "minplus.chart": (["builtin", "dim", "radius"], ("validate", "c1-probe")),
    "chain3.poset": (["n", "leq"], ("validate",)),
    "sierpinski.topology": (["semigroup", "opens"], ("validate",)),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODEL_FIELDS)), data=st.data())
def test_fuzzed_chart_poset_and_topology_documents_end_in_a_result_or_an_error_line(
        name, data):
    fields, commands = MODEL_FIELDS[name]
    assert_fuzzed_document_ends_in_a_result_or_an_error_line(name, fields, commands,
                                                             data)


HUGE = 10 ** 20
INTS = st.sampled_from([-HUGE, -3, -1, 0, 1, 2, 3, 9, HUGE]).map(str)
INT_LISTS = st.one_of(st.lists(INTS, max_size=3).map(",".join),
                      st.sampled_from([",", "1,,2", "1e999", "nan", "a"]))
POINTS = st.one_of(
    st.tuples(INTS, st.one_of(INTS, st.sampled_from(["a", "b", "z", "²", ""])))
    .map(",".join),
    st.sampled_from(["", ",", "1", "x,0"]))
# Values that argparse accepts.  The seed grid stays small: a step below 0.1
# with a scan radius above 0 meets the 10^6-seed guard, and Newton runs at
# most 30 iterations.
OPTION_VALUES = {
    "--grid": st.sampled_from(["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300",
                               "1e-5", "0.1", "0.25", "1", "1e308"]),
    "--scan": st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.25", "0.5", "1",
                               "2", "1e308"]),
    "--newton": st.sampled_from([str(-HUGE), "-1", "0", "1", "3", "30"]),
    "--ks": INT_LISTS, "--g": INTS, "--truncation": INTS,
    "--basis": INT_LISTS, "--e": INTS, "--u": INT_LISTS, "--v": INT_LISTS,
    "--p": POINTS, "--q": POINTS,
}
METRIC_FILES = ["flat3.metric", "twochain.metric"]
# command, files, required options, optional options
ARGUMENT_COMMANDS = [
    ("c1-probe", ["additive.chart", "minplus.chart"], [], ["--grid", "--scan", "--newton"]),
    ("converge", METRIC_FILES, [], ["--ks", "--g", "--truncation"]),
    ("metric-eval bowman", METRIC_FILES, ["--p", "--q"], ["--truncation"]),
    ("metric-eval yeager", METRIC_FILES, ["--p", "--q"], ["--truncation"]),
    ("metric-eval disjoint", METRIC_FILES, ["--p", "--q"], ["--truncation"]),
    ("metric-suite", METRIC_FILES, [], ["--truncation"]),
    ("basis-check", ["chain3.poset"], ["--basis"], []),
    ("basic-set", ["twochain.spec"], ["--u", "--v"], ["--e"]),
]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_cli_arguments_end_in_a_result_or_an_error_line(data):
    command, files, required, optional = data.draw(st.sampled_from(ARGUMENT_COMMANDS))
    names = required + [name for name in optional if data.draw(st.booleans())]
    # --name=value keeps a value such as "-1,0" from reading as an option
    options = [f"{name}={data.draw(OPTION_VALUES[name])}" for name in names]
    assert_result_or_error_line(command, data.draw(st.sampled_from(files)), options,
                                *options)


Z4 = {"n": 4, "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}


@pytest.mark.parametrize("bad", [True, 1.5, "1"], ids=["true", "float", "string"])
@pytest.mark.parametrize("where, field, message", [
    (["e", "table", 1, 0], "body.e.table[1][0]", "expected an integer"),
    (["groups", "1", "table", 2, 3], "body.groups.1.table[2][3]",
     "expected an integer"),
    (["bonding", "1->0", 1], "body.bonding.1->0", "expected a list of ints"),
], ids=["e-table", "group-table", "bonding"])
def test_a_non_integer_cell_names_its_field(bad, where, field, message):
    """The row-level int checks name the first bad cell, as the per-cell
    loop does; a group of order 4 puts the cell in row 2, column 3."""
    raw = json.loads(read_shipped("twochain.spec.json"))
    raw["body"]["groups"]["1"] = json.loads(json.dumps(Z4))
    raw["body"]["bonding"]["1->0"] = [0, 0, 0, 0]
    *outer, last = where
    parent = raw["body"]
    for key in outer:
        parent = parent[key]
    parent[last] = bad
    with pytest.raises(SchemaError) as exc:
        docs.parse_document(json.dumps(raw))
    assert (exc.value.path, str(exc.value)) == (field, f"{field}: {message}")


@pytest.mark.parametrize("row, field", [
    ([0, "x", 2.5, 3], "body.table[1][1]"),
    ([0, 1, 2, None], "body.table[1][3]"),
    ([False, 1, 2, 3], "body.table[1][0]"),
], ids=["first-of-two", "last", "false"])
def test_the_first_bad_cell_of_a_row_is_named(row, field):
    raw = {"kind": "cayley", "meta": {"name": "z4"}, "body": json.loads(json.dumps(Z4))}
    raw["body"]["table"][1] = row
    raw["body"]["table"][3][0] = "later"
    with pytest.raises(SchemaError) as exc:
        docs.parse_document(json.dumps(raw))
    assert str(exc.value) == f"{field}: expected an integer"


# ---------------------------------------------------------------------------
# the encoder: the bytes of json.dumps(sort_keys=True, indent=2)


def reference_serialize_document(doc):
    """serialize_document as json.dumps writes it."""
    return json.dumps(docs.document_envelope(doc), sort_keys=True, indent=2) + "\n"


def encoded(encode, value):
    """encode(value), or the class and message of what it raises."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


KEYS = st.text(st.characters(), max_size=6) | st.sampled_from(
    ["", "é", "☃", "\U0001f600", '"', "\\", "\n\t\x00", "a b"])


def digits(k):
    """For k > 0 an int of 4300 digits, the most that str() takes; for
    k < 0 one of 5000, past that limit."""
    return k * 10 ** (4299 if k > 0 else 4999) + k


LEAVES = (st.none() | st.booleans() | st.integers()
          | st.integers(-3, 3).filter(bool).map(digits) | st.floats() | KEYS)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(st.integers(), max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=5)
                   | st.dictionaries(st.integers(-2, 2) | KEYS, inner, max_size=3)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_the_encoder_writes_the_bytes_of_json_dumps(value):
    assert encoded(docs._to_json, value) == encoded(
        lambda v: json.dumps(v, sort_keys=True, indent=2), value)


@pytest.mark.parametrize("value", [0, -1, 7, 2 ** 70, True, False, None, [], {}])
def test_the_encoder_writes_ints_bools_none_and_empty_containers_as_json_dumps(value):
    # an exact int is written by int.__repr__; bool, an int subclass, is not
    for v in (value, {"n": value, "m": [value, "x"]}, [[value], value]):
        assert docs._to_json(v) == json.dumps(v, sort_keys=True, indent=2)


def test_the_encoder_writes_every_shipped_document_and_golden_as_json_dumps():
    for name in shipped_files():
        doc = docs.parse_document(read_shipped(name))
        assert docs.serialize_document(doc) == reference_serialize_document(doc), name
    goldens = sorted((Path(__file__).parent / "golden").glob("*.json"))
    assert goldens
    for path in goldens:
        if not path.read_text():  # a command that fails writes nothing
            continue
        value = json.loads(path.read_text())
        assert docs._to_json(value) == json.dumps(value, sort_keys=True,
                                                  indent=2), path


def structure_inputs(seed):
    """The op list of the benchmark's structure workload, from its
    generator (which imports only the standard library)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.structure_inputs(seed)


@pytest.mark.parametrize("seed", [1, 7])
def test_the_encoder_writes_the_spec_documents_of_a_structure_pass_as_json_dumps(seed):
    from cliffordlab.semilattice import assemble, decompose

    ops = structure_inputs(seed)
    assert len(ops) == 29
    for op in ops:
        doc = docs.parse_document(op["spec_text"])
        again = docs.WorkbenchDocument("spec", op["name"], "", docs.spec_to_body(
            decompose(assemble(docs.build_spec(doc)).semigroup)))
        for d in (doc, again):
            assert docs.serialize_document(d) == reference_serialize_document(d)


# ---------------------------------------------------------------------------
# build_spec validates each distinct group table of a document once


def reference_spec_from_body(body):
    """The spec of body with every group table validated on its own."""
    from cliffordlab.core import validate_semigroup
    from cliffordlab.semilattice import validate_spec

    E = validate_semigroup(body["e"]["table"], body["e"].get("labels"))
    groups = {int(k): validate_semigroup(g["table"], g.get("labels"))
              for k, g in body["groups"].items()}
    bonding = {tuple(int(p) for p in key.split("->")): tuple(phi)
               for key, phi in body["bonding"].items()}
    return validate_spec(E, groups, bonding)


def z2_chain3_body(groups):
    """A spec body on the 3-chain with the given group bodies, bonded by
    the identity of Z2."""
    return {"e": {"n": 3, "table": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]},
            "groups": groups,
            "bonding": {"1->0": [0, 1], "2->0": [0, 1], "2->1": [0, 1]}}


def z2_body(table=((0, 1), (1, 0)), labels=None):
    body = {"n": 2, "table": [list(row) for row in table]}
    return body if labels is None else {**body, "labels": labels}


@pytest.mark.parametrize("groups", [
    {"0": z2_body(labels=["a", "b"]), "1": z2_body(labels=["c", "d"]), "2": z2_body()},
    {"0": z2_body(), "1": z2_body(labels=["x", "x"]), "2": z2_body()},
    {"0": z2_body(), "1": z2_body(), "2": z2_body(labels=["a"])},
    {"0": z2_body(), "1": z2_body([[0, 1.0], [1, 0]]), "2": z2_body()},
    {"0": z2_body(), "1": z2_body(), "2": z2_body([[0, True], [True, 0]])},
    {"2": z2_body([[0, 5], [1, 0]]), "1": z2_body(), "0": z2_body([[0, 1], [1, 7]])},
], ids=["labels-kept", "labels-repeat", "label-count", "float-cell", "bool-cell",
        "first-bad-group-in-body-order"])
def test_build_spec_equals_validating_each_group_table_apart(groups):
    from test_core import error_or_result

    body = z2_chain3_body(groups)
    doc = docs.WorkbenchDocument("spec", "z2-chain3", "", body)
    result = error_or_result(docs.build_spec, doc)
    assert result == error_or_result(reference_spec_from_body, body)
    if "labels" in groups["0"]:
        assert [result.groups[e].labels for e in range(3)] == [
            ("a", "b"), ("c", "d"), None]
