"""Batch command-line front end.

Each subcommand reads workbench documents (strict JSON, see the documents
module), dispatches one library operation, and reports on two channels: a
human text channel (default) and a deterministic machine channel selected
with --format tsv or --format structured.  Bare file names are resolved
against the shipped example catalog.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from . import documents as docs
from .core import classify, green_j_classes, is_semilattice, is_trivial_clifford
from .errors import WorkbenchError
from .metrics import (
    CONVERGENCE_SCHEDULE,
    Point,
    bowman_distance,
    disjoint_union_distance,
    metric_axiom_suite,
    yeager_distance,
)
from .order import is_basis
from .semilattice import assemble, decompose, direct_product
from .topology import (
    basic_set,
    bowman_basic_set,
    continuity_check,
    mp_check,
    order_graph_closed,
    prop34_equivalences,
)


def _load(path: str) -> docs.WorkbenchDocument:
    """Read a document from disk, falling back to the shipped catalog for
    bare names like "z2.cayley"."""
    candidates = [path]
    if "/" not in path:
        base = resources.files("cliffordlab") / "data"
        for name in (path, path + ".json"):
            entry = base / name
            if entry.is_file():
                candidates.insert(0, str(entry))
                break
    for cand in candidates:
        try:
            with open(cand, encoding="utf-8") as fh:
                return docs.parse_document(fh.read())
        except FileNotFoundError:
            continue
        except OSError as exc:  # a directory, or a file that cannot be read
            raise WorkbenchError(f"cannot read {cand}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise WorkbenchError(
                f"cannot read {cand}: not UTF-8 text at byte {exc.start}") from None
    raise WorkbenchError(f"no such document: {path}")


def _parse_point(data, text: str) -> Point:
    """Parse "e,g": e is an element of the metric data's E-model, g a local
    group index or label of the group of its block."""
    try:
        e_part, g_part = text.split(",", 1)
        e = int(e_part)
    except ValueError:
        raise WorkbenchError(f'points look like "e,g", got {text!r}')
    if e not in data.emodel.elements():
        raise WorkbenchError(f"no group block at element {e}")
    group = data.block(e).group
    if g_part.removeprefix("-").isdecimal():
        g = int(g_part)
        if not 0 <= g < group.n:
            raise WorkbenchError(f"group index {g} out of range at {e}")
    else:
        if group.labels is None or g_part not in group.labels:
            raise WorkbenchError(f"unknown group element {g_part!r} at {e}")
        g = group.labels.index(g_part)
    return Point(e, g)


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")] if text else []
    except ValueError:
        raise WorkbenchError(f"expected comma-separated integers, got {text!r}")


class Report:
    """One result in three renderings: text lines, TSV rows, JSON payload."""

    def __init__(self, lines, rows, payload):
        self.lines = lines
        self.rows = rows
        self.payload = payload

    def emit(self, fmt: str):
        if fmt == "structured":
            sys.stdout.write(docs._to_json(self.payload) + "\n")
        elif fmt == "tsv":
            for row in self.rows:
                sys.stdout.write("\t".join(str(c) for c in row) + "\n")
        else:
            for line in self.lines:
                sys.stdout.write(line + "\n")


def _cmd_validate(args):
    doc = _load(args.file)
    docs.build(doc)
    return 0, Report(
        [f"{doc.kind} document {doc.name!r}: valid"],
        [("kind", "name", "valid"), (doc.kind, doc.name, "true")],
        {"kind": doc.kind, "name": doc.name, "valid": True},
    )


def _cmd_classify(args):
    S = docs.build_semigroup(_load(args.file))
    c = classify(S)
    flags = {
        "inverse": c.is_inverse,
        "clifford": c.is_clifford,
        "group": c.is_group,
        "left-cancellative": c.is_left_cancellative,
        "right-cancellative": c.is_right_cancellative,
    }
    present = [k for k, v in flags.items() if v]
    lines = [", ".join(present) if present else "plain semigroup",
             f"idempotents: {', '.join(S.label(e) for e in c.idempotents)}"]
    rows = [("property", "holds")] + [(k, str(v).lower()) for k, v in flags.items()]
    rows.append(("idempotents", ",".join(str(e) for e in c.idempotents)))
    return 0, Report(lines, rows, {**flags, "idempotents": list(c.idempotents)})


def _cmd_decompose(args):
    doc = _load(args.file)
    spec = decompose(docs.build_semigroup(doc))
    body = docs.spec_to_body(spec)
    out = docs.WorkbenchDocument("spec", f"{doc.name}-decomposed", "", body)
    lines = [f"semilattice of {spec.E.n} idempotents"]
    for e in spec.E.elements():
        lines.append(f"  fiber at {spec.E.label(e)}: group of order "
                     f"{spec.groups[e].n}")
    lines.append(f"  bonding maps: {sum(1 for (f, e) in spec.bonding if f != e)}")
    rows = [("e", "fiber_order")] + [
        (e, spec.groups[e].n) for e in spec.E.elements()
    ]
    return 0, Report(lines, rows, docs.document_envelope(out))


def _table_report(title: str, S, name: str):
    """The Cayley table of S: its order and labels, its rows, and the cayley
    document called name."""
    out = docs.WorkbenchDocument("cayley", name, "", docs.semigroup_to_body(S))
    lines = [f"{title} of order {S.n}",
             "elements: " + ", ".join(S.label(x) for x in S.elements())]
    rows = [tuple(row) for row in S.table]
    return 0, Report(lines, rows, docs.document_envelope(out))


def _cmd_assemble(args):
    doc = _load(args.file)
    A = assemble(docs.build_spec(doc))
    return _table_report("assembled semigroup", A.semigroup,
                         f"{doc.name}-assembled")


def _cmd_product(args):
    e_doc, g_doc = _load(args.semilattice), _load(args.group)
    A = direct_product(docs.build_semigroup(e_doc), docs.build_semigroup(g_doc))
    return _table_report("direct product", A.semigroup,
                         f"{e_doc.name}-x-{g_doc.name}")


def _cmd_j_classes(args):
    S = docs.build_semigroup(_load(args.file))
    classes = green_j_classes(S)
    lines = [f"{len(classes)} J-classes"] + [
        "  {" + ", ".join(S.label(x) for x in c) + "}" for c in classes
    ]
    rows = [("class", "members")] + [
        (i, ",".join(str(x) for x in c)) for i, c in enumerate(classes)
    ]
    return 0, Report(lines, rows, {"classes": [list(c) for c in classes]})


def _cmd_trivial_check(args):
    S = docs.build_semigroup(_load(args.file))
    theta = is_trivial_clifford(S)
    if theta is None:
        lines = ["not a semilattice-group direct product"]
        payload = {"trivial": False}
    else:
        lines = ["trivial: isomorphic to a semilattice-group direct product"]
        images = {e: [t[x] for x in sorted(t)] for e, t in theta.items()}
        for e in sorted(images):
            lines.append(f"  theta at idempotent {e}: "
                         + ",".join(str(v) for v in images[e]))
        payload = {"trivial": True,
                   "theta": {str(e): im for e, im in images.items()}}
    rows = [("trivial",), (str(theta is not None).lower(),)]
    return 0, Report(lines, rows, payload)


def _cmd_way_below(args):
    P = docs.build_poset(_load(args.file))
    # way-below is <= on a finite poset
    pairs = [(x, y) for x in P.elements() for y in P.elements() if P.le(x, y)]
    lines = [f"{len(pairs)} way-below pairs"] + [
        f"  {x} << {y}" for x, y in pairs
    ]
    rows = [("x", "y")] + pairs
    return 0, Report(lines, rows, {"pairs": [list(p) for p in pairs]})


def _cmd_basis_check(args):
    P = docs.build_poset(_load(args.file))
    B = _parse_ints(args.basis)
    ok, witness = is_basis(P, B)
    lines = ["basis" if ok else f"not a basis: fails at element {witness}"]
    rows = [("is_basis", "witness"), (str(ok).lower(),
                                      "" if witness is None else witness)]
    return 0 if ok else 1, Report(lines, rows,
                                  {"is_basis": ok, "witness": witness})


def _cmd_topo_check(args):
    model = docs.build_topology_model(_load(args.file))
    continuous, witness = continuity_check(model)
    checks = {"continuous": continuous}
    if continuous and not classify(model.S).is_clifford:
        # J-classes exist in any semigroup; the other conditions need G_e
        checks["mp-check"] = mp_check(model)
    elif continuous:
        rec = prop34_equivalences(model)
        checks.update({
            "mp": rec.mp,
            "j-classes-open": rec.j_classes_open,
            "subgroups-open": rec.subgroups_open,
            "idempotents-discrete": rec.idempotents_discrete,
            "disjoint-union-topology": rec.disjoint_union_topology,
        })
        # the order graph exists only on semilattice models
        if is_semilattice(model.S):
            checks.update(zip(("order-graph-closed", "hausdorff"),
                              order_graph_closed(model)))
        checks["mp-check"] = rec.mp
    lines, rows, payload = [], [("check", "value")], dict(checks)
    for name, val in checks.items():
        lines.append(f"{name}: {str(val).lower()}")
        rows.append((name, str(val).lower()))
    if not continuous:
        lines.append(f"  witness open set: {{{', '.join(map(str, sorted(witness)))}}}")
        payload["witness"] = sorted(witness)
    return (0 if continuous else 1), Report(lines, rows, payload)


def _cmd_basic_set(args):
    doc = _load(args.file)
    A = assemble(docs.build_spec(doc))
    U = _parse_ints(args.u)
    V = _parse_ints(args.v)
    if args.e is None:
        members = sorted(bowman_basic_set(A, U, V))
    else:
        members = sorted(basic_set(A, U, args.e, V))
    S = A.semigroup
    lines = [f"{len(members)} members",
             "  {" + ", ".join(S.label(x) for x in members) + "}"]
    rows = [("member",)] + [(x,) for x in members]
    return 0, Report(lines, rows, {"members": members})


def _distance_report(v):
    text = docs.format_rational(v)
    return 0, Report([text], [("distance",), (text,)], {"distance": text})


def _cmd_metric_eval(args):
    if args.metric != "bowman" and args.truncation is not None:
        raise WorkbenchError(f"--truncation belongs to the series metric; "
                             f"the {args.metric} metric is exact")
    data = docs.build_bowman_data(_load(args.file))
    p, q = _parse_point(data, args.p), _parse_point(data, args.q)
    if args.metric == "yeager":
        return _distance_report(yeager_distance(data, p, q))
    if args.metric == "disjoint":
        return _distance_report(disjoint_union_distance(data, p, q))
    bv = bowman_distance(data, p, q, truncation=args.truncation)
    value = docs.format_rational(bv.value)
    tail = docs.format_rational(bv.tail_bound)
    return 0, Report([f"{value} (tail {tail})"],
                     [("distance", "tail_bound"), (value, tail)],
                     {"distance": value, "tail_bound": tail})


def _cmd_metric_suite(args):
    data = docs.build_bowman_data(_load(args.file))
    points = data.points()
    rep = metric_axiom_suite(
        lambda p, q: bowman_distance(data, p, q, truncation=args.truncation).value,
        points)
    axioms = {
        "non-negativity": rep.negativity,
        "symmetry": rep.symmetry,
        "identity": rep.identity,
        "triangle": rep.triangle,
    }
    lines = [f"{len(points)} points, {len(points) ** 2} pairs"]
    rows = [("axiom", "violations")]
    payload = {"points": len(points), "passed": rep.passed}
    for name, violations in axioms.items():
        status = "ok" if not violations else f"{len(violations)} violations"
        lines.append(f"  {name}: {status}")
        rows.append((name, len(violations)))
        payload[name] = len(violations)
    lines.append("PASS" if rep.passed else "FAIL")
    return (0 if rep.passed else 1), Report(lines, rows, payload)


def _cmd_converge(args):
    data = docs.build_bowman_data(_load(args.file))
    if args.ks:
        ks = _parse_ints(args.ks)
        if min(ks, default=1) < 1:
            raise WorkbenchError(
                f"k must be >= 1: 1/{min(ks)} is no point of the sequence")
    else:  # the default schedule, cut to the elements of this document
        ks = [k for k in CONVERGENCE_SCHEDULE if k in data.emodel.elements()]
    limit = _parse_point(data, f"0,{args.g}")
    rows = [("k", "distance", "distance_float", "tail_bound", "disjoint_union")]
    payload = {"rows": []}
    lines = [f"sequence (1/k, g={args.g}) against ({0}, g={args.g})"]
    for k in ks:
        p = _parse_point(data, f"{k},{args.g}")
        bv = bowman_distance(data, p, limit, truncation=args.truncation)
        value = docs.format_rational(bv.value)
        tail = docs.format_rational(bv.tail_bound)
        dd = docs.format_rational(disjoint_union_distance(data, p, limit))
        rows.append((k, value, f"{float(bv.value):.6e}", tail, dd))
        payload["rows"].append({"k": k, "distance": value, "tail_bound": tail,
                                "disjoint_union": dd})
        lines.append(f"  k={k}: d = {float(bv.value):.6e} "
                     f"(tail {tail}), disjoint-union = {dd}")
    return 0, Report(lines, rows, payload)


def _cmd_c1_probe(args):
    from .charts import rigidity_report

    model = docs.build_chart_model(_load(args.file))
    rep = rigidity_report(model, scan_radius=args.scan, grid_step=args.grid,
                          newton_iters=args.newton)
    n_fp = len(rep.fixed_points_found)
    lines = [f"model {rep.model_name} (dim {model.dim})"]
    if not rep.differentiable_at_origin:
        lines.append(
            f"NOT C1 at idempotent (one-sided mismatch "
            f"{rep.worst_mismatch:.3g}); "
            + (f"fixed-point continuum detected ({n_fp} points)"
               if n_fp >= 10 else f"{n_fp} fixed points found")
        )
    else:
        lines.append(f"C1 at idempotent; displacement derivative "
                     f"smallest singular value {rep.smallest_singular_value:.6g}")
        lines.append(f"prediction: {rep.prediction}")
        lines.append(f"{n_fp} fixed points in the scan ball")
    rows = [("differentiable", "mismatch", "smin", "fixed_points", "prediction")]
    rows.append((
        str(rep.differentiable_at_origin).lower(),
        f"{rep.worst_mismatch:.6g}",
        "" if rep.smallest_singular_value is None
        else f"{rep.smallest_singular_value:.6g}",
        n_fp,
        rep.prediction,
    ))
    payload = {
        "model": rep.model_name,
        "differentiable": rep.differentiable_at_origin,
        "worst_mismatch": rep.worst_mismatch,
        "smallest_singular_value": rep.smallest_singular_value,
        "fixed_points": [list(p) for p in rep.fixed_points_found],
        "prediction": rep.prediction,
    }
    return 0, Report(lines, rows, payload)


def _cmd_demo(args):
    from . import suite

    results = suite.run_all()
    ok = all(r.passed for r in results)
    lines = suite.human_report(results).splitlines()
    rows = [tuple(line.split("\t"))
            for line in suite.machine_report(results).splitlines()]
    payload = {
        "criteria": [
            {"number": r.number, "title": r.title,
             "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": ok,
    }
    return (0 if ok else 1), Report(lines, rows, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffordlab",
        description="workbench for finite Clifford semigroups: structure, "
                    "metrics, topologies, and chart-model probes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "tsv", "structured"),
                       default="text", help="output channel")
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "parse and validate any document", "file")
    add("classify", _cmd_classify, "structural classification of a Cayley table",
        "file")
    add("decompose", _cmd_decompose,
        "Clifford semigroup -> strong-semilattice spec", "file")
    add("assemble", _cmd_assemble, "strong-semilattice spec -> Cayley table",
        "file")
    add("product", _cmd_product, "semilattice x group direct product",
        "semilattice", "group")
    add("j-classes", _cmd_j_classes, "Green's J-classes of a Cayley table",
        "file")
    add("trivial-check", _cmd_trivial_check,
        "is the semigroup a semilattice-group direct product?", "file")
    add("way-below", _cmd_way_below, "way-below relation of a poset", "file")
    p = add("basis-check", _cmd_basis_check, "is a subset a domain basis?",
            "file")
    p.add_argument("--basis", required=True,
                   help="comma-separated element indices")
    add("topo-check", _cmd_topo_check,
        "continuity and openness equivalences of a topology model", "file")
    p = add("basic-set", _cmd_basic_set,
            "W(U,(e,V)) basic set of an assembled spec", "file")
    p.add_argument("--u", required=True, help="idempotent indices of U")
    p.add_argument("--e", type=int, default=None,
                   help="anchor idempotent (omit to anchor at inf U)")
    p.add_argument("--v", required=True, help="local group indices of V")
    p = add("metric-eval", _cmd_metric_eval, "evaluate one distance")
    p.add_argument("metric", choices=("bowman", "yeager", "disjoint"))
    p.add_argument("file")
    p.add_argument("--p", required=True, help='point "e,g"')
    p.add_argument("--q", required=True, help='point "e,g"')
    p.add_argument("--truncation", type=int, default=None,
                   help="cut the series metric after J terms (bowman only)")
    p = add("metric-suite", _cmd_metric_suite,
            "exhaustive metric-axiom check over all points", "file")
    p.add_argument("--truncation", type=int, default=None)
    p = add("converge", _cmd_converge, "distance along the sequence (1/k, g)",
            "file")
    p.add_argument("--ks", default="", help="comma-separated schedule of k")
    p.add_argument("--g", type=int, default=0, help="group element index")
    p.add_argument("--truncation", type=int, default=None)
    p = add("c1-probe", _cmd_c1_probe,
            "differentiability and rigidity probe of a chart model", "file")
    p.add_argument("--scan", type=float, default=None,
                   help="fixed-point scan radius")
    p.add_argument("--grid", type=float, default=0.05, help="seed grid step")
    p.add_argument("--newton", type=int, default=30, help="Newton iterations")
    add("demo", _cmd_demo, "run the built-in verification suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = args.fn(args)
    except WorkbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report.emit(args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
