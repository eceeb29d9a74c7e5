"""The four closed-loop workloads: one client, no think time, no threads.

Each workload has
- `inputs(seed, ctx)`: generated inputs (no cliffordlab import),
- `prepare(inputs, ctx)`: program-side set-up before the first op (this is
  what setup_s times, together with `import cliffordlab`),
- `ops(state, ctx)`: one pass of the fixed op list, as (name, run, check)
  triples.  `run()` is the timed call; `check(result)` returns None or a
  failure message and is not timed.

cliffordlab functions are always looked up through their module at call
time, so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import gen

A000798 = {1: 1, 2: 4, 3: 29, 4: 355}   # labelled topologies on n points


class Context:
    """Paths and switches shared by the workloads of one run."""

    def __init__(self, root, recorded):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench", "work")
        self.recorded = recorded
        self.in_process_cli = False
        self.peak_child_kib = 0


def _is_isomorphism(mapping, A, B):
    n = len(A)
    if mapping is None or sorted(mapping) != list(range(n)):
        return False
    return all(mapping[A[x][y]] == B[mapping[x]][mapping[y]]
               for x in range(n) for y in range(n))


def _tables(S):
    return [list(row) for row in S.table]


class Workload:
    """Defaults; `prepare_reads_inputs` tells the set-up probes whether
    they must generate the inputs before timing `prepare`, and `gauged`
    whether the timed runs use the speed gauge (speed.py)."""

    prepare_reads_inputs = False
    gauged = True

    @staticmethod
    def inputs(seed, ctx):
        return None


# ---------------------------------------------------------------------------
# suite: one op is one in-process suite.run_all()


class Suite(Workload):
    name = "suite"

    @staticmethod
    def prepare(inputs, ctx):
        import cliffordlab.suite  # noqa: F401
        return None

    @staticmethod
    def ops(state, ctx):
        from cliffordlab import suite
        expected = ctx.recorded["suite_machine_report"]

        def check(results):
            failed = [r.number for r in results if not r.passed]
            if failed:
                return f"criteria failed: {failed}"
            if suite.machine_report(results) != expected:
                return "machine_report differs from the recorded TSV"
            return None

        yield "run_all", lambda: suite.run_all(), check


# ---------------------------------------------------------------------------
# structure: one op is one generated Clifford semigroup through the pipeline


class Structure(Workload):
    name = "structure"

    @staticmethod
    def inputs(seed, ctx):
        return gen.structure_inputs(seed)

    @staticmethod
    def prepare(inputs, ctx):
        import cliffordlab.documents  # noqa: F401
        return inputs

    @staticmethod
    def ops(state, ctx):
        from cliffordlab import core, documents, semilattice
        for op in state:
            def run(op=op):
                doc = documents.parse_document(op["spec_text"])
                spec = documents.build_spec(doc)
                S = semilattice.assemble(spec).semigroup
                cls = core.classify(S)
                spec2 = semilattice.decompose(S)
                text2 = documents.serialize_document(documents.WorkbenchDocument(
                    "spec", op["name"], "", documents.spec_to_body(spec2)))
                S2 = semilattice.assemble(
                    documents.build_spec(documents.parse_document(text2))).semigroup
                out = {"S": S, "S2": S2, "clifford": cls.is_clifford,
                       "round_trip": semilattice.iso_equivalent(S, S2),
                       "j": core.green_j_classes(S),
                       "trivial": core.is_trivial_clifford(S)}
                if "twin_text" in op:
                    twin = documents.build_semigroup(
                        documents.parse_document(op["twin_text"]))
                    out["twin_iso"] = semilattice.iso_equivalent(S, twin)
                return out

            def check(r, op=op):
                S = _tables(r["S"])
                if S != op["table"]:
                    return "assembled table differs from the spec's product rule"
                if not r["clifford"]:
                    return "assembled semigroup not classified Clifford"
                if not _is_isomorphism(r["round_trip"], S, _tables(r["S2"])):
                    return "round trip gave no isomorphism"
                if r.get("twin_iso") is not None:
                    return "iso_equivalent maps a same-signature non-isomorphic twin"
                if sorted(r["j"]) != op["fibres"]:
                    return "J-classes differ from the group fibres"
                if op["trivial"] != (r["trivial"] is not None):
                    return f"is_trivial_clifford wrong (expected {op['trivial']})"
                return None

            yield op["name"], run, check


# ---------------------------------------------------------------------------
# topology: one op is one (semigroup, topology) model; enumerations are ops


def _alexandrov_continuous(table, inverse, opens):
    """Continuity by monotonicity: with U_x the least open set around x,
    multiplication is continuous iff U_x U_y lies in U_xy, and inversion iff
    inv(U_x) lies in U_inv(x)."""
    n = len(table)
    least = [frozenset(range(n)).intersection(*[O for O in opens if x in O])
             for x in range(n)]
    for x in range(n):
        for y in range(n):
            target = least[table[x][y]]
            if any(table[a][b] not in target for a in least[x] for b in least[y]):
                return False
    if inverse is not None:
        return all(inverse[a] in least[inverse[x]] for x in range(n) for a in least[x])
    return True


class Topology(Workload):
    name = "topology"
    prepare_reads_inputs = True

    @staticmethod
    def inputs(seed, ctx):
        return gen.topology_inputs(seed, ctx.recorded["catalog_tables"])

    @staticmethod
    def prepare(inputs, ctx):
        from cliffordlab import core
        import cliffordlab.topology  # noqa: F401
        return [(item, core.validate_semigroup(item["table"])) for item in inputs]

    @staticmethod
    def ops(state, ctx):
        from cliffordlab import topology
        expected = ctx.recorded["catalog_continuous"]
        tally = {"catalog": 0}
        for n in (1, 2, 3, 4):
            found = []

            def enum(n=n, found=found):
                found[:] = list(topology.all_topologies(n))
                return len(found)

            def count(k, n=n):
                return None if k == A000798[n] else f"{k} topologies on {n} points"

            yield f"all_topologies-{n}", enum, count
            for item, S in state:
                if S.n != n:
                    continue
                for i, T in enumerate(found):
                    yield f"{item['name']}-t{i}", *_model_op(item, S, T, tally, topology)
        # The count of continuous catalog models must be the recorded one.
        yield ("catalog-continuous", lambda: tally["catalog"],
               lambda k: None if k == expected else
               f"{k} continuous catalog models, recorded {expected}")


def _model_op(item, S, T, tally, topology):
    def run():
        model = topology.TopologicalSemigroupModel(S, T)
        continuous, _ = topology.continuity_check(model)
        out = {"continuous": continuous}
        if continuous and item["clifford"]:
            out["record"] = topology.prop34_equivalences(model)
            out["mp"] = topology.mp_check(model)
            if item["semilattice"]:
                out["order_graph"] = topology.order_graph_closed(model)
        return out

    def check(r):
        opens = [frozenset(O) for O in T.opens]
        if r["continuous"] != _alexandrov_continuous(item["table"], item["inverse"], opens):
            return "continuity_check disagrees with the monotonicity oracle"
        if item["catalog"]:
            tally["catalog"] += r["continuous"]
        if "record" not in r:
            return None
        rec = r["record"]
        j_open = all(c in opens for c in item["j_classes"])
        if not rec.all_equal() or rec.mp != r["mp"] or rec.j_classes_open != j_open:
            return "openness conditions disagree"
        if "order_graph" in r:
            closed, hausdorff = r["order_graph"]
            discrete = len(opens) == 1 << S.n
            if not closed == hausdorff == discrete:
                return "order graph / Hausdorff / discreteness disagree"
        return None

    return run, check


# ---------------------------------------------------------------------------
# cli: one op is one `python -m cliffordlab.cli ... --format tsv` process


# Known defects: these ended in a Python traceback when the outputs were
# recorded (see record.py).
DEFECTS = {
    "converge-flat3-default": ["converge", "flat3.metric"],
    "converge-flat3-ks9": ["converge", "flat3.metric", "--ks", "9"],
    "basic-set-u9": ["basic-set", "twochain.spec", "--u", "0,9", "--v", "0"],
    "c1-probe-grid0": ["c1-probe", "additive.chart", "--grid", "0"],
    "spec-bonding-5to0": ["validate", "{work}/bad-bonding-key.spec.json"],
}


def cli_op_list(work):
    """(op id, argv, expect) for every cli op.  expect is
    "ok" (exit code and stdout as recorded) or "reject" (exit 1, empty
    stdout, an `error:` line on stderr)."""
    g = work + "/gen-"
    ok = {
        "validate-z2": ["validate", "z2.cayley"],
        "classify-z2": ["classify", "z2.cayley"],
        "assemble-twochain": ["assemble", "twochain.spec"],
        "way-below-chain3": ["way-below", "chain3.poset"],
        "basis-check-chain3": ["basis-check", "chain3.poset", "--basis", "0,1,2"],
        "topo-check-sierpinski": ["topo-check", "sierpinski.topology"],
        "basic-set-twochain": ["basic-set", "twochain.spec", "--u", "0,1", "--v", "0"],
        "metric-eval-bowman": ["metric-eval", "bowman", "twochain.metric",
                               "--p", "1,a", "--q", "1,b"],
        "metric-eval-disjoint": ["metric-eval", "disjoint", "twochain.metric",
                                 "--p", "1,a", "--q", "0,z"],
        "metric-suite-flat3": ["metric-suite", "flat3.metric"],
        "converge-flat3": ["converge", "flat3.metric", "--ks", "1,2,3"],
        "c1-probe-additive": ["c1-probe", "additive.chart"],
        "c1-probe-minplus": ["c1-probe", "minplus.chart", "--scan", "0.5"],
        "gen-assemble": ["assemble", g + "spec.json"],
        "gen-basic-set": ["basic-set", g + "spec.json", "--u", "0", "--v", "0"],
        "gen-classify": ["classify", g + "clifford.json"],
        "gen-decompose": ["decompose", g + "clifford.json"],
        "gen-j-classes": ["j-classes", g + "clifford.json"],
        "gen-trivial-check": ["trivial-check", g + "product.json"],
        "gen-product": ["product", g + "semilattice.json", "z2.cayley"],
        "gen-way-below": ["way-below", g + "poset.json"],
        "gen-basis-check": ["basis-check", g + "poset.json", "--basis", "0,1,2,3"],
        "gen-topo-check": ["topo-check", g + "topology.json"],
        "gen-metric-eval": ["metric-eval", "bowman", g + "spec-metric.json",
                            "--p", "0,0", "--q", "1,0"],
        "gen-converge": ["converge", g + "flat-metric.json", "--ks", "1,5,20,60",
                         "--g", "1"],
        "gen-c1-probe": ["c1-probe", g + "chart.json", "--scan", "0.2", "--grid", "0.1"],
    }
    reject = {
        "reject-unknown-field": ["validate", work + "/unknown-field.json"],
        "reject-bad-json": ["classify", work + "/bad-json.json"],
        "reject-not-associative": ["classify", work + "/not-associative.json"],
        "reject-not-semilattice": ["product", "z2.cayley", "z2.cayley"],
        "reject-bad-point": ["metric-eval", "bowman", "twochain.metric",
                             "--p", "x", "--q", "1,a"],
        "reject-missing-file": ["classify", work + "/missing.json"],
        "reject-truncation-0": ["metric-eval", "bowman", "twochain.metric",
                                "--p", "1,a", "--q", "1,b", "--truncation", "0"],
    }
    reject.update({k: [a.format(work=work) for a in v] for k, v in DEFECTS.items()})
    return ([(k, v, "ok") for k, v in ok.items()]
            + [(k, v, "reject") for k, v in reject.items()])


def write_cli_documents(work, shipped_twochain_spec):
    """Generated and malformed documents for the cli op list.  The generated
    ones come from a fixed generator seed so that their outputs can be
    pinned against the recorded ones."""
    os.makedirs(work, exist_ok=True)
    docs = {f"gen-{k[4:]}.json": v
            for k, v in gen.cli_documents(random.Random("cli-documents")).items()}
    z2 = {"kind": "cayley", "meta": {"name": "z2"},
          "body": {"n": 2, "table": [[0, 1], [1, 0]]}}
    docs["unknown-field.json"] = json.dumps({**z2, "extra": 1})
    docs["bad-json.json"] = '{"kind": "cayley", "meta": '
    docs["not-associative.json"] = json.dumps(
        {**z2, "body": {"n": 2, "table": [[1, 0], [0, 0]]}})
    bad = json.loads(shipped_twochain_spec)
    bad["body"]["bonding"]["5->0"] = [0, 0]
    docs["bad-bonding-key.spec.json"] = json.dumps(bad)
    for name, text in docs.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)


class CliTraceback(Exception):
    """A cli process ended in a Python traceback instead of an `error:`
    line; the op counts as failed by error."""


def check_cli(expect, recorded, code, out, err):
    """None, or why the output departs from the expected one."""
    if expect == "reject":
        if code != 1 or out or not any(line.startswith("error:")
                                       for line in err.splitlines()):
            return f"rejection expected, got exit {code}"
        return None
    digest = hashlib.sha256(out.encode()).hexdigest()
    if code != recorded["exit"] or digest != recorded["stdout_sha256"]:
        return f"exit {code} / stdout differ from the recorded output"
    return None


class Cli(Workload):
    name = "cli"
    # A cli op waits for a child process: gauge samples taken meanwhile
    # would run beside the child instead of in its place, so cli times
    # stay raw.
    gauged = False

    @staticmethod
    def inputs(seed, ctx):
        work = os.path.relpath(os.path.join(ctx.work, "cli"), ctx.root)
        with open(os.path.join(ctx.src, "cliffordlab", "data", "twochain.spec.json"),
                  encoding="utf-8") as fh:
            write_cli_documents(work, fh.read())
        ops = cli_op_list(work)
        random.Random(f"cli-{seed}").shuffle(ops)
        return ops

    @staticmethod
    def prepare(inputs, ctx):
        import cliffordlab.cli  # noqa: F401
        return inputs

    @staticmethod
    def ops(state, ctx):
        recorded = ctx.recorded["cli"]
        run_op = _cli_in_process if ctx.in_process_cli else _cli_process
        for op_id, argv, expect in state:
            def run(argv=argv):
                code, out, err = run_op(ctx, argv + ["--format", "tsv"])
                if "Traceback (most recent call last)" in err:
                    raise CliTraceback(err.strip().splitlines()[-1])
                return code, out, err

            def check(r, op_id=op_id, expect=expect):
                return check_cli(expect, recorded.get(op_id), *r)

            yield op_id, run, check


def _cli_process(ctx, argv):
    """Run one cli process; (exit code, stdout, stderr).  Keeps the largest
    child RSS in ctx.peak_child_kib."""
    env = dict(os.environ, PYTHONPATH=ctx.src)
    outs = [io.BytesIO(), io.BytesIO()]
    proc = subprocess.Popen([sys.executable, "-m", "cliffordlab.cli", *argv],
                            cwd=ctx.root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc, outs)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.peak_child_kib = max(ctx.peak_child_kib, usage.ru_maxrss)
    return proc.returncode, out, err


def _drain(proc, outs):
    """Read both pipes to the end without reaping the child (so that
    os.wait4 can collect its resource usage)."""
    import selectors
    sel = selectors.DefaultSelector()
    for pipe, buf in zip((proc.stdout, proc.stderr), outs):
        sel.register(pipe, selectors.EVENT_READ, buf)
    while sel.get_map():
        for key, _ in sel.select():
            chunk = os.read(key.fd, 65536)
            if chunk:
                key.data.write(chunk)
            else:
                sel.unregister(key.fileobj)
                key.fileobj.close()
    sel.close()
    return tuple(b.getvalue().decode("utf-8", "replace") for b in outs)


def _cli_in_process(ctx, argv):
    """cliffordlab.cli.main(argv) in this process, for the traced run; the
    known defects raise out of it."""
    from cliffordlab import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Suite, Structure, Topology, Cli)}

