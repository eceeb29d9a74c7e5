"""The oracles stay independent of the kernels they check.

`suite.oracle_bowman` re-expands the series term by term.  It must not reach
`metrics.bowman_distance` or its integer kernel (profiles, weight supports,
cached state), directly or through a metrics function it calls; otherwise a
fast kernel would check itself.  Likewise the `reference_*` functions of
tests/test_topology.py, the scan-based topology checks, must not reach the
least-open bitmasks of `cliffordlab.topology`.
No `reference_*` function of the tests and not `suite.oracle_bowman` may read
the structure cached on a semigroup or a model: a reference that did would
check the cache against itself.  The finite-difference checks of a chart
model, `suite.oracle_chart_parts`, `suite.oracle_one_sided_gap`, and
`reference_bilinear_parts` and `reference_differentiability_probe` of
tests/test_charts.py, must not reach its polynomial pieces or the exact
helpers of `cliffordlab.charts` that read them.  `reference_isomorphisms`
of tests/test_core.py, the index-order search, must not reach the
isomorphism search or a private name of `cliffordlab.core`, such as the
generating set and closure steps that the search branches on.
`suite.weight_by_definition`, the check of the weight that the oracle and
the kernel share, must not reach an E-model's `a_weight` or the kernel.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cliffordlab"

# public entry points of the kernel; private names of metrics are kernel too
KERNEL = {"bowman_distance", "weight_support"}


def functions(source: str) -> dict:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def names_in(node) -> set:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def names_reached(root, helpers: dict) -> set:
    """Names used by `root` or by any function of `helpers` it reaches."""
    used, todo, seen = set(), [root], set()
    while todo:
        names = names_in(todo.pop())
        used |= names
        for name in names & set(helpers) - seen:
            seen.add(name)
            todo.append(helpers[name])
    return used


def kernel_names_reached(oracle, metrics: dict) -> list[str]:
    """Kernel names used by `oracle` or by any metrics function it reaches."""
    return sorted(n for n in names_reached(oracle, metrics)
                  if n in KERNEL or n.startswith("_"))


def test_kernel_names_are_found_through_helpers():
    metrics = functions("def a_weight(data):\n    return data._profiles\n"
                        "def _profile(data):\n    pass\n")
    oracle = functions("def oracle_bowman(data, p, q):\n"
                       "    return a_weight(data) + bowman_distance(data, p, q)\n")
    assert kernel_names_reached(oracle["oracle_bowman"], metrics) == [
        "_profiles", "bowman_distance"]


def test_oracle_reaches_no_kernel_name():
    source = (PACKAGE / "metrics.py").read_text(encoding="utf-8")
    metrics = functions(source)
    suite = functions((PACKAGE / "suite.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert KERNEL <= defined  # a renamed kernel name must be renamed here
    assert kernel_names_reached(suite["oracle_bowman"], metrics) == []



def test_the_weight_definition_reaches_no_weight_or_kernel_name():
    """suite.weight_by_definition is the independent route to the weight that
    oracle_bowman shares with the kernel: it reads le, rho and elements
    only, never an E-model's own a_weight."""
    metrics = functions((PACKAGE / "metrics.py").read_text(encoding="utf-8"))
    suite = functions((PACKAGE / "suite.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(ast.parse((PACKAGE / "order.py").read_text(
        encoding="utf-8"))) if isinstance(node, ast.FunctionDef)}
    assert "a_weight" in defined  # a renamed weight must be renamed here
    reached = names_reached(suite["weight_by_definition"], {**metrics, **suite})
    assert sorted(n for n in reached
                  if n in KERNEL | {"a_weight"} or n.startswith("_")) == []
    assert {"le", "rho", "elements"} <= reached

# the bitmask view of a topology, the masks a semigroup keeps for the
# topology checks and the checks the references mirror; the private names of
# topology.py are kernel too
TOPOLOGY_KERNEL = {"up", "relation", "arrows", "open_masks", "witness_opens",
                   "is_hausdorff", "j_masks", "jclass_of", "group_masks",
                   "idempotent_mask", "graph", "semilattice",
                   "all_topologies", "continuity_check", "mp_check",
                   "prop34_equivalences", "order_graph_closed"}


def topology_kernel_names_reached(tests_source: str, topology_source: str) -> dict:
    """For each reference_* function of the test source, the kernel names of
    topology.py that it or a test function it calls uses."""
    defined = {node.name for node in ast.walk(ast.parse(topology_source))
               if isinstance(node, ast.FunctionDef)}
    kernel = TOPOLOGY_KERNEL | {n for n in defined if n.startswith("_")}
    helpers = functions(tests_source)
    return {name: sorted(names_reached(node, helpers) & kernel)
            for name, node in helpers.items() if name.startswith("reference_")}


def test_topology_kernel_names_are_found_through_helpers():
    tests_source = ("def reference_a(T):\n    return helper(T)\n"
                    "def helper(T):\n    return T.up, _mask(T.opens)\n")
    topology_source = "def _mask(A):\n    pass\n"
    assert topology_kernel_names_reached(tests_source, topology_source) == {
        "reference_a": ["_mask", "up"]}


def test_topology_references_reach_no_kernel_name():
    topology_source = (PACKAGE / "topology.py").read_text(encoding="utf-8")
    tree = ast.parse(topology_source)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    # the annotated fields of its classes, such as FiniteTopology.up
    defined |= {node.target.id for node in ast.walk(tree)
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    assert TOPOLOGY_KERNEL <= defined  # a renamed kernel name must be renamed here
    tests_source = (pathlib.Path(__file__).parent / "test_topology.py").read_text(
        encoding="utf-8")
    reached = topology_kernel_names_reached(tests_source, topology_source)
    assert len(reached) >= 7
    assert reached == {name: [] for name in reached}


# the cached properties of FiniteSemigroup (core.py) and of
# TopologicalSemigroupModel (topology.py)
CACHED = {"classification", "pi_fibers", "j_classes", "topology_masks",
          "continuity", "mp"}


def cached_properties(source: str, cls: str) -> set:
    """The names of the cached properties that class `cls` of the source
    defines."""
    body = next(node.body for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    return {node.name for node in body if isinstance(node, ast.FunctionDef)
            and "cached_property" in set().union(*map(names_in, node.decorator_list))}


def functools_cached_property_lines(source: str) -> list[int]:
    """The lines of the source that import or read functools.cached_property,
    whose first read takes a class-wide lock before Python 3.12; the package
    has its own in core."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "functools"}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(a.name == "cached_property" for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
        and isinstance(node.value, ast.Name) and node.value.id in modules)


def test_functools_cached_property_is_found():
    source = ("import functools\nimport functools as ft\n"
              "from functools import reduce, cached_property\n"
              "from .core import cached_property\n"
              "class A:\n    @functools.cached_property\n    def a(self):\n"
              "        pass\n    @ft.cached_property\n    def b(self):\n"
              "        pass\n    @cached_property\n    def c(self):\n        pass\n")
    assert functools_cached_property_lines(source) == [3, 6, 9]


def test_no_module_uses_functools_cached_property():
    hits = {path.name: functools_cached_property_lines(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.parent.rglob("*.py"))}
    assert len(hits) >= 12
    assert hits == {name: [] for name in hits}


def cached_reads(root, helpers: dict) -> list[str]:
    """The cached properties read, as attributes, by `root` or by any
    function of `helpers` it reaches."""
    reached = [root, *(helpers[name] for name in names_reached(root, helpers)
                       if name in helpers)]
    return sorted(CACHED & {n.attr for node in reached for n in ast.walk(node)
                            if isinstance(n, ast.Attribute)})


def cached_names_reached(source: str) -> dict:
    """For each reference_* function of the source, the cached properties
    that it or a function of the source it calls reads."""
    helpers = functions(source)
    return {name: cached_reads(node, helpers)
            for name, node in helpers.items() if name.startswith("reference_")}


def test_cached_names_are_found_through_helpers():
    source = ("def reference_a(S):\n    return helper(S)\n"
              "def helper(S):\n    j_classes = 0\n"
              "    return S.pi_fibers, S.table, j_classes\n"
              "class Model:\n    @functools.cached_property\n"
              "    def continuity(self):\n        pass\n")
    assert cached_names_reached(source) == {"reference_a": ["pi_fibers"]}
    assert cached_properties(source, "Model") == {"continuity"}


def test_references_and_the_oracle_read_no_cached_structure():
    core_source = (PACKAGE / "core.py").read_text(encoding="utf-8")
    topology_source = (PACKAGE / "topology.py").read_text(encoding="utf-8")
    # a renamed or added property must be named here
    assert (cached_properties(core_source, "FiniteSemigroup")
            | cached_properties(topology_source, "TopologicalSemigroupModel")) == CACHED
    reached = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for name, names in cached_names_reached(path.read_text(encoding="utf-8")).items():
            reached[f"{path.stem}.{name}"] = names
    assert len(reached) >= 20
    assert reached == {name: [] for name in reached}
    helpers = {**functions((PACKAGE / "metrics.py").read_text(encoding="utf-8")),
               **functions((PACKAGE / "suite.py").read_text(encoding="utf-8"))}
    assert cached_reads(helpers["oracle_bowman"], helpers) == []


# the exact route of the rigidity verdict: the polynomial pieces of a chart
# model and the helpers of charts.py that read them; its private names are
# kernel too
CHART_KERNEL = {"pieces", "_symbolic_parts", "_matmul", "_nonsingular"}


def chart_kernel_names_reached(root, helpers: dict, charts_source: str) -> list[str]:
    """Exact-route names used by `root` or by any function of `helpers` or
    of charts.py that it reaches."""
    charts = functions(charts_source)
    kernel = CHART_KERNEL | {n for n in charts if n.startswith("_")}
    return sorted(names_reached(root, {**charts, **helpers}) & kernel)


def test_chart_kernel_names_are_found_through_helpers():
    helpers = functions("def oracle(model):\n    return helper(model)\n"
                        "def helper(model):\n    return parts(model)\n")
    charts_source = ("def parts(model):\n    return model.pieces\n"
                     "def _exact(A):\n    pass\n")
    assert chart_kernel_names_reached(helpers["oracle"], helpers, charts_source) == [
        "pieces"]
    helpers = functions("def oracle(model):\n    return _exact(model)\n")
    assert chart_kernel_names_reached(helpers["oracle"], helpers, charts_source) == [
        "_exact"]


def test_chart_oracles_reach_no_exact_part():
    charts_source = (PACKAGE / "charts.py").read_text(encoding="utf-8")
    nodes = list(ast.walk(ast.parse(charts_source)))
    # function names and class fields such as ChartModel.pieces
    defined = ({n.name for n in nodes if isinstance(n, ast.FunctionDef)}
               | {n.target.id for n in nodes
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)})
    assert CHART_KERNEL <= defined  # a renamed helper must be renamed here
    suite = functions((PACKAGE / "suite.py").read_text(encoding="utf-8"))
    tests = functions((pathlib.Path(__file__).parent / "test_charts.py").read_text(
        encoding="utf-8"))
    for oracle in ("oracle_chart_parts", "oracle_one_sided_gap"):
        assert chart_kernel_names_reached(suite[oracle], suite, charts_source) == []
    for reference in ("reference_bilinear_parts", "reference_differentiability_probe"):
        assert chart_kernel_names_reached(tests[reference], tests, charts_source) == []


# the isomorphism search of core.py; its private names, the generators and
# their closure steps among them, are kernel too
SEARCH_KERNEL = {"isomorphisms", "iso_equivalent"}


def search_kernel_names_reached(root, helpers: dict, core_source: str) -> list[str]:
    """Search names used by `root` or by any function of `helpers` it
    reaches."""
    top = {node.name for node in ast.parse(core_source).body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    kernel = SEARCH_KERNEL | {n for n in top if n.startswith("_")}
    return sorted(names_reached(root, helpers) & kernel)


def test_search_kernel_names_are_found_through_helpers():
    helpers = functions("def reference_isomorphisms(G, H, budget):\n"
                        "    return helper(G)\n"
                        "def helper(G):\n    return _generators(G.table)\n")
    core_source = "def _generators(rows):\n    pass\n"
    assert search_kernel_names_reached(
        helpers["reference_isomorphisms"], helpers, core_source) == ["_generators"]


def test_the_isomorphism_reference_reaches_no_search_name():
    core_source = (PACKAGE / "core.py").read_text(encoding="utf-8")
    tests = functions((pathlib.Path(__file__).parent / "test_core.py").read_text(
        encoding="utf-8"))
    top = {node.name for node in ast.parse(core_source).body
           if isinstance(node, ast.FunctionDef)}
    assert {"isomorphisms", "_generators"} <= top  # a renamed name must be renamed here
    assert search_kernel_names_reached(
        tests["reference_isomorphisms"], tests, core_source) == []
