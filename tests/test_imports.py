"""Every name a library module imports is used in that module, every
private helper of the package is used somewhere in it, only `metrics`
reads the per-element format of metric data, only `suite` forks, `order`
imports no package module but `errors`, `core` imports no `semilattice`,
and each layer loads on first use: `import cliffordlab` loads no layer
module, the package reads every exported name from the module its one
table names, the document reader loads only the structure layers, only
the chart path loads numpy (no other module imports numpy, `charts` or
`suite` when it loads), and README's library example runs as written.
"""

import ast
import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cliffordlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for line, name in sorted((line, name) for name, line in imported.items())
            if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


def test_no_module_imports_an_unused_name():
    hits = [f"{path.name} {hit}"
            for path in sorted(PACKAGE.glob("*.py"))
            for hit in unused_imports(path.read_text(encoding="utf-8"))]
    assert hits == []


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes of the given modules
    (name to source) that no top-level statement of any of them, other than
    the definition itself, names: as a name, an attribute or an import."""
    statements = [(module, node) for module, source in sorted(sources.items())
                  for node in ast.parse(source).body]

    def names(node):
        return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                   for a in n.names})

    named = [names(node) for _, node in statements]
    return [f"{module} {node.name}" for k, (module, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(node.name in other for i, other in enumerate(named) if i != k)]


def test_dead_helpers_are_found():
    sources = {"a": "def _dead():\n    return _dead()\n"
                    "def _local():\n    pass\n"
                    "class _Imported:\n    pass\n"
                    "def _attribute():\n    pass\n"
                    "def public():\n    return _local()\n",
               "b": "from .a import _Imported\nimport a\nx = a._attribute\n"}
    assert dead_helpers(sources) == ["a _dead"]


def test_no_private_helper_is_dead():
    assert dead_helpers({path.name: path.read_text(encoding="utf-8")
                         for path in PACKAGE.glob("*.py")}) == []


# the per-element format of metric data: its block and map dicts (each entry
# stands for the elements that read it) and the profile cache
PER_ELEMENT_FORMAT = {"blocks", "_profiles"}


def attribute_reads(source: str, names) -> list[str]:
    """The reads of the named attributes in the source, by line."""
    return [f"line {line}: .{attr}" for line, attr in sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names)]


def test_attribute_reads_are_found():
    source = ("y = d._profiles\nx = data.blocks[0]\n"
              "z = data.block(0)\nblocks = {}\nw = blocks\n")
    assert attribute_reads(source, PER_ELEMENT_FORMAT) == [
        "line 1: ._profiles", "line 2: .blocks"]


def test_only_metrics_reads_the_per_element_format():
    hits = [f"{path.name} {hit}" for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "metrics.py"
            for hit in attribute_reads(path.read_text(encoding="utf-8"),
                                       PER_ELEMENT_FORMAT)]
    assert hits == []


def test_only_suite_forks():
    """run_all's one child is the only process the package forks: one
    `.fork` read, in suite.py, and no `from os import fork` anywhere."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, source in sources.items()
            for _ in attribute_reads(source, {"fork"})] == ["suite.py"]
    assert not any(alias.name == "fork" for source in sources.values()
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ImportFrom) for alias in node.names)


LEAN_MODULES = ("core.py", "semilattice.py", "documents.py", "order.py",
                "metrics.py", "topology.py", "catalog.py", "cli.py")


def module_level_imports(source: str) -> list[str]:
    """Top-level package names a module imports when it is loaded: every
    import statement outside a function body.  A relative import is
    reported with its dot, as ".charts" for `from .charts import x` and
    `from . import charts`."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module.split(".")[0])
            elif isinstance(child, ast.ImportFrom):
                names = [child.module] if child.module else [a.name for a in child.names]
                found.extend("." + name.split(".")[0] for name in names)
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_imports_are_found():
    source = ("import numpy.linalg as la\n"
              "try:\n    from numpy import array\nexcept ImportError:\n    pass\n"
              "from .charts import x\n"
              "from . import suite, catalog as cat\n"
              "def f():\n    import json\n    from . import charts\n"
              "class C:\n    import math\n")
    assert module_level_imports(source) == [
        "numpy", "numpy", ".charts", ".suite", ".catalog", "math"]


def test_algebra_modules_do_not_import_numpy_at_module_level():
    hits = [name for name in LEAN_MODULES
            if "numpy" in module_level_imports((PACKAGE / name).read_text(encoding="utf-8"))]
    assert hits == []


def test_lean_modules_do_not_import_charts_or_suite_at_module_level():
    hits = [f"{name} {found}" for name in LEAN_MODULES
            for found in module_level_imports((PACKAGE / name).read_text(encoding="utf-8"))
            if found in (".charts", ".suite")]
    assert hits == []


def test_order_imports_no_package_module_but_errors():
    # the poset layer sits below the algebra: the semilattice minimum is
    # read off E by the E-model in metrics
    found = module_level_imports((PACKAGE / "order.py").read_text(encoding="utf-8"))
    assert [name for name in found if name.startswith(".")] == [".errors"]


def test_core_imports_no_semilattice():
    # core sits below semilattice: the trivial check reads the table itself,
    # so no function of core imports semilattice either
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (
                    "semilattice" in (node.module or "")
                    or any(alias.name == "semilattice" for alias in node.names))
                or isinstance(node, ast.Import)
                and any("semilattice" in alias.name for alias in node.names)]


NUMPY_PROBE = """
import contextlib, io, sys
import cliffordlab, cliffordlab.core, cliffordlab.semilattice, cliffordlab.order
import cliffordlab.metrics, cliffordlab.topology, cliffordlab.documents
import cliffordlab.catalog, cliffordlab.cli
from cliffordlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["classify", "z2.cayley"]), main(["converge", "twochain.metric"])]
    before = "numpy" in sys.modules
    codes.append(main(["c1-probe", "additive.chart"]))
print(codes, before, "numpy" in sys.modules)
"""


def test_numpy_loads_only_on_the_chart_path():
    assert run_python(NUMPY_PROBE) == "[0, 0, 0] False True\n"


def package_imports(source: str) -> set[str]:
    """The names an __init__ module binds with `from .module import ...`."""
    return {alias.asname or alias.name
            for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_package_imports_are_found():
    assert package_imports("from .a import b, c as d\nimport os\nfrom x import y\n") == {
        "b", "d"}


def test_all_lists_exactly_the_names_the_package_imports():
    # the package imports every name it exports through its one table,
    # and no `from .module import` binds one when it loads
    import cliffordlab

    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert package_imports(source) == set()
    assert cliffordlab.__all__ == sorted(cliffordlab._EXPORTS)
    assert len(cliffordlab.__all__) == len(set(cliffordlab.__all__))


def test_lazy_names_are_the_charts_objects():
    # every exported name is lazy, the charts names among them: each is
    # the object of the module the table names, and unknown names and
    # submodules behave as on any package
    import cliffordlab

    for name, module in cliffordlab._EXPORTS.items():
        assert getattr(cliffordlab, name) is getattr(import_module(f"cliffordlab.{module}"),
                                                     name)
        assert name in dir(cliffordlab)
    star = {}
    exec("from cliffordlab import *", star)
    assert all(star[name] is getattr(cliffordlab, name) for name in cliffordlab.__all__)
    assert not hasattr(cliffordlab, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        cliffordlab.no_such_name
    namespace = {}
    exec("from cliffordlab import catalog", namespace)
    assert namespace["catalog"] is import_module("cliffordlab.catalog")


def run_python(code: str) -> str:
    """The stdout of `code` in a fresh interpreter that imports the package
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path)).stdout


LOADED = 'print(sorted(m for m in sys.modules if m.partition(".")[0] == "cliffordlab"))'


@pytest.mark.parametrize("module, loaded", [
    ("cliffordlab", []),
    ("cliffordlab.documents", ["core", "documents", "errors", "semilattice"]),
    ("cliffordlab.topology", ["core", "errors", "topology"]),
])
def test_each_module_loads_only_the_layers_it_imports(module, loaded):
    assert run_python(f"import sys, {module}\n{LOADED}") == "{}\n".format(
        ["cliffordlab", *(f"cliffordlab.{name}" for name in loaded)])


SHIPPED = """
import sys
from importlib import resources
import cliffordlab.documents as docs

def read(name):
    return docs.parse_document((resources.files("cliffordlab") / "data" / name).read_text())
"""


@pytest.mark.parametrize("call, kind, layers", [
    ("docs.build_poset(read('chain3.poset.json'))", "FinitePoset", ["order"]),
    ("docs.build_topology_model(read('sierpinski.topology.json'))",
     "TopologicalSemigroupModel", ["topology"]),
    ("docs.build_bowman_data(read('flat3.metric.json'))", "BowmanMetricData",
     ["metrics", "order"]),
    ("docs.build_bowman_data(read('twochain.metric.json'))", "BowmanMetricData",
     ["metrics", "order"]),
])
def test_each_builder_loads_its_own_layers(call, kind, layers):
    # a fresh reader has loaded none of them, so the builder's own import runs
    out = run_python(f"{SHIPPED}\nbefore = set(sys.modules)\n"
                     f"print(*(c.__name__ for c in type({call}).__mro__))\n"
                     "print(sorted(m for m in set(sys.modules) - before\n"
                     "             if m.startswith('cliffordlab.')))\n").splitlines()
    assert kind in out[0].split()
    assert out[1] == str([f"cliffordlab.{layer}" for layer in layers])


def test_basic_set_runs_without_semilattice_in_the_topology_namespace():
    out = run_python("import cliffordlab.topology as topology\n"
                     "from cliffordlab import catalog, semilattice\n"
                     "A = semilattice.assemble(catalog.spec_catalog()['chain2-z4-z2-mod'])\n"
                     "print(sorted(topology.basic_set(A, [0, 1], 0, [0])),\n"
                     "      sorted(topology.bowman_basic_set(A, [0, 1], [0])),\n"
                     "      hasattr(topology, 'Assembled'))")
    assert out == "[0, 2, 4] [0, 2, 4] False\n"


def readme_library_example() -> str:
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_library_example_runs_without_numpy():
    out = run_python(readme_library_example() + "import sys\nprint('numpy' in sys.modules)\n")
    assert out == "False\n"
