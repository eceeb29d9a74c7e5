"""Every name a library module imports is used in that module, every
private helper of the package is used somewhere in it, only `metrics`
reads the per-element format of metric data, only `suite` forks, `order`
imports no package module but `errors`, and only the chart path loads
numpy: the other modules import neither numpy nor `charts` or `suite` when
they load, and the package re-exports `charts` lazily.

`__init__.py` is left out of the first check: its imports are the
package's re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

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
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
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
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout == "[0, 0, 0] False True\n"


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
    import cliffordlab

    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert not package_imports(source) & set(cliffordlab._CHART_NAMES)
    assert sorted(cliffordlab.__all__) == sorted(
        package_imports(source) | set(cliffordlab._CHART_NAMES))
    assert len(cliffordlab.__all__) == len(set(cliffordlab.__all__))


def test_lazy_names_are_the_charts_objects():
    import cliffordlab
    from cliffordlab import charts

    for name in cliffordlab._CHART_NAMES:
        assert getattr(cliffordlab, name) is getattr(charts, name)
        assert name in dir(cliffordlab)
    star = {}
    exec("from cliffordlab import *", star)
    assert all(star[name] is getattr(cliffordlab, name) for name in cliffordlab.__all__)
    assert not hasattr(cliffordlab, "no_such_name")
