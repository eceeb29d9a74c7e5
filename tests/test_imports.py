"""Every name a library module imports is used in that module, and the
algebra modules load no numpy of their own.

`__init__.py` is left out of the first check: its imports are the
package's re-exports.
"""

import ast
import pathlib

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


ALGEBRA_MODULES = ("core.py", "semilattice.py", "documents.py", "order.py")


def module_level_imports(source: str) -> list[str]:
    """Top-level package names a module imports when it is loaded: every
    import statement outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module.split(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_imports_are_found():
    source = ("import numpy.linalg as la\n"
              "try:\n    from numpy import array\nexcept ImportError:\n    pass\n"
              "from .charts import x\n"
              "def f():\n    import json\n"
              "class C:\n    import math\n")
    assert module_level_imports(source) == ["numpy", "numpy", "math"]


def test_algebra_modules_do_not_import_numpy_at_module_level():
    hits = [name for name in ALGEBRA_MODULES
            if "numpy" in module_level_imports((PACKAGE / name).read_text(encoding="utf-8"))]
    assert hits == []


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
    assert sorted(cliffordlab.__all__) == sorted(package_imports(source))
    assert len(cliffordlab.__all__) == len(set(cliffordlab.__all__))
