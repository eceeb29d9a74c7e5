"""Every name a library module imports is used in that module.

`__init__.py` is left out: its imports are the package's re-exports.
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
