"""The series-metric oracle stays independent of the kernel it checks.

`suite.oracle_bowman` re-expands the series term by term.  It must not reach
`metrics.bowman_distance` or its integer kernel (profiles, weight supports,
common denominators, cached state), directly or through a metrics function
it calls; otherwise a fast kernel would check itself.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cliffordlab"

# public entry points of the kernel; private names of metrics are kernel too
KERNEL = {"bowman_distance", "weight_support", "common_denominator"}


def functions(source: str) -> dict:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def names_in(node) -> set:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def kernel_names_reached(oracle, metrics: dict) -> list[str]:
    """Kernel names used by `oracle` or by any metrics function it reaches."""
    used, todo, seen = set(), [oracle], set()
    while todo:
        names = names_in(todo.pop())
        used |= names
        for name in names & set(metrics) - seen:
            seen.add(name)
            todo.append(metrics[name])
    return sorted(n for n in used if n in KERNEL or n.startswith("_"))


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
