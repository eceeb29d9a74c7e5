"""cliffordlab: a desk-scale workbench for finite Clifford semigroups.

Structure analysis of finite semigroups, strong-semilattice assembly and
decomposition, explicit series/isometric metrics with rigorous truncation
bounds, finite-topology openness equivalences, and exact C1 verdicts and
fixed-point scans of piecewise-polynomial charts around an idempotent.

`import cliffordlab` loads no layer module.  Each exported name is read
from the module that `_EXPORTS` names for it, which loads on first use
(PEP 562), so a caller pays only for the layers it uses.  Only the chart
probes use numpy: it loads when a `charts` name (`ChartModel`, the four
model builders, `differentiability_probe`, `fixed_point_scan`,
`rigidity_report`) is first read.  Submodules import as usual:
`from cliffordlab import catalog`.
"""

from importlib import import_module

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["Classification", "FiniteSemigroup", "classify", "green_j_classes",
                     "is_trivial_clifford", "validate_semigroup"], "core"),
    **dict.fromkeys(["SchemaError", "WorkbenchError"], "errors"),
    **dict.fromkeys(["BowmanMetricData", "Point", "bowman_data_from_spec",
                     "bowman_distance", "disjoint_union_distance", "flat_bowman_data",
                     "metric_axiom_suite", "yeager_distance"], "metrics"),
    **dict.fromkeys(["FinitePoset", "flat_model", "is_basis", "validate_poset",
                     "way_below_by_definition"], "order"),
    **dict.fromkeys(["StrongSemilatticeSpec", "assemble", "decompose", "direct_product",
                     "iso_equivalent", "validate_spec"], "semilattice"),
    **dict.fromkeys(["FiniteTopology", "TopologicalSemigroupModel", "all_topologies",
                     "continuity_check", "prop34_equivalences", "validate_topology"],
                    "topology"),
    **dict.fromkeys(["ChartModel", "additive_model", "affine_model",
                     "differentiability_probe", "fixed_point_scan", "min_plus_model",
                     "polynomial_model", "rigidity_report"], "charts"),
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
