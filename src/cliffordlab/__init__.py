"""cliffordlab: a desk-scale workbench for finite Clifford semigroups.

Structure analysis of finite semigroups, strong-semilattice assembly and
decomposition, explicit series/isometric metrics with rigorous truncation
bounds, finite-topology openness equivalences, and exact C1 verdicts and
fixed-point scans of piecewise-polynomial charts around an idempotent.

Only the chart probes use numpy, so the `charts` names (`ChartModel`, the
four model builders, `differentiability_probe`, `fixed_point_scan`,
`rigidity_report`) are re-exported lazily: numpy loads on first access.
"""

from .core import (
    Classification,
    FiniteSemigroup,
    classify,
    green_j_classes,
    is_trivial_clifford,
    validate_semigroup,
)
from .errors import SchemaError, WorkbenchError
from .metrics import (
    BowmanMetricData,
    Point,
    bowman_data_from_spec,
    bowman_distance,
    disjoint_union_distance,
    flat_bowman_data,
    metric_axiom_suite,
    yeager_distance,
)
from .order import (
    FinitePoset,
    flat_model,
    is_basis,
    validate_poset,
    way_below_by_definition,
)
from .semilattice import (
    StrongSemilatticeSpec,
    assemble,
    decompose,
    direct_product,
    iso_equivalent,
    validate_spec,
)
from .topology import (
    FiniteTopology,
    TopologicalSemigroupModel,
    all_topologies,
    continuity_check,
    prop34_equivalences,
    validate_topology,
)

_CHART_NAMES = (
    "ChartModel",
    "additive_model",
    "affine_model",
    "differentiability_probe",
    "fixed_point_scan",
    "min_plus_model",
    "polynomial_model",
    "rigidity_report",
)


def __getattr__(name):
    if name in _CHART_NAMES:
        from . import charts

        return getattr(charts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_CHART_NAMES])


__version__ = "0.1.0"

__all__ = [
    "BowmanMetricData",
    "ChartModel",
    "Classification",
    "FinitePoset",
    "FiniteSemigroup",
    "FiniteTopology",
    "Point",
    "SchemaError",
    "StrongSemilatticeSpec",
    "TopologicalSemigroupModel",
    "WorkbenchError",
    "additive_model",
    "affine_model",
    "all_topologies",
    "assemble",
    "bowman_data_from_spec",
    "bowman_distance",
    "classify",
    "continuity_check",
    "decompose",
    "differentiability_probe",
    "direct_product",
    "disjoint_union_distance",
    "fixed_point_scan",
    "flat_bowman_data",
    "flat_model",
    "green_j_classes",
    "is_basis",
    "is_trivial_clifford",
    "iso_equivalent",
    "metric_axiom_suite",
    "min_plus_model",
    "polynomial_model",
    "prop34_equivalences",
    "rigidity_report",
    "validate_poset",
    "validate_semigroup",
    "validate_spec",
    "validate_topology",
    "way_below_by_definition",
    "yeager_distance",
]
