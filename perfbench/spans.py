"""Span tracing of cliffordlab from outside the package.

`Tracer.install` replaces every public function of the layer modules, in
every cliffordlab namespace that holds it, by a wrapper; `uninstall` puts
the originals back.  A wrapper records a span when the call crosses from one
layer into another, or when the function has a metric of its own; calls
inside one layer only bump a counter, which keeps the span count (and the
memory the spans take) bounded by the layer boundaries.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Spans are kept in memory in flat arrays and written out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("documents", "core", "semilattice", "order", "topology", "metrics",
          "charts", "suite", "cli")

# Functions timed on their own: metric name -> qualified function name.
TIMED = {
    "core.classify_s": "core.classify",
    "core.validate_s": "core.validate_semigroup",
    "core.j_classes_s": "core.green_j_classes",
    "core.trivial_check_s": "core.is_trivial_clifford",
    "semilattice.assemble_s": "semilattice.assemble",
    "semilattice.decompose_s": "semilattice.decompose",
    "semilattice.validate_spec_s": "semilattice.validate_spec",
    "semilattice.iso_s": "semilattice.iso_equivalent",
    "topology.enum_s": "topology.all_topologies",
    "topology.continuity_s": "topology.continuity_check",
    "topology.openness_s": "topology.prop34_equivalences",
    "metrics.distance_s": "metrics.bowman_distance",
    "metrics.axiom_suite_s": "metrics.metric_axiom_suite",
    "charts.probe_s": "charts.differentiability_probe",
    "charts.scan_s": "charts.fixed_point_scan",
    "suite.oracle_s": "suite.oracle_bowman",
}

# Criterion number -> function name in suite.CRITERIA order.
CRITERIA = ("criterion_algebra", "criterion_round_trip", "criterion_way_below",
            "criterion_openness", "criterion_metric_axioms",
            "criterion_separation", "criterion_convergence",
            "criterion_rigidity", "criterion_determinism")


def count_seeds(dim, radius, grid_step):
    """Seeds of charts.fixed_point_scan: grid points of
    arange(-radius, radius + step / 2, step) ** dim inside the ball.  Exact
    for dim <= 2; in higher dimensions numpy's norm may round a point on
    the sphere the other way."""
    m = max(0, math.ceil((2 * radius + grid_step / 2) / grid_step))
    delta = (-radius + grid_step) + radius     # numpy fills start + i * delta
    axes = [-radius + i * delta for i in range(m)]
    count = 0

    def walk(depth, sq):
        nonlocal count
        if depth == dim:
            count += math.sqrt(sq) <= radius
            return
        for a in axes:
            walk(depth + 1, sq + a * a)

    walk(0, 0.0)
    return count


class Tracer:
    """Spans and counters for one traced phase of a run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []   # [span id, layer, child time]
        self.active: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.inclusive: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._patched: list = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, qual):
        if qual not in self.name_ids:
            self.name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self.name_ids[qual]

    def _span(self, fn, qual, layer, args, kwargs):
        sid = len(self.span_start)
        parent = self.stack[-1][0] if self.stack else -1
        self.span_name.append(self._name_id(qual))
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, layer, 0.0]
        self.stack.append(frame)
        self.active[qual] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.active[qual] -= 1
            dur = t1 - t0
            self.busy[layer] += dur - frame[2]
            if self.stack:
                self.stack[-1][2] += dur
            if not self.active[qual]:
                self.inclusive[qual] += dur
            self.span_start[sid] = t0
            self.span_end[sid] = t1

    def _wrap(self, fn, qual, layer, always):
        tracer = self
        hook = _HOOKS.get(qual)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[qual] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer._span(next, qual, layer, (it,), {})
                    except StopIteration:
                        return
                    tracer.counts[qual + ".items"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[qual] += 1
            if not always and tracer.stack and tracer.stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(fn, qual, layer, args, kwargs)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        always = set(TIMED.values()) | {f"suite.{c}" for c in CRITERIA} | {"cli.main"}
        wrappers = {}
        for name, mod in _submodules(package):
            layer = name.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    qual = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(obj, qual, layer, qual in always)
        for mod in [m for _, m in _submodules(package)] + [package]:
            for attr, obj in list(vars(mod).items()):
                new = _substitute(obj, wrappers)
                if new is not obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per pass of the op list (see BENCHMARK.json)."""
        def per(v):
            return v / passes

        c, n, t = self.calls, self.counts, self.inclusive
        out = {f"{layer}.busy_s": per(self.busy[layer]) for layer in LAYERS}
        out["documents.calls"] = per(sum(v for k, v in c.items()
                                         if k.startswith("documents.")))
        out["core.classify_calls"] = per(c["core.classify"])
        out["semilattice.iso_calls"] = per(c["semilattice.iso_equivalent"])
        out["order.oracle_calls"] = per(c["order.way_below_by_definition"])
        out["topology.enumerated"] = per(n["topology.all_topologies.items"])
        out["topology.continuous_ratio"] = _ratio(n["topology.continuous"],
                                                  c["topology.continuity_check"])
        out["metrics.distance_calls"] = per(c["metrics.bowman_distance"])
        out["metrics.series_terms"] = per(n["metrics.series_terms"])
        out["charts.seeds"] = per(n["charts.seeds"])
        out["charts.seed_converged_ratio"] = _ratio(
            n["charts.seeds"] - n["charts.divergent_seeds"], n["charts.seeds"])
        for metric, qual in TIMED.items():
            out[metric] = per(t[qual])
        for i, crit in enumerate(CRITERIA, start=1):
            out[f"suite.c{i}_s"] = per(t[f"suite.{crit}"])
        return out

    def write_spans(self, path):
        """One tab-separated line per span: id, name, layer, start, end,
        parent id (-1 at the root), op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tlayer\tstart\tend\tparent\top\n")
            for sid in range(len(self.span_start)):
                name = self.names[self.span_name[sid]]
                fh.write(f"{sid}\t{name}\t{name.split('.', 1)[0]}\t"
                         f"{self.span_start[sid]!r}\t{self.span_end[sid]!r}\t"
                         f"{self.span_parent[sid]}\t{self.span_op[sid]}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _submodules(package):
    prefix = package.__name__ + "."
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None]


def _substitute(obj, wrappers):
    """obj with wrapped functions swapped in, looking one level into tuples
    and dicts (suite.CRITERIA, charts.BUILTIN_MODELS)."""
    if inspect.isfunction(obj):
        return wrappers.get(obj, obj)
    if isinstance(obj, tuple) and any(inspect.isfunction(x) and x in wrappers
                                      for x in obj):
        return tuple(wrappers.get(x, x) if inspect.isfunction(x) else x
                     for x in obj)
    if isinstance(obj, dict) and any(inspect.isfunction(v) and v in wrappers
                                     for v in obj.values()):
        return {k: wrappers.get(v, v) if inspect.isfunction(v) else v
                for k, v in obj.items()}
    return obj


# Counters read off arguments and results: (counts, args, kwargs, result).

def _continuity_hook(counts, args, kwargs, result):
    counts["topology.continuous"] += bool(result[0])


def _distance_hook(counts, args, kwargs, result):
    data = args[0]
    truncation = args[3] if len(args) > 3 else kwargs.get("truncation")
    terms = len(data.basis) if truncation is None else min(truncation, len(data.basis))
    counts["metrics.series_terms"] += terms


def _scan_hook(counts, args, kwargs, result):
    names = ("model", "radius", "grid_step")
    bound = dict(zip(names, args), **{k: v for k, v in kwargs.items() if k in names})
    counts["charts.seeds"] += count_seeds(bound["model"].dim, bound["radius"],
                                          bound["grid_step"])
    counts["charts.divergent_seeds"] += result[1]


_HOOKS = {
    "topology.continuity_check": _continuity_hook,
    "metrics.bowman_distance": _distance_hook,
    "charts.fixed_point_scan": _scan_hook,
}
