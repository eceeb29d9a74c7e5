"""Tests of the benchmark's own logic (not of cliffordlab).

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import os
import random
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

CATALOG = [("z2", [[0, 1], [1, 0]]), ("chain2", [[0, 0], [0, 1]])]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (1, 7):
            a, b = gen.structure_inputs(seed), gen.structure_inputs(seed)
            self.assertEqual([(o["spec_text"], o.get("twin_text")) for o in a],
                             [(o["spec_text"], o.get("twin_text")) for o in b])
            self.assertEqual(gen.topology_inputs(seed, CATALOG),
                             gen.topology_inputs(seed, CATALOG))
        self.assertEqual(gen.cli_documents(random.Random(3)),
                         gen.cli_documents(random.Random(3)))

    def test_other_seed_other_inputs(self):
        a, b = gen.structure_inputs(1), gen.structure_inputs(2)
        self.assertNotEqual([o["spec_text"] for o in a], [o["spec_text"] for o in b])

    def test_generated_tables_are_associative(self):
        for op in gen.structure_inputs(5):
            self.assertTrue(gen.associative(op["table"]), op["name"])
        for item in gen.topology_inputs(5, CATALOG):
            self.assertTrue(gen.associative(item["table"]), item["name"])


class TailTest(unittest.TestCase):
    def test_no_tail_below_eleven_samples(self):
        for n in range(11):
            self.assertIsNone(run.tail(list(range(n))))

    def test_at_least_ten_beyond_and_highest_percentile(self):
        for n in range(11, 400):
            samples = list(range(n))
            random.Random(n).shuffle(samples)
            pct, value, beyond = run.tail(samples)
            self.assertEqual(beyond, sum(1 for s in samples if s > value))
            self.assertGreaterEqual(beyond, 10)
            if pct < 99:   # the next integer percentile leaves fewer than 10
                rank = -(-(pct + 1) * n // 100)
                self.assertLess(n - rank, 10)

    def test_eleven_samples(self):
        self.assertEqual(run.tail(list(range(11))), (9, 0, 10))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    """Nested spans across two fake layers, on a fake clock."""

    def setUp(self):
        self.clock = FakeClock()
        self.saved_clock = spans.perf_counter
        spans.perf_counter = self.clock
        pkg = types.ModuleType("fakepkg")
        core = types.ModuleType("fakepkg.core")
        metrics = types.ModuleType("fakepkg.metrics")
        clock = self.clock

        exec("""
def outer():
    clock.tick(1)
    same()
    metrics.inner()
    clock.tick(2)

def same():
    clock.tick(16)

def helper():
    clock.tick(8)
""", core.__dict__)
        exec("""
def inner():
    clock.tick(4)
    core.helper()

def bowman_distance(data, p, q, truncation=None):
    clock.tick(32)
""", metrics.__dict__)
        for mod in (core, metrics):
            mod.clock, mod.core, mod.metrics = clock, core, metrics
            for fn in vars(mod).values():
                if isinstance(fn, types.FunctionType):
                    fn.__module__ = mod.__name__
        self.modules = {"fakepkg": pkg, "fakepkg.core": core,
                        "fakepkg.metrics": metrics}
        sys.modules.update(self.modules)
        self.pkg, self.core, self.metrics = pkg, core, metrics

    def tearDown(self):
        spans.perf_counter = self.saved_clock
        for name in self.modules:
            del sys.modules[name]

    def test_self_time_and_parents(self):
        tracer = spans.Tracer()
        tracer.install(self.pkg)
        try:
            tracer.op = 0
            self.core.outer()
        finally:
            tracer.uninstall()
        # outer spans 1 + 16 + (4 + 8) + 2; same() stays inside core's span
        self.assertEqual(tracer.busy["core"], 1 + 16 + 2 + 8)
        self.assertEqual(tracer.busy["metrics"], 4)
        names = [tracer.names[i] for i in tracer.span_name]
        self.assertEqual(names, ["core.outer", "metrics.inner", "core.helper"])
        self.assertEqual(list(tracer.span_parent), [-1, 0, 1])
        self.assertEqual(list(tracer.span_op), [0, 0, 0])
        self.assertEqual(tracer.span_end[0] - tracer.span_start[0], 31)
        self.assertEqual(tracer.calls["core.same"], 1)

    def test_timed_function_and_counter(self):
        tracer = spans.Tracer()
        tracer.install(self.pkg)
        try:
            data = types.SimpleNamespace(basis=(0, 1, 2))
            self.metrics.bowman_distance(data, 0, 1)
            self.metrics.bowman_distance(data, 0, 1, truncation=2)
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics(passes=2)
        self.assertEqual(m["metrics.distance_s"], 32)
        self.assertEqual(m["metrics.distance_calls"], 1)
        self.assertEqual(m["metrics.series_terms"], 2.5)

    def test_uninstall_restores(self):
        original = self.core.outer
        tracer = spans.Tracer()
        tracer.install(self.pkg)
        self.assertIsNot(self.core.outer, original)
        tracer.uninstall()
        self.assertIs(self.core.outer, original)


class GaugeTest(unittest.TestCase):
    """Reference seconds from hand-made samples (no timer)."""

    def gauge(self, samples):
        g = speed.Gauge()
        for start, end in samples:
            g.starts.append(start)
            g.ends.append(end)
            g.kernel_s.append(end - start)
        return g

    def test_raw_leaves_out_samples(self):
        g = self.gauge([(0, 1), (5, 6), (10, 11)])
        self.assertEqual(g.raw(1, 11), 8)
        self.assertEqual(g.raw(2, 4), 2)
        self.assertEqual(g.raw(4, 7), 2)

    def test_each_gap_scaled_by_its_two_samples(self):
        ref = speed.REF_KERNEL_S
        # kernel times ref, 3 ref, ref: both gaps run at half the reference speed
        g = self.gauge([(0, ref), (1, 1 + 3 * ref), (2, 2 + ref)])
        self.assertAlmostEqual(g.seconds(ref, 1), (1 - ref) / 2)
        self.assertAlmostEqual(g.seconds(0.5, 1.5 + 3 * ref), 0.5)
        self.assertAlmostEqual(g.seconds(ref, 2), (2 - 4 * ref) / 2)

    def test_reference_speed_gives_raw_time(self):
        ref = speed.REF_KERNEL_S
        g = self.gauge([(0, ref), (1, 1 + ref), (3, 3 + ref)])
        self.assertAlmostEqual(g.seconds(0.5, 2), g.raw(0.5, 2))
        self.assertAlmostEqual(g.speed(), 1)

    def test_kernel_is_deterministic(self):
        self.assertEqual(speed.kernel(), speed.kernel())


class SeedCountTest(unittest.TestCase):
    def test_matches_numpy_grid(self):
        try:
            import numpy as np
        except ImportError:
            self.skipTest("numpy not installed")
        # dimensions 1 and 2 are the ones the suite and the cli ops scan
        for dim, radius, step in ((1, 0.25, 0.01), (2, 0.25, 0.01), (2, 0.5, 0.05),
                                  (2, 0.2, 0.1), (2, 0.25, 0.05)):
            axes = np.arange(-radius, radius + step / 2, step)
            expected = sum(
                1 for idx in np.ndindex(*([len(axes)] * dim))
                if np.linalg.norm(np.array([axes[i] for i in idx])) <= radius)
            self.assertEqual(spans.count_seeds(dim, radius, step), expected)


if __name__ == "__main__":
    unittest.main()
