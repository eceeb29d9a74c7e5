"""Machine-speed gauge: times cliffordlab at a fixed reference speed.

The shared VMs this benchmark runs on change their CPU speed by up to 2x
for minutes at a time, so raw wall times of the same code drift from run
to run by more than any regression bound.  The gauge runs a fixed
pure-Python kernel (below; it never imports cliffordlab) every
`INTERVAL_S` seconds from a SIGALRM handler, which Python runs in the
main thread between bytecodes, so the samples interleave with the
program's own work at a fine grain wherever it is.

`Gauge.seconds(start, end)` then turns a perf_counter interval into
reference seconds: the time the gauge's own samples took is taken out,
and each piece between two samples is scaled by REF_KERNEL_S over the
mean kernel time of those two samples.  A machine that runs the kernel in
REF_KERNEL_S gives back the raw time.  The kernel must never change:
every figure is relative to it.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# Seconds one kernel call takes at the reference speed (about its median
# on the 2-vCPU Xeon VM where the benchmark was built).
REF_KERNEL_S = 0.0045


def _cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _product(G, H):
    m = len(H)
    return [[G[a // m][b // m] * m + H[a % m][b % m]
             for b in range(len(G) * m)] for a in range(len(G) * m)]


def _closure(G, gens):
    out = {0} | set(gens)
    while True:
        new = {G[a][b] for a in out for b in out} - out
        if not new:
            return frozenset(out)
        out |= new


def _quotient(G, N):
    cosets = {}
    for g in range(len(G)):
        cosets.setdefault(frozenset(G[g][x] for x in N), g)
    order = sorted(cosets, key=min)
    pos = {c: i for i, c in enumerate(order)}
    proj = [pos[next(c for c in order if g in c)] for g in range(len(G))]
    reps = [min(c) for c in order]
    return [[proj[G[a][b]] for b in reps] for a in reps], proj


_GROUPS = [_product(_cyclic(2), _cyclic(8)), _cyclic(12), _product(_cyclic(2), _cyclic(4))]


def kernel():
    """Fixed work in the style of the program and of the benchmark's own
    generator: associativity and inverse searches over Cayley tables,
    subgroup closures and quotients (sets, frozensets, dicts), a JSON
    round trip and a Fraction sum.  About 4 ms at the reference speed."""
    out = []
    T = _GROUPS[0]
    n = len(T)
    out.append(all(T[T[x][y]][z] == T[x][T[y][z]]
                   for x in range(n) for y in range(n) for z in range(n)))
    inverses = [[y for y in range(n) if T[T[x][y]][x] == x and T[T[y][x]][y] == y]
                for x in range(n)]
    ideals = {}
    for x in range(n):
        ideal = {x} | {T[s][x] for s in range(n)} | {T[x][t] for t in range(n)}
        ideal |= {T[T[s][x]][t] for s in range(n) for t in range(n)}
        ideals.setdefault(frozenset(ideal), []).append(x)
    out.append((len(inverses), len(ideals)))
    for G in _GROUPS:
        for g in range(len(G)):
            Q, proj = _quotient(G, _closure(G, [g]))
            out.append((len(Q), sum(proj)))
    text = json.dumps({"kind": "cayley", "body": {"n": n, "table": T}},
                      sort_keys=True)
    out.append(len(json.loads(text)["body"]["table"]))
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(1, i)
    out.append(s)
    return out


class Gauge:
    """Samples the kernel before `start`, every INTERVAL_S while running
    and at `stop`.  Use it around timed work on the main thread only."""

    def __init__(self):
        self.starts = []    # perf_counter at the start of each sample
        self.ends = []
        self.kernel_s = []
        self._previous = None

    def sample(self, *_):
        # Without the collector: a collection would cost the kernel time in
        # proportion to the program's live objects.  The kernel makes no
        # reference cycles.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def raw(self, start, end):
        """Seconds of [start, end] outside the gauge's samples."""
        return self._split(start, end, lambda k: 1.0)

    def seconds(self, start, end):
        """[start, end] in reference seconds (see the module docstring)."""
        ks = self.kernel_s
        return self._split(start, end,
                           lambda k: 2 * REF_KERNEL_S / (ks[k] + ks[k + 1]))

    def _split(self, start, end, factor):
        # Sample k ends before the gap k .. k+1; [start, end] lies after the
        # first sample and before the last one.
        k = bisect.bisect_right(self.ends, start) - 1
        total = 0.0
        t = start
        while t < end:
            gap_end = min(end, self.starts[k + 1])
            if gap_end > t:
                total += (gap_end - t) * factor(k)
            t = self.ends[k + 1]
            k += 1
        return total

    def speed(self):
        """Median reference-to-measured kernel time ratio of the samples."""
        ks = sorted(self.kernel_s)
        return REF_KERNEL_S / ks[len(ks) // 2]
