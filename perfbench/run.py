"""cliffordlab benchmark: four seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload {suite,structure,topology,cli,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (the program is imported from ./src).  A run
repeats its workload's fixed op list (a "pass") while another pass still
fits in --seconds, checks every op's output, prints each metric with its
unit and sample count, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics, as times at a fixed reference
machine speed (see speed.py); --trace 1 runs half the time untraced and
half traced, and reports the per-layer metrics plus the tracing overhead
in raw seconds.  Run files go to .perfbench/ (spans, results, generated
documents).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MiB"}


def tail(samples):
    """(percentile, value, samples beyond it) for the highest integer
    percentile with at least 10 samples beyond it; None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)          # nearest rank, 1-based
    return pct, sorted(samples)[rank - 1], n - rank


# ---------------------------------------------------------------------------
# running passes


class Pass:
    def __init__(self):
        # perf_counter at the start and end of each op, then seconds, one
        # per op; compact arrays keep the benchmark's own bookkeeping small
        self.starts = array("d")
        self.ends = array("d")
        self.latencies = array("d")
        self.raw_s = 0.0
        self.failures = []      # (op name, "error" | "wrong", message)
        self.wrong = 0
        self.peak_rss_kib = 0

    def clock(self, seconds, raw):
        """Turn the op intervals into latencies with `seconds(start, end)`,
        and sum their raw seconds with `raw(start, end)`."""
        self.latencies = array("d", map(seconds, self.starts, self.ends))
        self.raw_s = sum(map(raw, self.starts, self.ends))


def run_pass(workload, state, ctx, tracer=None):
    p = Pass()
    for name, run, check in workload.ops(state, ctx):
        if tracer is not None:
            tracer.op += 1
        p.starts.append(perf_counter())
        try:
            result = run()
        except Exception as exc:
            p.ends.append(perf_counter())
            p.failures.append((name, "error", f"{type(exc).__name__}: {exc}"))
            continue
        p.ends.append(perf_counter())
        message = check(result)
        if message is not None:
            p.failures.append((name, "wrong", message))
            p.wrong += 1
    return p


def elapsed(start, end):
    return end - start


def run_passes(workload, state, ctx, budget, tracer=None, gauge=None):
    """Closed loop: repeat the op list while one more pass of the last
    pass's duration still fits in the budget (at least one pass).  With a
    gauge, op latencies are in reference seconds; without, raw."""
    passes = []
    start = perf_counter()
    if gauge is not None:
        gauge.start()
    try:
        while True:
            t0 = perf_counter()
            passes.append(run_pass(workload, state, ctx, tracer))
            passes[-1].peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            now = perf_counter()
            if now - start + (now - t0) > budget:
                break
    finally:
        if gauge is not None:
            gauge.stop()
    for p in passes:
        if gauge is None:
            p.clock(elapsed, elapsed)
        else:
            p.clock(gauge.seconds, gauge.raw)
    return passes


# ---------------------------------------------------------------------------
# set-up and start-up probes (fresh interpreters)


def _child(args):
    out = subprocess.run([sys.executable, *args], cwd=ROOT, check=True,
                         stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    return out.stdout


def setup_times(workload, seed):
    """(reference seconds, raw seconds) of each set-up probe."""
    out = []
    for _ in range(SETUP_PROBES):
        ref, raw = _child([__file__, "--setup-probe", "--workload", workload,
                           "--seed", str(seed)]).split()[-2:]
        out.append((float(ref), float(raw)))
    return out


def setup_probe(workload, seed, ctx):
    """Generate inputs, then time `import cliffordlab` plus the workload's
    program-side set-up; print the reference and the raw seconds."""
    w = workloads.WORKLOADS[workload]
    inputs = w.inputs(seed, ctx) if w.prepare_reads_inputs else None
    with speed.Gauge() as gauge:
        t0 = perf_counter()
        import cliffordlab  # noqa: F401
        w.prepare(inputs, ctx)
        t1 = perf_counter()
    print(gauge.seconds(t0, t1), gauge.raw(t0, t1))


def process_ms(code):
    """Median wall time of a fresh `python -c code`, in ms."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        _child(["-c", code])
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# reporting


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cliffordlab")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            with open(os.path.join(dirpath, f), "rb") as fh:
                digest.update(f.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def line(name, value, unit, note):
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def summarize_failures(passes):
    seen = {}
    for p in passes:
        for name, kind, message in p.failures:
            seen.setdefault((name, kind, message), 0)
            seen[(name, kind, message)] += 1
    for (name, kind, message), k in sorted(seen.items()):
        print(f"  failed op {name} ({kind}, {k}x): {message}")


def counts(passes):
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = not any(p.wrong for p in passes)
    return correct, attempted, failed


def op_medians(passes):
    """Each op's median latency over the run's passes: slow spells of the
    machine that cover less than half of the passes do not move it."""
    return [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]


def pass_wall(passes):
    """Wall time of one pass of the op list, each op at its median latency."""
    return sum(op_medians(passes))


def end_to_end(passes, setup, ctx, in_process, gauge):
    ops = [t for p in passes for t in p.latencies]
    if in_process:
        # after the first pass: later passes repeat the same ops, and the
        # benchmark's own per-op records grow with the number of passes
        rss = passes[0].peak_rss_kib / 1024
        rss_note = "(this process, set-up and first pass)"
    else:
        rss = ctx.peak_child_kib / 1024
        rss_note = "(largest cli child)"
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": pass_wall(passes),
        "op_p50_ms": statistics.median(op_medians(passes)) * 1000,
        "peak_rss_mb": rss,
    }
    line("setup_s", metrics["setup_s"], "s", f"(median of {len(setup)} set-ups)")
    line("wall_s", metrics["wall_s"], "s", f"(sum of per-op medians over "
         f"{len(passes)} passes of {len(passes[0].latencies)} ops)")
    line("op_p50_ms", metrics["op_p50_ms"], "ms",
         f"(median of {len(passes[0].latencies)} per-op medians over {len(ops)} ops)")
    t = tail(ops)
    if t is None:
        print(f"  {'op_tail_ms':<30} {'-':>14} {'ms':<6} (fewer than 11 ops)")
    else:
        line("op_tail_ms", t[1] * 1000, "ms",
             f"(p{t[0]} of {len(ops)} ops, {t[2]} beyond)")
    line("peak_rss_mb", rss, "MiB", rss_note)
    correct, attempted, failed = counts(passes)
    line("fail_ratio", failed / attempted, "ratio",
         f"({failed} failed of {attempted} ops)")
    raw = {"setup_s": statistics.median(r for _, r in setup),
           "wall_s": statistics.median(p.raw_s for p in passes)}
    if gauge is None:
        print("  times above are raw seconds (no speed gauge on this workload)")
    else:
        print(f"  times above are at the reference speed; this run's machine "
              f"ran the speed kernel {gauge.speed():.3f}x as fast as that "
              f"({len(gauge.kernel_s)} samples)")
    line("raw setup_s", raw["setup_s"], "s", "(not gated)")
    line("raw wall_s", raw["wall_s"], "s", "(median pass, not gated)")
    return metrics, raw


# ---------------------------------------------------------------------------
# one workload


def run_workload(args, ctx):
    w = workloads.WORKLOADS[args.workload]
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    inputs = w.inputs(args.seed, ctx)
    result = {"env": env, "workload": w.name, "trace": args.trace}
    if not args.trace:
        setup = setup_times(w.name, args.seed)
        state = w.prepare(inputs, ctx)
        gauge = speed.Gauge() if w.gauged else None
        passes = run_passes(w, state, ctx, args.seconds, gauge=gauge)
        metrics, raw = end_to_end(passes, setup, ctx,
                                  in_process=w is not workloads.Cli, gauge=gauge)
        units = END_TO_END_UNITS
        result.update(raw=raw, speed=gauge and gauge.speed())
    else:
        ctx.in_process_cli = True
        import cliffordlab
        state = w.prepare(inputs, ctx)
        untraced = run_passes(w, state, ctx, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(cliffordlab)
        try:
            passes = run_passes(w, state, ctx, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics, units = traced_metrics(w, tracer, untraced, passes)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.write_spans(os.path.join(ROOT, ".perfbench", f"trace-{w.name}.tsv"))
        passes = untraced + passes
    summarize_failures(passes)
    correct, attempted, failed = counts(passes)
    result.update(correct=correct, attempted=attempted, failed=failed,
                  pass_latencies_s=[p.latencies.tolist() for p in passes],
                  metrics=metrics, failures=sorted({f[:2] for p in passes
                                                    for f in p.failures}))
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(w, tracer, untraced, traced):
    metrics = tracer.layer_metrics(len(traced))
    ops = sum(len(p.latencies) for p in traced)
    metrics["cli.interp_ms"] = process_ms("pass")
    metrics["cli.import_ms"] = process_ms("import cliffordlab.cli")
    metrics["cli.dispatch_ms"] = (tracer.busy["cli"] / ops * 1000
                                  if w is workloads.Cli else 0.0)
    base, with_trace = pass_wall(untraced), pass_wall(traced)
    metrics["trace.overhead_s"] = with_trace - base
    units = {}
    for name in metrics:
        suffix = name.rsplit("_", 1)[-1]
        units[name] = {"s": "s", "ms": "ms", "ratio": "ratio"}.get(suffix, "count")
    print(f"  per pass of the op list ({len(traced)} traced passes, "
          f"{len(tracer.span_start)} spans):")
    for name, value in metrics.items():
        line(name, value, units[name], "")
    print(f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s per pass "
          f"({with_trace:.4f} s traced vs {base:.4f} s untraced, "
          f"{len(traced)} vs {len(untraced)} passes)")
    return metrics, units


# ---------------------------------------------------------------------------
# every workload


def run_all(args):
    """Each workload in its own process, one after another; the last line
    merges their results with metrics named <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        last = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cliffordlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no cliffordlab sources under {ROOT}/src\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(HERE, "recorded.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    ctx = workloads.Context(ROOT, recorded)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, ctx)
        return 0
    return run_workload(args, ctx)


if __name__ == "__main__":
    sys.exit(main())
