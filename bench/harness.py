"""Measurement for one benchmark run: input generation, the closed loop,
the end-to-end metrics, and the traced run for the per-layer metrics.

The gated op times are scaled to a fixed reference speed.  On a 2-vCPU
Xeon KVM guest of a shared host the same code runs up to 1.5x slower for
minutes at a time, and the guest has no cycle counters, so wall times alone
spread further across runs than the 25% regression bounds.  The loop
therefore times a fixed reference kernel about every PROBE_EVERY seconds
between ops, and an op's time at reference speed is its wall time x REF_MS
/ the kernel time measured around it.  A change to tpskit moves the op
times but not the kernel's.  The raw wall times are printed and recorded
beside them.

Imported by run.py only after it has pinned the BLAS threads, because
importing numpy starts the BLAS thread pool.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import envinfo
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

SETUP_RUNS = 7       # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3  # fresh interpreters for the import.* breakdown
REF_MS = 4.0         # the reference kernel's ms at reference speed: about
                     # its median time on a shared 2 GHz Xeon vCPU
PROBE_EVERY = 0.25   # seconds of ops between two timings of the kernel

_REF = np.random.default_rng(0)
REF_SMALL = _REF.normal(size=(6, 6)) + 1j * _REF.normal(size=(6, 6))
REF_MID = _REF.normal(size=(64, 64)) + 1j * _REF.normal(size=(64, 64))


def ref_kernel():
    """Fixed work in the mix the ops have: interpreted Python, many small
    LAPACK calls and one mid-size one, about a third of the time each."""
    s = 0
    for i in range(10000):
        s += i * i
    for _ in range(40):
        np.linalg.svd(REF_SMALL)
    np.linalg.svd(REF_MID)


def probe_ms():
    """Median ms of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        ref_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


@dataclass
class Loop:
    latencies: list   # seconds per op, in order
    failures: list    # (op index, reason)
    ref_ms: list = field(default_factory=list)  # kernel ms around each op
    passes: int = 0

    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)

    def ms(self):
        return [x * 1e3 for x in self.latencies]

    def ref_speed_ms(self):
        """Op times in ms at reference speed."""
        return [x * 1e3 * REF_MS / r for x, r in zip(self.latencies, self.ref_ms)]

    def ref_ops_per_s(self):
        return len(self.latencies) * 1e3 / sum(self.ref_speed_ms())


def run_loop(run, plan, seconds, tracer=None):
    """Ops cycle through the plan, each started when the last one returns,
    until `seconds` have passed and the pass has ended: whole passes only,
    so every op of the plan weighs the same in the metrics.  The reference
    kernel is timed before the first op, after the last, and between ops
    every PROBE_EVERY seconds; an op's kernel time is the mean of the two
    timings around it.  Throughput counts time in ops only."""
    loop = Loop([], [])
    before = probe_ms()
    start = probed = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            reason = run(plan[i % len(plan)])
        except Exception as e:  # an unexpected exception is a failed op
            reason = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        loop.latencies.append(t1 - t0)
        if reason:
            loop.failures.append((i, reason))
        i += 1
        done = i % len(plan) == 0 and t1 - start >= seconds
        if done or t1 - probed >= PROBE_EVERY:
            after = probe_ms()
            loop.ref_ms += [(before + after) / 2] * (i - len(loop.ref_ms))
            before, probed = after, time.perf_counter()
        if done:
            loop.passes = i // len(plan)
            return loop


def warmup_ops(plan):
    """The plan's leading ops up to the first repeated op kind: one call of
    each code path, so lazy set-up is not timed."""
    seen, ops = set(), []
    for op in plan:
        key = op.get("kind", op.get("sub"))
        if key in seen:
            break
        seen.add(key)
        ops.append(op)
    return ops


def percentile(xs, pct):
    """Linear-interpolated percentile, as numpy's default method."""
    s = sorted(xs)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(loop, setup_s, tail_pct, peak_rss_mb):
    """The declared metrics (ref_* at reference speed) and the same op
    metrics in raw wall time."""
    ms, ref_ms = loop.ms(), loop.ref_speed_ms()
    ref_tail = percentile(ref_ms, tail_pct)
    info = {"ops": len(ms), "tail_percentile": tail_pct,
            "beyond_tail": sum(1 for x in ref_ms if x > ref_tail),
            "kernel_ms_median": statistics.median(loop.ref_ms)}
    raw = {"ops_per_s": loop.ops_per_s(),
           "op_p50_ms": statistics.median(ms),
           "op_tail_ms": percentile(ms, tail_pct)}
    return {
        "setup_s": setup_s,
        "ref_ops_per_s": loop.ref_ops_per_s(),
        "ref_op_p50_ms": statistics.median(ref_ms),
        "ref_op_tail_ms": ref_tail,
        "peak_rss_mb": peak_rss_mb,
    }, raw, info


def measure_end_to_end(wl, plan, run, seconds, root, record):
    setup_s = envinfo.setup_seconds(os.environ, root, SETUP_RUNS)
    loops = [run_loop(run, warmup_ops(plan), 0.0)]
    loops.append(run_loop(run, plan, seconds))
    # the CLI runs in child interpreters; every other workload in this one
    who = resource.RUSAGE_CHILDREN if wl.in_process else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    values, raw, info = end_to_end(loops[-1], setup_s, wl.tail_percentile, peak_rss_mb)
    record.update(tail=info, raw_wall_time=raw)
    print(f"p50 and tail (p{info['tail_percentile']:g}, {info['beyond_tail']} "
          f"beyond it) are over {info['ops']} ops in {loops[-1].passes} whole "
          f"passes; reference kernel median {info['kernel_ms_median']:.3f} ms "
          f"against REF_MS {REF_MS:g}; raw wall time:")
    for name, value in raw.items():
        print(f"  {name:<52} {value:>14.6g}")
    return loops, values


def measure_layers(spec, plan, run, seconds, root, spans_file, record):
    """Half the time untraced, then traced for the other half; both in
    process, so the overhead compares like with like."""
    loops = [run_loop(run, warmup_ops(plan), 0.0)]
    plain = run_loop(run, plan, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(run, plan, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    loops += [plain, traced]
    functions = [m["name"][: -len(".calls_per_op")] for m in spec["per_layer"]
                 if m["name"].endswith(".calls_per_op")]
    values = layer_metrics(tracer, len(traced.latencies), functions)
    values.update(cli_ms_per_op(spec, plan, plain))
    for pkg, ms in envinfo.import_breakdown(os.environ, root, IMPORTTIME_RUNS).items():
        values[f"import.{pkg}_ms"] = ms
    overhead = traced.ops_per_s() / plain.ops_per_s()
    record["tracing"] = {"untraced_ops_per_s": plain.ops_per_s(),
                         "traced_ops_per_s": traced.ops_per_s(),
                         "traced_over_untraced": overhead,
                         "traced_ops": len(traced.latencies),
                         "spans": len(tracer.spans)}
    tracer.write(spans_file)
    print(f"tracing: {overhead:.3f} x untraced ops/s "
          f"({traced.ops_per_s():.2f} vs {plain.ops_per_s():.2f}); "
          f"{len(tracer.spans)} spans -> {spans_file}")
    return loops, values


def cli_ms_per_op(spec, plan, loop):
    """cli.<subcommand>_ms: untraced ms per op spent in calls of that
    subcommand, over whole passes; 0 on a workload that makes no CLI call."""
    subs = [m["name"][len("cli."):-len("_ms")] for m in spec["per_layer"]
            if m["name"].startswith("cli.")]
    missing = set(subs) - {op.get("sub") for op in plan}
    if any("sub" in op for op in plan) and missing:
        raise SystemExit(f"bench: no call of {sorted(missing)} in the plan")
    ms = dict.fromkeys(subs, 0.0)
    for i, x in enumerate(loop.latencies):
        sub = plan[i % len(plan)].get("sub")
        if sub in ms:
            ms[sub] += x * 1e3
    return {f"cli.{sub}_ms": total / len(loop.latencies) for sub, total in ms.items()}


def profile(plan, run, seconds, top):
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    loop = run_loop(run, plan, seconds)
    profiler.disable()
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(top)
    return 1 if loop.failures else 0


def main(args, spec, root, out, blas_threads):
    env = envinfo.environment(root, args.seed, blas_threads)
    if (env["blas_threads_runtime"] or 0) > env["nproc"]:
        raise SystemExit(f"bench: refusing to run BLAS with "
                         f"{env['blas_threads_runtime']} threads on {env['nproc']} cores")
    # one core for the ops, the kernel timings and every child interpreter,
    # so an op and the kernel timings around it run on the same core
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    wl = WORKLOADS[args.workload]
    out.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    if wl.in_process:
        plan = wl.plan(rng, out / f"cli-inputs-seed{args.seed}")
        subprocess_run = partial(wl.run, env=dict(os.environ), cwd=root)
        in_process_run = wl.in_process
    else:
        plan = wl.plan(rng)
        subprocess_run = in_process_run = wl.run
    print(f"env {json.dumps(env)}")
    print(f"workload {wl.name}: closed loop, 1 caller, {len(plan)} ops per pass, "
          f"seed {args.seed}, {args.seconds:g} s")
    if args.profile:
        return profile(plan, in_process_run, args.seconds, args.profile)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        spans_file = out / f"{wl.name}-seed{args.seed}-spans.jsonl"
        loops, values = measure_layers(spec, plan, in_process_run, args.seconds,
                                       root, spans_file, record)
        declared = spec["per_layer"]
    else:
        loops, values = measure_end_to_end(wl, plan, subprocess_run, args.seconds,
                                           root, record)
        declared = spec["end_to_end"]

    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [reason for lp in loops for _, reason in lp.failures]
    for reason in failures[:5]:
        print(f"FAILED op: {reason}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<52} {len(failures) / attempted:>14.6g} "
          f"({len(failures)}/{attempted})")
    record.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    (out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0
