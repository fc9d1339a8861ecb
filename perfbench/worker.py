"""One benchmark process: set up a workload, then time it or trace it.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the BLAS
thread count fixed in the environment. Modes:

  --setup-only   load or generate the systems, print ``ready``, exit;
  (default)      cycle through the tasks until --seconds is spent, with
                 the reference kernel sampled during every timed call;
  --trace        set-up and one pass of every workload, with ncjoin's
                 layers wrapped in spans (--workload is then ignored).

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import ncjoin
from probe import MIXES, NOMINAL_PROBE_S, Probe, normalize
from tracer import Tracer, self_times, span_overhead_s
from workloads import WORKLOADS

def _attempt(task, probe: Probe | None = None):
    """Run one task, sampling the probe during it when one is given.

    Returns (wall seconds, result, failure message, probe samples).
    """
    t0 = time.perf_counter()
    try:
        if probe is None:
            result, samples = task.run(), []
            wall = time.perf_counter() - t0
        else:
            result, wall, samples = probe.sampled(task.run)
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3), []
    return wall, result, None, samples


def _check(task, result, failure):
    if failure is not None:
        return failure
    try:
        return task.check(result)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=3)


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "ncjoin": ncjoin.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def timed(tasks, seconds: float) -> dict:
    """Cycle through the tasks until --seconds is spent; per-task medians.

    Each call is bracketed by its task's reference kernel and sampled by it
    while it runs. The loop stops at a task boundary once every task has
    run and the next one would end past the deadline, so the timed region
    fills the budget without overrunning it by more than one task.
    """
    probes = {kind: Probe(kind) for kind in {task.probe for task in tasks}}
    for probe in probes.values():
        probe.warm()
    norm = defaultdict(list)
    raw = defaultdict(list)
    last_wall = {}
    failures = []
    probe_times = []
    start = time.perf_counter()
    attempted = 0
    while True:
        task = tasks[attempted % len(tasks)]
        probe = probes[task.probe]
        before = probe.measure()
        wall, result, failure, samples = _attempt(task, probe)
        after = probe.measure()
        probe_times += [before, after]
        attempted += 1
        last_wall[task.name] = wall
        problem = _check(task, result, failure)
        if problem:
            failures.append(f"{task.name}: {problem}")
        else:
            norm[task.name].append(normalize(wall, before, after, samples))
            raw[task.name].append(wall)
        upcoming = last_wall.get(tasks[attempted % len(tasks)].name, 0.0)
        if (attempted >= len(tasks)
                and time.perf_counter() - start + upcoming > seconds):
            break
    return {
        "norm_s": sum(statistics.median(v) for v in norm.values()),
        "raw_s": sum(statistics.median(v) for v in raw.values()),
        "tasks": {name: statistics.median(v) for name, v in norm.items()},
        "attempted": attempted,
        "failures": failures,
        "probe_median_s": statistics.median(probe_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class _Segment:
    """Spans of one bracketed stretch (a set-up or one task) and its scale."""

    def __init__(self, workload, name, first, last, wall, factor):
        self.workload, self.name = workload, name
        self.first, self.last = first, last
        self.wall, self.factor = wall, factor


def traced(seed: int, workdir: Path) -> dict:
    """Set-up and one pass of every workload under the tracer.

    Every workload is traced, so each per-layer figure covers the layers
    that any workload reaches; ``by_workload`` splits them up.
    """
    per_span = span_overhead_s()
    tracer = Tracer()
    segments = []
    failures = []
    probes = []
    attempted = 0
    kernels = {kind: Probe(kind) for kind in MIXES}
    for probe in kernels.values():
        probe.warm()

    def bracketed(workload, name, probe, call):
        """Run call() between two probes; its spans become one segment."""
        first = tracer.mark()
        probes.append(probe.measure())
        t0 = time.perf_counter()
        out = call()
        wall = time.perf_counter() - t0
        probes.append(probe.measure())
        segments.append(_Segment(workload, name, first, tracer.mark(), wall,
                                 2 * NOMINAL_PROBE_S / (probes[-2] + probes[-1])))
        return out

    tracer.install()
    try:
        for name, setup in WORKLOADS.items():
            tasks = bracketed(name, "setup", kernels["solver"],
                              lambda: setup(seed, workdir / name))
            for task in tasks:
                _, result, failure, _ = bracketed(
                    name, task.name, kernels[task.probe], lambda: _attempt(task))
                problem = _check(task, result, failure)
                if problem:
                    failures.append(f"{name} {task.name}: {problem}")
            attempted += len(tasks)
    finally:
        tracer.uninstall()

    counts = Counter(tracer.counts)
    times = Counter()
    info = Counter()
    by_workload = defaultdict(Counter)
    pass_self = 0.0
    pass_spans = 0
    for seg in segments:
        selfs = self_times(tracer.spans, seg.first, seg.last)
        for span, self_s in zip(tracer.spans[seg.first:seg.last], selfs):
            counts[span.layer] += 1
            times[span.layer] += self_s * seg.factor
            by_workload[seg.workload][f"{span.layer}.calls"] += 1
            by_workload[seg.workload][f"{span.layer}.s"] += self_s * seg.factor
            for key, value in (span.info or {}).items():
                info[f"{span.layer}.{key}"] += value
            if (span.layer == "joinings.find_joining" and seg.workload == "ladder"
                    and seg.name != "setup"):
                # one figure per ladder rung, named by the task
                times[f"joinings.find_joining.{seg.name}"] += self_s * seg.factor
        if seg.name != "setup":
            pass_self += sum(selfs)
            pass_spans += seg.last - seg.first
    region = sum(seg.wall for seg in segments if seg.name != "setup")
    overhead = (pass_spans + sum(tracer.counts.values())) * per_span
    unattributed = region - pass_self
    self_check = None
    # the layer self times must cover the timed region up to the wrappers'
    # own cost; 1% leaves room for the loop that calls the tasks
    if not -1e-9 <= unattributed <= overhead + 0.01 * region:
        self_check = (f"layer self times sum to {pass_self:.4f} s of a {region:.4f} s "
                      f"region; tracing overhead is {overhead:.4f} s")
    return {
        "counts": dict(counts),
        "info": dict(info),
        "times": dict(times),
        "by_workload": {k: dict(v) for k, v in by_workload.items()},
        "region_s": region,
        "probe_median_s": statistics.median(probes),
        "trace_overhead_frac": overhead / region,
        "attempted": attempted,
        "failures": failures,
        "self_check": self_check,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    try:
        if args.setup_only:
            workload(args.seed, workdir)
            print("ready", flush=True)
            return 0
        if args.trace:
            out = traced(args.seed, workdir)
        else:
            out = timed(workload(args.seed, workdir), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["env"] = environment()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
