"""ncjoin benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Workloads run in a closed loop with one caller: each task starts when the
previous one and its correctness check have finished.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  norm_s       one pass over the workload's tasks: the sum of each task's
               median over the calls that fit in --seconds, in
               reference-normalized seconds (see probe.py);
  setup_s      interpreter start, ``import ncjoin`` and loading or
               generating the systems, median of several fresh processes,
               each normalized by launches of an interpreter that imports
               numpy just before and after it (process start-up does not
               slow down with the host the way the solver kernel does);
  peak_rss_mb  peak resident memory of the timing process;
  ok_frac      tasks that ran and matched their reference, over attempted.
--trace 1 prints the per-layer metrics from two traced runs side by side in
fresh processes, whose counts must agree exactly. A traced run covers the
set-up and one pass of every workload, so every layer is reached whatever
--workload names; the environment line splits the figures by workload.

The line before the result records the environment: nproc, BLAS library
and thread count, Python and numpy versions, seed, CPU steal time and the
raw (unnormalized) seconds.
"""

from __future__ import annotations

import os

# Fixed by the benchmark, before numpy loads here or in a worker.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import NOMINAL_PROBE_S  # noqa: E402

SETUP_RUNS = 7
# Reference for set-up: launching an interpreter that imports numpy.
# Fixed forever: changing it rescales setup_s.
LAUNCH_REF = [sys.executable, "-c", "import numpy"]
NOMINAL_LAUNCH_S = 0.15
TRACE_RUNS = 2
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def steal_ticks() -> int:
    """Cumulative steal time of all CPUs, in clock ticks (0 if unreadable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


class Runner:
    """Starts worker processes for one workload within one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
                        PYTHONHASHSEED="0")
        self.runs = 0

    def _cmd(self, *extra):
        self.runs += 1
        workdir = ROOT / ".perfbench_work" / f"{self.args.workload}-{os.getpid()}-{self.runs}"
        return [sys.executable, str(HERE / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds), "--workdir", str(workdir), *extra]

    def _finish(self, proc) -> str:
        try:
            out, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker ran past the deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return out

    def launch_ref(self) -> float:
        """Wall seconds of one reference launch."""
        t0 = time.perf_counter()
        # a piped stdout ends the wait at the child's exit; without one,
        # a wait with a timeout polls and rounds the time up by up to 50 ms
        self._finish(subprocess.Popen(LAUNCH_REF, stdout=subprocess.PIPE, env=self.env))
        return time.perf_counter() - t0

    def setup_time(self) -> tuple[float, float, float]:
        """Medians over fresh set-up processes, from start to exit: normalized
        and raw seconds, and raw seconds of the reference launch."""
        norm, raw = [], []
        before = self.launch_ref()
        refs = [before]
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            out = self._finish(subprocess.Popen(self._cmd("--setup-only"),
                                                stdout=subprocess.PIPE, env=self.env, text=True))
            wall = time.perf_counter() - t0
            if out.strip() != "ready":
                raise BenchError("set-up worker did not report ready")
            after = self.launch_ref()
            norm.append(wall * NOMINAL_LAUNCH_S / ((before + after) / 2))
            raw.append(wall)
            refs.append(after)
            before = after
        return statistics.median(norm), statistics.median(raw), statistics.median(refs)

    def work(self, *extra, copies: int = 1) -> list[dict]:
        """Run `copies` workers side by side; their JSON results in order."""
        procs = [subprocess.Popen(self._cmd(*extra), stdout=subprocess.PIPE,
                                  env=self.env, text=True) for _ in range(copies)]
        try:
            outputs = [self._finish(proc) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        results = []
        for out in outputs:
            lines = out.strip().splitlines()
            if not lines:
                raise BenchError("worker printed no result")
            results.append(json.loads(lines[-1]))
        return results


def layer_value(name: str, runs: list[dict], steal_s: float) -> float:
    """Per-layer metric by name: counts from the first traced run, times averaged."""
    first = runs[0]

    def mean(layer):
        return statistics.mean(r["times"].get(layer, 0.0) for r in runs)

    host = {
        "host.wall_s": statistics.mean(r["region_s"] for r in runs),
        "host.probe_s": statistics.mean(r["probe_median_s"] for r in runs),
        "host.steal_s": steal_s,
        "host.trace_overhead_frac": statistics.mean(r["trace_overhead_frac"] for r in runs),
    }
    if name in host:
        return host[name]
    if name == "cli.run.self_s":
        return mean("cli.run")
    if name == "joinings.find_joining.iters_per_oracle_call":
        calls = first["info"].get("joinings.find_joining.oracle_calls", 0)
        return first["info"].get("joinings.find_joining.iterations", 0) / calls if calls else 0.0
    if name.endswith(".calls"):
        return first["counts"].get(name[:-len(".calls")], 0)
    if name.endswith(".s"):
        return mean(name[:-len(".s")])
    if name.endswith((".iterations", ".oracle_calls", ".ambiguous_calls",
                      ".directions_scanned")):
        return first["info"].get(name, 0)
    raise BenchError(f"no measurement for per-layer metric {name!r}")


def run_traced(runner: Runner, spec: dict, steal0: int):
    runs = runner.work("--trace", copies=TRACE_RUNS)
    problems = [p for r in runs for p in r["failures"]]
    problems += [r["self_check"] for r in runs if r["self_check"]]
    for r in runs[1:]:
        if (r["counts"], r["info"]) != (runs[0]["counts"], runs[0]["info"]):
            problems.append("traced runs disagree on counts: "
                            f"{runs[0]['counts']} {runs[0]['info']} vs {r['counts']} {r['info']}")
    steal_s = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    metrics = {m["name"]: {"value": layer_value(m["name"], runs, steal_s), "unit": m["unit"]}
               for m in spec["per_layer"]}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(len(r["failures"]) for r in runs),
        "metrics": metrics,
    }
    env = dict(runs[0]["env"], by_workload=runs[0]["by_workload"],
               host={"traced_wall_s": [r["region_s"] for r in runs]})
    return result, env, problems


def run_timed(runner: Runner, spec: dict, steal0: int):
    setup_norm, setup_raw, launch_raw = runner.setup_time()
    out, = runner.work()
    failed = len(out["failures"])
    values = {
        "norm_s": out["norm_s"],
        "setup_s": setup_norm,
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_frac": (out["attempted"] - failed) / out["attempted"],
    }
    missing = {m["name"] for m in spec["end_to_end"]} - values.keys()
    if missing:
        raise BenchError(f"no measurement for end-to-end metrics {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]},
    }
    env = dict(out["env"], tasks_norm_s=out["tasks"], host={
        "wall_s": out["raw_s"], "setup_wall_s": setup_raw, "launch_s": launch_raw,
        "probe_s": out["probe_median_s"],
        "steal_s": (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK"),
    })
    return result, env, out["failures"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncjoin" / "__init__.py").is_file():
        print(f"error: no ncjoin sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    steal0 = steal_ticks()
    runner = Runner(args)
    try:
        if args.trace:
            result, env, problems = run_traced(runner, spec, steal0)
        else:
            result, env, problems = run_timed(runner, spec, steal0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # absent, or still holds another run's files
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
               nominal_probe_s=NOMINAL_PROBE_S, nominal_launch_s=NOMINAL_LAUNCH_S)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
