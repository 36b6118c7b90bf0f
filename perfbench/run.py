"""Benchmark command for injgen.

    python3 perfbench/run.py --workload {certify,resolve,zoo} --seed N
                             --seconds S --trace {0,1} [--quick]

Imports injgen from the src/ directory next to this one.  Set-up (import
plus input building) is timed in SETUP_SAMPLES fresh interpreters and in
the measuring process itself; setup_s is their median.  The measuring
process then repeats passes over the workload's op list until --seconds
have gone by (at least MIN_PASSES passes), checks every answer, and prints
one JSON object as the last line of standard output.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  --quick runs QUICK_OPS ops once, for the benchmark's own
tests.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
WORKLOADS = ("certify", "resolve", "zoo")
SETUP_SAMPLES = 2
MIN_PASSES = 3
QUICK_OPS = 6
RUN_TIMEOUT = 170
LAYERS = ("linalg", "homology", "algebra", "tensors", "constructions", "homs",
          "samples", "quiver", "reduction", "registry", "serialize", "bundled")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------------


def build(workload, seed):
    """Import injgen and build the op list; returns (ops, seconds, workdir)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    for layer in LAYERS:
        importlib.import_module(f"injgen.{layer}")
    import workloads
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = getattr(workloads, f"{workload}_ops")(seed, workdir)
    return ops, time.perf_counter() - t0, workdir


def setup_role(args):
    _ops, seconds, workdir = build(args.workload, args.seed)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))


# -- measurement ---------------------------------------------------------------------


def run_pass(ops, stats):
    """One pass over the ops; returns the summed op time in seconds."""
    from checks import WrongAnswer
    total = 0.0
    for op in ops:
        stats["attempted"] += 1
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception as e:  # an op that raises is a failed op, not a crash
            total += time.perf_counter() - t0
            stats["failed"] += 1
            stats["errors"].add(f"{op.name}: {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        total += dt
        stats["times"].setdefault(op.name, []).append(dt)
        try:
            if not op.check(res):
                stats["failed"] += 1
        except WrongAnswer as e:
            stats["wrong"].add(f"{op.name}: {e}")
    return total


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, or
    None below forty samples (where only the median is meaningful)."""
    if n < 40:
        return None
    return math.floor(100 * (n - 10) / n)


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q / 100 * len(sorted_vals)) - 1)]


def worker_role(args):
    ops, setup_s, workdir = build(args.workload, args.seed)
    if args.quick:
        ops = ops[:QUICK_OPS]
    stats = {"attempted": 0, "failed": 0, "times": {}, "wrong": set(),
             "errors": set()}
    walls = {"untraced": [], "traced": []}
    layer_runs = []
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    min_passes = 1 if args.quick else MIN_PASSES
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(walls["untraced"]) > len(walls["traced"])
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    walls["traced"].append(run_pass(ops, stats))
                finally:
                    tracer.uninstall()
                layer_runs.append(tracer.metrics())
            else:
                walls["untraced"].append(run_pass(ops, stats))
            if (len(walls["untraced"]) >= min_passes
                    and len(walls["traced"]) >= (min_passes if tracer else 0)
                    and time.perf_counter() - start >= args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in sorted(stats["wrong"]) + sorted(stats["errors"]):
        print(f"# {msg}", file=sys.stderr)

    if tracer is None:
        # p50 is the median op, each op timed by its median over the passes;
        # the tail pools every op time, at a percentile fixed by the op count
        # at the minimum number of passes so that it does not move with the
        # number of passes
        op_medians = [statistics.median(ts) for ts in stats["times"].values()]
        samples = sorted(t for ts in stats["times"].values() for t in ts)
        q = tail_percentile(len(ops) * min_passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls["untraced"]), "s"),
            "op_ms.p50": (1000 * statistics.median(op_medians), "ms"),
            "op_ms.tail": (1000 * (nearest_rank(samples, q) if q is not None
                                   else statistics.median(samples)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        print(f"# {args.workload}: {len(walls['untraced'])} passes of {len(ops)} ops; "
              f"op_ms.tail is "
              + (f"p{q} of {len(samples)} op times" if q is not None
                 else f"the median of {len(samples)} op times (fewer than 40)"))
    else:
        from tracing import PER_LAYER, unit_of
        metrics = {}
        for name in PER_LAYER:
            vals = [run[name] for run in layer_runs]
            value = statistics.median(vals) if unit_of(name) == "s" else vals[0]
            metrics[name] = (value, unit_of(name))
            if unit_of(name) != "s" and len(set(vals)) > 1:
                print(f"# {name} differs between traced passes: {vals}", file=sys.stderr)
        overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"# {args.workload}: {len(walls['traced'])} traced and "
              f"{len(walls['untraced'])} untraced passes of {len(ops)} ops")
    result = {
        "correct": not stats["wrong"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


# -- orchestration ------------------------------------------------------------------


def child(args, role, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    # a fixed hash seed keeps set iteration, and so the work done, identical
    # from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{role} process failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.role == "setup":
        return setup_role(args)
    if args.role == "worker":
        return worker_role(args)
    if not (SRC / "injgen").is_dir():
        raise SystemExit(f"injgen sources not found under {SRC}")
    deadline = time.monotonic() + RUN_TIMEOUT
    samples = [] if args.quick else [child(args, "setup", deadline)["setup_s"]
                                     for _ in range(SETUP_SAMPLES)]
    result = child(args, "worker", deadline)
    if "setup_s" in result["metrics"]:
        samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
