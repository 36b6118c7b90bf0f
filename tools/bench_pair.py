"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pair.py --name NAME [--base REV] [--workload W ...]
                                [--seed N ...] [--pairs P] [--seconds S]

Exports the base revision (default HEAD) with `git archive` into a
temporary directory and copies the working tree (its tracked files and
its untracked, non-ignored ones) beside it, so both sides run from fresh
copies; then runs `perfbench/run.py` of each copy on each workload and
seed, one process at a time.  The trees alternate within a
pair, and the tree that goes first alternates between pairs, so drift on
the machine falls on both sides alike.  Writes BENCH_<NAME>.json at the
root of the working tree: for every workload, seed and end-to-end metric
of BENCHMARK.json the base and change medians and quartiles, the number
of pairs in which the change was better, the median, min and max over
the pairs of change/base (steadier than the two medians when the
machine's speed drifts between pairs), whether that counts as a gain
(better in at least 9 of 10 pairs, and a median better by more than the
base's interquartile range), and whether it counts as a regression (a
median worse than the base's by more than the metric's `bound` share);
each regression is also printed to stderr.  After the pairs of each
workload and seed, one `--trace 1` run per side records the per-layer
metrics under `trace`, so the layers where a change saves or spends time
sit beside the end-to-end numbers.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument("--workload", action="append", dest="workloads",
                   help="workload to run (repeatable; default: all of BENCHMARK.json)")
    p.add_argument("--seed", action="append", type=int, dest="seeds",
                   help="seed to run (repeatable; default 1)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="--seconds of each perfbench run")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    return args


def export(rev, dest):
    """The tree of rev, written under dest; returns its full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return commit


def snapshot(dest):
    """Copy the working tree's tracked files, and its untracked files that
    are not ignored, under dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted from the tree is skipped
            target = Path(dest) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_once(tree, workload, seed, seconds, trace=False):
    """The result object that perfbench/run.py prints last."""
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    """Per-metric summary of paired runs {"base": [...], "change": [...]};
    metrics are BENCHMARK.json's end-to-end entries."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b, c = spread(base), spread(change)
        ratios = [y / x for x, y in zip(base, change) if x]
        margin = (b["median"] - c["median"]) if lower else (c["median"] - b["median"])
        regressed = -margin > m["bound"] * abs(b["median"])
        if regressed:
            print(f"# regressed: {name} median {b['median']:g} -> {c['median']:g} "
                  f"{m['unit']}, past its bound of {m['bound']:.0%}", file=sys.stderr)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "base": b, "change": c,
            "change_vs_base": c["median"] / b["median"] - 1 if b["median"] else None,
            "pair_ratio": ({"median": statistics.median(ratios), "min": min(ratios),
                            "max": max(ratios)} if ratios else None),
            "change_better_pairs": wins,
            "gain": wins * 10 >= 9 * len(base) and margin > b["q3"] - b["q1"],
            "bound": m["bound"], "regressed": regressed,
        }
    return out


def values(result):
    """The metrics of a perfbench result, name to value."""
    return {k: v["value"] for k, v in result["metrics"].items()}


def measure(trees, workload, seed, args, metrics):
    """The report entry of one workload and seed: args.pairs alternating
    pairs of runs of the trees {"base": dir, "change": dir}, summarized
    over the end-to-end metrics, then one traced run per side."""
    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, args.seconds))
        print(f"# {workload} seed {seed}: pair {k + 1}/{args.pairs}", file=sys.stderr)
    traced = {side: run_once(trees[side], workload, seed, args.seconds, trace=True)
              for side in ("base", "change")}
    return {
        "workload": workload, "seed": seed,
        "correct": all(r["correct"] for rs in runs.values() for r in rs)
        and all(r["correct"] for r in traced.values()),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": summarize(runs, metrics),
        "runs": {side: [values(r) for r in rs] for side, rs in runs.items()},
        "trace": {side: values(r) for side, r in traced.items()},
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = args.seeds or [1]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    report = {
        "name": args.name,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds:g}, then one run with --trace 1 per side",
        "pairs": args.pairs,
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "change": {"head": head, "tree": "copy of the working tree (tracked and "
                   "untracked, non-ignored files)"},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "change")}
        report["base"] = export(args.base, trees["base"])
        snapshot(trees["change"])
        for workload in workloads:
            for seed in seeds:
                report["workloads"][f"{workload}:{seed}"] = measure(
                    trees, workload, seed, args, bench["end_to_end"])
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)


if __name__ == "__main__":
    main()
