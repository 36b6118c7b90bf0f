"""Steadiness study: run the benchmark once per seed and report the spread.

    python3 perfbench/steadiness.py --workload zoo --seeds 1-10 [--out FILE]

FILE (perfbench/results/ is ignored by git) gets one JSON line per run.

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json, and the share of failed operations.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=None, help="append each run's JSON here")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / bench["command"][1]), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(res) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: failed share {sorted(shares)}, "
          f"correct {all(r['correct'] for r in runs)}")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
              f"IQR/median {(q3 - q1) / med:6.3f}  bound {m['bound']}")


if __name__ == "__main__":
    main()
