"""Traced run of every workload: the per-layer metrics.

Runs ``run.py --trace 1`` on each workload, one at a time, prints each
workload's per-layer metrics (nonzero ones; call counts and counters first)
and writes them all to ``perfbench/results/trace-seed<N>.json``.  Each
workload's ``trace.overhead_pct`` compares the untraced and the traced
round's ``ops_per_s``.

    python3 perfbench/trace.py --seed 1 [--workload query-mix ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="per-layer metrics of every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    for name in names:
        cmd = [*bench["command"], "--workload", name, "--seed", str(args.seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        report[name] = result
        metrics = result["metrics"]
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        ordered = sorted(metrics, key=lambda m: (metrics[m]["unit"] != "count", m))
        for metric in ordered:
            value, unit = metrics[metric]["value"], metrics[metric]["unit"]
            if value:
                print(f"  {metric:45s} {value:14.4f} {unit}" if isinstance(value, float)
                      else f"  {metric:45s} {value:14d} {unit}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"trace-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"written to {os.path.relpath(out, ROOT)}")


if __name__ == "__main__":
    main()
