"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload, one run at a time, and
prints for every metric the median and the distance between the first and
third quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json, and the same for the measured (wall-clock) times each run
writes to standard error, and how long a run took.  Every run's result
line, with its measured times and length, is appended to
``perfbench/results/spread.jsonl``.

    python3 perfbench/spread.py --seeds 1-10 [--workload cli-cold ...]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log = os.path.join(HERE, "results", "spread.jsonl")
    for name in names:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            took = time.monotonic() - t0
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            measured = [line for line in proc.stderr.splitlines() if line.startswith("measured: ")]
            result["measured"] = json.loads(measured[-1].split(" ", 1)[1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "run_s": took, **result}) + "\n")
            runs.append({**result, "run_s": took})
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}, seconds a run "
              f"{statistics.median(r['run_s'] for r in runs):.1f} (max {max(r['run_s'] for r in runs):.1f})")
        for metric, bound in bounds.items():
            report(metric, [r["metrics"][metric]["value"] for r in runs], f"bound {bound}")
        for metric in runs[0]["measured"]:
            report(metric, [r["measured"][metric] for r in runs], "measured")


def report(metric, values, note):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    print(f"  {metric:19s} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}  "
          f"{note:10s}  min {min(values):.4f}  max {max(values):.4f}")


if __name__ == "__main__":
    main()
