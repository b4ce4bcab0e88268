"""Benchmark of the realdeligne pipeline: cover -> Cech complex -> Smith
forms -> descriptors, measured from outside the package.

Run from the root of a checkout (no install needed; ``src`` is put on the
path of this process and of every child it starts):

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``op_p50_ms``, ``ops_per_s``,
``peak_rss_mb``), every time at the reference speed of ``speedometer.py``
and the measured times on standard error; with ``--trace 1`` they are the
per-layer ones, from one untraced and one traced round.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is repeated and its median reported: one cold import varies by
# a fifth between processes even at the same machine speed.
SETUP_REPS = 3
IMPORT_MODULES = ("realdeligne", "numpy", "sympy")


def child(args):
    """Runs a fresh interpreter on ``args``, with ``src`` on its path."""
    from workloads import child_env

    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing realdeligne.cli failed:\n{proc.stderr[-2000:]}")
    return proc


def cold_import():
    """Measured and reference-speed seconds of a cold import of the CLI
    module, timed in the importing process (``coldimport.py``)."""
    out = json.loads(child([os.path.join(HERE, "coldimport.py")]).stdout)
    return out["import_s"], out["reference_s"]


def import_times():
    """Cumulative import time of each module of interest, from
    ``python -X importtime -c "import realdeligne.cli"``."""
    proc = child(["-X", "importtime", "-c", "import realdeligne.cli"])
    parts = dict.fromkeys(IMPORT_MODULES, 0.0)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        top = name.split(".")[0]
        # top-level entries of the package, first entry of each dependency
        if top == "realdeligne" and depth == 1:
            parts[top] += int(cumulative) / 1e6
        elif top in IMPORT_MODULES and top != "realdeligne" and name == top and not parts[top]:
            parts[top] = int(cumulative) / 1e6
    return parts


def timed_phase(workload, rng, seconds, problems):
    """Whole rounds until ``seconds`` have passed (at least one round).
    Each operation leaves its span ``(t0, t1, ok, own)``: ``ok`` is false
    for an operation that failed, and ``own`` holds the measured and
    reference-speed seconds an operation that ran in a child process timed
    there, or None."""
    from workloads import Wrong

    spans, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        for label, run, check in workload.round(rng):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # an operation must not raise
                spans.append((t0, time.perf_counter(), False, workload.own_time()))
                failed += 1
                problems.append(f"{label}: raised {exc!r}")
                continue
            t1 = time.perf_counter()
            own = workload.own_time()
            try:
                known_fault = check(out)
            except Wrong as exc:  # completed, with a wrong answer
                known_fault = False
                problems.append(f"{label}: {exc}")
            failed += bool(known_fault)
            spans.append((t0, t1, not known_fault, own))
        try:
            workload.end_round()
        except Wrong as exc:
            problems.append(f"round: {exc}")
        if time.perf_counter() - start >= seconds:
            break
    return {"attempted": attempted, "failed": failed, "spans": spans}


def wall(span):
    return span[1] - span[0]


def latencies(phase, seconds=wall):
    return [seconds(span) for span in phase["spans"] if span[2]]


def ops_per_s(phase, seconds=wall):
    """Operations that did not fail per second of operation time."""
    return len(latencies(phase)) / sum(map(seconds, phase["spans"]))


def end_to_end(workload, args, problems):
    """Set-up and the timed phase run under the speedometer; every time is
    reported at its reference speed, and the measured figures (wall time
    without the calibration passes) go to standard error."""
    from speedometer import Speedometer

    workload.child_timing = True
    with Speedometer() as speedo:
        imports, setups = [], []
        for _ in range(SETUP_REPS):
            imports.append(cold_import())
            t0 = time.perf_counter()
            workload.setup()
            setups.append((t0, time.perf_counter(), True, None))
        phase = timed_phase(workload, random.Random(args.seed), args.seconds, problems)
    if not latencies(phase):
        raise RuntimeError("no operation succeeded")

    def ref(span):
        t0, t1, _ok, own = span
        return own[1] if own else speedo.reference(t0, t1)

    def took(span):
        t0, t1, _ok, own = span
        return own[0] if own else t1 - t0 - speedo.stolen(t0, t1)

    metrics = {
        "setup_s": (statistics.median(i[1] + ref(s) for i, s in zip(imports, setups)), "s"),
        "op_p50_ms": (statistics.median(latencies(phase, ref)) * 1000, "ms"),
        "ops_per_s": (ops_per_s(phase, ref), "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    measured = {
        "setup_s": statistics.median(i[0] + took(s) for i, s in zip(imports, setups)),
        "op_p50_ms": statistics.median(latencies(phase, took)) * 1000,
        "ops_per_s": ops_per_s(phase, took),
        "calibration_pass_ms": statistics.median(speedo.passes) * 1000,
    }
    print("measured:", json.dumps(measured), file=sys.stderr)
    return phase, metrics


def per_layer(workload, args, problems):
    """A traced set-up and round give the layer metrics; untraced and
    traced rounds then alternate for ``--seconds`` to measure the overhead."""
    import tracer

    imports = []
    for _ in range(SETUP_REPS):
        imports.append(import_times())
        workload.setup()
    rng = random.Random(args.seed)

    def traced_round(counted):
        tr = tracer.Tracer()
        with tempfile.TemporaryDirectory(dir=workload.work) as trace_dir:
            workload.trace_dir = trace_dir
            tr.install()
            try:
                if counted:
                    workload.setup()
                phase = timed_phase(workload, rng, 0, problems)
            finally:
                tr.uninstall()
                workload.trace_dir = None
            layers = tr.snapshot()
            for name in sorted(os.listdir(trace_dir)):  # traced child processes
                with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                    tracer.merge(layers, json.load(fh))
        return phase, layers

    start = time.perf_counter()
    first, layers = traced_round(counted=True)
    traced, plain = [first], []
    while True:
        plain.append(timed_phase(workload, rng, 0, problems))
        if time.perf_counter() - start >= args.seconds:
            break
        traced.append(traced_round(counted=False)[0])

    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        metrics[name] = (value, unit)
    for module in IMPORT_MODULES:
        metrics[f"import.{module}_s"] = (statistics.median(i[module] for i in imports), "s")
    overhead = (ops_per_s(merge(plain)) / ops_per_s(merge(traced)) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    return merge(plain + traced), metrics


def merge(phases):
    return {
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "spans": [x for p in phases for x in p["spans"]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "realdeligne")):
        print(f"error: no package at {SRC}/realdeligne; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    problems = []
    measure = per_layer if args.trace else end_to_end
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        phase, metrics = measure(workload, args, problems)
    for line in problems[:10]:
        print("check failed:", line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
