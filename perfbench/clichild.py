"""``python -m realdeligne.cli``, timed inside the child process.

Runs the CLI module as ``__main__`` on the given arguments between three
calibration passes before and three after, writes the measured and
reference-speed seconds of the run (the package's import included) as the
JSON list ``[measured, reference]`` to the file named by
``PERFBENCH_TIME_OUT``, and exits as the CLI would, tracebacks included.
"""

import json
import os
import runpy
import statistics
import time

import speedometer

if __name__ == "__main__":
    before = speedometer.passes(3)
    t0 = time.perf_counter()
    try:
        runpy.run_module("realdeligne.cli", run_name="__main__", alter_sys=True)
    finally:
        took = time.perf_counter() - t0
        pass_s = statistics.median(before + speedometer.passes(3))
        with open(os.environ["PERFBENCH_TIME_OUT"], "w", encoding="utf-8") as fh:
            json.dump([took, took * speedometer.REF_PASS_S / pass_s], fh)
