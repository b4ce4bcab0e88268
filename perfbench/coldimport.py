"""Cold import of ``realdeligne.cli``, timed inside a fresh interpreter.

Prints one JSON object: ``import_s``, the measured seconds of the import,
and ``reference_s``, the same at the reference speed of
``speedometer.py``, from three calibration passes before and three after
it in this process: passes timed in the process doing the work track its
speed more closely than passes timed in the parent.

    PYTHONPATH=src python3 perfbench/coldimport.py
"""

import json
import statistics
import time

import speedometer

if __name__ == "__main__":
    before = speedometer.passes(3)
    t0 = time.perf_counter()
    import realdeligne.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    pass_s = statistics.median(before + speedometer.passes(3))
    print(json.dumps({"import_s": import_s, "reference_s": import_s * speedometer.REF_PASS_S / pass_s}))
