"""The machine's speed, sampled while the benchmark runs.

The host this benchmark was tuned on drifts in speed by a third or more
over seconds to minutes, in the process's CPU time as much as in wall
time, and a run cannot outlast the drift.  So the timings are reported at
a fixed reference speed: a timer signal interrupts the work every
``INTERVAL`` seconds to time one pass of a fixed calibration loop, and an
operation's measured time is scaled by ``REF_PASS_S`` over the median pass
time sampled around it.  The time the passes take is kept out of the
operations' times.

The calibration loop shares no code with the package; its parts are the
kinds of work the package does: fraction-free integer elimination on
lists, Fraction sums, tuple-keyed dicts and plain integer arithmetic.
A pass adds about 0.5 MB at its peak, and importing this module, with
``_TABLE`` below, about 10 MB to the process.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.25  # seconds between passes
WINDOW = 1.0  # passes this close to an operation's ends set its speed
REF_PASS_S = 0.020  # a pass at the reference speed, about this host's usual speed

_rng = random.Random(5)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
_TABLE = {(i, i * 7 % 1013): i for i in range(50000)}
_KEYS = [(k, k * 7 % 1013) for k in (i * 7919 % 50000 for i in range(8000))]


def calibration_pass():
    """One pass of the calibration loop, with the garbage collector held
    off: a collection triggered here would time the package's heap and
    take work the package caused out of its operation's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _loop()
    finally:
        if enabled:
            gc.enable()


def _loop():
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for i in range(c + 1, n):
            f, g = m[i][c], m[c][c]
            m[i] = [g * a - f * b for a, b in zip(m[i], m[c])]
    x = Fraction(0)
    for i in range(1, 600):
        x += Fraction(i % 13 - 6, i % 7 + 1)
    s = sum(_TABLE[k] for k in _KEYS)
    d = {}
    for i in range(4000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    for i in range(12000):
        s += (i * 2654435761) % 1000003
    return s, x, len(d)


def passes(n):
    """Durations of ``n`` calibration passes run back to back, for a child
    process that times its own work (``coldimport.py``, ``clichild.py``)."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibration_pass()
        out.append(time.perf_counter() - t0)
    return out


class Speedometer:
    """Samples the calibration pass on SIGALRM while active (a ``with``
    block), and turns a span of measured time into reference-speed time."""

    def __init__(self):
        self.times = []  # start of each pass (perf_counter)
        self.passes = []  # its duration
        self._old = None

    def _sample(self):
        t0 = time.perf_counter()
        calibration_pass()
        self.passes.append(time.perf_counter() - t0)
        self.times.append(t0)

    def _tick(self, _signum, _frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)  # one shot, re-armed: no nesting

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()  # a closing sample for the last operation
        return False

    def stolen(self, t0, t1):
        """Time spent in passes that started within ``[t0, t1]``: a pass runs
        whole between two bytecodes, so it is either inside or outside."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        return sum(self.passes[lo:hi])

    def reference(self, t0, t1):
        """Reference-speed seconds of the work done in ``[t0, t1]``: the span
        without its passes, scaled by the passes sampled around it.  Read
        after the ``with`` block, which leaves a pass after every span."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        near = self.passes[lo:hi]
        if not near:  # no pass close by: the nearest one on either side
            near = self.passes[max(lo - 1, 0):lo + 1]
        return (t1 - t0 - self.stolen(t0, t1)) * REF_PASS_S / statistics.median(near)
