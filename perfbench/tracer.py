"""Per-layer tracing of ``realdeligne`` from outside the package.

The tracer wraps a fixed list of the package's public functions.  Each
wrapper replaces the function's name in every loaded ``realdeligne`` module
that bound it (``deligne``, ``verify`` and ``cli`` import these functions by
name, so their internal calls would otherwise go uncounted).  Per function it
records the number of calls, the inclusive time of the outermost active call
(``.s``) and the time not covered by other wrapped calls (``.self_s``).  It
also keeps a few work counters read off the functions' arguments and results.

Nothing here is active until :meth:`Tracer.install`; the untraced benchmark
never imports the wrappers into the package.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

TRACED = (
    ("catalog", "build"),
    ("coverdata", "validate_cover"),
    ("coverdata", "product_cover"),
    ("coverdata", "double_fixed_indices"),
    ("cechengine", "tuple_basis"),
    ("cechengine", "cech_differential"),
    ("cechengine", "involution_matrix"),
    ("cechengine", "build_full_complex"),
    ("cechengine", "build_equivariant_complex"),
    ("cechengine", "hypercohomology"),
    ("exactalg", "fixed_subcomplex"),
    ("exactalg", "complex_cohomology"),
    ("exactalg", "class_coordinates"),
    ("exactalg", "solve_int"),
    ("exactalg", "solve_rational"),
    ("exactalg", "integer_rank"),
    ("deligne", "deligne_descriptor"),
    ("deligne", "flat_cocycle_class"),
    ("cli", "main"),
)

# Work counters: summed over results seen for the first time, except the
# rank, which is a maximum.
SUM_COUNTERS = (
    "cechengine.equivariant_builds",
    "cechengine.basis_elements",
    "cechengine.coboundary_nnz",
)
MAX_COUNTERS = ("exactalg.max_cochain_rank",)


class Tracer:
    """Call counts, inclusive and self times, and work counters."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counters = dict.fromkeys(SUM_COUNTERS + MAX_COUNTERS, 0)
        self._active = {}
        self._stack = []  # [time in wrapped callees] per active wrapped call
        self._patched = []
        # results already counted, per cover; dropped with the cover
        self._seen = weakref.WeakKeyDictionary()

    # -- counters --------------------------------------------------------

    def _first_time(self, cover, result) -> bool:
        seen = self._seen.setdefault(cover, {})
        if id(result) in seen:
            return False
        seen[id(result)] = result
        return True

    def _note_rank(self, complex_):
        top = max(complex_.ranks.values(), default=0)
        key = "exactalg.max_cochain_rank"
        self.counters[key] = max(self.counters[key], top)

    def _observe(self, name, args, result):
        c = self.counters
        if name == "cechengine.tuple_basis":
            if self._first_time(args[0], result):
                c["cechengine.basis_elements"] += len(result)
        elif name == "cechengine.cech_differential":
            if self._first_time(args[0], result):
                c["cechengine.coboundary_nnz"] += result.nnz()
        elif name == "cechengine.build_equivariant_complex":
            if self._first_time(args[0], result[0]):
                c["cechengine.equivariant_builds"] += 1
        elif name in ("exactalg.fixed_subcomplex", "exactalg.complex_cohomology"):
            self._note_rank(args[0])

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            outermost = not tracer._active.get(name)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._stack.pop()
                tracer._active[name] -= 1
                if outermost:
                    tracer.total[name] = tracer.total.get(name, 0.0) + dt
                tracer.self_time[name] = (
                    tracer.self_time.get(name, 0.0) + dt - frame[0]
                )
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            tracer._observe(name, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every traced function wherever a ``realdeligne`` module
        bound it.  The package must already be imported."""
        import realdeligne.cli  # noqa: F401  (loads every traced module)

        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "realdeligne" or key.startswith("realdeligne."))
        ]
        for module, fn in TRACED:
            original = getattr(sys.modules[f"realdeligne.{module}"], fn)
            wrapper = self._wrap(f"{module}.{fn}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
        return self

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        out = {}
        for module, fn in TRACED:
            name = f"{module}.{fn}"
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".s"] = self.total.get(name, 0.0)
            out[name + ".self_s"] = self.self_time.get(name, 0.0)
        out.update(self.counters)
        return out


def merge(into: dict, other: dict) -> dict:
    """Add a snapshot from another process into ``into``."""
    for key, value in other.items():
        if key in MAX_COUNTERS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
    return into
