"""Count the equivariant builds the test suite makes.

Runs the repository's test suite in this process with the tracer installed
and reports how many times ``fixed_subcomplex`` ran, against the number of
distinct (space, sign, include_degenerate) combinations it ran for; the
difference is the work a cache keyed by ``max_degree`` repeats.

    python3 perfbench/suite_builds.py [extra pytest arguments]
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import pytest

    import tracer

    tr = tracer.Tracer().install()
    import realdeligne.cechengine as ce

    inner = ce.build_equivariant_complex
    combos = []

    def build_equivariant_complex(cover, coeff, max_degree, include_degenerate=False):
        before = tr.calls.get("exactalg.fixed_subcomplex", 0)
        result = inner(cover, coeff, max_degree, include_degenerate)
        if tr.calls.get("exactalg.fixed_subcomplex", 0) > before:
            combos.append((cover.name, coeff.sign, include_degenerate))
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("realdeligne") and getattr(module, "build_equivariant_complex", None) is inner:
            module.build_equivariant_complex = build_equivariant_complex
    code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *sys.argv[1:]])
    print(f"equivariant builds ran fixed_subcomplex {len(combos)} times for "
          f"{len(set(combos))} distinct (space, sign, include_degenerate) combinations; "
          f"fixed_subcomplex ran {tr.calls.get('exactalg.fixed_subcomplex', 0)} times in all, "
          f"{tr.self_time.get('exactalg.fixed_subcomplex', 0.0):.2f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
