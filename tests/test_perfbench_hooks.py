"""What the benchmark harness relies on in the package.

``perfbench/tracer.py`` wraps a fixed list of package functions by name, and
the flat-classify workload reads the ordered orbit complex directly.  A
rename, a changed return shape or a builder called other than through its
module name would break only the benchmark, so these tests load the tracer
by path and exercise both hooks.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

from realdeligne import catalog, cechengine, deligne, exactalg
from realdeligne.coverdata import IZ, FlatCocycle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    """``Tracer.install`` looks each name up with no default."""
    tracer = _load_tracer()
    for module, name in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"realdeligne.{module}"), name, None)), (
            module,
            name,
        )
    originals = {(m, n): getattr(importlib.import_module(f"realdeligne.{m}"), n) for m, n in tracer.TRACED}
    tr = tracer.Tracer().install()
    try:
        assert tr._patched
    finally:
        tr.uninstall()
    for (m, n), fn in originals.items():
        assert getattr(importlib.import_module(f"realdeligne.{m}"), n) is fn


def test_cli_import_loads_every_traced_module():
    """``Tracer.install`` looks each traced module up in ``sys.modules``
    right after ``import realdeligne.cli``, so that import alone, in a fresh
    interpreter, must load every one of them."""
    modules = sorted({f"realdeligne.{m}" for m, _ in _load_tracer().TRACED})
    probe = f"import sys, realdeligne.cli; print([m for m in {modules!r} if m not in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_flat_workload_reads_the_orbit_complex_and_its_bases():
    """As the flat-classify workload does: H^1 of the orbit complex built
    with max_degree 3, a representative of each generator, and its image
    under ``bases[1]``; ``bases[0]`` embeds degree 0."""
    for name in ("circle_conjugation", "torus"):
        cover = catalog.build(name)
        sub, bases = cechengine.build_equivariant_complex(cover, IZ, 3)
        assert bases[0].shape == (len(cechengine.tuple_basis(cover, 0)), sub.rank(0))
        delta1 = cechengine.cech_differential(cover, 1)
        h1 = exactalg.complex_cohomology(sub, 1)
        n = h1.rank + len(h1.torsion)
        assert n, name
        for i in range(n):
            unit = [1 if j == i else 0 for j in range(n)]
            coords = exactalg.ElementCoordinates(tuple(unit[: h1.rank]), tuple(unit[h1.rank :]))
            w = exactalg.class_representative(sub, 1, coords)
            assert exactalg.class_coordinates(sub, 1, list(w)) == coords, (name, i)
            full = bases[1].matvec([int(x) for x in w])
            assert not any(delta1.matvec(full)), (name, i)


def test_traced_pass_counts_calls_made_inside_the_engine():
    """The engine reaches each memoized builder through its module name, so
    the tracer's wrappers count the calls the flat classifier and the
    descriptor route make, not only the ones a caller makes directly.  The
    direct call reads the flat classifier's orbit complex."""
    tr = _load_tracer().Tracer().install()
    try:
        cover = catalog.build("circle_conjugation")
        assert deligne.flat_cocycle_class(FlatCocycle.zero(cover)).trivial
        assert str(cechengine.equivariant_cohomology(cover, IZ, 1, 2)) == "Z + Z/2"
        built = cechengine.build_equivariant_complex(cover, IZ, 3)
    finally:
        tr.uninstall()
    assert built is cechengine._orbit_complex(cover, IZ.sign)
    for name in ("cechengine.tuple_basis", "cechengine.cech_differential", "deligne.flat_cocycle_class"):
        assert tr.calls.get(name, 0) > 0, name
    assert tr.counters["cechengine.equivariant_builds"] == 1
