"""The four workloads: set-up, the operations of one round, and the checks.

A workload's ``setup()`` builds everything the timed phase needs and is
timed on its own.  ``round(rng)`` returns the operations of one round: the
same operations in every round and for every seed, in an order (and, for
generated inputs, with values) the seed fixes.  An operation is a
``(label, run, check)`` triple; ``check(output)`` returns True when the
operation failed in a known way, False when it succeeded, and raises
:class:`Wrong` when the output is incorrect.  ``end_round()`` runs the checks
that compare operations of one round with each other.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import closedforms as cf

from realdeligne import catalog, cechengine, deligne, exactalg
from realdeligne.cechengine import CoefficientComplex
from realdeligne.coverdata import IQ, IZ, Z_TRIVIAL, CoefficientSystem, FlatCocycle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Wrong(Exception):
    """An output that disagrees with a closed form or a property."""


def expect(ok, message):
    if not ok:
        raise Wrong(message)


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def group(g):
    return (g.rank, tuple(g.torsion))


def build(text):
    """The catalog cover of a space written as on the command line."""
    name, _, rest = text.partition(":")
    params = [int(p) if p.isdigit() else p for p in rest.split(",")] if rest else []
    return catalog.build(name, *params)


def mod1(x):
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


class Workload:
    """Shared defaults: the seed, a scratch directory inside the checkout,
    no cross-operation checks, operations timed by this process, and the
    peak memory of this process."""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.trace_dir = None  # set for the traced round
        self.child_timing = False  # set when a child process times its own work

    def end_round(self):
        pass

    def own_time(self):
        """``(measured, reference)`` seconds of the last operation as its
        child process timed them, or None for an in-process operation."""
        return None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

EXIT_VALIDATION, EXIT_DEGREE_RANGE = 2, 3


def _table(out):
    """Groups of ``H^k(...) = G`` lines, by degree."""
    rows = {}
    for line in out.splitlines():
        head, _, value = line.partition(" = ")
        k = int(head.split("H^", 1)[1].split("(", 1)[0])
        rows[k] = cf.parse_group(value)
    return rows


def _records(out):
    return json.loads(out)["results"]


def _records_table(out):
    """Groups of a JSON report's records, by degree."""
    return {r["q"]: (r["rank"], tuple(r["torsion"])) for r in _records(out)}


class CliCold(Workload):
    """Closed loop, one client: each operation is one fresh CLI process."""

    name = "cli-cold"
    exported = "sphere_antipodal:2"  # written to a file with relabelled names
    traced_children = 0
    timing = None  # the file the untraced child writes its times to

    # -- set-up: the cover files -----------------------------------------

    def setup(self):
        raw = build(self.exported).to_raw()
        rng = random.Random(self.seed)
        names = {i: f"v{n}" for n, i in enumerate(raw["indices"])}
        order = list(names.values())
        rng.shuffle(order)
        names = dict(zip(names, order))
        comps = {c: f"k{n}" for n, c in enumerate(raw["component_involution"])}
        relabelled = {
            "name": "relabelled",
            "involution_name": raw["involution_name"],
            "indices": [names[i] for i in raw["indices"]],
            "involution": {names[a]: names[b] for a, b in raw["involution"].items()},
            "intersections": [
                {"sets": [names[i] for i in e["sets"]], "components": [comps[c] for c in e["components"]]}
                for e in raw["intersections"]
            ],
            "faces": [
                {"component": comps[f["component"]], "drop": names[f["drop"]],
                 "in_component": comps[f["in_component"]]}
                for f in raw["faces"]
            ],
            "component_involution": {comps[a]: comps[b] for a, b in raw["component_involution"].items()},
            "good": raw["good"],
            "compact": raw["compact"],
        }
        self.cover_file = os.path.join(self.work, "relabelled.json")
        with open(self.cover_file, "w", encoding="utf-8") as fh:
            json.dump(relabelled, fh)
        broken = dict(relabelled)
        del broken["indices"]
        self.broken_file = os.path.join(self.work, "no-indices.json")
        with open(self.broken_file, "w", encoding="utf-8") as fh:
            json.dump(broken, fh)

    # -- operations --------------------------------------------------------

    def _run_cli(self, argv):
        self.timing = None
        if self.trace_dir is None and not self.child_timing:
            cmd = [sys.executable, "-m", "realdeligne.cli", *argv]
            extra = None
        elif self.trace_dir is None:
            # python -m realdeligne.cli, timed in the child (clichild.py)
            cmd = [sys.executable, os.path.join(HERE, "clichild.py"), *argv]
            self.timing = os.path.join(self.work, "timing.json")
            extra = {"PERFBENCH_TIME_OUT": self.timing}
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracechild.py"), *argv]
            self.traced_children += 1
            out = os.path.join(self.trace_dir, f"child{self.traced_children}.json")
            extra = {"PERFBENCH_TRACE_OUT": out}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(extra), cwd=ROOT)
        return proc.returncode, proc.stdout, proc.stderr

    def own_time(self):
        if self.timing is None:
            return None
        with open(self.timing, encoding="utf-8") as fh:
            measured, reference = json.load(fh)
        os.remove(self.timing)
        return measured, reference

    def round(self, rng):
        ops = []

        def add(argv, check):
            ops.append((" ".join(argv), lambda: self._run_cli(argv), check))

        def table_of(space, sign, degrees, rational=False, parse=_table):
            def check(res):
                code, out, err = res
                expect(code == 0, f"exit {code}: {err[-300:]}")
                rows = parse(out)
                expect(sorted(rows) == list(degrees), f"degrees {sorted(rows)}")
                for k, got in rows.items():
                    want = cf.equivariant(space, sign, k)
                    if rational:
                        want = (want[0], ())
                    expect(got == want, f"{space} H^{k}: {got} != {want}")
                return False
            return check

        def record_check(space, p, q):
            def check(res):
                code, out, err = res
                expect(code == 0, f"exit {code}: {err[-300:]}")
                (rec,) = _records(out)
                _check_descriptor(space, p, q, rec, lambda k: cf.equivariant(space, -1, k))
                return False
            return check

        def error_check(code_wanted, known_fault):
            def check(res):
                code, _out, err = res
                clean = code == code_wanted and "Traceback" not in err
                if known_fault:
                    return not clean
                expect(clean, f"exit {code}, wanted {code_wanted}: {err[-300:]}")
                return False
            return check

        add(["compute", "--space", "point_trivial", "--coeff", "iZ", "--max-degree", "4"],
            table_of("point_trivial", -1, range(4)))
        add(["compute", "--space", "circle_antipodal", "--coeff", "iQ-", "--max-degree", "3"],
            table_of("circle_antipodal", -1, range(3), rational=True))
        add(["deligne", "--space", "sphere_antipodal:2", "-p", "2", "-q", "2", "--json"],
            record_check("sphere_antipodal:2", 2, 2))
        add(["classify", "--space", "point_trivial_fine", "--what", "line-bundles"],
            lambda res: _classify_text(res, cf.equivariant("point_trivial_fine", -1, 2)))
        add(["classify", "--space", "torus", "--what", "flat", "--json"],
            record_check("torus", 3, 2))

        catalog_json, file_json = {}, {}

        def keep(store, space):
            def check(res):
                table_of(space, -1, range(3), parse=_records_table)(res)
                store["records"] = _strip_space(_records(res[1]))
                if catalog_json and file_json:
                    expect(catalog_json["records"] == file_json["records"],
                           "relabelled cover file disagrees with the catalog cover")
                return False
            return check

        add(["compute", "--space", self.exported, "--coeff", "iZ", "--max-degree", "3", "--json"],
            keep(catalog_json, self.exported))
        add(["compute", "--space", "@" + self.cover_file, "--coeff", "iZ", "--max-degree", "3",
             "--json"], keep(file_json, self.exported))

        add(["compute", "--space", "no_such_space", "--coeff", "iZ", "--degree", "0"],
            error_check(EXIT_VALIDATION, False))
        add(["compute", "--space", "sphere_antipodal:5", "--coeff", "iZ", "--degree", "0"],
            error_check(EXIT_VALIDATION, False))
        add(["compute", "--space", "point_trivial", "--coeff", "iZ", "--degree", "3",
             "--max-degree", "2"], error_check(EXIT_DEGREE_RANGE, False))
        # Known faults, counted as failed until fixed: a cover file without
        # "indices" and a non-integer sphere dimension both die with a
        # traceback and exit 1 where exit 2 is documented.
        add(["compute", "--space", "@" + self.broken_file, "--coeff", "iZ", "--max-degree", "2"],
            error_check(EXIT_VALIDATION, True))
        add(["compute", "--space", "sphere_antipodal:x", "--coeff", "iZ", "--max-degree", "2"],
            error_check(EXIT_VALIDATION, True))
        rng.shuffle(ops)
        return ops

    def peak_rss_mb(self):
        """The largest child: every child ends before this is read."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _strip_space(records):
    return [{k: v for k, v in r.items() if k != "space"} for r in records]


def _classify_text(res, want):
    code, out, err = res
    expect(code == 0, f"exit {code}: {err[-300:]}")
    got = cf.parse_group(out.strip().split(" = ", 1)[1])
    expect(got == want, f"{out.strip()}: want {want}")
    return False


def _check_descriptor(space, p, q, rec, h):
    """A (p, q) descriptor record against the shape law and the integral
    groups ``h(k)`` it is read from."""
    shape = cf.shape(p, q)
    expect(rec["shape"] == shape, f"{space} ({p},{q}) shape {rec['shape']} != {shape}")
    hq = h(q)
    if shape == "compact_extension":
        torus_dim = h(q - 1)[0] if q else 0
        expect(rec["rank"] == 0 and rec["torus_dim"] == torus_dim and tuple(rec["torsion"]) == hq[1],
               f"{space} ({p},{q}): {rec}, want torus {torus_dim} torsion {hq[1]}")
    else:
        expect((rec["rank"], tuple(rec["torsion"])) == hq and rec["torus_dim"] is None,
               f"{space} ({p},{q}): {rec}, want {hq}")
        expect(rec["smooth_part_symbolic"] == (shape == "mixed"), f"{space} ({p},{q}) symbolic flag")


# ---------------------------------------------------------------------------
# equivariant-large
# ---------------------------------------------------------------------------


class EquivariantLarge(Workload):
    """Full integral equivariant tables on freshly built covers."""

    name = "equivariant-large"
    # (space, max_degree, signs, operations per sign and round).  A run is
    # one round of thirteen operations: 0.7-0.8 s four times, the sphere
    # at md 3 (1.0-1.1 s) six times, torus at md 4 (1.1-1.2 s) twice and
    # the sphere at md 4 (13 s) once.  The median is then the third of the
    # six sphere md-3 operations.  With one operation of each case it fell
    # on the gap between the 0.8-s and the 1.1-s cases, and a run's median
    # jumped between them.
    CASES = (
        ("sphere_antipodal:3", 3, (-1, 1), 3),
        ("sphere_antipodal:3", 4, (-1,), 1),
        ("point_trivial_fine", 5, (-1, 1), 1),
        ("torus", 4, (-1, 1), 1),
        ("torus:circle_antipodal,circle_antipodal_fine", 3, (-1, 1), 1),
    )

    def setup(self):
        for space, _md, _signs, _times in self.CASES:
            build(space)

    def round(self, rng):
        ops = []
        for space, md, signs, times in self.CASES:
            for sign in signs:
                ops += [(f"{space} md {md} sign {sign}",
                         self._op(space, md, sign), self._check(space, md, sign))] * times
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(space, md, sign):
        def run():
            cover = build(space)
            c = CoefficientSystem.integers(sign)
            return [group(cechengine.equivariant_cohomology(cover, c, k, md)) for k in range(md)]
        return run

    @staticmethod
    def _check(space, md, sign):
        def check(table):
            want = [cf.equivariant(space, sign, k) for k in range(md)]
            expect(table == want, f"{space} sign {sign}: {table} != {want}")
            return False
        return check


# ---------------------------------------------------------------------------
# flat-classify
# ---------------------------------------------------------------------------


class FlatClassify(Workload):
    """Flat-cocycle classification against warm equivariant complexes."""

    name = "flat-classify"
    # space -> (flat_cocycle_class calls, cocycles_equivalent calls) per
    # round; circle_conjugation, the only cover with a torus coordinate,
    # carries the median.
    MIX = {
        "circle_conjugation": (8, 4),
        "circle_antipodal_fine": (3, 1),
        "sphere_antipodal:2": (3, 1),
        "point_trivial_fine": (3, 1),
        "torus": (3, 1),
        "torus:circle_antipodal,circle_antipodal_fine": (3, 1),
    }

    def setup(self):
        rng = random.Random(self.seed)
        self.pool = {}
        for space, (n_class, n_equiv) in self.MIX.items():
            cover = build(space)
            sub, bases = cechengine.build_equivariant_complex(cover, IZ, 3)
            free, torsion = _h1_generators(cover, sub, bases)
            cocycles = [
                _random_cocycle(cover, bases, free, torsion, rng)
                for _ in range(n_class + n_equiv)
            ]
            pairs = []
            for fc, coords in cocycles[n_class:]:
                if rng.random() < 0.5:
                    other, other_coords = fc + _random_coboundary(cover, bases, rng), coords
                else:
                    other, other_coords = _random_cocycle(cover, bases, free, torsion, rng)
                pairs.append((fc, other, coords == other_coords))
            self.pool[space] = (cocycles[:n_class], pairs)
            deligne.flat_cocycle_class(cocycles[0][0])  # warm the coordinate data

    def round(self, rng):
        ops = []
        for space, (classes, pairs) in self.pool.items():
            for fc, coords in classes:
                ops.append((f"flat_cocycle_class {space}",
                            lambda fc=fc: deligne.flat_cocycle_class(fc),
                            lambda r, coords=coords, space=space: _check_flat(space, r, coords)))
            for a, b, same in pairs:
                ops.append((f"cocycles_equivalent {space}",
                            lambda a=a, b=b: deligne.cocycles_equivalent(a, b),
                            lambda r, same=same, space=space: _check_equiv(space, r, same)))
        rng.shuffle(ops)
        return ops


def _antisymmetrize(cover, vec):
    """Average a degree-1 cochain with its pullback along pair reversal,
    which keeps fixed cocycles fixed and acts as the identity on classes."""
    basis = cechengine.tuple_basis(cover, 1)
    return [
        (Fraction(vec[pos]) - Fraction(vec[basis.position[((j, i), c)]])) / 2
        for pos, ((i, j), c) in enumerate(basis.elements)
    ]


def _h1_generators(cover, sub, bases):
    """Antisymmetric full-basis cocycles, one per free and one per torsion
    generator of the equivariant H^1 (sign -1)."""
    h1 = exactalg.complex_cohomology(sub, 1)
    n = h1.rank + len(h1.torsion)
    gens = []
    for i in range(n):
        unit = [1 if j == i else 0 for j in range(n)]
        coords = exactalg.ElementCoordinates(tuple(unit[: h1.rank]), tuple(unit[h1.rank :]))
        w = exactalg.class_representative(sub, 1, coords)
        gens.append(_antisymmetrize(cover, bases[1].matvec([int(x) for x in w])))
    return gens[: h1.rank], gens[h1.rank :]


def _fraction(rng, top, den):
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def _coboundary_vector(cover, bases, rng):
    eta = [_fraction(rng, 9, 5) for _ in range(bases[0].ncols)]
    full = bases[0].matvec(eta)
    return cechengine.cech_differential(cover, 0).matvec(full)


def _angles(cover, vec):
    basis = cechengine.tuple_basis(cover, 1)
    return {(i, j, c): Fraction(vec[pos]) for pos, ((i, j), c) in enumerate(basis.elements)}


def _random_cocycle(cover, bases, free, torsion, rng):
    """A valid flat cocycle and the torus coordinates it must classify to:
    rational multiples of the free generators (the coordinates), plus
    rational multiples of torsion generators and a coboundary (both
    classify to zero)."""
    vec = _coboundary_vector(cover, bases, rng)
    coords = []
    for g in free:
        q = _fraction(rng, 12, 6)
        vec = [v + q * x for v, x in zip(vec, g)]
        coords.append(mod1(q))
    for g in torsion:
        q = _fraction(rng, 6, 4)
        vec = [v + q * x for v, x in zip(vec, g)]
    return FlatCocycle(cover, _angles(cover, vec)), tuple(coords)


def _random_coboundary(cover, bases, rng):
    return FlatCocycle(cover, _angles(cover, _coboundary_vector(cover, bases, rng)))


def _check_flat(space, result, coords):
    got = result.coords
    expect(got.torus_part == coords, f"{space}: torus part {got.torus_part} != {coords}")
    expect(not any(got.torsion_part), f"{space}: torsion part {got.torsion_part}")
    expect(not any(result.bockstein.free_part), f"{space}: free obstruction")
    expect(result.trivial == (not any(coords)), f"{space}: trivial flag {result.trivial}")
    return False


def _check_equiv(space, result, same):
    expect(result is same, f"{space}: cocycles_equivalent {result}, want {same}")
    return False


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------

SESSION_SPACES = (
    "point_trivial",
    "point_trivial_fine",
    "free_orbit",
    "circle_antipodal",
    "circle_antipodal_fine",
    "circle_conjugation",
    "sphere_antipodal:1",
    "sphere_antipodal:2",
    "torus",
)
# A query-mix round is SESSION_SPACES and ROUND_EXTRA: torus (about 3 s)
# and free_orbit (4 ms) once, the other sessions (7-250 ms) twice.  The
# median session is then circle_antipodal_fine (about 20 ms), six to ten
# times a run and in the middle of its group.  With one session of each,
# a run times it only three to five times; with every catalog cover twice
# the median falls on the gap between it and the 13-ms sphere_antipodal:1,
# and a run's median jumps between the two.
ROUND_EXTRA = tuple(s for s in SESSION_SPACES if s not in ("free_orbit", "torus"))
REFINEMENTS = (
    ("point_trivial", "point_trivial_fine"),
    ("circle_antipodal", "circle_antipodal_fine"),
)
DEGREES = range(3)


def session(space):
    """Every question the public API answers, on a fresh cover, each at
    the max_degree its entry point uses."""
    cover = build(space)
    eq = cechengine.equivariant_cohomology
    a = {}
    for k in DEGREES:  # `--degree k` asks at max_degree k + 1
        a["iZ", k] = group(eq(cover, IZ, k, k + 1))
        a["Z", k] = group(eq(cover, Z_TRIVIAL, k, k + 1))
        a["iQ-", k] = group(eq(cover, IQ, k, k + 1))
        a["plain", k] = group(cechengine.nonequivariant_cohomology(cover, Z_TRIVIAL, k, k + 1))
        for n in (2, 3):
            a["Zmod", n, k] = group(eq(cover, CoefficientSystem.integers_mod(n, -1), k, k + 1))
            cone = CoefficientComplex((IZ, IZ), (n,))
            a["cone", n, k + 1] = group(cechengine.hypercohomology(cover, cone, k + 1, k + 2))
    for p in range(4):
        for q in DEGREES:
            a["deligne", p, q] = deligne.deligne_descriptor(cover, p, q).to_record()
    a["line-bundles"] = group(deligne.classify_line_bundles(cover))
    a["with-connection"] = deligne.classify_line_bundles_with_connection(cover).to_record()
    a["flat"] = deligne.classify_flat_line_bundles(cover).to_record()
    a["circle-maps"] = group(deligne.real_circle_maps(cover))
    for k in (0, 1):
        qc = deligne.quotient_coefficients_cohomology(cover, k)
        a["circle-coefficients", k] = (qc.torus_dim, tuple(qc.torsion))
    return a


def check_session(space, a):
    for k in DEGREES:
        for sign, key in ((-1, "iZ"), (1, "Z")):
            want = cf.equivariant(space, sign, k)
            if want is not None:
                expect(a[key, k] == want, f"{space} {key} H^{k}: {a[key, k]} != {want}")
        expect(a["iQ-", k] == (a["iZ", k][0], ()),
               f"{space} H^{k}: rational {a['iQ-', k]} vs integral rank {a['iZ', k][0]}")
        expect(a["plain", k] == cf.plain(space, k), f"{space} plain H^{k}: {a['plain', k]}")
        for n in (2, 3):
            expect(a["Zmod", n, k] == a["cone", n, k + 1],
                   f"{space} H^{k} mod {n}: {a['Zmod', n, k]} vs cone {a['cone', n, k + 1]}")
    h = lambda k: a["iZ", k]  # noqa: E731
    for p in range(4):
        for q in DEGREES:
            _check_descriptor(space, p, q, a["deligne", p, q], h)
    expect(a["line-bundles"] == h(2), f"{space} line bundles {a['line-bundles']}")
    _check_descriptor(space, 2, 2, a["with-connection"], h)
    _check_descriptor(space, 3, 2, a["flat"], h)
    expect(a["circle-maps"] == h(1), f"{space} circle maps {a['circle-maps']}")
    for k in (0, 1):
        want = (h(k)[0], h(k + 1)[1])
        expect(a["circle-coefficients", k] == want,
               f"{space} circle coefficients H^{k}: {a['circle-coefficients', k]} != {want}")
    return False


class QueryMix(Workload):
    """One session of every public question per freshly built cover."""

    name = "query-mix"

    def setup(self):
        for space in SESSION_SPACES:
            build(space)

    def round(self, rng):
        self.answers = {}
        ops = []
        for space in SESSION_SPACES + ROUND_EXTRA:
            def run(space=space):
                return session(space)

            def check(a, space=space):
                self.answers[space] = a
                return check_session(space, a)
            ops.append((f"session {space}", run, check))
        rng.shuffle(ops)
        return ops

    def end_round(self):
        for coarse, fine in REFINEMENTS:
            if coarse not in self.answers or fine not in self.answers:
                continue  # a session raised; already reported
            a, b = self.answers[coarse], self.answers[fine]
            for key in a:
                x, y = a[key], b[key]
                if isinstance(x, dict):
                    x = {k: v for k, v in x.items() if k != "space"}
                    y = {k: v for k, v in y.items() if k != "space"}
                expect(x == y, f"refinement {coarse}/{fine} differs at {key}: {x} vs {y}")


WORKLOADS = {w.name: w for w in (CliCold, EquivariantLarge, FlatClassify, QueryMix)}
