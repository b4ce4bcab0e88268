"""Descriptor shapes, classification wrappers, and the flat-angle classifier."""

import json
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

import flathelp
import oracles
from realdeligne import catalog, cechengine, flatclasses
from realdeligne.cechengine import (
    _orbit_keys,
    build_equivariant_complex,
    cech_differential,
    equivariant_cohomology,
)
from realdeligne.coverdata import IZ, FlatCocycle, validate_cover
from realdeligne.deligne import (
    COMPACT_EXTENSION,
    DISCRETE,
    MIXED,
    RESULT_RECORD_SCHEMA,
    SMOOTH_PART_SYMBOL,
    DeligneDescriptor,
    classify_flat_line_bundles,
    classify_line_bundles,
    classify_line_bundles_with_connection,
    cocycles_equivalent,
    deligne_descriptor,
    flat_cocycle_class,
    quotient_coefficients_cohomology,
    real_circle_maps,
)
from realdeligne.errors import (
    CoverMismatch,
    DegreeOutOfRange,
    InvalidCocycle,
    NotCompact,
)
from realdeligne.exactalg import GroupDescriptor, class_coordinates, solve_int


def test_shape_law_grid(spaces):
    cover = spaces["point_trivial"]
    for p in range(5):
        for q in range(5):
            d = deligne_descriptor(cover, p, q)
            symbolic = d.to_record()["smooth_part_symbolic"]
            if p == 0 or q > p:
                assert d.shape == DISCRETE
                assert d.torus_dim is None
                assert not symbolic
                assert "split assumed" not in str(d)
            elif q == p:
                assert d.shape == MIXED
                assert symbolic
                assert d.torus_dim is None
            else:
                assert d.shape == COMPACT_EXTENSION
                assert str(d).endswith(" (split assumed)")
                assert not symbolic
                assert d.rank == 0
                assert d.torus_dim is not None


def test_weight_zero_is_plain_twisted_cohomology(spaces):
    for cover in spaces.values():
        for q in range(3):
            d = deligne_descriptor(cover, 0, q)
            g = equivariant_cohomology(cover, IZ, q, q + 1)
            assert (d.rank, d.torsion) == (g.rank, g.torsion)
            assert d.shape == DISCRETE


def test_antipodal_circle_descriptor_family(spaces):
    cover = spaces["circle_antipodal"]
    # q > p: plain twisted H^2, zero by the cell model of the free quotient
    assert oracles.sphere_quotient(1, -1, 2) == (0, ())
    d = deligne_descriptor(cover, 1, 2)
    assert d.shape == DISCRETE
    assert d.group == GroupDescriptor(0, ())
    # q == p: symbolic smooth part over the same vanishing discrete quotient
    d = deligne_descriptor(cover, 2, 2)
    assert d.shape == MIXED
    assert d.group == GroupDescriptor(0, ())
    assert SMOOTH_PART_SYMBOL in str(d)
    # q < p: compact extension; twisted H^1 is pure torsion, so no torus
    assert oracles.sphere_quotient(1, -1, 1) == (0, (2,))
    d = deligne_descriptor(cover, 3, 2)
    assert d.shape == COMPACT_EXTENSION
    assert (d.torus_dim, d.torsion) == (0, ())
    assert "split assumed" in str(d)


def test_with_connection_wrapper(spaces):
    d = classify_line_bundles_with_connection(spaces["point_trivial"])
    assert d.shape == MIXED
    assert (d.p, d.q) == (2, 2)
    assert d.group == GroupDescriptor(0, ())
    assert oracles.sphere_quotient(2, -1, 2) == (1, ())
    d = classify_line_bundles_with_connection(spaces["sphere_antipodal(2)"])
    assert d.group == GroupDescriptor(1, ())


def test_flat_descriptor_on_rigid_spaces(spaces):
    # twisted H^1 has rank zero on these covers, so the flat group is trivial
    for label in ("point_trivial", "free_orbit", "circle_antipodal"):
        d = classify_flat_line_bundles(spaces[label])
        assert d.shape == COMPACT_EXTENSION
        assert (d.torus_dim, d.torsion) == (0, ())
        assert str(d).endswith("torus_dim 0 (split assumed)")


def test_flat_descriptor_conjugation_circle(spaces):
    d = classify_flat_line_bundles(spaces["circle_conjugation"])
    assert d.shape == COMPACT_EXTENSION
    assert (d.torus_dim, d.torsion) == (1, ())


def test_weight_without_degree_has_no_torus(spaces):
    d = deligne_descriptor(spaces["point_trivial"], 1, 0)
    assert d.shape == COMPACT_EXTENSION
    assert d.torus_dim == 0
    assert d.torsion == ()


def test_degree_window_too_small(spaces):
    """A negative q lies below every degree window; a negative p is no
    weight.  The window read is always ``0 .. q``."""
    point = spaces["point_trivial"]
    for q in (-1, 1.5, "2"):
        with pytest.raises(DegreeOutOfRange):
            deligne_descriptor(point, 2, q)
    assert deligne_descriptor(point, 2, 5).degrees_computed == (0, 5)
    for p in (-1, 2.5, "2"):
        with pytest.raises(ValueError):
            deligne_descriptor(point, p, 0)
    assert deligne_descriptor(point, p=2, q=2) == deligne_descriptor(point, 2, 2)  # keywords too
    record = deligne_descriptor(point, np.int64(3), np.int64(2)).to_record()
    assert json.dumps(record) == json.dumps(deligne_descriptor(point, 3, 2).to_record())


def test_records_validate_against_schema(spaces):
    for cover in spaces.values():
        for p, q in [(0, 1), (2, 2), (3, 2), (1, 0)]:
            rec = deligne_descriptor(cover, p, q).to_record()
            jsonschema.validate(rec, RESULT_RECORD_SCHEMA)
            json.dumps(rec)  # plain types only, serializable as-is


def test_line_bundle_groups_match_cell_models(spaces):
    assert oracles.cyclic_two_integer(-1, 2) == (0, ())
    assert classify_line_bundles(spaces["point_trivial"]) == GroupDescriptor(0, ())
    assert oracles.quotient_point(2) == (0, ())
    assert classify_line_bundles(spaces["free_orbit"]) == GroupDescriptor(0, ())
    assert oracles.sphere_quotient(1, -1, 2) == (0, ())
    assert classify_line_bundles(spaces["circle_antipodal"]) == GroupDescriptor(0, ())
    assert oracles.sphere_quotient(2, -1, 2) == (1, ())
    assert classify_line_bundles(spaces["sphere_antipodal(2)"]) == GroupDescriptor(1, ())


def test_circle_map_groups(spaces):
    assert oracles.cyclic_two_integer(-1, 1) == (0, (2,))
    assert real_circle_maps(spaces["point_trivial"]) == GroupDescriptor(0, (2,))
    assert oracles.quotient_point(1) == (0, ())
    assert real_circle_maps(spaces["free_orbit"]) == GroupDescriptor(0, ())
    assert oracles.sphere_quotient(1, -1, 1) == (0, (2,))
    assert real_circle_maps(spaces["circle_antipodal"]) == GroupDescriptor(0, (2,))
    # hand-checked on the two-arc model with a fixed segment in each arc
    assert real_circle_maps(spaces["circle_conjugation"]) == GroupDescriptor(1, (2,))


def test_circle_maps_need_compactness():
    cover = validate_cover(
        {
            "name": "open_orbit",
            "involution_name": "swap",
            "indices": ["a", "b"],
            "involution": {"a": "b", "b": "a"},
            "intersections": [
                {"sets": ["a"], "components": ["ca"]},
                {"sets": ["b"], "components": ["cb"]},
            ],
            "faces": [],
            "component_involution": {"ca": "cb", "cb": "ca"},
            "good": True,
            "compact": False,
        }
    )
    with pytest.raises(NotCompact):
        real_circle_maps(cover)


def test_circle_coefficient_groups(spaces):
    point = spaces["point_trivial"]
    assert oracles.cyclic_two_integer(-1, 0) == (0, ())
    assert oracles.cyclic_two_integer(-1, 1) == (0, (2,))
    qc = quotient_coefficients_cohomology(point, 0)
    assert (qc.torus_dim, qc.torsion) == (0, (2,))
    qc = quotient_coefficients_cohomology(point, 1)
    assert (qc.torus_dim, qc.torsion) == (0, ())
    qc = quotient_coefficients_cohomology(spaces["circle_antipodal"], 1)
    assert (qc.torus_dim, qc.torsion) == (0, ())
    qc = quotient_coefficients_cohomology(spaces["circle_conjugation"], 0)
    assert (qc.torus_dim, qc.torsion) == (0, (2,))


def test_circle_coefficients_are_the_compact_extension(spaces):
    """Circle coefficients in degree k are the (p, k + 1) compact extension
    for every p > k + 1: the rank of integral H^k as the torus, the torsion
    of H^(k+1) as the finite part."""
    covers = [*spaces.values(), catalog.build("sphere_antipodal", 3)]
    fields = [name for name in DeligneDescriptor.__slots__ if name != "p"]
    for cover in covers:
        for k in range(4):
            qc = quotient_coefficients_cohomology(cover, k)
            assert qc.shape == COMPACT_EXTENSION and (qc.p, qc.q) == (k + 2, k + 1)
            assert qc.torus_dim == equivariant_cohomology(cover, IZ, k, k + 1).rank
            assert qc.torsion == equivariant_cohomology(cover, IZ, k + 1, k + 2).torsion
            for p in range(k + 2, k + 5):
                other = deligne_descriptor(cover, p, k + 1)
                for name in fields:
                    assert getattr(qc, name) == getattr(other, name), (cover.name, k, p, name)
        with pytest.raises(DegreeOutOfRange):
            quotient_coefficients_cohomology(cover, -1)


def test_zero_angles_classify_trivial(spaces):
    for cover in spaces.values():
        res = flat_cocycle_class(FlatCocycle.zero(cover))
        assert res.trivial
        assert res.coords.is_zero
        assert res.bockstein.is_zero


def test_third_rotation_class_on_conjugation_circle(spaces):
    cover = spaces["circle_conjugation"]
    free_gens, _ = flathelp.class_generators(cover)
    (gen,) = free_gens
    fc = FlatCocycle(cover, flathelp.angles_from_vector(cover, gen * Fraction(1, 3)))
    res = flat_cocycle_class(fc)
    assert not res.trivial
    assert res.bockstein.is_zero
    assert res.coords.torus_part == (Fraction(1, 3),)
    assert res.coords.torsion_part == ()


def test_flat_class_reads_degree_two_once_and_solves_nothing(spaces, monkeypatch):
    """A flat class makes one kernel-coordinate pass, the obstruction's in
    degree 2, and no Smith back-solve: the torus part is the lift read
    through the cached degree-1 rows mod ``D``, with no integral preimage
    of the obstruction and no residual cocycle to check."""
    from realdeligne import exactalg

    degrees, solves = [], []
    inner, back_solve = flatclasses._kernel_coordinates, exactalg._SmithData.back_solve

    def kernel_coordinates(c, k, cocycle):
        degrees.append(k)
        return inner(c, k, cocycle)

    monkeypatch.setattr(flatclasses, "_kernel_coordinates", kernel_coordinates)
    monkeypatch.setattr(
        exactalg._SmithData, "back_solve", lambda *args, **kw: solves.append(None) or back_solve(*args, **kw)
    )
    cover = spaces["circle_conjugation"]
    (gen,), _ = flathelp.class_generators(cover)
    obstructed = flathelp.obstructed_cocycles(catalog.build("torus"), np.random.RandomState(2))
    degrees.clear()
    solves.clear()
    fc = FlatCocycle(cover, flathelp.angles_from_vector(cover, gen * Fraction(1, 3)))
    assert flat_cocycle_class(fc).coords.torus_part == (Fraction(1, 3),)
    for fc, torsion in obstructed:
        assert flat_cocycle_class(fc).coords.torsion_part == torsion
    assert degrees == [2, 2]  # the torus's fixed H^2 is Z/2: one obstructed class
    assert solves == []


@pytest.mark.parametrize("name", ["circle_conjugation", "sphere_antipodal(2)"])
def test_flat_class_reads_the_angles_once_and_no_full_coboundary(spaces, monkeypatch, name):
    """A warm flat class reads the integer angle table once, for the checks
    and the lift together, and never multiplies by the full ordered d_1:
    the lift and its coboundary stay in the orbit complex's coordinates."""
    from realdeligne.exactalg import SparseIntMatrix

    cover = spaces[name]
    fc, _ = flathelp.random_flat_cocycle(cover, np.random.RandomState(3))
    flat_cocycle_class(fc)
    delta1 = cech_differential(cover, 1)
    tables, products = [], []
    read, matvec = FlatCocycle._integer_angles, SparseIntMatrix.matvec
    monkeypatch.setattr(FlatCocycle, "_integer_angles", lambda self: tables.append(None) or read(self))
    monkeypatch.setattr(SparseIntMatrix, "matvec", lambda m, v: products.append(m) or matvec(m, v))
    flat_cocycle_class(fc)
    assert len(tables) == 1
    assert products and all(m is not delta1 for m in products)


def _space_id(space):
    name, *params = space
    return name + (":" + ",".join(map(str, params)) if params else "")


class _WatchedIntersections(dict):
    """A cover's intersections that log every walk over them."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __iter__(self):
        self.log.append("iter")
        return super().__iter__()

    def items(self):
        self.log.append("items")
        return super().items()

    def keys(self):
        self.log.append("keys")
        return super().keys()

    def values(self):
        self.log.append("values")
        return super().values()


@pytest.mark.parametrize(
    "space", [("circle_conjugation",), ("torus", "circle_antipodal", "circle_antipodal_fine")], ids=_space_id
)
def test_warm_flat_class_reads_neither_the_cover_nor_d2(space, monkeypatch):
    """A warm class and a warm equivalence test do only per-cocycle work:
    the angle checks read the cover's angle layout, never its
    intersections, and the cocycle checks read kernel coordinates, never a
    product with the orbit complex's ``d_2``; ``d_1`` is applied once per
    class, to the lift."""
    from realdeligne.exactalg import SparseIntMatrix

    cover = catalog.build(*space)
    rng = np.random.RandomState(4)
    gens = flathelp.class_generators(cover)
    a, _ = flathelp.random_flat_cocycle(cover, rng, gens)
    b, _ = flathelp.random_flat_cocycle(cover, rng, gens)
    flat_cocycle_class(a)
    sub = cechengine._orbit_complex(cover, -1)[0]
    d1, d2 = sub.diff(1), sub.diff(2)
    walks, products = [], []
    matvec = SparseIntMatrix.matvec
    monkeypatch.setattr(cover, "intersections", _WatchedIntersections(cover.intersections, walks))
    monkeypatch.setattr(SparseIntMatrix, "matvec", lambda m, v: products.append(m) or matvec(m, v))
    flat_cocycle_class(a)
    cocycles_equivalent(a, b)
    assert walks == []
    assert not any(m is d2 for m in products)
    assert sum(m is d1 for m in products) == 2


def test_angle_layout_is_built_once_per_cover(monkeypatch):
    built = []
    layout = flatclasses.AngleLayout
    monkeypatch.setattr(flatclasses, "AngleLayout", lambda *parts: built.append(parts) or layout(*parts))
    cover = catalog.build("circle_conjugation")
    rng = np.random.RandomState(9)
    gens = flathelp.class_generators(cover)
    for _ in range(10):
        fc, expected = flathelp.random_flat_cocycle(cover, rng, gens)
        assert flat_cocycle_class(fc).coords.torus_part == expected
        assert cocycles_equivalent(fc, fc)
    assert len(built) == 1


def test_cocycles_equivalent_forms_no_flat_cocycle(spaces, monkeypatch):
    cover = spaces["circle_conjugation"]
    rng = np.random.RandomState(8)
    a, _ = flathelp.random_flat_cocycle(cover, rng)
    b = a + flathelp.random_coboundary(cover, rng)
    made = []
    init = FlatCocycle.__init__
    monkeypatch.setattr(FlatCocycle, "__init__", lambda self, *parts: made.append(self) or init(self, *parts))
    assert cocycles_equivalent(a, b)
    assert made == []


def _outcome(run):
    """What ``run()`` returns, or the message of the InvalidCocycle it raises."""
    try:
        return run()
    except InvalidCocycle as err:
        return f"InvalidCocycle: {err}"


def _perturbed(cover, fc, rng):
    """Copies of ``fc`` broken in each way the checks look for: one angle
    moved (antisymmetry), a reversal pair moved (equivariance), a whole
    orbit moved (the cocycle condition, or nothing on a cover whose pairs
    close no triple), and one angle moved in a reversed table, so the first
    violation depends on the table's order."""
    keys = list(fc.angles)
    out = []
    for kind in range(4):
        angles = dict(fc.angles)
        i, j, c = keys[rng.randint(len(keys))]
        q = Fraction(1, int(rng.randint(2, 9)))
        if kind == 0:
            angles[(i, j, c)] += q
        elif kind == 1:
            angles[(i, j, c)] += q
            angles[(j, i, c)] -= q
        elif kind == 2:
            ti, tj, tc = cover.t(i), cover.t(j), cover.sigma(c)
            angles[(i, j, c)] += q
            angles[(j, i, c)] -= q
            angles[(ti, tj, tc)] -= q
            angles[(tj, ti, tc)] += q
        else:
            angles = dict(reversed(list(angles.items())))
            angles[(i, j, c)] += q
        out.append(FlatCocycle(cover, angles))
    return out


@pytest.mark.parametrize(
    "space",
    [
        ("circle_conjugation",),
        ("circle_antipodal_fine",),
        ("sphere_antipodal", 2),
        ("point_trivial_fine",),
        ("torus",),
        ("torus", "circle_antipodal", "circle_antipodal_fine"),
    ],
    ids=_space_id,
)
def test_integer_table_equivalence_matches_the_fraction_route(space):
    """``cocycles_equivalent`` reads the two integer tables over the lcm of
    their denominators; it agrees with the class of the Fraction difference
    ``a - b`` and with the Fraction reference route, also where that lcm is
    larger than the difference's least denominator, and on broken tables it
    raises what ``(a - b).validate()`` raises."""
    cover = catalog.build(*space)
    rng = np.random.RandomState(17)
    gens = flathelp.class_generators(cover)
    cocycles = [flathelp.random_flat_cocycle(cover, rng, gens)[0] for _ in range(6)]
    pairs = [(a, a) for a in cocycles[:2]]
    pairs += [(a, a + flathelp.random_coboundary(cover, rng)) for a in cocycles[:3]]
    pairs += list(zip(cocycles, cocycles[1:]))
    wider = 0
    for a, b in pairs:
        diff = a - b
        torus, torsion = oracles.flat_class_fraction_route(diff)
        reference = torus is not None and not any(torus) and not any(torsion)
        assert cocycles_equivalent(a, b) == flat_cocycle_class(diff).trivial == reference
        common = math.lcm(a._integer_angles()[0], b._integer_angles()[0])
        wider += common > diff._integer_angles()[0]
    assert wider >= 2
    raised = 0
    for a in cocycles[:3]:
        for p in _perturbed(cover, a + flathelp.random_coboundary(cover, rng), rng):
            for x, y in ((a, p), (p, a)):
                want = _outcome(lambda: (x - y).validate() and flat_cocycle_class(x - y).trivial)
                assert _outcome(lambda: cocycles_equivalent(x, y)) == want
                raised += str(want).startswith("InvalidCocycle")
    assert raised >= 12


def test_mismatched_angle_tables_raise_invalid_cocycle(spaces):
    """Tables with a key missing or a stray key are refused with the key
    check's message, whichever side they are on, by ``cocycles_equivalent``
    and by ``-`` and ``+``, as by ``validate``."""
    cover = spaces["circle_conjugation"]
    a, _ = flathelp.random_flat_cocycle(cover, np.random.RandomState(6))
    key = sorted(a.angles)[2]
    stray_key = ("X", "Y", "xy")
    short = FlatCocycle(cover, {k: v for k, v in a.angles.items() if k != key})
    stray = FlatCocycle(cover, {**a.angles, stray_key: Fraction(1, 2)})
    for b, message in (
        (short, f"angle table mismatch: missing {[key]}..., stray []..."),
        (stray, f"angle table mismatch: missing []..., stray {[stray_key]}..."),
    ):
        assert _outcome(b.validate) == f"InvalidCocycle: {message}"
        for run in (
            lambda: cocycles_equivalent(a, b),
            lambda: cocycles_equivalent(b, a),
            lambda: a - b,
            lambda: b - a,
            lambda: a + b,
            lambda: b + a,
        ):
            with pytest.raises(InvalidCocycle) as err:
                run()
            assert str(err.value) == message


def test_equivalence_relation(spaces):
    cover = spaces["circle_conjugation"]
    rng = np.random.RandomState(7)
    gens = flathelp.class_generators(cover)
    fc, expected = flathelp.random_flat_cocycle(cover, rng, gens)
    assert cocycles_equivalent(fc, fc)
    cob = flathelp.random_coboundary(cover, rng)
    assert cocycles_equivalent(fc, fc + cob)
    assert flat_cocycle_class(fc + cob).coords.torus_part == expected
    third = FlatCocycle(
        cover, flathelp.angles_from_vector(cover, gens[0][0] * Fraction(1, 3))
    )
    assert not cocycles_equivalent(FlatCocycle.zero(cover), third)


def test_equivalence_requires_same_cover(spaces):
    a = FlatCocycle.zero(spaces["point_trivial"])
    b = FlatCocycle.zero(spaces["free_orbit"])
    with pytest.raises(CoverMismatch):
        cocycles_equivalent(a, b)


def test_broken_antisymmetry_is_rejected(spaces):
    fc = FlatCocycle.zero(spaces["point_trivial"])
    key = next(iter(fc.angles))
    fc.angles[key] = Fraction(1, 3)  # partner pair left at zero
    with pytest.raises(InvalidCocycle):
        flat_cocycle_class(fc)


def test_nonclosed_triple_data_is_rejected(spaces):
    cover = spaces["sphere_antipodal(2)"]
    fc = FlatCocycle.zero(cover)
    triple = next(s for s in cover.intersections if len(s) == 3)
    i, j, _ = sorted(triple)
    c = sorted(cover.components_of(frozenset({i, j})))[0]
    # antisymmetric and equivariant, but no triple can close over it
    fc.angles[(i, j, c)] = Fraction(1, 3)
    fc.angles[(j, i, c)] = Fraction(2, 3)
    ti, tj, tc = cover.t(i), cover.t(j), cover.sigma(c)
    fc.angles[(ti, tj, tc)] = Fraction(2, 3)
    fc.angles[(tj, ti, tc)] = Fraction(1, 3)
    with pytest.raises(InvalidCocycle, match="cocycle condition"):
        flat_cocycle_class(fc)


def test_lift_coboundary_must_be_integral(spaces, monkeypatch):
    """With the angle checks switched off, angles that no triple can close
    over are still refused, by the integrality of the lift's coboundary."""
    cover = spaces["sphere_antipodal(2)"]
    fc = FlatCocycle.zero(cover)
    (i, j), c = next(e for e in cechengine.tuple_basis(cover, 1).elements if e[0][0] < e[0][1])
    ti, tj, tc = cover.t(i), cover.t(j), cover.sigma(c)
    fc.angles.update({(i, j, c): Fraction(1, 7), (j, i, c): Fraction(6, 7)})
    fc.angles.update({(ti, tj, tc): Fraction(6, 7), (tj, ti, tc): Fraction(1, 7)})
    with pytest.raises(InvalidCocycle, match="cocycle condition"):
        flat_cocycle_class(fc)
    monkeypatch.setattr(FlatCocycle, "_checked_angles", FlatCocycle._integer_angles)
    with pytest.raises(InvalidCocycle, match="not integral"):
        flat_cocycle_class(fc)
    with pytest.raises(InvalidCocycle, match="not integral"):
        oracles.flat_class_fraction_route(fc)


@pytest.mark.parametrize(
    "space",
    [
        ("circle_conjugation",),
        ("circle_antipodal_fine",),
        ("sphere_antipodal", 2),
        ("torus",),
        ("point_trivial_fine",),
        ("torus", "circle_antipodal", "circle_antipodal_fine"),
    ],
    ids=_space_id,
)
def test_coprime_denominators_match_the_fraction_route(space):
    """Cocycles mixing angles over 7, 11 and 13 (free generators, torsion
    generators and a coboundary, each over a different one) classify to
    the Fraction route's coordinates and to the free generators' weights."""
    cover = catalog.build(*space)
    free_gens, torsion_gens = flathelp.class_generators(cover)
    _, bases = build_equivariant_complex(cover, IZ, 3)
    dens = (7, 11, 13)
    for shift in range(3):
        vec = np.full(len(cechengine.tuple_basis(cover, 1)), Fraction(0), dtype=object)
        weights = [Fraction(5 + n, dens[(n + shift) % 3]) for n in range(len(free_gens))]
        for g, q in zip(free_gens, weights):
            vec = vec + g * q
        for n, g in enumerate(torsion_gens):
            vec = vec + g * Fraction(3, dens[(n + shift + 1) % 3])
        eta = [Fraction(k + 1, dens[(k + shift + 2) % 3]) for k in range(bases[0].ncols)]
        vec = vec + np.array(cech_differential(cover, 0).matvec(bases[0].matvec(eta)), dtype=object)
        fc = FlatCocycle(cover, flathelp.angles_from_vector(cover, vec))
        got = flat_cocycle_class(fc).coords
        assert (got.torus_part, got.torsion_part) == oracles.flat_class_fraction_route(fc)
        assert got.torus_part == tuple(oracles.frac_mod1(q) for q in weights)


def test_obstruction_class_survives_lift_shifts(spaces):
    cover = spaces["circle_conjugation"]
    rng = np.random.RandomState(11)
    fc, _ = flathelp.random_flat_cocycle(cover, rng)
    base = flat_cocycle_class(fc)
    sub, bases = build_equivariant_complex(cover, IZ, 3)
    delta1 = cech_differential(cover, 1)
    den, table = fc._checked_angles()
    lift = bases[1].matvec([table[key] for key in _orbit_keys(cover)])
    for _ in range(5):
        shift_fix = [den * int(rng.randint(-3, 4)) for _ in range(bases[1].ncols)]
        shifted = np.array(lift, dtype=object) + bases[1].matvec(shift_fix)
        raw = delta1.matvec(shifted)
        assert not any(x % den for x in raw)
        beta = np.array([x // den for x in raw], dtype=object)
        y = solve_int(bases[2], beta)
        got = class_coordinates(sub, 2, y)
        assert got.free_part == base.bockstein.free_part
        assert got.torsion_part == base.bockstein.torsion_part


@pytest.mark.parametrize("space", [("torus",), ("torus", "circle_antipodal", "circle_antipodal_fine")], ids=_space_id)
def test_obstructed_classes_match_the_fraction_route(space):
    """Classes whose integral obstruction is nonzero: the classifier reports
    the obstruction's torsion coordinates and no torus part, as the
    Fraction route does, and ``cocycles_equivalent`` agrees with that
    route's class of the difference, against obstructed and unobstructed
    cocycles alike."""
    cover = catalog.build(*space)
    rng = np.random.RandomState(23)
    gens = flathelp.class_generators(cover)
    obstructed = [pair for _ in range(3) for pair in flathelp.obstructed_cocycles(cover, rng, gens)]
    assert obstructed
    plain = [flathelp.random_flat_cocycle(cover, rng, gens)[0] for _ in range(2)]
    for fc, torsion in obstructed:
        got = flat_cocycle_class(fc)
        assert (got.coords.torus_part, got.coords.torsion_part) == (None, torsion)
        assert oracles.flat_class_fraction_route(fc) == (None, torsion)
        assert got.bockstein.torsion_part == torsion and not got.trivial
        assert cocycles_equivalent(fc, fc + flathelp.random_coboundary(cover, rng))
    cocycles = [fc for fc, _ in obstructed] + plain
    for a in cocycles:
        for b in cocycles:
            torus, torsion = oracles.flat_class_fraction_route(a - b)
            reference = torus is not None and not any(torus) and not any(torsion)
            assert cocycles_equivalent(a, b) == flat_cocycle_class(a - b).trivial == reference


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_flat_class_reads_the_orbit_complex_to_degree_three(entry):
    """The flat classifier reads its orbit complex in degrees 0..2 (the
    obstruction is a 2-cocycle, checked against d_2), so a cold cover's
    complex is built to degree 3 and no further; its coordinates and
    obstruction class are bit-identical to those taken against a complex
    built with max_degree 3, which is carried to degree 3 and no further."""
    warm = entry.build()
    assert build_equivariant_complex(warm, IZ, 3)[0].hi == 3
    rng = np.random.RandomState(5)
    gens = flathelp.class_generators(warm)
    cocycles = [flathelp.random_flat_cocycle(warm, rng, gens)[0] for _ in range(3)]
    cocycles += [flathelp.random_coboundary(warm, rng), FlatCocycle.zero(warm)]
    for fc in cocycles:
        cold = entry.build()
        got = flat_cocycle_class(FlatCocycle(cold, dict(fc.angles)))
        assert cechengine._orbit_complex(cold, -1)[0].hi == 3
        want = flat_cocycle_class(fc)
        assert repr(got) == repr(want)
