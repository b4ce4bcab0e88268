"""Acceptance gate: ten end-to-end checks, each against an independent route.

Every test prints one PASS line on success (visible with ``pytest -v`` as the
test outcome); a failure pinpoints the first mismatching descriptor.
"""

from fractions import Fraction

import numpy as np

import flathelp
import oracles
from realdeligne import catalog
from realdeligne.cechengine import (
    CoefficientComplex,
    _orbit_keys,
    build_descriptor_complex,
    build_equivariant_complex,
    cech_differential,
    equivariant_cohomology,
    hypercohomology,
)
from realdeligne.coverdata import IQ, IZ, Z_TRIVIAL, CoefficientSystem
from realdeligne.deligne import (
    COMPACT_EXTENSION,
    DISCRETE,
    classify_flat_line_bundles,
    deligne_descriptor,
    flat_cocycle_class,
    quotient_coefficients_cohomology,
)
from realdeligne.exactalg import class_coordinates, complex_cohomology, solve_int


def _groups(cover, coeff, max_degree):
    return [
        equivariant_cohomology(cover, coeff, k, max_degree)
        for k in range(max_degree)
    ]


def test_acceptance_01_group_cohomology_oracle(spaces):
    """Doubled point against the 2-periodic resolution, degrees 0..5."""
    cover = spaces["point_trivial"]
    tables = {
        -1: [(0, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ()), (0, (2,))],
        +1: [(1, ()), (0, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ())],
    }
    for sign, coeff in ((-1, IZ), (+1, Z_TRIVIAL)):
        for k in range(6):
            expected = oracles.cyclic_two_integer(sign, k)
            assert expected == tables[sign][k], (sign, k)
            g = equivariant_cohomology(cover, coeff, k, 6)
            assert (g.rank, g.torsion) == expected, (sign, k)
    print("ACCEPTANCE 01 group-cohomology oracle: PASS")


def test_acceptance_02_free_action_oracle(spaces):
    """Free covers against hand-coded cellular complexes on the quotient."""
    cases = [
        ("free_orbit", spaces["free_orbit"], None),
        ("circle_antipodal", spaces["circle_antipodal"], 1),
        ("sphere_antipodal(0)", catalog.build("sphere_antipodal", 0), 0),
        ("sphere_antipodal(1)", spaces["sphere_antipodal(1)"], 1),
        ("sphere_antipodal(2)", spaces["sphere_antipodal(2)"], 2),
    ]
    for label, cover, n in cases:
        for sign, coeff in ((-1, IZ), (+1, Z_TRIVIAL)):
            for k in range(5):
                if n is None:
                    expected = oracles.quotient_point(k)
                else:
                    expected = oracles.sphere_quotient(n, sign, k)
                g = equivariant_cohomology(cover, coeff, k, 5)
                assert (g.rank, g.torsion) == expected, (label, sign, k)
    g = equivariant_cohomology(spaces["circle_antipodal"], IZ, 1, 5)
    assert (g.rank, g.torsion) == (0, (2,))
    g = equivariant_cohomology(spaces["circle_antipodal"], IZ, 2, 5)
    assert (g.rank, g.torsion) == (0, ())
    print("ACCEPTANCE 02 free-action oracle: PASS")


def test_acceptance_03_degree_zero_vanishing(spaces, entries):
    """Twisted degree-zero classes vanish on every connected catalog cover."""
    checked = 0
    for label, entry in entries.items():
        if entry.betti[0] != 1:
            continue  # the free orbit is the one disconnected entry
        g = equivariant_cohomology(spaces[label], IZ, 0, 2)
        assert (g.rank, g.torsion) == (0, ()), label
        checked += 1
    assert checked >= 6
    print("ACCEPTANCE 03 twisted H^0 vanishing: PASS")


def test_acceptance_04_integral_rank_vs_rational_dimension(spaces):
    """Integral ranks and rational dimensions, both read off the cached
    descriptor diagonals, agree with the rank of H^k of the descriptor
    complex by plain Smith on whole differentials, both signs, k <= 4."""
    for label, cover in spaces.items():
        for sign in (-1, +1):
            c = build_descriptor_complex(cover, sign)
            zs = _groups(cover, CoefficientSystem.integers(sign), 5)
            qs = _groups(cover, CoefficientSystem.rationals(sign), 5)
            for k in range(5):
                plain = oracles.plain_smith_rank(c, k)
                assert zs[k].rank == qs[k].rank == plain, (label, sign, k)
                assert qs[k].torsion == (), (label, sign, k)
    print("ACCEPTANCE 04 rank vs dimension: PASS")


def test_acceptance_05_refinement_invariance(spaces):
    """Coarse and refined covers of the same space agree, k <= 4."""
    for coarse, fine in catalog.REFINEMENT_PAIRS:
        a, b = spaces[coarse], spaces[fine]
        for coeff in (IZ, Z_TRIVIAL, IQ):
            for k in range(5):
                ga = equivariant_cohomology(a, coeff, k, 5)
                gb = equivariant_cohomology(b, coeff, k, 5)
                assert ga == gb, (coarse, fine, str(coeff), k)
        for p, q in ((2, 2), (3, 2)):
            ra = deligne_descriptor(a, p, q).to_record()
            rb = deligne_descriptor(b, p, q).to_record()
            ra.pop("space"), rb.pop("space")
            assert ra == rb, (coarse, fine, p, q)
    print("ACCEPTANCE 05 refinement invariance: PASS")


def test_acceptance_06_extension_accounting(spaces):
    """Compact-extension descriptors match direct twisted cohomology:
    torus dimension from the rank one degree down (integral and rational
    routes), finite part from the torsion in the same degree."""
    for label, cover in spaces.items():
        hz = _groups(cover, IZ, 5)
        hq = _groups(cover, IQ, 5)
        for p in range(1, 5):
            for q in range(1, p):
                d = deligne_descriptor(cover, p, q)
                assert d.shape == COMPACT_EXTENSION
                assert d.torus_dim == hz[q - 1].rank == hq[q - 1].rank, (label, p, q)
                assert d.torsion == hz[q].torsion, (label, p, q)
                assert d.rank == 0
    print("ACCEPTANCE 06 extension accounting: PASS")


def test_acceptance_07_circle_coefficients_vs_total_complex(spaces):
    """Connecting-map route and total-complex route agree on the finite
    part of circle-coefficient cohomology, k <= 3."""
    incl = CoefficientComplex((IZ, IQ), ("incl",))
    for label, cover in spaces.items():
        for k in range(4):
            qc = quotient_coefficients_cohomology(cover, k)
            h = hypercohomology(cover, incl, k + 1, k + 3)
            assert h.rank == 0, (label, k)
            assert h.torsion == qc.torsion, (label, k)
    print("ACCEPTANCE 07 circle coefficients vs total complex: PASS")


def test_acceptance_08_flat_cocycle_coherence(spaces):
    """100 randomized valid cocycles per cover: obstruction always exact
    integral with lift-independent class, coboundaries trivial, coordinates
    land where the construction dictates, and the antipodal circle (zero
    flat group) classifies everything trivial."""
    rng = np.random.RandomState(20260815)
    flat_circle = classify_flat_line_bundles(spaces["circle_antipodal"])
    assert (flat_circle.torus_dim, flat_circle.torsion) == (0, ())
    for label, cover in spaces.items():
        gens = flathelp.class_generators(cover)
        sub, bases = build_equivariant_complex(cover, IZ, 3)
        delta1 = cech_differential(cover, 1)
        for trial in range(100):
            fc, expected = flathelp.random_flat_cocycle(cover, rng, gens)
            res = flat_cocycle_class(fc)
            assert res.bockstein.is_zero, (label, trial)
            assert res.coords.torus_part == expected, (label, trial)
            assert res.trivial == (not any(expected)), (label, trial)
            if trial % 10 == 0:
                # shift the lift, D times a rational lift, by D times an
                # integral fixed cochain and re-read the obstruction class
                # directly
                den, table = fc._checked_angles()
                lift = bases[1].matvec([table[key] for key in _orbit_keys(cover)])
                shift = [den * int(rng.randint(-2, 3)) for _ in range(bases[1].ncols)]
                shifted = np.array(lift, dtype=object) + bases[1].matvec(shift)
                raw = delta1.matvec(shifted)
                assert not any(x % den for x in raw), (label, trial)
                beta = np.array([x // den for x in raw], dtype=object)
                y = solve_int(bases[2], beta)
                got = class_coordinates(sub, 2, y)
                assert got.free_part == res.bockstein.free_part, (label, trial)
                assert got.torsion_part == res.bockstein.torsion_part, (label, trial)
        for _ in range(10):
            cob = flathelp.random_coboundary(cover, rng)
            assert flat_cocycle_class(cob).trivial, label
    print("ACCEPTANCE 08 flat-cocycle coherence: PASS")


def test_acceptance_09_degenerate_tuple_soundness(spaces, entries):
    """Keeping degenerate tuples in the cochain model changes nothing
    (small covers, k <= 3): the descriptor route (the Borel or alternating
    fixed complex) against the fixed complex of ordered cochains with
    degenerate tuples, taken by the Smith route on ``t - id``
    (:func:`oracles.degenerate_orbit_complex`)."""
    for label, cover in spaces.items():
        if len(cover.indices) > 4:
            continue
        for coeff in (IZ, Z_TRIVIAL):
            fat = oracles.degenerate_orbit_complex(cover, coeff.sign, 4)
            for k in range(4):
                a = equivariant_cohomology(cover, coeff, k, 4)
                b = complex_cohomology(fat, k)
                assert a == b, (label, str(coeff), k)
    print("ACCEPTANCE 09 degenerate-tuple soundness: PASS")


def test_acceptance_10_shape_law(spaces):
    """Shape of the (p, q) descriptor follows the case split on every
    cover, and weight zero reproduces plain twisted cohomology verbatim."""
    for label, cover in spaces.items():
        for p in range(5):
            for q in range(5):
                d = deligne_descriptor(cover, p, q)
                if p == 0 or q > p:
                    assert d.shape == DISCRETE, (label, p, q)
                elif q == p:
                    assert d.shape == "mixed", (label, p, q)
                else:
                    assert d.shape == COMPACT_EXTENSION, (label, p, q)
        for q in range(5):
            d = deligne_descriptor(cover, 0, q)
            g = equivariant_cohomology(cover, IZ, q, q + 1)
            assert (d.rank, tuple(d.torsion)) == (g.rank, g.torsion), (label, q)
            assert d.to_record()["torsion"] == list(g.torsion), (label, q)
    print("ACCEPTANCE 10 shape law: PASS")
