"""Catalog builders: structure, signatures, export round trips."""

import json

import numpy as np
import pytest

import oracles
from realdeligne import catalog
from realdeligne.cechengine import equivariant_cohomology, nonequivariant_cohomology
from realdeligne.coverdata import C2Cover, IZ, Z_TRIVIAL, validate_cover
from realdeligne.errors import UnknownSpace, UnsupportedDimension
from realdeligne.exactalg import GroupDescriptor


def test_every_entry_builds_and_validates(spaces):
    for name, cover in spaces.items():
        assert cover.is_free(), name
        assert cover.good, name
        revalidated = validate_cover(cover.to_raw())
        assert revalidated.to_raw() == cover.to_raw()


def test_entry_flags(entries, spaces):
    for name, entry in entries.items():
        cover = spaces[name]
        assert cover.compact == entry.compact
        if entry.free_action:
            for subset in cover.intersections:
                assert not any(cover.t(i) in subset for i in subset), name


def test_circle_antipodal_structure(spaces):
    circle = spaces["circle_antipodal"]
    assert len(circle.indices) == 4
    pairs = [s for s in circle.intersections if len(s) == 2]
    triples = [s for s in circle.intersections if len(s) == 3]
    assert len(pairs) == 4
    assert all(len(circle.components_of(s)) == 1 for s in pairs)
    assert triples == []
    # opposite arcs are swapped, never intersecting
    for i in circle.indices:
        assert circle.t(circle.t(i)) == i
        assert frozenset({i, circle.t(i)}) not in circle.intersections


def test_sphere_cap_counts(spaces):
    assert len(spaces["sphere_antipodal(1)"].indices) == 4
    assert len(spaces["sphere_antipodal(2)"].indices) == 6
    s3 = catalog.build("sphere_antipodal", 3)
    assert len(s3.indices) == 8
    assert s3.is_free()


@pytest.mark.parametrize("n", range(4))
def test_sphere_is_the_cross_polytope(n):
    """The sphere the catalog joins from two-point covers writes the cover
    file of the cross-polytope's faces (``oracles.cross_polytope_raw``),
    element for element and in the same order."""
    raw = catalog.build("sphere_antipodal", n).to_raw()
    want = oracles.cross_polytope_raw(n)
    assert raw == want
    assert json.dumps(raw) == json.dumps(want)


def test_nonequivariant_signatures(entries, spaces):
    for name, entry in entries.items():
        cover = spaces[name]
        for k, b in enumerate(entry.betti):
            got = nonequivariant_cohomology(cover, Z_TRIVIAL, k, len(entry.betti) + 1)
            assert got == GroupDescriptor(b, ()), (name, k)


def test_connected_spaces_have_no_sign_invariants(entries, spaces):
    for name, entry in entries.items():
        if entry.betti[0] != 1:
            continue
        assert equivariant_cohomology(spaces[name], IZ, 0, 2).is_trivial, name


def test_unknown_space():
    with pytest.raises(UnknownSpace):
        catalog.build("klein_bottle")


def test_unsupported_sphere_dimensions():
    with pytest.raises(UnsupportedDimension):
        catalog.build("sphere_antipodal", 4)
    with pytest.raises(UnsupportedDimension):
        catalog.build("sphere_antipodal", -1)
    for bad in (1.0, "2", None):
        with pytest.raises(UnsupportedDimension, match="sphere dimension must be an integer"):
            catalog.build("sphere_antipodal", bad)


@pytest.mark.parametrize("given, n", [(True, 1), (np.int64(2), 2)])
def test_sphere_dimension_is_read_as_a_degree(given, n):
    """The dimension is read by ``operator.index``, as every degree is: a
    bool or a numpy integer builds the sphere of that int, under its name."""
    cover = catalog.build("sphere_antipodal", given)
    assert cover.name == f"sphere_antipodal_{n}"
    assert cover.to_json() == catalog.build("sphere_antipodal", n).to_json()


def test_export_round_trip_bit_exact(spaces):
    for cover in spaces.values():
        text = cover.to_json()
        assert C2Cover.from_json(text).to_json() == text


def test_refinement_pairs_listed():
    assert ("point_trivial", "point_trivial_fine") in catalog.REFINEMENT_PAIRS
    assert ("circle_antipodal", "circle_antipodal_fine") in catalog.REFINEMENT_PAIRS
    fine = catalog.build("circle_antipodal_fine")
    assert len(fine.indices) == 8


def test_torus_default_build():
    torus = catalog.build("torus")
    assert len(torus.indices) == 16
    assert torus.is_free()
    signature = [
        nonequivariant_cohomology(torus, Z_TRIVIAL, k, 3).rank for k in range(3)
    ]
    assert signature == [1, 2, 1]


def test_torus_mixed_factors():
    t = catalog.build("torus", "circle_antipodal", "circle_conjugation")
    assert len(t.indices) == 24
    assert t.is_free()


@pytest.mark.parametrize("factor", ["circle_antipodal", "sphere_antipodal", "torus"])
def test_torus_of_one_factor_is_refused(factor):
    """A torus takes no factors (its default) or two or more; one factor is
    not read as that factor's own cover."""
    with pytest.raises(UnsupportedDimension, match="a torus takes two or more factors, got 1"):
        catalog.build("torus", factor)


def test_entry_labels_unique():
    labels = [catalog.entry_label(e) for e in catalog.ENTRIES]
    assert len(labels) == len(set(labels))
    assert "sphere_antipodal(2)" in labels
