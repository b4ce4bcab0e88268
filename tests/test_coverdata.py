"""Cover descriptions: validation, serialization, doubling, products, and
flat transition angles."""

import json
from fractions import Fraction

import pytest

from realdeligne import catalog
from realdeligne.coverdata import (
    C2Cover,
    CoefficientSystem,
    FlatCocycle,
    double_fixed_indices,
    product_cover,
    validate_cover,
)
from realdeligne.errors import (
    FACE_INCOHERENCE,
    FIXED_INDEX_PRESENT,
    INVOLUTION_FACE_MISMATCH,
    INVOLUTION_NOT_SELF_INVERSE,
    MALFORMED_DESCRIPTION,
    NOT_DOWNWARD_CLOSED,
    CoverValidationError,
    InvalidCocycle,
)


def free_orbit_raw():
    return {
        "name": "orbit",
        "involution_name": "swap",
        "indices": ["U", "V"],
        "involution": {"U": "V", "V": "U"},
        "intersections": [
            {"sets": ["U"], "components": ["cU"]},
            {"sets": ["V"], "components": ["cV"]},
        ],
        "faces": [],
        "component_involution": {"cU": "cV", "cV": "cU"},
        "good": True,
        "compact": True,
    }


def kinds_of(raw):
    with pytest.raises(CoverValidationError) as err:
        validate_cover(raw)
    return {kind for kind, _ in err.value.violations}


def test_free_orbit_validates():
    cover = validate_cover(free_orbit_raw())
    assert cover.is_free()
    assert cover.t("U") == "V"
    assert cover.sigma("cU") == "cV"
    assert cover.components_of(frozenset({"U", "V"})) == ()


def test_malformed_descriptions_collected():
    raw = free_orbit_raw()
    del raw["indices"]
    raw["involution"] = {"U": 1}
    raw["intersections"] = [{"sets": "U", "components": ["cU"]}]
    raw["faces"] = {}
    with pytest.raises(CoverValidationError) as err:
        validate_cover(raw)
    found = err.value.violations
    assert {kind for kind, _ in found} == {MALFORMED_DESCRIPTION}
    assert len(found) == 4
    for field in ("indices", "involution", "intersections", "faces"):
        assert any(f"'{field}'" in msg for _, msg in found), field
    assert kinds_of(["not", "an", "object"]) == {MALFORMED_DESCRIPTION}
    with pytest.raises(CoverValidationError):
        double_fixed_indices({"name": "no_sets"})


def test_fixed_index_reported():
    raw = free_orbit_raw()
    raw["involution"] = {"U": "U", "V": "V"}
    raw["component_involution"] = {"cU": "cU", "cV": "cV"}
    assert FIXED_INDEX_PRESENT in kinds_of(raw)


def test_involution_not_self_inverse():
    raw = free_orbit_raw()
    raw["indices"] = ["U", "V", "W"]
    raw["involution"] = {"U": "V", "V": "W", "W": "U"}
    raw["intersections"].append({"sets": ["W"], "components": ["cW"]})
    assert INVOLUTION_NOT_SELF_INVERSE in kinds_of(raw)


def test_not_downward_closed():
    raw = free_orbit_raw()
    raw["intersections"] = [
        {"sets": ["U"], "components": ["cU"]},
        # {V} missing entirely while {U,V} present
        {"sets": ["U", "V"], "components": ["cUV"]},
    ]
    raw["faces"] = [
        {"component": "cUV", "drop": "V", "in_component": "cU"},
    ]
    raw["component_involution"] = {"cU": "cU", "cUV": "cUV"}
    kinds = kinds_of(raw)
    assert NOT_DOWNWARD_CLOSED in kinds


def test_involution_face_mismatch():
    """Component involution targeting a component of the wrong support."""
    raw = {
        "name": "mismatch",
        "involution_name": "t",
        "indices": ["U", "V", "W", "X"],
        "involution": {"U": "V", "V": "U", "W": "X", "X": "W"},
        "intersections": [
            {"sets": ["U"], "components": ["cU"]},
            {"sets": ["V"], "components": ["cV"]},
            {"sets": ["W"], "components": ["cW"]},
            {"sets": ["X"], "components": ["cX"]},
            {"sets": ["U", "W"], "components": ["cUW"]},
            {"sets": ["V", "X"], "components": ["cVX"]},
        ],
        "faces": [
            {"component": "cUW", "drop": "U", "in_component": "cW"},
            {"component": "cUW", "drop": "W", "in_component": "cU"},
            {"component": "cVX", "drop": "V", "in_component": "cX"},
            {"component": "cVX", "drop": "X", "in_component": "cV"},
        ],
        # cUW should go to the component of {t(U), t(W)} = {V, X}; send it
        # to a singleton component instead
        "component_involution": {
            "cU": "cV",
            "cV": "cU",
            "cW": "cX",
            "cX": "cW",
            "cUW": "cV",
            "cVX": "cUW",
        },
        "good": True,
        "compact": True,
    }
    assert INVOLUTION_FACE_MISMATCH in kinds_of(raw)


def test_face_incoherence():
    """Two deletion orders reaching different components."""
    raw = {
        "name": "incoherent",
        "involution_name": "t",
        "indices": ["A", "B", "C", "A'", "B'", "C'"],
        "involution": {
            "A": "A'", "A'": "A",
            "B": "B'", "B'": "B",
            "C": "C'", "C'": "C",
        },
        "intersections": [
            {"sets": ["A"], "components": ["a"]},
            {"sets": ["B"], "components": ["b"]},
            {"sets": ["C"], "components": ["c"]},
            {"sets": ["A'"], "components": ["a'"]},
            {"sets": ["B'"], "components": ["b'"]},
            {"sets": ["C'"], "components": ["c'"]},
            {"sets": ["A", "B"], "components": ["ab", "ab2"]},
            {"sets": ["B", "C"], "components": ["bc"]},
            {"sets": ["A", "C"], "components": ["ac"]},
            {"sets": ["A'", "B'"], "components": ["ab'", "ab2'"]},
            {"sets": ["B'", "C'"], "components": ["bc'"]},
            {"sets": ["A'", "C'"], "components": ["ac'"]},
            {"sets": ["A", "B", "C"], "components": ["abc"]},
            {"sets": ["A'", "B'", "C'"], "components": ["abc'"]},
        ],
        "faces": [
            {"component": "ab", "drop": "A", "in_component": "b"},
            {"component": "ab", "drop": "B", "in_component": "a"},
            {"component": "ab2", "drop": "A", "in_component": "b"},
            {"component": "ab2", "drop": "B", "in_component": "a"},
            {"component": "bc", "drop": "B", "in_component": "c"},
            {"component": "bc", "drop": "C", "in_component": "b"},
            {"component": "ac", "drop": "A", "in_component": "c"},
            {"component": "ac", "drop": "C", "in_component": "a"},
            {"component": "ab'", "drop": "A'", "in_component": "b'"},
            {"component": "ab'", "drop": "B'", "in_component": "a'"},
            {"component": "ab2'", "drop": "A'", "in_component": "b'"},
            {"component": "ab2'", "drop": "B'", "in_component": "a'"},
            {"component": "bc'", "drop": "B'", "in_component": "c'"},
            {"component": "bc'", "drop": "C'", "in_component": "b'"},
            {"component": "ac'", "drop": "A'", "in_component": "c'"},
            {"component": "ac'", "drop": "C'", "in_component": "a'"},
            # dropping C then B lands in "a" via ab; dropping B then C lands
            # in "a" via ac -- but make the C-face point at ab2 so the B-face
            # of ab2 vs the direct route through ac disagree at the pair level
            {"component": "abc", "drop": "A", "in_component": "bc"},
            {"component": "abc", "drop": "B", "in_component": "ac"},
            {"component": "abc", "drop": "C", "in_component": "ab"},
            {"component": "abc'", "drop": "A'", "in_component": "bc'"},
            {"component": "abc'", "drop": "B'", "in_component": "ac'"},
            {"component": "abc'", "drop": "C'", "in_component": "ab2'"},
        ],
        "component_involution": {
            "a": "a'", "a'": "a", "b": "b'", "b'": "b", "c": "c'", "c'": "c",
            "ab": "ab'", "ab'": "ab", "ab2": "ab2'", "ab2'": "ab2",
            "bc": "bc'", "bc'": "bc", "ac": "ac'", "ac'": "ac",
            "abc": "abc'", "abc'": "abc",
        },
        "good": True,
        "compact": True,
    }
    kinds = kinds_of(raw)
    # abc drops C into ab but abc' drops C' into ab2': involution+face clash,
    # and with both routes stored the two-step coherence check trips too
    assert INVOLUTION_FACE_MISMATCH in kinds or FACE_INCOHERENCE in kinds


def test_validation_is_idempotent_on_catalog(spaces):
    for cover in spaces.values():
        again = validate_cover(cover.to_raw())
        assert again.to_raw() == cover.to_raw()


def test_json_round_trip_byte_identical(spaces):
    for cover in spaces.values():
        text = cover.to_json()
        back = C2Cover.from_json(text)
        assert back.to_json() == text
        assert json.loads(text)["name"] == cover.name


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------


def point_raw():
    return {
        "name": "pt",
        "involution_name": "id",
        "indices": ["U"],
        "involution": {"U": "U"},
        "intersections": [{"sets": ["U"], "components": ["c"]}],
        "faces": [],
        "component_involution": {"c": "c"},
        "good": True,
        "compact": True,
    }


def test_double_point():
    cover = double_fixed_indices(point_raw())
    assert sorted(cover.indices) == ["U", "U'"]
    assert cover.t("U") == "U'"
    pair = frozenset({"U", "U'"})
    comps = cover.components_of(pair)
    assert len(comps) == 1
    c2 = comps[0]
    (cu,) = cover.components_of(frozenset({"U"}))
    assert cover.face(c2, "U") == cover.components_of(frozenset({"U'"}))[0]
    assert cover.face(c2, "U'") == cu
    assert cover.sigma(c2) == c2


def test_double_leaves_free_cover_alone():
    raw = free_orbit_raw()
    cover = double_fixed_indices(raw)
    assert cover.to_raw() == validate_cover(free_orbit_raw()).to_raw()


def test_double_conjugation_circle_counts(spaces):
    conj = spaces["circle_conjugation"]
    assert len(conj.indices) == 6
    pairs = [s for s in conj.intersections if len(s) == 2]
    triples = [s for s in conj.intersections if len(s) == 3]
    assert len(pairs) == 10
    assert len(triples) == 4
    assert conj.is_free()


def test_double_propagates_other_violations():
    raw = point_raw()
    raw["involution"] = {"U": "V"}  # target not an index at all
    with pytest.raises(CoverValidationError):
        double_fixed_indices(raw)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_free_orbits():
    a = validate_cover(free_orbit_raw())
    b = validate_cover(free_orbit_raw())
    p = product_cover(a, b)
    assert len(p.indices) == 4
    assert p.is_free()
    assert p.good and p.compact


def test_product_torus_index_count(spaces):
    t = product_cover(spaces["circle_antipodal"], spaces["circle_conjugation"])
    assert len(t.indices) == 24
    assert t.is_free()


def test_invariant_pair_component_involution(spaces):
    """Over a t-invariant support the component involution acts on that
    component set itself."""
    pt = spaces["point_trivial"]
    pair = frozenset({pt.indices[0], pt.t(pt.indices[0])})
    comps = set(pt.components_of(pair))
    assert comps and {pt.sigma(c) for c in comps} == comps


# ---------------------------------------------------------------------------
# flat cocycles
# ---------------------------------------------------------------------------


def test_zero_cocycle_validates(spaces):
    for cover in spaces.values():
        FlatCocycle.zero(cover).validate()


def test_cocycle_key_completeness(spaces):
    cover = spaces["circle_antipodal"]
    fc = FlatCocycle.zero(cover)
    angles = dict(fc.angles)
    angles.pop(next(iter(angles)))
    with pytest.raises(InvalidCocycle):
        FlatCocycle(cover, angles).validate()


def test_cocycle_antisymmetry_checked(spaces):
    cover = spaces["circle_antipodal"]
    fc = FlatCocycle.zero(cover)
    angles = dict(fc.angles)
    key = next(iter(angles))
    angles[key] = Fraction(1, 3)  # reverse key left at 0
    with pytest.raises(InvalidCocycle):
        FlatCocycle(cover, angles).validate()


def test_cocycle_equivariance_checked(spaces):
    cover = spaces["circle_antipodal"]
    fc = FlatCocycle.zero(cover)
    angles = dict(fc.angles)
    (i, j, c) = next(iter(angles))
    angles[(i, j, c)] = Fraction(1, 3)
    angles[(j, i, c)] = Fraction(-1, 3)
    # partner orbit pair left at zero breaks equivariance
    with pytest.raises(InvalidCocycle) as err:
        FlatCocycle(cover, angles).validate()
    assert "equivariance" in str(err.value)


def test_cocycle_triple_condition_checked(spaces):
    cover = spaces["circle_conjugation"]
    fc = FlatCocycle.zero(cover)
    angles = dict(fc.angles)
    triple = next(s for s in cover.intersections if len(s) == 3)
    i, j, k = sorted(triple)
    c = cover.components_of(triple)[0]
    # set one pair angle (and its orbit partners consistently) so only the
    # triple sum breaks
    cij = cover.face(c, k)
    for a, b, comp in ((i, j, cij), (cover.t(i), cover.t(j), cover.sigma(cij))):
        angles[(a, b, comp)] = Fraction(1, 2)
        angles[(b, a, comp)] = Fraction(1, 2)
    with pytest.raises(InvalidCocycle) as err:
        FlatCocycle(cover, angles).validate()
    assert "cocycle" in str(err.value)


def test_cocycle_angles_normalized(spaces):
    cover = spaces["circle_antipodal"]
    fc = FlatCocycle.zero(cover)
    key = next(iter(fc.angles))
    bumped = dict(fc.angles)
    bumped[key] = Fraction(7, 3)
    fc2 = FlatCocycle(cover, bumped)
    assert fc2.angles[key] == Fraction(1, 3)


def test_cocycle_difference_same_cover(spaces):
    cover = spaces["circle_antipodal"]
    a = FlatCocycle.zero(cover)
    other = FlatCocycle.zero(spaces["point_trivial"])
    with pytest.raises(ValueError):
        _ = a - other


def test_coefficient_system_spellings():
    assert str(CoefficientSystem.integers(-1)) == "(Z, -1)"
    assert str(CoefficientSystem.integers_mod(4, -1)) == "(Z/4, -1)"
    assert CoefficientSystem.rationals(-1).base == "Q"
    with pytest.raises(ValueError):
        CoefficientSystem.integers_mod(1, -1)
    with pytest.raises(ValueError):
        CoefficientSystem("Z", 3)
