"""Cover descriptions: validation, serialization, doubling, products, and
flat transition angles."""

import copy
import functools
import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flathelp
import oracles
from realdeligne import catalog, cechengine, coverdata, coverfiles, flatclasses, verify
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
    CoverMismatch,
    CoverValidationError,
    InvalidCocycle,
)
from realdeligne.deligne import cocycles_equivalent, flat_cocycle_class
from realdeligne.verify import PRODUCT_FACTORS


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


def incoherent_raw():
    """Two deletion orders reaching different components."""
    return {
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


def test_face_incoherence():
    kinds = kinds_of(incoherent_raw())
    # abc drops C into ab but abc' drops C' into ab2': involution+face clash,
    # and with both routes stored the two-step coherence check trips too
    assert INVOLUTION_FACE_MISMATCH in kinds or FACE_INCOHERENCE in kinds


def two_route_raw():
    """The incoherent cover made consistent with the involution, but with a
    second component over {A}: dropping B then C from abc reaches a, the
    other order reaches a2."""
    raw = incoherent_raw()
    for entry in raw["intersections"]:
        if entry["sets"] in (["A"], ["A'"]):
            entry["components"].append(entry["components"][0].replace("a", "a2"))
    for entry in raw["faces"]:
        if entry["component"] in ("ab2", "ab2'") and entry["drop"] in ("B", "B'"):
            entry["in_component"] = entry["in_component"].replace("a", "a2")
    raw["faces"][-4]["in_component"] = "ab2"  # abc dropping C
    raw["component_involution"].update({"a2": "a2'", "a2'": "a2"})
    return raw


# ---------------------------------------------------------------------------
# goldens (tests/cover_goldens.json): sha256 of the catalog covers' JSON, and
# the exact violation lists of fixed corruptions
# ---------------------------------------------------------------------------

GOLDENS = json.loads((Path(__file__).parent / "cover_goldens.json").read_text())

GOLDEN_SPACES = (
    ("point_trivial",), ("point_trivial_fine",), ("free_orbit",),
    ("circle_antipodal",), ("circle_antipodal_fine",), ("circle_conjugation",),
    ("sphere_antipodal",), ("sphere_antipodal", 0), ("sphere_antipodal", 1),
    ("sphere_antipodal", 2), ("sphere_antipodal", 3), ("torus",),
    ("torus", "circle_antipodal", "circle_antipodal_fine"),
    ("torus", "circle_conjugation", "sphere_antipodal"),
    ("torus", "point_trivial", "circle_antipodal"),
)


def unchecked(raw):
    """The cover a raw description spells out, made without any check."""
    return C2Cover(
        name=raw["name"],
        involution_name=raw["involution_name"],
        indices=tuple(raw["indices"]),
        involution=dict(raw["involution"]),
        intersections={frozenset(e["sets"]): tuple(e["components"]) for e in raw["intersections"]},
        faces={(e["component"], e["drop"]): e["in_component"] for e in raw["faces"]},
        component_involution=dict(raw["component_involution"]),
        good=raw["good"],
        compact=raw["compact"],
    )


def drop_face(raw):
    del raw["faces"][0]


def repoint_face(raw):
    raw["faces"][0]["in_component"] = raw["faces"][-1]["component"]


def break_sigma(raw):
    c = next(iter(raw["component_involution"]))
    raw["component_involution"][c] = c


def drop_subset(raw):
    del raw["intersections"][next(k for k, e in enumerate(raw["intersections"]) if len(e["sets"]) == 2)]


def fix_index(raw):
    i = raw["indices"][0]
    raw["involution"][i] = i


def number_name(raw):
    raw["indices"][0] = 0


def repeat_subset(raw):
    """A second entry for the first subset, listed before it."""
    raw["intersections"].insert(0, {"sets": raw["intersections"][0]["sets"], "components": ["cX"]})


def repeat_face(raw):
    """A second, wrong entry for the last face, listed before it."""
    last = raw["faces"][-1]
    raw["faces"].insert(0, dict(last, in_component=raw["faces"][0]["component"]))


def repeat_member(raw):
    """The first pair's subset entry lists its first member twice."""
    e = next(e for e in raw["intersections"] if len(e["sets"]) == 2)
    e["sets"] = e["sets"] + e["sets"][:1]


def repeat_component(raw):
    """The first subset entry lists its first component twice."""
    e = raw["intersections"][0]
    e["components"] = e["components"] + e["components"][:1]


CORRUPTIONS = (drop_face, repoint_face, break_sigma, drop_subset, fix_index, number_name, repeat_subset, repeat_face,
               repeat_member, repeat_component)
# what only a description can spell: a cover's parts hold no name that is
# not a string, no key twice and no subset member twice; a component
# listed twice in one entry is refused as such before the cover's parts
# are read
DESCRIPTION_ONLY = (number_name, repeat_subset, repeat_face, repeat_member, repeat_component)
CORRUPTED_SPACES = (("circle_antipodal",), ("circle_conjugation",), ("sphere_antipodal", 2), ("point_trivial_fine",))


def space_key(space):
    return ":".join(map(str, space))


def corrupted(space, corruption):
    raw = copy.deepcopy(catalog.build(*space).to_raw())
    corruption(raw)
    return raw


def violations_of(raw):
    with pytest.raises(CoverValidationError) as err:
        validate_cover(raw)
    return [list(v) for v in err.value.violations]


@pytest.mark.parametrize("space", GOLDEN_SPACES, ids=space_key)
def test_cover_json_matches_golden(space):
    text = catalog.build(*space).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDENS["to_json_sha256"][space_key(space)]


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("space", CORRUPTED_SPACES, ids=space_key)
def test_violations_match_golden(space, corruption):
    """Same kinds and messages in the same order, for a description and,
    where it can be serialized, for the hand-made cover it spells out."""
    raw = corrupted(space, corruption)
    want = GOLDENS["violations"][f"{space_key(space)}/{corruption.__name__}"]
    assert violations_of(raw) == want
    if corruption not in DESCRIPTION_ONLY:
        assert violations_of(unchecked(raw)) == want


@pytest.mark.parametrize("make", (incoherent_raw, two_route_raw), ids=lambda f: f.__name__)
def test_hand_made_violations_match_golden(make):
    assert violations_of(make()) == GOLDENS["violations"][make.__name__]


@pytest.mark.parametrize("corruption", (repoint_face, break_sigma, drop_subset, fix_index), ids=lambda f: f.__name__)
def test_builders_check_hand_made_covers(corruption):
    """Products and doubling run every structural check on what they make,
    so a broken factor or a broken cover to double is refused, with the
    violations the check itself finds, and leaves no rows behind."""
    bad = unchecked(corrupted(("circle_antipodal",), corruption))
    want = raised(bad)
    assert want and want == oracles.cover_violations(bad)
    free = catalog.build("free_orbit")
    for make in (lambda: product_cover(bad, free), lambda: product_cover(free, bad), lambda: double_fixed_indices(bad)):
        with pytest.raises(CoverValidationError) as err:
            make()
        assert err.value.violations == want
    assert coverdata._ROWS not in bad._memo


def counted_checks(monkeypatch) -> list:
    """The covers ``coverdata._checked`` runs on from here on."""
    calls, inner = [], coverdata._checked

    def counted(cover):
        calls.append(cover)
        return inner(cover)

    for module in (coverdata, catalog):
        monkeypatch.setattr(module, "_checked", counted)
    return calls


def leaves(cover) -> list:
    """The covers a product or a join is made of, through every level; a
    cover that is neither is its own leaf."""
    return [leaf for f in cover.factors for leaf in leaves(f)] if cover.factors else [cover]


@pytest.mark.parametrize(
    "space, checks, nerves",
    [pytest.param(space, checks, nerves, id=space_key(space)) for space, checks, nerves in (
        (("sphere_antipodal", 3), 4, 3), (("torus",), 2, 1),
        (("torus", "circle_antipodal", "circle_antipodal_fine"), 2, 1),
        (("torus", "circle_conjugation", "circle_antipodal"), 3, 1), (("point_trivial_fine",), 2, 0),
    )],
)
def test_catalog_checks_each_cover_once(monkeypatch, space, checks, nerves):
    """A catalog cover is checked once, when it is made, and keeps the
    check's rows in its memo until its model reads them, which takes them
    out.  A product or a join does not check its factors again (a torus of
    two circles makes two checks, not four, and S^3, the join of four
    two-point covers, makes four, one per factor), and a doubled cover is
    checked once before doubling (which finds its fixed indices) and once
    after.  A product's or a join's nerve is checked once, when it is
    first read, and not by its model: S^3's nerve reads those of the
    joins S^2 and S^1 inside it, so reading it makes three checks."""
    calls = counted_checks(monkeypatch)
    cover = catalog.build(*space)
    assert len(calls) == checks
    read = leaves(cover)
    assert all(set(c._memo) == {coverdata._ROWS} for c in read)
    cechengine._alternating_model(cover)
    assert not any(coverdata._ROWS in c._memo for c in read)
    assert len(calls) == checks
    assert cover.to_json() == cover.to_json()
    assert len(calls) == checks + nerves


def test_a_cover_read_since_its_check_is_checked_again(monkeypatch):
    """Once its model has taken the check's rows, a cover given to a
    builder is checked again, which leaves new rows; a cover whose rows
    are still there is not."""
    cover, free = catalog.build("circle_antipodal"), catalog.build("free_orbit")
    cechengine._alternating_model(cover)
    calls = counted_checks(monkeypatch)
    product_cover(cover, free)
    assert calls == [cover] and coverdata._ROWS in cover._memo
    assert double_fixed_indices(cover) is cover and calls == [cover]
    cechengine._nerve_model(cover)
    assert double_fixed_indices(cover) is cover and calls == [cover, cover]


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
# the fast cover checks and nerve model against the set-by-set reference
# (oracles.cover_violations, oracles.nerve_model_parts)
# ---------------------------------------------------------------------------

REFERENCE_SPACES = (
    ("point_trivial",), ("point_trivial_fine",), ("free_orbit",), ("circle_antipodal",),
    ("circle_antipodal_fine",), ("circle_conjugation",), ("sphere_antipodal", 0), ("sphere_antipodal", 1),
    ("sphere_antipodal", 2), ("sphere_antipodal", 3), ("torus",),
)


@functools.cache
def reference_cover(space):
    """The catalog cover, or for a product its nerve re-read from its JSON;
    built once, and never changed (mutants copy its parts)."""
    cover = catalog.build(*space)
    return validate_cover(cover.to_raw()) if cover.factors else cover


def raised(cover):
    try:
        coverdata._checked(cover)
    except CoverValidationError as err:
        return err.violations
    return []


def assert_nerve_model_matches(cover):
    """The reference's bases, differentials and actions, in the nerve model
    of ``cover``, which reads the rows the check left in its memo where
    there are any and takes them out, and in that of a copy of its parts
    that never went through the check."""
    bases, diffs, actions = oracles.nerve_model_parts(cover)
    top = len(diffs) - 1
    assert [oracles.alternating_basis(cover, j) for j in range(top + 2)] == bases
    parts = (cover.name, cover.involution_name, cover.indices, cover.involution, cover.intersections,
             cover.faces, cover.component_involution, cover.good, cover.compact)
    for read in (cover, C2Cover(*parts)):
        model = cechengine._nerve_model(read)
        assert coverdata._ROWS not in read._memo
        assert model.top == top
        assert [model.complex.diff(j).rows for j in range(top + 1)] == diffs
        assert [(list(p), list(e)) for p, e in model.actions] == actions


@pytest.mark.parametrize("space", REFERENCE_SPACES, ids=space_key)
def test_nerve_model_matches_the_reference(space):
    cover = reference_cover(space)
    assert raised(cover) == oracles.cover_violations(cover) == []
    assert coverdata._ROWS in cover._memo
    assert_nerve_model_matches(cover)


DOUBLED = {
    "point of three sets": lambda: double_fixed_indices(catalog._point(3, "p3")),
    "conjugation circle": lambda: double_fixed_indices(catalog._conjugation_circle()),
    "point description": lambda: double_fixed_indices(point_raw()),
    "conjugation circle doubled twice":
        lambda: double_fixed_indices(double_fixed_indices(catalog._conjugation_circle())),
}


@pytest.mark.parametrize("name", DOUBLED)
def test_doubled_nerve_model_matches_the_reference(name):
    """Doubling checks what it makes and leaves the check's rows, which
    the nerve model reads; doubling a free cover again returns it
    without a second check, rows and all."""
    cover = DOUBLED[name]()
    assert oracles.cover_violations(cover) == [] and coverdata._ROWS in cover._memo
    assert_nerve_model_matches(cover)


def test_product_nerve_without_rows_matches_the_reference():
    """A product's nerve as ``verify`` reads it (``_nerve_only``) never
    went through the check as a cover of its own, so it holds no rows and
    its nerve model reads them from its parts."""
    for factors in (("circle_antipodal", "circle_conjugation"), ("point_trivial_fine", "sphere_antipodal")):
        nerve = verify._nerve_only(catalog.build("torus", *factors))
        assert not nerve._memo
        assert_nerve_model_matches(nerve)


def components(parts):
    return sorted({c for comps in parts["intersections"].values() for c in comps})


def subsets(parts):
    return sorted(parts["intersections"], key=lambda s: (len(s), sorted(s)))


def drop_a_face(pick, parts):
    del parts["faces"][pick(sorted(parts["faces"]))]


def redirect_a_face(pick, parts):
    parts["faces"][pick(sorted(parts["faces"]))] = pick(components(parts))


def drop_a_subset(pick, parts):
    del parts["intersections"][pick(subsets(parts))]


def break_the_involution(pick, parts):
    parts["component_involution"][pick(sorted(parts["component_involution"]))] = pick(components(parts))


def rename_a_component(pick, parts):
    subset = pick(subsets(parts))
    comps = list(parts["intersections"][subset])
    k = pick(range(len(comps)))
    comps[k] += "~"
    parts["intersections"][subset] = tuple(comps)


def add_a_stray_face(pick, parts):
    parts["faces"][pick(components(parts)), pick(sorted(parts["indices"]))] = pick(components(parts))


class NothingToMutate(Exception):
    pass


def relist(pick, parts):
    """The same cover listed in another order: its subsets, faces and
    component involution rotated, each subset's components reversed."""
    for key in ("intersections", "faces", "component_involution"):
        items = list(parts[key].items())
        k = pick(range(len(items)))
        parts[key] = dict(items[k:] + items[:k])
    parts["intersections"] = {s: comps[::-1] for s, comps in parts["intersections"].items()}


MUTATIONS = (drop_a_face, redirect_a_face, drop_a_subset, break_the_involution, rename_a_component, add_a_stray_face,
             relist)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REFERENCE_SPACES), st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3), st.data())
def test_checks_raise_the_reference_violations(space, mutations, data):
    """Mutated catalog covers, S^3 and a re-read product nerve: the checks
    raise the reference's violations, the same kinds and messages in the
    same order, and a mutant that is still valid (a relisted cover is) has
    the reference's nerve model, read from the check's rows and from its
    parts."""
    base = reference_cover(space)
    parts = {
        "indices": base.indices, "involution": dict(base.involution),
        "intersections": dict(base.intersections), "faces": dict(base.faces),
        "component_involution": dict(base.component_involution),
    }

    def pick(items):
        if not items:
            raise NothingToMutate
        return data.draw(st.sampled_from(items))

    for mutate in mutations:
        try:
            mutate(pick, parts)
        except NothingToMutate:
            pass
    cover = C2Cover(base.name, base.involution_name, good=base.good, compact=base.compact, **parts)
    want = oracles.cover_violations(cover)
    assert raised(cover) == want
    if not want:
        assert coverdata._ROWS in cover._memo
        assert_nerve_model_matches(cover)


def list_the_empty_subset(parts):
    parts["intersections"][frozenset()] = ("nowhere",)


def use_an_unknown_index(parts):
    parts["intersections"][frozenset(["stranger"])] = ("strange",)


def list_a_subset_without_components(parts):
    parts["intersections"][subsets(parts)[-1]] = ()


def share_a_component_id(parts):
    first, last = subsets(parts)[0], subsets(parts)[-1]
    parts["intersections"][last] = (parts["intersections"][first][0],) + parts["intersections"][last][1:]


def repeat_an_index(parts):
    parts["indices"] = (*parts["indices"], parts["indices"][0])


def map_an_unknown_index(parts):
    parts["involution"]["stranger"] = parts["indices"][0]


# each with a phrase of the violation it must raise
MALFORMATIONS = (
    (list_the_empty_subset, "empty subset listed"),
    (use_an_unknown_index, "uses unknown indices"),
    (list_a_subset_without_components, "listed with no components"),
    (share_a_component_id, "used by two subsets"),
    (repeat_an_index, "duplicate index names"),
    (map_an_unknown_index, "involution defined on unknown index"),
)


@pytest.mark.parametrize("mutate, message", MALFORMATIONS, ids=[m.__name__ for m, _ in MALFORMATIONS])
@pytest.mark.parametrize("space", [("circle_antipodal",), ("circle_conjugation",), ("sphere_antipodal", 2)],
                         ids=space_key)
def test_checks_raise_the_reference_violations_of_malformed_parts(space, mutate, message):
    """Six malformations the random mutations never make, each checked on
    its own: the check raises exactly the reference's violations, among
    them the one the malformation names."""
    base = reference_cover(space)
    parts = {
        "indices": tuple(base.indices), "involution": dict(base.involution),
        "intersections": dict(base.intersections), "faces": dict(base.faces),
        "component_involution": dict(base.component_involution),
    }
    mutate(parts)
    cover = C2Cover(base.name, base.involution_name, good=base.good, compact=base.compact, **parts)
    want = oracles.cover_violations(cover)
    assert any(message in text for _, text in want)
    assert raised(cover) == want


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


def two_fixed_in_one_subset_raw():
    """Two fixed sets, ``P`` and one already named ``P'``, meeting in two
    swapped components, and a swapped pair ``A``, ``B`` meeting both: the
    copies are ``P''`` and ``P'''``, and faces drop one fixed index while
    the other stays."""
    pieces = {
        ("P",): ["p"], ("P'",): ["q"], ("A",): ["a"], ("B",): ["b"], ("P", "P'"): ["m", "n"],
        ("A", "P"): ["ap"], ("B", "P"): ["bp"], ("A", "P'"): ["aq"], ("B", "P'"): ["bq"],
        ("A", "P", "P'"): ["apq"], ("B", "P", "P'"): ["bpq"],
    }
    faces = {
        ("ap", "A"): "p", ("ap", "P"): "a", ("bp", "B"): "p", ("bp", "P"): "b",
        ("aq", "A"): "q", ("aq", "P'"): "a", ("bq", "B"): "q", ("bq", "P'"): "b",
        ("m", "P"): "q", ("m", "P'"): "p", ("n", "P"): "q", ("n", "P'"): "p",
        ("apq", "A"): "m", ("apq", "P"): "aq", ("apq", "P'"): "ap",
        ("bpq", "B"): "n", ("bpq", "P"): "bq", ("bpq", "P'"): "bp",
    }
    swap = {"a": "b", "ap": "bp", "aq": "bq", "apq": "bpq", "m": "n"}
    return {
        "name": "two_fixed",
        "involution_name": "t",
        "indices": ["P", "P'", "A", "B"],
        "involution": {"P": "P", "P'": "P'", "A": "B", "B": "A"},
        "intersections": [{"sets": list(s), "components": c} for s, c in pieces.items()],
        "faces": [{"component": c, "drop": i, "in_component": f} for (c, i), f in faces.items()],
        "component_involution": {**swap, **{v: k for k, v in swap.items()}, "p": "p", "q": "q"},
        "good": True,
        "compact": True,
    }


DOUBLING_INPUTS = {
    **{f"point of {k}": functools.partial(catalog._point, k, f"p{k}") for k in range(1, 5)},
    "conjugation circle": catalog._conjugation_circle,
    "two fixed indices in one subset": lambda: coverfiles._read(two_fixed_in_one_subset_raw()),
}


@pytest.mark.parametrize("name", DOUBLING_INPUTS)
def test_doubling_matches_the_reference(name):
    """The doubling equals the set-by-set reference, dict order included,
    and so does its file.  No input doubles twice: a doubling leaves no
    fixed index, so a second one returns its cover as it stands."""
    cover = DOUBLING_INPUTS[name]()
    doubled = double_fixed_indices(cover)
    parts = oracles.doubled_parts(cover)
    fields = ("indices", "involution", "intersections", "faces", "component_involution")
    got = [getattr(doubled, f) for f in fields]
    assert [list(x.items()) if isinstance(x, dict) else x for x in got] == [
        list(x.items()) if isinstance(x, dict) else x for x in parts
    ]
    want = C2Cover(doubled.name, doubled.involution_name, *parts, good=cover.good, compact=cover.compact)
    assert doubled.to_json() == want.to_json()
    assert oracles.cover_violations(doubled) == [] and doubled.is_free()


def test_doubling_refuses_a_component_id_it_would_reuse():
    """A component named ``c|U,U'`` of ``{V}`` spells the doubled id of the
    component ``c`` of ``{U}`` on ``{U, U'}``: the doubling refuses the
    cover with that one id, where the set-by-set reference builds a cover
    that fails its checks with messages about ids the file never wrote."""
    raw = {
        "name": "clash",
        "involution_name": "t",
        "indices": ["U", "V"],
        "involution": {"U": "U", "V": "V"},
        "intersections": [{"sets": ["U"], "components": ["c"]}, {"sets": ["V"], "components": ["c|U,U'"]}],
        "faces": [],
        "component_involution": {"c": "c", "c|U,U'": "c|U,U'"},
        "good": True,
        "compact": True,
    }
    with pytest.raises(CoverValidationError) as err:
        double_fixed_indices(raw)
    assert err.value.violations == [(FACE_INCOHERENCE, "doubling names two components \"c|U,U'\"; rename the one listed")]
    cover = coverfiles._read(raw)
    parts = oracles.doubled_parts(cover)
    assert oracles.cover_violations(C2Cover("clash", "t", *parts, good=True, compact=True))


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


def test_product_refuses_colliding_pair_names():
    """Pair indices are named ``i*j``, so factor names holding ``*`` can
    spell one pair twice; such a pair of factors is refused when the
    product is made, before any nerve is built."""
    a, b = free_orbit_raw(), free_orbit_raw()
    a["indices"], a["involution"] = ["u*v", "u"], {"u*v": "u", "u": "u*v"}
    b["indices"], b["involution"] = ["w", "v*w"], {"w": "v*w", "v*w": "w"}
    for raw, (x, y) in ((a, ("u*v", "u")), (b, ("w", "v*w"))):
        raw["intersections"] = [{"sets": [x], "components": ["cU"]}, {"sets": [y], "components": ["cV"]}]
    with pytest.raises(CoverValidationError) as err:
        product_cover(validate_cover(a), validate_cover(b))
    assert [kind for kind, _ in err.value.violations] == [INVOLUTION_NOT_SELF_INVERSE]


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


LAYOUT_SPACES = (
    [(e.name, *e.params) for e in catalog.ENTRIES]
    + [("sphere_antipodal", 3)]
    + [("torus", a, b) for a, b in combinations_with_replacement(PRODUCT_FACTORS, 2)]
)


@pytest.mark.parametrize("space", LAYOUT_SPACES, ids=space_key)
def test_angle_layout_matches_the_ordered_basis(space):
    """The angle layout, read off the nerve, has one key per element of the
    ordered degree-1 basis, each with the partner and image that basis and
    its involution give; every triple leg is a key; and the orbit keys the
    flat lift reads are the representatives, the later elements, of the
    orbits of the sign -1 orbit complex's degree-1 basis, in its column
    order."""
    cover = catalog.build(*space)
    layout = flatclasses._angle_layout(cover)
    basis = cechengine.tuple_basis(cover, 1)
    perm = cechengine.basis_involution(cover, 1)
    keys = [(i, j, c) for (i, j), c in basis.elements]
    assert layout.pairs == {
        key: ((key[1], key[0], key[2]), keys[perm[pos]]) for pos, key in enumerate(keys)
    }
    assert list(FlatCocycle.zero(cover).angles) == list(layout.pairs)
    assert {leg for triple in layout.triples for leg in triple[2:]} <= layout.pairs.keys()
    _, bases = cechengine.build_equivariant_complex(cover, coverdata.IZ, 2)
    orbits = [[] for _ in range(bases[1].ncols)]
    for pos, row in enumerate(bases[1].rows):
        for col in row:
            orbits[col].append(pos)
    assert cechengine._orbit_keys(cover) == tuple(keys[max(orbit)] for orbit in orbits)


@pytest.mark.parametrize("space", [("circle_conjugation",), ("torus", "circle_antipodal", "sphere_antipodal")], ids=space_key)
def test_zero_cocycle_needs_no_ordered_basis(space, monkeypatch):
    """Checking angles reads only the nerve: a fresh cover's zero cocycle
    validates with the ordered-tuple basis and its involution unavailable."""

    def refused(*args):
        raise AssertionError("the ordered basis was read")

    monkeypatch.setattr(cechengine, "tuple_basis", refused)
    monkeypatch.setattr(cechengine, "basis_involution", refused)
    cover = catalog.build(*space)
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


FLAT_COVERS = {catalog.entry_label(e): e.build() for e in catalog.ENTRIES}
FLAT_GENERATORS = {}


def _perturbed_keys(cover, key, reach):
    """The angles a perturbation of ``key`` moves, and the sign it moves
    each by: ``key`` alone (reach 1), with its reversed pair (2), and with
    their orbit partners too (3), which keeps antisymmetry and equivariance
    so that only a triple can fail."""
    i, j, c = key
    moved = {key: 1}
    if reach >= 2:
        moved[(j, i, c)] = -1
    if reach >= 3:
        ti, tj, tc = cover.t(i), cover.t(j), cover.sigma(c)
        moved[(ti, tj, tc)] = moved.get((ti, tj, tc), 0) - 1
        moved[(tj, ti, tc)] = moved.get((tj, ti, tc), 0) + 1
    return moved


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_checks_match_the_fraction_checks(data):
    """A valid cocycle with no angle or one angle moved by a random rational
    (alone, with its reversed pair, or with its orbit partners too, on a
    triple leg when the cover has triples) is accepted or refused, with the
    same message, by ``validate`` on integers mod the common denominator and
    by the Fraction checks it replaced.  An accepted one classifies as the
    Fraction route does."""
    label = data.draw(st.sampled_from(sorted(FLAT_COVERS)))
    cover = FLAT_COVERS[label]
    if label not in FLAT_GENERATORS:
        FLAT_GENERATORS[label] = flathelp.class_generators(cover)
    rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1)))
    fc, _ = flathelp.random_flat_cocycle(cover, rng, FLAT_GENERATORS[label])
    reach = data.draw(st.integers(0, 3))
    if reach and fc.angles:
        legs = sorted(
            (i, j, cover.face(c, k))
            for s in cover.intersections
            if len(s) == 3
            for c in cover.components_of(s)
            for i, j, k in (sorted(s),)
        )
        key = data.draw(st.sampled_from(legs if reach == 3 and legs else sorted(fc.angles)))
        r = Fraction(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 12)))
        for k, sign in _perturbed_keys(cover, key, reach).items():
            fc.angles[k] += sign * r
    outcomes = []
    for check in (FlatCocycle.validate, oracles.flat_checks_fraction_route):
        try:
            check(fc)
            outcomes.append(None)
        except InvalidCocycle as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1], (label, reach)
    if outcomes[0] is None:
        got = flat_cocycle_class(fc).coords
        assert (got.torus_part, got.torsion_part) == oracles.flat_class_fraction_route(fc)


def test_cocycle_difference_same_cover(spaces):
    cover = spaces["circle_antipodal"]
    a = FlatCocycle.zero(cover)
    other = FlatCocycle.zero(spaces["point_trivial"])
    with pytest.raises(ValueError):
        _ = a - other


def test_cross_cover_arithmetic_is_a_cover_mismatch(spaces):
    """Arithmetic and equivalence across covers raise the one exception
    for that fault, which is also a ValueError."""
    a = FlatCocycle.zero(spaces["circle_antipodal"])
    other = FlatCocycle.zero(spaces["point_trivial"])
    for attempt in (lambda: a - other, lambda: a + other, lambda: cocycles_equivalent(a, other)):
        with pytest.raises(CoverMismatch, match="different covers"):
            attempt()
    assert issubclass(CoverMismatch, ValueError)


def test_coefficient_system_spellings():
    assert str(CoefficientSystem.integers(-1)) == "(Z, -1)"
    assert str(CoefficientSystem.integers_mod(4, -1)) == "(Z/4, -1)"
    assert CoefficientSystem.rationals(-1).base == "Q"
    with pytest.raises(ValueError):
        CoefficientSystem.integers_mod(1, -1)
    with pytest.raises(ValueError):
        CoefficientSystem("Z", 3)
