"""Cover files: the JSON description of a cover, read and written.

A cover file spells out a cover's parts: ``name``, ``involution_name``,
``indices``, ``involution``, one entry per subset in ``intersections``,
one per face in ``faces``, ``component_involution``, ``good`` and
``compact``.  Export lists them in a canonical field and key order, so
that export -> parse -> export is byte identical.  Reading checks the JSON
shape (required fields and their types), refuses repeated keys, names and
entries, and hands the unchecked cover to ``coverdata``'s structural
checks.

Catalog covers and every descriptor skip all of this, so no CLI command
but one naming an ``@file`` loads this module: ``C2Cover.to_raw``,
``to_json`` and ``from_json``, ``validate_cover`` and
``double_fixed_indices`` import it when they run.
"""

from __future__ import annotations

import json

from .coverdata import C2Cover
from .errors import MALFORMED_DESCRIPTION, CoverValidationError


def raw_of(cover: C2Cover) -> dict:
    """:meth:`C2Cover.to_raw`: the cover's description, in the canonical
    field and key order."""
    subsets = sorted(cover.intersections, key=lambda s: (len(s), sorted(s)))
    return {
        "name": cover.name,
        "involution_name": cover.involution_name,
        "indices": list(cover.indices),
        "involution": {i: cover.involution[i] for i in cover.indices},
        "intersections": [
            {"sets": sorted(s), "components": list(cover.intersections[s])}
            for s in subsets
        ],
        "faces": [
            {"component": c, "drop": i, "in_component": cover.faces[(c, i)]}
            for (c, i) in sorted(cover.faces)
        ],
        "component_involution": {
            c: cover.component_involution[c]
            for c in sorted(cover.component_involution)
        },
        "good": cover.good,
        "compact": cover.compact,
    }


def json_of(cover: C2Cover) -> str:
    """:meth:`C2Cover.to_json`."""
    return json.dumps(raw_of(cover), indent=2) + "\n"


def parsed(text: str):
    """The description a cover file's text holds, before any check; a key
    listed twice in one object raises :class:`CoverValidationError`."""
    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise CoverValidationError(
            [(MALFORMED_DESCRIPTION, "the JSON text nests too deeply to read")]
        ) from None


def _json_object(pairs: list) -> dict:
    """A JSON object of a cover file.  A key it lists twice is refused: which
    of its values is meant is unknown."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen, twice = set(), set()
        for key, _ in pairs:
            (twice if key in seen else seen).add(key)
        raise CoverValidationError(
            [(MALFORMED_DESCRIPTION, f"key {key!r} listed twice in one object") for key in sorted(twice)]
        )
    return obj


def _names(v) -> bool:
    return isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v)


def _name_map(v) -> bool:
    return isinstance(v, dict) and _names([*v, *v.values()])


def _entries(v, names=(), lists=()) -> bool:
    """Whether ``v`` lists objects with a name at each field of ``names``
    and a list of names at each of ``lists``, in one plain pass: a cover
    file has an entry per subset and per face."""
    if not isinstance(v, (list, tuple)):
        return False
    for e in v:
        if not isinstance(e, dict):
            return False
        for f in names:
            if not isinstance(e.get(f), str):
                return False
        for f in lists:
            x = e.get(f)
            if not isinstance(x, (list, tuple)):
                return False
            for y in x:
                if not isinstance(y, str):
                    return False
    return True


# field, required, test, what the field must be
_SHAPE = (
    ("name", True, lambda v: isinstance(v, str), "a string"),
    ("involution_name", False, lambda v: isinstance(v, str), "a string"),
    ("indices", True, _names, "a list of names"),
    ("involution", True, _name_map, "an object of names"),
    ("intersections", True, lambda v: _entries(v, lists=("sets", "components")),
     "a list of objects with name lists 'sets' and 'components'"),
    ("faces", False, lambda v: _entries(v, names=("component", "drop", "in_component")),
     "a list of objects with names 'component', 'drop' and 'in_component'"),
    ("component_involution", False, _name_map, "an object of names"),
    ("good", False, lambda v: isinstance(v, bool), "true or false"),
    ("compact", False, lambda v: isinstance(v, bool), "true or false"),
)


def _shape_violations(raw) -> list:
    """Missing fields and wrong types, which every later check relies on."""
    if not isinstance(raw, dict):
        return [(MALFORMED_DESCRIPTION, f"a cover description is an object, not {type(raw).__name__}")]
    out = []
    for key, required, ok, what in _SHAPE:
        if key not in raw and required:
            out.append((MALFORMED_DESCRIPTION, f"required field {key!r} is missing"))
        elif key in raw and not ok(raw[key]):
            out.append((MALFORMED_DESCRIPTION, f"field {key!r} must be {what}"))
    return out


def _read(raw) -> C2Cover:
    """The unchecked cover a description read from outside spells out, after
    the JSON shape check."""
    violations = _shape_violations(raw)
    if violations:
        # the description cannot even be read; nothing else can be checked
        raise CoverValidationError(violations)
    intersections, faces = {}, {}
    for e in raw["intersections"]:
        key = frozenset(e["sets"])
        for what, names in (("index", e["sets"]), ("component", e["components"])):
            if len(set(names)) < len(names):
                for x in sorted({x for n, x in enumerate(names) if x in names[:n]}):
                    violations.append((MALFORMED_DESCRIPTION, f"subset entry {e['sets']} lists {what} {x!r} twice"))
        if key in intersections:
            violations.append((MALFORMED_DESCRIPTION, f"subset {sorted(key)} listed twice in 'intersections'"))
        intersections[key] = tuple(e["components"])
    for e in raw.get("faces", []):
        key = e["component"], e["drop"]
        if key in faces:
            violations.append((MALFORMED_DESCRIPTION, f"face entry ({key[0]!r}, drop {key[1]!r}) listed twice in 'faces'"))
        faces[key] = e["in_component"]
    if violations:  # a repeated key or name: which of its entries is meant is unknown
        raise CoverValidationError(violations)
    return C2Cover(
        name=raw["name"],
        involution_name=raw.get("involution_name", "t"),
        indices=tuple(raw["indices"]),
        involution=dict(raw["involution"]),
        intersections=intersections,
        faces=faces,
        component_involution=dict(raw.get("component_involution", {})),
        good=raw.get("good", False),
        compact=raw.get("compact", False),
    )
