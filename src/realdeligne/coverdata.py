"""Combinatorial covers with involution.

A cover is described purely combinatorially: a finite index set with a free
involution, the set of components of each nonempty finite intersection, the
one-step face maps between components, and an involution on components.  The
geometry never appears; "good" (all components contractible) is a declared
flag carried into every report.

JSON import/export uses a canonical field and key ordering so that
export -> parse -> export is byte identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, wraps
from itertools import chain, combinations
from math import lcm
from operator import itemgetter

from .errors import (
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
from .records import Record


class CoefficientSystem(Record):
    """Locally constant coefficients with a sign action of the involution.

    ``base`` is "Z", "Q" or "Z/n" (with ``modulus`` = n); ``sign`` is the
    action of the involution on coefficients, +1 or -1.  For "Z/n" a sign of
    -1 means negation mod n.
    """

    __slots__ = ("base", "sign", "modulus")

    def __init__(self, base: str, sign: int, modulus: int | None = None):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if base == "Z/n":
            if not isinstance(modulus, int) or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif base in ("Z", "Q"):
            if modulus is not None:
                raise ValueError(f"base {base} takes no modulus")
        else:
            raise ValueError(f"unknown base {base!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "modulus", modulus)

    @classmethod
    def integers(cls, sign: int = 1) -> "CoefficientSystem":
        return cls("Z", sign)

    @classmethod
    def rationals(cls, sign: int = 1) -> "CoefficientSystem":
        return cls("Q", sign)

    @classmethod
    def integers_mod(cls, n: int, sign: int = 1) -> "CoefficientSystem":
        return cls("Z/n", sign, n)

    def __str__(self):
        name = f"Z/{self.modulus}" if self.base == "Z/n" else self.base
        return f"({name}, {'+1' if self.sign == 1 else '-1'})"


# Coefficient systems the Real theory actually uses, by their usual names.
IZ = CoefficientSystem.integers(-1)
Z_TRIVIAL = CoefficientSystem.integers(+1)
IQ = CoefficientSystem.rationals(-1)


class _WeaklyReferenced:
    __slots__ = ("__weakref__",)  # growers and tracers refer to covers weakly


class C2Cover(_WeaklyReferenced):
    """A validated combinatorial cover with a free index involution.

    Construct through :func:`validate_cover` (or :meth:`from_json`) or a
    package builder; direct instantiation skips the invariant checks.
    Instances are immutable by convention and hashable by identity, so they
    can key caches.  A product or a join keeps its two factors in
    ``factors`` (``joined`` tells which), and what is built once per cover
    (:func:`_per_cover`) lives in ``_memo``, dying with it.
    """

    # _LazyNerveCover swaps its class for this one, so the two keep one layout
    __slots__ = (
        "name",
        "involution_name",
        "indices",
        "involution",
        "intersections",  # frozenset of indices -> tuple of component ids
        "faces",  # (component id, dropped index) -> component id
        "component_involution",
        "good",
        "compact",
        "factors",  # a product's or a join's factors; () for every other cover
        "joined",  # True when the factors are joined rather than multiplied
        "_memo",  # (builder name, args) -> what it built
    )

    def __init__(
        self,
        name: str,
        involution_name: str,
        indices: tuple,
        involution: dict,
        intersections: dict,
        faces: dict,
        component_involution: dict,
        good: bool,
        compact: bool,
        factors: tuple = (),
    ):
        self.name = name
        self.involution_name = involution_name
        self.indices = indices
        self.involution = involution
        self.intersections = intersections
        self.faces = faces
        self.component_involution = component_involution
        self.good = good
        self.compact = compact
        self.factors = factors
        self.joined = False
        self._memo = {}

    # -- lookups ----------------------------------------------------------

    def t(self, index: str) -> str:
        return self.involution[index]

    def sigma(self, component: str) -> str:
        return self.component_involution[component]

    def components_of(self, subset) -> tuple:
        return self.intersections.get(frozenset(subset), ())

    def face(self, component: str, drop: str) -> str:
        return self.faces[(component, drop)]

    def is_free(self) -> bool:
        return all(self.involution[i] != i for i in self.indices)

    # -- serialization -----------------------------------------------------

    def to_raw(self) -> dict:
        subsets = sorted(self.intersections, key=lambda s: (len(s), sorted(s)))
        return {
            "name": self.name,
            "involution_name": self.involution_name,
            "indices": list(self.indices),
            "involution": {i: self.involution[i] for i in self.indices},
            "intersections": [
                {"sets": sorted(s), "components": list(self.intersections[s])}
                for s in subsets
            ],
            "faces": [
                {"component": c, "drop": i, "in_component": self.faces[(c, i)]}
                for (c, i) in sorted(self.faces)
            ],
            "component_involution": {
                c: self.component_involution[c]
                for c in sorted(self.component_involution)
            },
            "good": self.good,
            "compact": self.compact,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_raw(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "C2Cover":
        try:
            raw = json.loads(text, object_pairs_hook=_json_object)
        except RecursionError:  # the decoder recurses once per level of nesting
            raise CoverValidationError(
                [(MALFORMED_DESCRIPTION, "the JSON text nests too deeply to read")]
            ) from None
        return validate_cover(raw)

    def __repr__(self):
        return (
            f"C2Cover({self.name!r}, {len(self.indices)} indices, "
            f"{len(self.intersections)} intersecting subsets)"
        )


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


def _per_cover(builder):
    """Memoize ``builder(cover, *args)`` in the cover's own memo,
    ``cover._memo``, under the builder's name and its positional arguments;
    the memo dies with the cover."""
    name = builder.__name__

    @wraps(builder)
    def memo(cover, *args):
        key = (name, args)
        try:
            return cover._memo[key]
        except KeyError:
            pass
        value = cover._memo[key] = builder(cover, *args)
        return value

    return memo


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


def validate_cover(raw) -> C2Cover:
    """Check a cover description read from outside the package.

    ``raw`` is a dict in the cover file format, or an existing
    :class:`C2Cover`, which is checked as its file would be.  The JSON shape
    check (required fields and their types) applies to such descriptions
    only; then come the structural checks that every cover the package
    builds (catalog, doubling, products) passes too.  All violations are
    collected and reported together in a :class:`CoverValidationError`; a
    clean description returns the validated cover.
    """
    return _checked(_read(raw.to_raw() if isinstance(raw, C2Cover) else raw))


def _fixed_index_violation(i: str) -> tuple:
    return (
        FIXED_INDEX_PRESENT,
        f"index {i!r} is fixed by the involution; apply double_fixed_indices to obtain a free cover",
    )


def _require_free(cover: C2Cover) -> None:
    """Refuse a cover whose index involution fixes an index, with one
    violation per fixed index, as :func:`validate_cover` reports them."""
    fixed = [i for i in cover.indices if cover.involution[i] == i]
    if fixed:
        raise CoverValidationError([_fixed_index_violation(i) for i in fixed])


def _without(members: list, i) -> list:
    return [x for x in members if x != i]


# where a checked cover keeps its nerve rows (:func:`_nerve_rows`)
_ROWS = ("_nerve_rows", ())


def _face_rows(members: dict, intersections: dict, faces: dict) -> dict:
    """Each component of a subset keying ``members``, which holds each
    subset's members in order, to its faces by member in that order: the
    component ``faces`` lists, or None where it lists none.  A component of
    two subsets keeps the row of the later one."""
    get = faces.get
    return {c: [get((c, i)) for i in m] for s, m in members.items() for c in intersections[s]}


def _checked(cover: C2Cover) -> C2Cover:
    """Every structural check on a cover's parts: ``cover`` itself when it
    passes, else a :class:`CoverValidationError` with every violation.

    The face checks read each component's faces from :func:`_face_rows`.
    A cover that passes keeps those rows, with its subsets' members, in its
    memo until the nerve model takes them (:func:`_nerve_rows`), so a cold
    cover's nerve is sorted and looked up once; while they are there, the
    builders know it passed (:func:`_checked_but_freeness`)."""
    indices, involution, intersections = cover.indices, cover.involution, cover.intersections
    faces, comp_inv = cover.faces, cover.component_involution
    violations = []
    add = violations.append
    index_set = set(indices)
    if len(index_set) != len(indices):
        add((INVOLUTION_NOT_SELF_INVERSE, "duplicate index names"))

    for i in indices:
        ti = involution.get(i)
        if ti is None or ti not in index_set:
            add((INVOLUTION_NOT_SELF_INVERSE, f"involution undefined or escapes the index set at {i!r}"))
        elif involution.get(ti) != i:
            add((INVOLUTION_NOT_SELF_INVERSE, f"involution not self-inverse at {i!r}: t(t({i!r})) = {involution.get(ti)!r}"))
    for i in sorted(set(involution) - index_set):
        add((INVOLUTION_NOT_SELF_INVERSE, f"involution defined on unknown index {i!r}"))
    if violations:
        # involution is structurally broken; later checks would cascade
        raise CoverValidationError(violations)

    for i in indices:
        if involution[i] == i:
            add(_fixed_index_violation(i))

    # intersection bookkeeping: supports are known indices, component ids
    # are globally unique, singletons are present.  A subset of known
    # indices is also read as its bit mask, which later passes compare
    bit = {i: 1 << n for n, i in enumerate(indices)}
    support_of, mask_of, mask_at = {}, {}, {}  # mask_at: component -> its support's mask
    for subset, comps in intersections.items():
        if not subset:
            add((NOT_DOWNWARD_CLOSED, "empty subset listed in intersections"))
            continue
        if not subset <= index_set:
            add((NOT_DOWNWARD_CLOSED, f"subset {sorted(subset)} uses unknown indices {sorted(subset - index_set)}"))
            continue
        if not comps:
            add((NOT_DOWNWARD_CLOSED, f"subset {sorted(subset)} listed with no components; omit empty intersections"))
        m = mask_of[subset] = sum(map(bit.__getitem__, subset))
        for c in comps:
            if c in support_of:
                add((FACE_INCOHERENCE, f"component id {c!r} used by two subsets"))
            support_of[c], mask_at[c] = subset, m
    masks = set(mask_of.values())
    for i in indices:
        if bit[i] not in masks:
            add((NOT_DOWNWARD_CLOSED, f"singleton {{{i!r}}} missing from intersections"))

    # downward closure, one step at a time.  ``members_of`` and ``drops_of``
    # hold each subset of known indices' members in order and its one-step
    # drops as masks, in that order, for every later pass to read; a subset
    # with unknown indices is dropped as sets, and read by no later pass
    members_of, drops_of = {}, {}
    bit_of = bit.__getitem__
    for subset in intersections:
        if len(subset) < 2:
            continue
        members, m = sorted(subset), mask_of.get(subset)
        if m is None:
            drops, known = [subset - {i} for i in members], intersections
        else:
            members_of[subset] = members
            drops = drops_of[subset] = list(map(m.__xor__, map(bit_of, members)))
            if masks.issuperset(drops):
                continue
            known = masks
        for i, smaller in zip(members, drops):
            if smaller not in known:
                add((NOT_DOWNWARD_CLOSED, f"subset {members} intersects but {_without(members, i)} carries no components"))

    # face maps: defined exactly on (component, member of support), landing
    # in the right subset, coherent under dropping two elements.  Each row
    # keeps the face where it lands right and None elsewhere; the later
    # checks read only those.  With no violation yet, each listed component
    # has one support, so the rows run in support order and one comparison
    # finds every face listed and landing right
    rows = _face_rows(members_of, intersections, faces)
    mask_get, support_get = mask_at.get, support_of.get
    targets = list(chain.from_iterable(rows.values()))
    found = len(targets)
    if violations or list(map(mask_get, targets)) != list(
        chain.from_iterable(map(drops_of.__getitem__, map(support_of.__getitem__, rows)))
    ):
        found = 0
        for c, subset in support_of.items():
            if len(subset) < 2:
                continue
            members, drops, row = members_of[subset], drops_of[subset], rows[c]
            for k, (i, smaller, target) in enumerate(zip(members, drops, row)):
                if target is None:
                    add((FACE_INCOHERENCE, f"face of component {c!r} dropping {i!r} is missing"))
                    continue
                found += 1
                if mask_get(target) != smaller:
                    add((FACE_INCOHERENCE, f"face of {c!r} dropping {i!r} lands in {target!r}, "
                                           f"which is not a component of {_without(members, i)}"))
                    row[k] = None
    if found != len(faces):  # else every face entry was just read at a support
        for (c, i) in faces:
            subset = support_get(c)
            if subset is None or i not in subset or len(subset) < 2:
                add((FACE_INCOHERENCE, f"face entry ({c!r}, drop {i!r}) does not match any component support"))

    # dropping members a < b: the face of c without a, then without b (at
    # position b - 1 there), against the other order
    for c, subset in support_of.items():
        if len(subset) < 3:
            continue
        row = rows[c]
        for a, b in combinations(range(len(row)), 2):
            ci, cj = row[a], row[b]
            if ci is None or cj is None:
                continue  # already reported above
            via_i, via_j = rows[ci][b - 1], rows[cj][a]
            if via_i is not None and via_j is not None and via_i != via_j:
                members = members_of[subset]
                add((FACE_INCOHERENCE, f"dropping {members[a]!r} then {members[b]!r} from {c!r} gives "
                                       f"{via_i!r} but the other order gives {via_j!r}"))

    # component involution: self-inverse bijection, support-compatible,
    # commuting with faces
    image = involution.__getitem__
    image_bit = {i: bit[image(i)] for i in index_set}.__getitem__
    for c, subset in support_of.items():
        sc = comp_inv.get(c)
        if sc is None or sc not in support_of:
            add((INVOLUTION_FACE_MISMATCH, f"component involution undefined or escapes known components at {c!r}"))
            continue
        if comp_inv.get(sc) != c:
            add((INVOLUTION_NOT_SELF_INVERSE, f"component involution not self-inverse at {c!r}"))
        if mask_at[sc] != sum(map(image_bit, subset)):
            add((INVOLUTION_FACE_MISMATCH, f"component {c!r} of {sorted(subset)} maps to {sc!r} "
                                           f"of {sorted(support_of[sc])}, expected a component of {sorted(map(image, subset))}"))
    for c in sorted(comp_inv.keys() - support_of.keys()):
        add((INVOLUTION_FACE_MISMATCH, f"component involution defined on unknown component {c!r}"))
    # every face entry at once first: where σ of each listed face is the
    # listed face of σ c without t(i), or neither is listed, no component
    # disagrees
    faces_get, sigma_get = faces.get, comp_inv.get
    mirrored = zip(map(sigma_get, map(itemgetter(0), faces)), map(involution.get, map(itemgetter(1), faces)))
    if list(map(sigma_get, faces.values())) != list(map(faces_get, mirrored)):
        for c, subset in support_of.items():
            sc = comp_inv.get(c)
            if len(subset) < 2 or sc not in support_of:
                continue
            for i, f in zip(members_of[subset], rows[c]):
                if f is None or f not in comp_inv:
                    continue
                rhs = faces_get((sc, involution[i]))
                if rhs is not None and comp_inv[f] != rhs:
                    add((INVOLUTION_FACE_MISMATCH,
                         f"involution and face maps disagree on component {c!r} dropping {i!r}"))

    if violations:
        raise CoverValidationError(violations)
    cover._memo[_ROWS] = members_of, rows
    return cover


def _nerve_rows(cover: C2Cover) -> tuple:
    """``(members, rows)`` of a cover's subsets of two or more members: each
    subset's members in order, and each component's faces by member
    (:func:`_face_rows`).  A cover that passed :func:`_checked` gives up the
    rows the check left in its memo, so they are read once; any other
    cover's are read here, by the same function."""
    held = cover._memo.pop(_ROWS, None)
    if held is None:
        members = {s: sorted(s) for s in cover.intersections if len(s) > 1}
        held = members, _face_rows(members, cover.intersections, cover.faces)
    return held


# ---------------------------------------------------------------------------
# Doubling fixed indices
# ---------------------------------------------------------------------------


def _checked_but_freeness(cover: C2Cover) -> bool:
    """Every structural check on ``cover`` but freeness: whether it is
    free too, or a :class:`CoverValidationError` with every other
    violation.  A cover whose nerve rows are still in its memo passed
    every check, freeness included, and has not been read since
    (:func:`_checked`), so it is not checked again."""
    if _ROWS in cover._memo:
        return True
    try:
        _checked(cover)
        return True
    except CoverValidationError as err:
        if any(kind != FIXED_INDEX_PRESENT for kind, _ in err.violations):
            raise
        return False


def double_fixed_indices(raw) -> C2Cover:
    """Replace every involution-fixed index by a swapped pair of copies.

    Both copies denote the same underlying set, so every subset of new
    indices inherits the components of its set of underlying indices; in
    particular the pair {U, U'} of copies intersects in all of U.  A cover
    that is already free passes through unchanged (up to validation).
    ``raw`` is a cover description, shape-checked as by
    :func:`validate_cover`, or a :class:`C2Cover`, whose parts are checked
    as they stand unless they passed every check and were not read since
    (:func:`_checked_but_freeness`).  The doubled cover is checked in full,
    and refused at once if a component id of ``raw`` spells a doubled one.
    """
    cover = raw if isinstance(raw, C2Cover) else _read(raw)
    if _checked_but_freeness(cover):
        return cover
    indices, involution = cover.indices, cover.involution
    faces, comp_inv = cover.faces, cover.component_involution
    fixed = [i for i in indices if involution.get(i) == i]

    used, originals = set(indices), set(indices)
    partner = {}  # each fixed index and its copy, to the other
    underlying = {i: i for i in indices}
    for i in fixed:
        ip = i + "'"
        while ip in used:
            ip += "'"
        used.add(ip)
        partner[i], partner[ip], underlying[ip] = ip, i, i
    new_indices = [x for i in indices for x in ((i, partner[i]) if i in partner else (i,))]
    new_involution = {x: partner[x] if x in partner else involution[x] for x in new_indices}

    # each fixed index of an old support may appear as the original, the
    # copy, or both.  A subset of original indices keeps the bare component
    # ids, and any other's append its sorted members, worked out once here
    new_intersections = {}
    suffix = {}  # new subset -> what its component ids append
    origin = []  # (new component id, old component id, new subset, its sorted members)
    for subset, comps in cover.intersections.items():
        stack = [()]
        for i in sorted(subset):
            opts = [(i,), (partner[i],), (i, partner[i])] if i in partner else [(i,)]
            stack = [acc + opt for acc in stack for opt in opts]
        for members in stack:
            new_subset = frozenset(members)
            ordered = sorted(new_subset)
            tail = suffix[new_subset] = "" if new_subset <= originals else "|" + ",".join(ordered)
            ids = new_intersections[new_subset] = tuple(c + tail for c in comps)
            origin.extend((cid, c, new_subset, ordered) for cid, c in zip(ids, comps))

    # dropping a copy whose partner stays keeps the underlying set, so the
    # face lands on the same old component; any other drop takes its face
    new_faces = {}
    for cid, c, new_subset, ordered in origin:
        if len(ordered) < 2:
            continue
        for x in ordered:
            target = c if partner.get(x) in new_subset else faces[(c, underlying[x])]
            new_faces[(cid, x)] = target + suffix[new_subset - {x}]

    image = new_involution.__getitem__
    new_comp_inv = {cid: comp_inv[c] + suffix[frozenset(map(image, s))] for cid, c, s, _ in origin}
    if len(new_comp_inv) < len(origin):  # a component id of the file spells a doubled one
        seen, twice = set(), []
        for cid, *_ in origin:
            if cid in seen:
                twice.append(cid)
            seen.add(cid)
        raise CoverValidationError(
            [(FACE_INCOHERENCE, f"doubling names two components {cid!r}; rename the one listed") for cid in twice]
        )

    return _checked(
        C2Cover(
            name=cover.name,
            involution_name=cover.involution_name,
            indices=tuple(new_indices),
            involution=new_involution,
            intersections=new_intersections,
            faces=new_faces,
            component_involution=new_comp_inv,
            good=cover.good,
            compact=cover.compact,
        )
    )


# ---------------------------------------------------------------------------
# Products and joins
# ---------------------------------------------------------------------------


@cache
def _filling(m: int, n: int) -> list:
    """The subsets of the cells of an ``m`` by ``n`` grid (cell ``r * n + c``)
    that meet every row and every column, in the order of their bit masks."""
    out = []
    for mask in range(1, 1 << m * n):
        cells = [k for k in range(m * n) if mask >> k & 1]
        if len({k // n for k in cells}) == m and len({k % n for k in cells}) == n:
            out.append(cells)
    return out


def _pair(i: str, j: str) -> str:
    return f"{i}*{j}"


def _nerve_of_product(a: C2Cover, b: C2Cover):
    """``(intersections, faces, component_involution)`` of the product of
    ``a`` and ``b`` on the pair indices :func:`_pair`.

    A set of product indices intersects exactly when both projections do,
    and its components are the pairs of projection components (a product of
    connected sets being connected).
    """
    pair_name = {(i, j): _pair(i, j) for i in a.indices for j in b.indices}
    split = {ij: pair for pair, ij in pair_name.items()}
    involution = {ij: pair_name[(a.t(i), b.t(j))] for (i, j), ij in pair_name.items()}
    ids = {}

    def comp_id(ca, cb, subset):
        key = (ca, cb, subset)
        if key not in ids:
            ids[key] = f"{ca}*{cb}|" + ",".join(sorted(subset))
        return ids[key]

    intersections = {}
    comp_data = {}  # id -> (ca, cb, subset)
    for sa, comps_a in a.intersections.items():
        for sb, comps_b in b.intersections.items():
            members = [pair_name[(i, j)] for i in sorted(sa) for j in sorted(sb)]
            for cells in _filling(len(sa), len(sb)):
                subset = frozenset([members[k] for k in cells])
                cids = []
                for ca in comps_a:
                    for cb in comps_b:
                        cid = comp_id(ca, cb, subset)
                        cids.append(cid)
                        comp_data[cid] = (ca, cb, subset)
                intersections[subset] = tuple(cids)

    faces = {}
    for cid, (ca, cb, subset) in comp_data.items():
        if len(subset) < 2:
            continue
        # dropping x keeps a factor's projection when another member shares
        # x's index there; otherwise that factor takes its own face
        firsts = [split[y][0] for y in subset]
        seconds = [split[y][1] for y in subset]
        for x in subset:
            i, j = split[x]
            fa = ca if firsts.count(i) > 1 else a.face(ca, i)
            fb = cb if seconds.count(j) > 1 else b.face(cb, j)
            faces[(cid, x)] = comp_id(fa, fb, subset - {x})

    comp_inv = {}
    for cid, (ca, cb, subset) in comp_data.items():
        t_subset = frozenset(involution[x] for x in subset)
        comp_inv[cid] = comp_id(a.sigma(ca), b.sigma(cb), t_subset)
    return intersections, faces, comp_inv


def _nerve_of_join(a: C2Cover, b: C2Cover):
    """``(intersections, faces, component_involution)`` of the join of
    ``a`` and ``b``: the subsets ``I ⊔ J`` of a subset of each or ``∅``
    (``J`` running fastest), with components ``ca|cb`` (``ca`` or ``cb`` if
    the other part is empty), faces and ``σ`` taken factorwise."""
    side_a, side_b = ([(frozenset(), (None,)), *f.intersections.items()] for f in (a, b))
    sigma_a, sigma_b = ({None: None, **f.component_involution}.__getitem__ for f in (a, b))

    def joined(ca, cb):
        return cb if ca is None else ca if cb is None else f"{ca}|{cb}"

    intersections, faces, comp_inv = {}, {}, {}
    for sa, comps_a in side_a:
        for sb, comps_b in side_b:
            if not (sa or sb):
                continue
            pairs = [(ca, cb) for ca in comps_a for cb in comps_b]
            ids = intersections[sa | sb] = tuple(joined(*pair) for pair in pairs)
            for c, (ca, cb) in zip(ids, pairs):
                comp_inv[c] = joined(sigma_a(ca), sigma_b(cb))
                if len(sa) + len(sb) > 1:
                    faces.update(((c, i), joined(a.faces[ca, i] if len(sa) > 1 else None, cb)) for i in sa)
                    faces.update(((c, j), joined(ca, b.faces[cb, j] if len(sb) > 1 else None)) for j in sb)
    return intersections, faces, comp_inv


_NERVE = ("intersections", "faces", "component_involution")


class _LazyNerveCover(C2Cover):
    """A product or a join whose first read of a nerve field builds and
    checks the nerve, then makes the cover a plain :class:`C2Cover` (same
    slots), so later reads cost what they cost on any cover.  Each factor
    runs every check but freeness unless it is a product or a join or
    passed them all and was not read since (:func:`_checked_but_freeness`);
    the indices must be distinct and free, else :class:`CoverValidationError`."""

    __slots__ = ()

    def __init__(self, a: C2Cover, b: C2Cover, joined: bool, name: str, involution_name: str):
        for factor in (a, b):
            if not factor.factors:  # a product or a join was checked when it was built
                _checked_but_freeness(factor)
        self.name, self.involution_name = name, involution_name
        if joined:
            self.indices = a.indices + b.indices
            self.involution = {i: f.t(i) for f in (a, b) for i in f.indices}
        else:
            self.indices = tuple(_pair(i, j) for i in a.indices for j in b.indices)
            self.involution = {_pair(i, j): _pair(a.t(i), b.t(j)) for i in a.indices for j in b.indices}
        self.good, self.compact = a.good and b.good, a.compact and b.compact
        self.factors, self.joined, self._memo = (a, b), joined, {}
        if len(set(self.indices)) != len(self.indices):  # factor names can collide
            raise CoverValidationError([(INVOLUTION_NOT_SELF_INVERSE, "duplicate index names")])
        _require_free(self)

    def __getattr__(self, name):
        # reached only for a slot not yet set: an unread nerve
        if name not in _NERVE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        nerve = _nerve_of_join if self.joined else _nerve_of_product
        parts = dict(zip(_NERVE, nerve(*self.factors)))
        _checked(C2Cover(self.name, self.involution_name, self.indices, self.involution,
                         good=self.good, compact=self.compact, **parts))
        self.intersections, self.faces, self.component_involution = parts.values()
        # a class with __getattr__ reads every attribute the slow way
        self.__class__ = C2Cover
        return parts[name]

    def __repr__(self):
        names = " x ".join(repr(f.name) for f in self.factors)
        return f"C2Cover({self.name!r}, {len(self.indices)} indices, {'join' if self.joined else 'product'} of {names})"


def product_cover(a: C2Cover, b: C2Cover, name: str | None = None) -> C2Cover:
    """Cover of a product space: indices are pairs, everything componentwise.

    A set of product indices intersects exactly when both projections do,
    and its components are the pairs of projection components (a product of
    connected sets being connected).

    The cover keeps its factors, and cohomology is read from their
    alternating complexes.  The nerve (``intersections``, ``faces``,
    ``component_involution``) stays lazy: it is built, and every structural
    check runs on it, on first read (``to_json``, the flat classifier,
    :class:`FlatCocycle`, ``verify``), as :class:`_LazyNerveCover` says.
    """
    involution_name = f"{a.involution_name}*{b.involution_name}"
    return _LazyNerveCover(a, b, False, name or f"{a.name}*{b.name}", involution_name)


def join_cover(a: C2Cover, b: C2Cover, name: str | None = None) -> C2Cover:
    """Cover of the join ``A * B`` on the indices of both: ``U_I ∩ V_J`` is
    ``U_I × V_J × (0, 1)`` and ``U_I`` alone is ``U_I`` times a cone, so the
    nerve is the join of the nerves (:func:`_nerve_of_join`), good when
    both are; S^n is the join of n + 1 copies of S^0 (J. Milnor, Ann. of
    Math. 63, 1956).  Cohomology is read from the factors' augmented
    models, and the nerve stays lazy as a product's does.  The involution
    name is the factors' if they share one, else both joined by ``*``."""
    involution_name = a.involution_name
    if b.involution_name != involution_name:
        involution_name = f"{involution_name}*{b.involution_name}"
    return _LazyNerveCover(a, b, True, name or f"join({a.name},{b.name})", involution_name)


# ---------------------------------------------------------------------------
# Flat cocycles
# ---------------------------------------------------------------------------


class FlatCocycle:
    """Locally constant circle-valued transition data on a cover.

    ``angles`` assigns to each ordered pair ``(i, j)`` with ``i != j`` whose
    sets meet, and each component ``c`` of the pair intersection, a rational
    ``theta`` mod 1 standing for the constant value ``exp(2*pi*i*theta)``.
    Conjugation negates angles, so equivariance reads
    ``theta[t(i), t(j), sigma(c)] = -theta[i, j, c]`` mod 1.
    """

    __slots__ = ("cover", "angles")

    def __init__(self, cover: C2Cover, angles: dict):
        self.cover = cover
        # (i, j, component) -> Fraction in [0, 1)
        self.angles = {k: Fraction(v) % 1 for k, v in angles.items()}

    @classmethod
    def zero(cls, cover: C2Cover) -> "FlatCocycle":
        return cls(cover, dict.fromkeys(_angle_layout(cover).pairs, Fraction(0)))

    def _integer_angles(self) -> tuple:
        """``(D, table)``: the angles as integers in ``[0, D)`` over their
        least common denominator ``D``; :meth:`_checked_angles` checks it and
        hands it to the flat classifier.  ``angles`` is public and mutable,
        so each value is still reduced mod ``D``."""
        den = lcm(*{v.denominator for v in self.angles.values()})
        return den, {k: v.numerator * (den // v.denominator) % den for k, v in self.angles.items()}

    def validate(self) -> "FlatCocycle":
        """Raise :class:`InvalidCocycle` on the first violated invariant: a
        key set other than the cover's, then, in the table's own order, a
        key whose reversal partner or image under the involution does not
        carry minus its angle, then, in the order of the cover's
        intersections, a triple whose faces do not sum to zero mod 1."""
        self._checked_angles()
        return self

    def _checked_angles(self) -> tuple:
        """:meth:`_integer_angles` once every check of :meth:`validate` has
        passed on it; the flat classifier reads the table from here.  What
        the checks need of the cover (the key set, each key's partner and
        image, the faces of each triple) is read from its angle layout
        (:func:`_angle_layout`), built once per cover."""
        layout = _keys_checked(self.cover, self.angles)
        return _checked_values(layout, *self._integer_angles())

    def _checked_difference(self, other: "FlatCocycle") -> tuple:
        """``(D, table)`` of ``self - other`` on integers: ``D`` is the lcm
        of the two tables' denominators and ``table``, in this table's key
        order, holds ``t_self * D/D_self - t_other * D/D_other`` mod ``D``.
        It runs the checks, and raises the messages, of ``(self -
        other).validate()``, but forms no Fraction and no FlatCocycle.  Any
        common denominator gives the classifier the same answers as the
        least one."""
        layout = _keys_checked(self.cover, self.angles, other.angles)
        da, ta = self._integer_angles()
        db, tb = other._integer_angles()
        den = lcm(da, db)
        ma, mb = den // da, den // db
        table = {k: (x * ma - tb[k] * mb) % den for k, x in ta.items()}
        return _checked_values(layout, den, table)

    def _same_keys(self, other: "FlatCocycle") -> None:
        """Refuse arithmetic across covers (:class:`CoverMismatch`) or
        across angle tables with different key sets (:class:`InvalidCocycle`,
        naming the first of the two tables whose keys are not the cover's)."""
        if other.cover is not self.cover:
            raise CoverMismatch("cocycles live on different covers")
        if self.angles.keys() != other.angles.keys():  # so one is not the cover's
            _keys_checked(self.cover, self.angles, other.angles)

    def __sub__(self, other: "FlatCocycle") -> "FlatCocycle":
        self._same_keys(other)
        return FlatCocycle(
            self.cover,
            {k: self.angles[k] - other.angles[k] for k in self.angles},
        )

    def __add__(self, other: "FlatCocycle") -> "FlatCocycle":
        self._same_keys(other)
        return FlatCocycle(
            self.cover,
            {k: self.angles[k] + other.angles[k] for k in self.angles},
        )


class AngleLayout(Record):
    """What checking a flat angle table needs of its cover.

    ``pairs`` maps every angle key ``(i, j, c)``, one per ordered pair of
    distinct indices whose sets meet and component ``c`` of their
    intersection (so its keys are the key set), to its reversal partner
    ``(j, i, c)`` and its image ``(t i, t j, σ c)``; it lists ``(i, j, c)``
    then ``(j, i, c)``, ``i < j``, in the order of ``cover.intersections``.
    ``triples`` lists ``((i, j, k), c, (j, k, c_i), (i, k, c_j), (i, j,
    c_k))`` for each component ``c`` of each triple intersection, indices
    sorted, faces ``c_x`` of ``c``, in the same order.  Only keys are
    kept, never the cover.
    """

    __slots__ = ("pairs", "triples")


@_per_cover
def _angle_layout(cover: C2Cover) -> AngleLayout:
    """The cover's angle layout, read off its 2- and 3-subsets."""
    t, sigma, faces = cover.involution, cover.component_involution, cover.faces
    held = {}  # every key tuple, held once
    for subset, comps in cover.intersections.items():
        if len(subset) == 2:
            i, j = sorted(subset)
            held.update((key, key) for c in comps for key in ((i, j, c), (j, i, c)))
    pairs = {}
    for key in held:
        i, j, c = key
        pairs[key] = (held[j, i, c], held[t[i], t[j], sigma[c]])
    triples = []
    for subset, comps in cover.intersections.items():
        if len(subset) == 3:
            i, j, k = ijk = tuple(sorted(subset))
            for c in comps:
                triples.append((ijk, c, held[j, k, faces[c, i]], held[i, k, faces[c, j]], held[i, j, faces[c, k]]))
    return AngleLayout(pairs, tuple(triples))


def _keys_checked(cover: C2Cover, *tables: dict) -> AngleLayout:
    """The cover's angle layout once every table has the cover's key set;
    else :class:`InvalidCocycle` on the first table that has not."""
    layout = _angle_layout(cover)
    expected = layout.pairs.keys()
    for angles in tables:
        if angles.keys() != expected:
            missing = sorted(expected - angles.keys())
            stray = sorted(angles.keys() - expected)
            raise InvalidCocycle(
                f"angle table mismatch: missing {missing[:3]}..., stray {stray[:3]}..."
            )
    return layout


def _checked_values(layout, den: int, table: dict) -> tuple:
    """``(den, table)`` once the integer angles ``table`` over ``den``, with
    the cover's key set, are antisymmetric, equivariant and closed on
    triples mod ``den``; else :class:`InvalidCocycle` on the first failure
    (see :meth:`FlatCocycle.validate` for the order)."""
    pairs = layout.pairs
    for key, theta in table.items():
        partner, image = pairs[key]
        if (table[partner] + theta) % den:
            raise InvalidCocycle(f"antisymmetry fails on ({key[0]}, {key[1]}) component {key[2]}")
        if (table[image] + theta) % den:
            raise InvalidCocycle(f"equivariance fails on ({key[0]}, {key[1]}) component {key[2]}")
    for ijk, c, jk, ik, ij in layout.triples:
        if (table[jk] - table[ik] + table[ij]) % den:
            raise InvalidCocycle(f"cocycle condition fails on {list(ijk)} component {c}")
    return den, table
