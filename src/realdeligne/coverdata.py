"""Combinatorial covers with involution.

A cover is described purely combinatorially: a finite index set with an
involution, which may fix indices, the set of components of each nonempty
finite intersection, the one-step face maps between components, and an
involution on components.  The geometry never appears; "good" (all
components contractible) is a declared flag carried into every report.

Three features that no descriptor reads live in modules of their own,
loaded on first use: cover files (``coverfiles``: the JSON shape check
and reading, and the bodies of :meth:`C2Cover.to_raw`, ``to_json`` and
``from_json``), the nerves of products and joins (``nerves``), and flat
cocycles (``flatclasses``), whose names :class:`FlatCocycle` and
:class:`AngleLayout` resolve here too, on first read
(:func:`__getattr__`).
"""

from __future__ import annotations

from functools import wraps
from itertools import chain, combinations
from operator import itemgetter

from .errors import (
    FACE_INCOHERENCE,
    INVOLUTION_FACE_MISMATCH,
    INVOLUTION_NOT_SELF_INVERSE,
    NOT_DOWNWARD_CLOSED,
    CoverValidationError,
)
from .records import Record, moved_names


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
    """A validated combinatorial cover with an index involution, which
    may fix indices (only the flat classes need it free).

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

    # -- serialization, in coverfiles --------------------------------------

    def to_raw(self) -> dict:
        from .coverfiles import raw_of

        return raw_of(self)

    def to_json(self) -> str:
        from .coverfiles import json_of

        return json_of(self)

    @classmethod
    def from_json(cls, text: str) -> "C2Cover":
        from .coverfiles import parsed

        return validate_cover(parsed(text))

    def __repr__(self):
        return (
            f"C2Cover({self.name!r}, {len(self.indices)} indices, "
            f"{len(self.intersections)} intersecting subsets)"
        )


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


def validate_cover(raw) -> C2Cover:
    """Check a cover description read from outside the package.

    ``raw`` is a dict in the cover file format, or an existing
    :class:`C2Cover`, which is checked as its file would be.  The JSON shape
    check (required fields and their types) applies to such descriptions
    only; then come the structural checks that every cover the package
    builds (catalog, doubling, products) passes too.  All violations are
    collected and reported together in a :class:`CoverValidationError`; a
    clean description returns the validated cover.  The involution may fix
    indices: every descriptor reads such a cover as it is, and only the
    flat classes refuse it (``FixedIndexPresent``).
    """
    from .coverfiles import _read

    return _checked(_read(raw.to_raw() if isinstance(raw, C2Cover) else raw))


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
    builders (:func:`double_fixed_indices`, products and joins) know it
    passed and do not check it again."""
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


def double_fixed_indices(raw) -> C2Cover:
    """Replace every involution-fixed index by a swapped pair of copies.

    Both copies denote the same underlying set, so every subset of new
    indices inherits the components of its set of underlying indices; in
    particular the pair {U, U'} of copies intersects in all of U.  ``raw``
    is a cover description, shape-checked as by :func:`validate_cover`, or
    a :class:`C2Cover`; either is checked as it stands, unless its check's
    rows are still in its memo (:func:`_checked`), and a free one is
    returned unchanged.  The doubled cover is checked in full, and refused
    at once if a component id of ``raw`` spells a doubled one.
    """
    if isinstance(raw, C2Cover):
        cover = raw
    else:
        from .coverfiles import _read

        cover = _read(raw)
    if _ROWS not in cover._memo:
        _checked(cover)
    indices, involution = cover.indices, cover.involution
    fixed = [i for i in indices if involution[i] == i]
    if not fixed:
        return cover
    faces, comp_inv = cover.faces, cover.component_involution

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


def _pair(i: str, j: str) -> str:
    return f"{i}*{j}"


_NERVE = ("intersections", "faces", "component_involution")


class _LazyNerveCover(C2Cover):
    """A product or a join whose first read of a nerve field builds the
    nerve (``nerves``, loaded then) and checks it, then makes the cover a plain :class:`C2Cover` (same
    slots), so later reads cost what they cost on any cover.  Each factor
    is checked unless it is a product or a join or its check's rows are
    still in its memo (:func:`_checked`); the indices must be distinct,
    else :class:`CoverValidationError`.  A factor may fix indices, and so
    may the cover."""

    __slots__ = ()

    def __init__(self, a: C2Cover, b: C2Cover, joined: bool, name: str, involution_name: str):
        for factor in (a, b):
            if not factor.factors and _ROWS not in factor._memo:  # a product or a join was checked when made
                _checked(factor)
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

    def __getattr__(self, name):
        # reached only for a slot not yet set: an unread nerve
        if name not in _NERVE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from .nerves import _nerve_of_join, _nerve_of_product

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
    check runs on it, on first read (``to_json``, the ordered cochains, a
    :class:`FlatCocycle` and its class, ``verify``), as
    :class:`_LazyNerveCover` says, by ``nerves._nerve_of_product``.
    """
    involution_name = f"{a.involution_name}*{b.involution_name}"
    return _LazyNerveCover(a, b, False, name or f"{a.name}*{b.name}", involution_name)


def join_cover(a: C2Cover, b: C2Cover, name: str | None = None) -> C2Cover:
    """Cover of the join ``A * B`` on the indices of both: ``U_I ∩ V_J`` is
    ``U_I × V_J × (0, 1)`` and ``U_I`` alone is ``U_I`` times a cone, so the
    nerve is the join of the nerves (``nerves._nerve_of_join``), good when
    both are; S^n is the join of n + 1 copies of S^0 (J. Milnor, Ann. of
    Math. 63, 1956).  Cohomology is read from the factors' models
    (``cechengine._join_model``), and the nerve stays lazy as a product's
    does.  The involution
    name is the factors' if they share one, else both joined by ``*``."""
    involution_name = a.involution_name
    if b.involution_name != involution_name:
        involution_name = f"{involution_name}*{b.involution_name}"
    return _LazyNerveCover(a, b, True, name or f"join({a.name},{b.name})", involution_name)


# the flat cocycles, defined in flatclasses
__getattr__ = moved_names(globals(), dict.fromkeys(("AngleLayout", "FlatCocycle"), "flatclasses"))
