"""Builders for the standard covers with involution.

Every entry is constructed combinatorially (no geometry at runtime), passes
full validation, and carries the expected nonequivariant Betti signature of
the underlying space as a sanity anchor.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .coverdata import C2Cover, double_fixed_indices, product_cover, validate_cover
from .errors import UnknownSpace, UnsupportedDimension


def _point_raw(copies: int, name: str) -> dict:
    """Raw one-point cover given by ``copies`` identical sets, all fixed by
    the involution (doubling turns them into swapped pairs)."""
    names = [f"U{k}" for k in range(copies)] if copies > 1 else ["U"]
    subsets = []
    for mask in range(1, 1 << copies):
        chosen = [names[k] for k in range(copies) if mask >> k & 1]
        subsets.append(sorted(chosen))
    subsets.sort(key=lambda s: (len(s), s))
    comp = {tuple(s): "c" + "".join(x[1:] or "0" for x in s) for s in subsets}
    faces = []
    for s in subsets:
        if len(s) < 2:
            continue
        for i in s:
            smaller = [x for x in s if x != i]
            faces.append(
                {"component": comp[tuple(s)], "drop": i, "in_component": comp[tuple(smaller)]}
            )
    return {
        "name": name,
        "involution_name": "trivial",
        "indices": names,
        "involution": {n: n for n in names},
        "intersections": [{"sets": s, "components": [comp[tuple(s)]]} for s in subsets],
        "faces": faces,
        "component_involution": {c: c for c in comp.values()},
        "good": True,
        "compact": True,
    }


def _circle_arcs(count: int, name: str) -> C2Cover:
    """Circle covered by ``count`` open arcs, the involution rotating by
    half a turn (the antipodal map); only adjacent arcs meet, in one piece.

    ``count`` must be even and at least 4 so that the rotation is free and
    opposite arcs stay disjoint.
    """
    names = [f"a{k}" for k in range(count)]
    half = count // 2
    involution = {names[k]: names[(k + half) % count] for k in range(count)}
    subsets = [{"sets": [n], "components": [f"c{k}"] } for k, n in enumerate(names)]
    comp_pair = {}
    for k in range(count):
        pair = sorted([names[k], names[(k + 1) % count]])
        comp_pair[k] = f"c{k}{(k + 1) % count}"
        subsets.append({"sets": pair, "components": [comp_pair[k]]})
    faces = []
    for k in range(count):
        faces.append({"component": comp_pair[k], "drop": names[k], "in_component": f"c{(k + 1) % count}"})
        faces.append({"component": comp_pair[k], "drop": names[(k + 1) % count], "in_component": f"c{k}"})
    comp_inv = {f"c{k}": f"c{(k + half) % count}" for k in range(count)}
    for k in range(count):
        comp_inv[comp_pair[k]] = comp_pair[(k + half) % count]
    return validate_cover(
        {
            "name": name,
            "involution_name": "antipodal",
            "indices": names,
            "involution": involution,
            "intersections": subsets,
            "faces": faces,
            "component_involution": comp_inv,
            "good": True,
            "compact": True,
        }
    )


def _conjugation_circle_raw() -> dict:
    """Circle with complex conjugation: invariant caps P (around +1) and
    Q (around -1), swapped open arcs A (upper half) and B (lower half)."""
    return {
        "name": "circle_conjugation",
        "involution_name": "conjugation",
        "indices": ["P", "Q", "A", "B"],
        "involution": {"P": "P", "Q": "Q", "A": "B", "B": "A"},
        "intersections": [
            {"sets": ["A"], "components": ["a"]},
            {"sets": ["B"], "components": ["b"]},
            {"sets": ["P"], "components": ["p"]},
            {"sets": ["Q"], "components": ["q"]},
            {"sets": ["A", "P"], "components": ["pa"]},
            {"sets": ["A", "Q"], "components": ["qa"]},
            {"sets": ["B", "P"], "components": ["pb"]},
            {"sets": ["B", "Q"], "components": ["qb"]},
        ],
        "faces": [
            {"component": "pa", "drop": "A", "in_component": "p"},
            {"component": "pa", "drop": "P", "in_component": "a"},
            {"component": "pb", "drop": "B", "in_component": "p"},
            {"component": "pb", "drop": "P", "in_component": "b"},
            {"component": "qa", "drop": "A", "in_component": "q"},
            {"component": "qa", "drop": "Q", "in_component": "a"},
            {"component": "qb", "drop": "B", "in_component": "q"},
            {"component": "qb", "drop": "Q", "in_component": "b"},
        ],
        "component_involution": {
            "a": "b", "b": "a", "p": "p", "q": "q",
            "pa": "pb", "pb": "pa", "qa": "qb", "qb": "qa",
        },
        "good": True,
        "compact": True,
    }


def _sphere_antipodal(n: int = 2) -> C2Cover:
    """Sphere of dimension ``n`` covered by the 2(n+1) open hemispheres
    x_i > 0 and x_i < 0, with the antipodal involution.

    Any family of hemispheres avoiding an antipodal pair meets in a convex
    (hence contractible, connected) lens, so the intersection poset is the
    boundary complex of the cross-polytope; an antipodal pair is disjoint.
    """
    if not isinstance(n, int):
        raise UnsupportedDimension(f"sphere dimension must be an integer, got {n!r}")
    if n < 0:
        raise UnsupportedDimension("sphere dimension must be nonnegative")
    if n > 3:
        raise UnsupportedDimension(
            f"sphere dimension {n} exceeds the supported desk-scale bound of 3"
        )
    caps = []
    for i in range(n + 1):
        caps.append(f"x{i}+")
        caps.append(f"x{i}-")
    axis = {c: c[:-1] for c in caps}
    opposite = {f"x{i}+": f"x{i}-" for i in range(n + 1)}
    opposite.update({v: k for k, v in opposite.items()})

    def comp_id(subset):
        return "|".join(sorted(subset))

    subsets = []
    for mask in range(1, 1 << len(caps)):
        chosen = [caps[k] for k in range(len(caps)) if mask >> k & 1]
        if len({axis[c] for c in chosen}) != len(chosen):
            continue  # contains an antipodal pair; empty intersection
        subsets.append(sorted(chosen))
    subsets.sort(key=lambda s: (len(s), s))

    faces = []
    for s in subsets:
        if len(s) < 2:
            continue
        for i in s:
            smaller = [x for x in s if x != i]
            faces.append(
                {"component": comp_id(s), "drop": i, "in_component": comp_id(smaller)}
            )
    comp_inv = {comp_id(s): comp_id([opposite[x] for x in s]) for s in subsets}
    return validate_cover(
        {
            "name": f"sphere_antipodal_{n}",
            "involution_name": "antipodal",
            "indices": caps,
            "involution": opposite,
            "intersections": [{"sets": s, "components": [comp_id(s)]} for s in subsets],
            "faces": faces,
            "component_involution": comp_inv,
            "good": True,
            "compact": True,
        }
    )


@dataclass(frozen=True)
class CatalogEntry:
    """A named space: builder arguments, expected plain Betti numbers
    (ranks of H^k with integer coefficients, degrees 0..len-1), and flags."""

    name: str
    betti: tuple
    compact: bool
    free_action: bool
    params: tuple = ()

    def build(self) -> C2Cover:
        return build(self.name, *self.params)


_FREE_ORBIT = {
    "name": "free_orbit",
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
    "compact": True,
}


def _torus(*factors) -> C2Cover:
    """Product of the named catalog covers, two antipodal circles by default."""
    factors = factors or ("circle_antipodal", "circle_antipodal")
    out = build(factors[0])
    for pos, nxt in enumerate(factors[1:]):
        label = "torus(" + ",".join(map(str, factors)) + ")" if pos == len(factors) - 2 else None
        out = product_cover(out, build(nxt), name=label)
    return out


# each builder takes exactly the parameters its catalog name accepts
_BUILDERS = {
    "point_trivial": lambda: double_fixed_indices(_point_raw(1, "point_trivial")),
    "point_trivial_fine": lambda: double_fixed_indices(_point_raw(2, "point_trivial_fine")),
    "free_orbit": lambda: validate_cover(_FREE_ORBIT),
    "circle_antipodal": lambda: _circle_arcs(4, "circle_antipodal"),
    "circle_antipodal_fine": lambda: _circle_arcs(8, "circle_antipodal_fine"),
    "circle_conjugation": lambda: double_fixed_indices(_conjugation_circle_raw()),
    "sphere_antipodal": _sphere_antipodal,
    "torus": _torus,
}


def build(name: str, *params) -> C2Cover:
    """Construct a validated catalog cover by name; only ``sphere_antipodal``
    (its dimension, 2 by default) and ``torus`` (its factors' names) take
    parameters.  Raises :class:`UnknownSpace` for unknown names and
    :class:`UnsupportedDimension` for parameters a space does not take and
    sphere dimensions that are not integers or in range."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownSpace(f"no catalog space named {name!r}")
    try:
        if params:  # every builder can be called with none
            inspect.signature(builder).bind(*params)
    except TypeError:
        raise UnsupportedDimension(f"too many parameters for catalog space {name!r}: {len(params)}") from None
    return builder(*params)


ENTRIES = (
    CatalogEntry("point_trivial", betti=(1, 0, 0), compact=True, free_action=False),
    CatalogEntry("point_trivial_fine", betti=(1, 0, 0), compact=True, free_action=False),
    CatalogEntry("free_orbit", betti=(2, 0, 0), compact=True, free_action=True),
    CatalogEntry("circle_antipodal", betti=(1, 1, 0), compact=True, free_action=True),
    CatalogEntry("circle_antipodal_fine", betti=(1, 1, 0), compact=True, free_action=True),
    CatalogEntry("circle_conjugation", betti=(1, 1, 0), compact=True, free_action=False),
    CatalogEntry("sphere_antipodal", betti=(1, 1, 0), compact=True, free_action=True, params=(1,)),
    CatalogEntry("sphere_antipodal", betti=(1, 0, 1), compact=True, free_action=True, params=(2,)),
)

REFINEMENT_PAIRS = (
    ("point_trivial", "point_trivial_fine"),
    ("circle_antipodal", "circle_antipodal_fine"),
)


def entry_label(e: CatalogEntry) -> str:
    return e.name + (f"({', '.join(map(str, e.params))})" if e.params else "")
