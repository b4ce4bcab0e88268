"""Builders for the standard covers with involution.

Every entry is constructed combinatorially (no geometry at runtime) as a
cover's parts, passes every structural check of
:func:`~realdeligne.coverdata.validate_cover` (the JSON shape check is for
descriptions read from outside), and carries the expected nonequivariant
Betti signature of the underlying space as a sanity anchor.
"""

from __future__ import annotations

from .coverdata import C2Cover, _checked, double_fixed_indices, join_cover, product_cover
from .errors import UnknownSpace, UnsupportedDimension
from .exactalg import _whole
from .records import Record


def _one_piece(name: str, involution_name: str, involution: dict, piece: dict) -> C2Cover:
    """The unchecked cover on the indices of ``involution`` whose nonempty
    intersections are the subsets keying ``piece``, each in one piece named
    ``piece[subset]``: dropping an index lands in the piece of the smaller
    subset, and the involution sends a piece to the piece of the image."""
    return C2Cover(
        name=name,
        involution_name=involution_name,
        indices=tuple(involution),
        involution=involution,
        intersections={s: (c,) for s, c in piece.items()},
        faces={(c, i): piece[s - {i}] for s, c in piece.items() if len(s) > 1 for i in s},
        component_involution={c: piece[frozenset(map(involution.get, s))] for s, c in piece.items()},
        good=True,
        compact=True,
    )


def _point(copies: int, name: str) -> C2Cover:
    """One-point cover given by ``copies`` identical sets, all fixed by the
    involution (doubling turns them into swapped pairs)."""
    names = [f"U{k}" for k in range(copies)] if copies > 1 else ["U"]
    piece = {}
    for mask in range(1, 1 << copies):
        chosen = [names[k] for k in range(copies) if mask >> k & 1]
        piece[frozenset(chosen)] = "c" + "".join(x[1:] or "0" for x in chosen)
    return _one_piece(name, "trivial", {n: n for n in names}, piece)


def _circle_arcs(count: int, name: str) -> C2Cover:
    """Circle covered by ``count`` open arcs, the involution rotating by
    half a turn (the antipodal map); only adjacent arcs meet, in one piece.

    ``count`` must be even and at least 4 so that the rotation is free and
    opposite arcs stay disjoint.
    """
    names = [f"a{k}" for k in range(count)]
    involution = {names[k]: names[(k + count // 2) % count] for k in range(count)}
    piece = {frozenset([n]): f"c{k}" for k, n in enumerate(names)}
    for k in range(count):
        piece[frozenset([names[k], names[(k + 1) % count]])] = f"c{k}{(k + 1) % count}"
    return _checked(_one_piece(name, "antipodal", involution, piece))


def _conjugation_circle() -> C2Cover:
    """Circle with complex conjugation: invariant caps P (around +1) and
    Q (around -1), swapped open arcs A (upper half) and B (lower half)."""
    piece = {
        frozenset(sets): c  # one-letter index names: "AP" is {A, P}
        for sets, c in (("A", "a"), ("B", "b"), ("P", "p"), ("Q", "q"),
                        ("AP", "pa"), ("AQ", "qa"), ("BP", "pb"), ("BQ", "qb"))
    }
    involution = {"P": "P", "Q": "Q", "A": "B", "B": "A"}
    return _one_piece("circle_conjugation", "conjugation", involution, piece)


def _antipodal_join(n: int) -> C2Cover:
    """The antipodal ``n``-sphere, for any ``n``, as the join of ``n + 1``
    checked two-point covers ``{x_i+, x_i-}``, axis 0 first; the join of
    axes ``0 .. i`` is named ``sphere_antipodal_i``."""
    out = None
    for i in range(n + 1):
        plus, minus = f"x{i}+", f"x{i}-"
        pair = _checked(_one_piece("sphere_antipodal_0", "antipodal", {plus: minus, minus: plus},
                                   {frozenset([plus]): plus, frozenset([minus]): minus}))
        out = pair if out is None else join_cover(out, pair, name=f"sphere_antipodal_{i}")
    return out


def _sphere_antipodal(n: int = 2) -> C2Cover:
    """Sphere of dimension ``n`` covered by the 2(n+1) open hemispheres
    x_i > 0 and x_i < 0, with the antipodal involution.

    Any family of hemispheres avoiding an antipodal pair meets in a convex
    (hence contractible, connected) lens, so the intersection poset is the
    boundary complex of the cross-polytope; an antipodal pair is disjoint.
    It is the join of the n + 1 pairs ``{x_i+, x_i-}``, so the cover is that
    join (:func:`_antipodal_join`), answering from its factors; its nerve
    is built and checked when read.  The dimension is read as every degree
    is (:func:`exactalg._whole`).
    """
    n = _whole(n, "sphere dimension", UnsupportedDimension)
    if n < 0:
        raise UnsupportedDimension("sphere dimension must be nonnegative")
    if n > 3:
        raise UnsupportedDimension(
            f"sphere dimension {n} exceeds the supported desk-scale bound of 3"
        )
    return _antipodal_join(n)


class CatalogEntry(Record):
    """A named space: builder arguments, expected plain Betti numbers
    (ranks of H^k with integer coefficients, degrees 0..len-1), and flags."""

    __slots__ = ("name", "betti", "compact", "free_action", "params")

    def build(self) -> C2Cover:
        return build(self.name, *self.params)


def _torus(*factors) -> C2Cover:
    """Product of the named catalog covers, two antipodal circles by default."""
    factors = factors or ("circle_antipodal", "circle_antipodal")
    out = build(factors[0])
    for pos, nxt in enumerate(factors[1:]):
        label = "torus(" + ",".join(map(str, factors)) + ")" if pos == len(factors) - 2 else None
        out = product_cover(out, build(nxt), name=label)
    return out


# each builder takes the parameters its catalog name accepts (see
# _parameter_error for how many)
_BUILDERS = {
    "point_trivial": lambda: double_fixed_indices(_point(1, "point_trivial")),
    "point_trivial_fine": lambda: double_fixed_indices(_point(2, "point_trivial_fine")),
    "free_orbit": lambda: _checked(
        _one_piece("free_orbit", "swap", {"a": "b", "b": "a"}, {frozenset(["a"]): "ca", frozenset(["b"]): "cb"})
    ),
    "circle_antipodal": lambda: _circle_arcs(4, "circle_antipodal"),
    "circle_antipodal_fine": lambda: _circle_arcs(8, "circle_antipodal_fine"),
    "circle_conjugation": lambda: double_fixed_indices(_conjugation_circle()),
    "sphere_antipodal": _sphere_antipodal,
    "torus": _torus,
}


def _parameter_error(name: str, count: int) -> str | None:
    """Why catalog space ``name`` does not take ``count`` parameters, or
    None when it does: a sphere takes its dimension or nothing, a torus no
    factors (its default) or two or more, every other space nothing."""
    if name == "torus":
        return "a torus takes two or more factors, got 1" if count == 1 else None
    if count > (1 if name == "sphere_antipodal" else 0):
        return f"too many parameters for catalog space {name!r}: {count}"
    return None


def build(name: str, *params) -> C2Cover:
    """Construct a validated catalog cover by name; only ``sphere_antipodal``
    (its dimension, 2 by default) and ``torus`` (the names of two or more
    factors) take parameters.  Raises :class:`UnknownSpace` for unknown
    names and :class:`UnsupportedDimension` for parameter counts a space
    does not take and sphere dimensions that are not integers or in
    range."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownSpace(f"no catalog space named {name!r}")
    error = _parameter_error(name, len(params))
    if error:
        raise UnsupportedDimension(error)
    return builder(*params)


ENTRIES = (
    CatalogEntry("point_trivial", betti=(1, 0, 0), compact=True, free_action=False, params=()),
    CatalogEntry("point_trivial_fine", betti=(1, 0, 0), compact=True, free_action=False, params=()),
    CatalogEntry("free_orbit", betti=(2, 0, 0), compact=True, free_action=True, params=()),
    CatalogEntry("circle_antipodal", betti=(1, 1, 0), compact=True, free_action=True, params=()),
    CatalogEntry("circle_antipodal_fine", betti=(1, 1, 0), compact=True, free_action=True, params=()),
    CatalogEntry("circle_conjugation", betti=(1, 1, 0), compact=True, free_action=False, params=()),
    CatalogEntry("sphere_antipodal", betti=(1, 1, 0), compact=True, free_action=True, params=(1,)),
    CatalogEntry("sphere_antipodal", betti=(1, 0, 1), compact=True, free_action=True, params=(2,)),
)

REFINEMENT_PAIRS = (
    ("point_trivial", "point_trivial_fine"),
    ("circle_antipodal", "circle_antipodal_fine"),
)


def entry_label(e: CatalogEntry) -> str:
    return e.name + (f"({', '.join(map(str, e.params))})" if e.params else "")
