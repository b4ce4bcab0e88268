"""Deligne-type descriptors over a cover with involution.

The descriptor of bidegree (p, q) has one of three shapes, decided by (p, q)
alone: a discrete group (p = 0, or q > p), an extension of a finite torsion
group by a torus (q < p, reported as a split product with an explicit flag),
or a quotient of an infinite-dimensional smooth part that is only carried
symbolically (q = p >= 1).

The classes of concrete flat cocycles (``flat_cocycle_class``,
``cocycles_equivalent``, ``FlatCocycleClass``, ``FlatClassCoordinates``)
live in ``flatclasses``, which no descriptor loads; their names resolve
here too, on first read (:func:`__getattr__`).
"""

from __future__ import annotations

from .cechengine import _degree, equivariant_cohomology
from .coverdata import IZ, C2Cover
from .errors import NotCompact
from .exactalg import GroupDescriptor, _whole
from .records import Record, moved_names

SMOOTH_PART_SYMBOL = "E^{p-1}/E^{p-1}_0(M)"

DISCRETE = "discrete"
COMPACT_EXTENSION = "compact_extension"
MIXED = "mixed"


class DeligneDescriptor(Record):
    """Structured value of the (p, q) group over a cover.

    ``rank``/``torsion`` describe the discrete group (discrete shape), the
    discrete quotient (mixed shape), or the finite part (compact extension,
    where ``rank`` is 0 and ``torus_dim`` counts circle factors).  A
    plain cohomology group is the discrete descriptor with ``p`` None.
    The shape is read off (p, q) (:attr:`shape`), and so are the flags a
    record reports with it: the smooth part is symbolic exactly in the
    mixed shape, and every compact extension is reported split.
    """

    __slots__ = (
        "space",
        "p",
        "q",
        "rank",
        "torsion",
        "torus_dim",
        "degrees_computed",
        "good_cover_asserted",
    )

    @property
    def shape(self) -> str:
        return _shape_of(self.p, self.q)

    @property
    def group(self) -> GroupDescriptor:
        """The finitely generated (sub)quotient carried by the descriptor."""
        return GroupDescriptor(self.rank, self.torsion)

    def to_record(self) -> dict:
        shape = self.shape
        return {
            "space": self.space,
            "p": self.p,
            "q": self.q,
            "shape": shape,
            "rank": self.rank,
            "torsion": list(self.torsion),
            "torus_dim": self.torus_dim,
            "smooth_part_symbolic": shape == MIXED,
            "degrees_computed": list(self.degrees_computed),
            "good_cover_asserted": self.good_cover_asserted,
        }

    def __str__(self):
        shape = self.shape
        if shape == DISCRETE:
            body = str(self.group)
        elif shape == MIXED:
            body = f"{SMOOTH_PART_SYMBOL} -> quotient {self.group}"
        else:
            tor = "".join(f" x Z/{d}" for d in self.torsion)
            body = f"torus_dim {self.torus_dim}{tor} (split assumed)"
        return f"H({self.p},{self.q})[{self.space}] = {shape}: {body}"


RESULT_RECORD_SCHEMA = {
    "type": "object",
    "properties": {
        "space": {"type": "string"},
        "p": {"type": ["integer", "null"], "minimum": 0},
        "q": {"type": "integer", "minimum": 0},
        "shape": {"enum": [DISCRETE, COMPACT_EXTENSION, MIXED]},
        "rank": {"type": "integer", "minimum": 0},
        "torsion": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "torus_dim": {"type": ["integer", "null"], "minimum": 0},
        "smooth_part_symbolic": {"type": "boolean"},
        "degrees_computed": {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 2,
            "maxItems": 2,
        },
        "good_cover_asserted": {"type": "boolean"},
    },
    "required": [
        "space",
        "q",
        "shape",
        "rank",
        "torsion",
        "torus_dim",
        "smooth_part_symbolic",
        "degrees_computed",
        "good_cover_asserted",
    ],
    "additionalProperties": True,
}


def _shape_of(p: int | None, q: int) -> str:
    """The shape of bidegree (p, q); a plain group (``p`` None) is discrete."""
    if not p or q > p:
        return DISCRETE
    if q == p:
        return MIXED
    return COMPACT_EXTENSION


def deligne_descriptor(cover: C2Cover, p: int, q: int) -> DeligneDescriptor:
    """The (p, q) descriptor, populated from twisted integral cohomology
    in degrees ``0 .. q``.

    For the compact-extension shape the torus dimension is the rank of
    integral H^(q-1), which is also the rational dimension: both are read
    off the same Smith diagonals.
    """
    p, q = _whole(p, "p", ValueError), _degree(q)
    if p < 0:
        raise ValueError("p must be nonnegative")
    meta = dict(space=cover.name, p=p, q=q, degrees_computed=(0, q), good_cover_asserted=cover.good)
    hq = equivariant_cohomology(cover, IZ, q, q + 1)
    if _shape_of(p, q) != COMPACT_EXTENSION:
        return DeligneDescriptor(rank=hq.rank, torsion=hq.torsion, torus_dim=None, **meta)
    # q < p: torus from degree q-1, finite part from the degree-q torsion
    return DeligneDescriptor(
        rank=0,
        torsion=hq.torsion,
        torus_dim=equivariant_cohomology(cover, IZ, q - 1, q).rank if q else 0,
        **meta,
    )


def classify_line_bundles(cover: C2Cover) -> GroupDescriptor:
    """Isomorphism classes of Real line bundles: integral H^2 with sign."""
    return equivariant_cohomology(cover, IZ, 2, 3)


def classify_line_bundles_with_connection(cover: C2Cover) -> DeligneDescriptor:
    """Real line bundles with Real connection: the (2, 2) mixed descriptor."""
    return deligne_descriptor(cover, 2, 2)


def classify_flat_line_bundles(cover: C2Cover) -> DeligneDescriptor:
    """Real line bundles with flat Real connection: the (3, 2) descriptor."""
    return deligne_descriptor(cover, 3, 2)


def real_circle_maps(cover: C2Cover) -> GroupDescriptor:
    """Homotopy classes of Real maps to the circle: integral H^1 with sign.

    Requires a compact space (the compact flag on the cover)."""
    if not cover.compact:
        raise NotCompact(
            f"cover {cover.name!r} is not flagged compact; "
            "circle-map classification needs compactness"
        )
    return equivariant_cohomology(cover, IZ, 1, 2)


def quotient_coefficients_cohomology(cover: C2Cover, k: int) -> DeligneDescriptor:
    """H^k with sign-twisted circle coefficients: the compact-extension
    descriptor ``(k + 2, k + 1)``, the same group for every ``p > k + 1``.
    By the connecting map, the free part of integral H^k feeds the torus
    (``torus_dim``) and the torsion of H^(k+1) is hit isomorphically
    (``torsion``), under the split assumption."""
    k = _degree(k)
    return deligne_descriptor(cover, k + 2, k + 1)


# the flat classes, defined in flatclasses
__getattr__ = moved_names(globals(), dict.fromkeys(
    ("FlatClassCoordinates", "FlatCocycleClass", "cocycles_equivalent", "flat_cocycle_class"), "flatclasses"))
