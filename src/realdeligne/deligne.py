"""Deligne-type descriptors over a cover with involution.

The descriptor of bidegree (p, q) has one of three shapes, decided by (p, q)
alone: a discrete group (p = 0, or q > p), an extension of a finite torsion
group by a torus (q < p, reported as a split product with an explicit flag),
or a quotient of an infinite-dimensional smooth part that is only carried
symbolically (q = p >= 1).

The flat classifier takes concrete locally constant transition angles,
lifts them equivariantly, reads off the integral obstruction class of the
lift's coboundary, and — when that vanishes — the torus coordinates, each
by one product with the cached coordinate rows of one complex, the ordered
orbit complex of sign -1.  It runs on integers, ``D`` times the rational
cochains for ``D`` the angles' least common denominator; Fractions appear
only in the angles that come in and the torus coordinates that go out.
"""

from __future__ import annotations

from fractions import Fraction

from .cechengine import _degree, _orbit_complex, _orbit_keys, equivariant_cohomology
from .coverdata import IZ, C2Cover, FlatCocycle
from .errors import (
    CoverMismatch,
    InternalInvariantError,
    InvalidCocycle,
    NotCompact,
)
from .exactalg import (
    GroupDescriptor,
    _cohomology_data,
    _whole,
    class_coordinates,
)
from .records import Record

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


# ---------------------------------------------------------------------------
# Concrete flat cocycles
# ---------------------------------------------------------------------------


class FlatClassCoordinates(Record):
    """Coordinates in the split flat group ``(R/Z)^d x torsion``.

    ``torus_part`` holds fractions in ``[0, 1)`` against the computed basis
    of the torus factor; it is None when the integral obstruction is nonzero
    (the class then sits outside the identity-component coordinates).
    """

    __slots__ = ("torus_part", "torsion_part")

    @property
    def is_zero(self) -> bool:
        return self.torus_part is not None and not any(self.torus_part) and not any(
            self.torsion_part
        )


class FlatCocycleClass(Record):
    """A flat class: its coordinates and its integral obstruction."""

    __slots__ = ("coords", "bockstein")

    @property
    def trivial(self) -> bool:
        return self.coords.is_zero


def flat_cocycle_class(fc: FlatCocycle) -> FlatCocycleClass:
    """Classify concrete flat transition angles on their cover.

    The rational equivariant lift's coboundary is an integral equivariant
    2-cocycle; its class is the integral obstruction.  When that class
    vanishes the lift differs from an integral cochain by an honest rational
    cocycle whose free coordinates, taken mod 1, locate the class on the
    torus.  ``trivial`` is the class's coordinates being zero.

    Everything is read on the ordered orbit complex of sign -1, in degrees
    0..2 only: the lift is built in its orbit coordinates, its coboundary is
    the orbit complex's ``d_1``, and the coordinates are one product each
    with that complex's cached rows: the checked obstruction through
    ``R_2``, the lift through ``R_1`` mod ``D`` (it differs from the
    rational cocycle by ``D`` times an integral cochain, and ``R_1`` is
    integral).  The angle table is checked (:meth:`FlatCocycle.validate`)
    and read once.
    """
    return _flat_class(fc.cover, *fc._checked_angles())


def _flat_class(cover: C2Cover, den: int, table: dict) -> FlatCocycleClass:
    """The class of a checked integer angle table ``table`` over ``den``
    (:meth:`FlatCocycle._checked_angles` or ``_checked_difference``); see
    :func:`flat_cocycle_class`.  Scaling ``den`` and the table by ``m``
    scales the lift and its coboundary by ``m`` and leaves the obstruction
    and the torus coordinates as they are."""
    sub, _ = _orbit_complex(cover, IZ.sign)
    # D times a rational lift of the angles, fixed on the nose, in orbit
    # coordinates: the angle at each orbit's representative
    # (:func:`_orbit_keys`), its partner taking minus that.  An equivariant
    # table has minus that angle at the partner up to an integer, so the
    # lift differs from the table by D times an integral cochain
    lift = [table[key] for key in _orbit_keys(cover)]
    # the coboundary of a fixed cochain is fixed, so its entries at the
    # orbit representatives, its orbit coordinates, decide integrality
    raw = sub.diff(1).matvec(lift)
    if any(x % den for x in raw):
        raise InvalidCocycle(
            "coboundary of the lift is not integral; the angle data "
            "violates the cocycle condition"
        )
    bockstein = class_coordinates(sub, 2, [x // den for x in raw])
    if any(bockstein.free_part):
        raise InternalInvariantError("obstruction class of a flat cocycle must be torsion")

    torsion_part = tuple(bockstein.torsion_part)
    if any(torsion_part):
        coords = FlatClassCoordinates(torus_part=None, torsion_part=torsion_part)
        return FlatCocycleClass(coords=coords, bockstein=bockstein)

    # obstruction vanishes: the torus part is the lift's R_1 reading mod D
    data = _cohomology_data(sub, 1)
    free = data["rows"].matvec(lift)[: len(data["free_pos"])]
    torus = tuple(Fraction(x % den, den) for x in free)
    coords = FlatClassCoordinates(torus_part=torus, torsion_part=torsion_part)
    return FlatCocycleClass(coords=coords, bockstein=bockstein)


def cocycles_equivalent(a: FlatCocycle, b: FlatCocycle) -> bool:
    """True when the two angle systems differ by an equivariant coboundary.

    This is ``flat_cocycle_class(a - b).trivial``, with the same
    :class:`InvalidCocycle` messages as ``(a - b).validate()`` (key sets are
    checked for ``a``, then ``b``), read from the two integer angle tables
    over the lcm of their denominators: no Fraction difference and no
    :class:`FlatCocycle` is formed.
    """
    if a.cover is not b.cover:
        raise CoverMismatch("cocycles live on different covers")
    return _flat_class(a.cover, *a._checked_difference(b)).trivial
