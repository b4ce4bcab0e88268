"""Flat classes: concrete flat transition angles on a cover, the class of
such angles in the split flat group, the ordered cochain complex it is
read on, and the class coordinates of a cochain complex.

*Ordered cochains* ``C_ord`` live on ordered index tuples, normalized by
dropping tuples with two equal consecutive entries; the tuple involution
is free when the index involution is, so the fixed complex has one orbit
sum ``e + sign * t(e)`` per orbit, read off the representative rows
of the full coboundary (the induced-module picture; K. S. Brown,
*Cohomology of Groups*, §III.5).  The flat classifier takes its torus and
torsion coordinates against this complex's Smith bases, and ``verify``
keeps it as the independent cross-check of the descriptor route, which
reads the alternating cochains ``C_alt`` (``cechengine``).  The two
agree: ``C_alt -> C_ord`` (extend by the sort sign, zero on repeats) is an
equivariant quasi-isomorphism (Serre, FAC §20), ``Hom_C2(W, -)`` preserves
it, and ``C_ord`` is degreewise Z[C2]-free, so ``Hom_C2(W, C_ord)`` is
quasi-isomorphic to the orbit complex ``C_ord^{C2}``.

The flat classifier takes concrete locally constant transition angles,
lifts them equivariantly, reads off the integral obstruction class of the
lift's coboundary, and — when that vanishes — the torus coordinates, each
by one product with the cached coordinate rows of one complex, the ordered
orbit complex of sign -1.  It runs on integers, ``D`` times the rational
cochains for ``D`` the angles' least common denominator; Fractions appear
only in the angles that come in and the torus coordinates that go out.

The coordinate questions on a complex (:func:`class_coordinates`,
:func:`coboundary_preimage`, :func:`class_representative`) take their
basis from plain Smith reductions with transforms, built on the first
question for a degree and cached on the complex (:func:`_cohomology_data`).

No descriptor reads any of this, so no CLI command loads this module.
Its public names also resolve, on first read, where they were defined
before: ``cechengine`` (the ordered cochains), ``coverdata``
(:class:`FlatCocycle`, :class:`AngleLayout`), ``exactalg`` (the
coordinate questions), ``deligne`` (the flat classes) and the package
itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from weakref import ref

from .cechengine import _growing
from .coverdata import IZ, C2Cover, CoefficientSystem, _per_cover
from .errors import (FIXED_INDEX_PRESENT, CoverMismatch, CoverValidationError, DegreeOutOfRange, InternalInvariantError,
                     InvalidCocycle, NotACocycle)
from .exactalg import (
    ElementCoordinates,
    IntegerCochainComplex,
    SparseIntMatrix,
    _grow_orbit_complex,
    _smith,
    _whole,
)
from .records import Record

# ---------------------------------------------------------------------------
# Ordered cochains
# ---------------------------------------------------------------------------


def _carried(c: IntegerCochainComplex, max_degree: int) -> IntegerCochainComplex:
    if _whole(max_degree, "max_degree") < 0:
        raise DegreeOutOfRange("max_degree must be nonnegative")
    c.rank(max_degree)
    return c


def _cover_of(cover_ref) -> C2Cover:
    cover = cover_ref()
    if cover is None:
        raise DegreeOutOfRange("the complex's cover is gone, so it cannot grow")
    return cover


class TupleBasis(Record):
    """Ordered basis of the degree-``p`` cochain space of a cover.

    Elements are pairs ``(tuple, component)`` listed lexicographically by
    index name and then component id, so positions are reproducible.
    """

    __slots__ = ("degree", "elements", "position")

    def __len__(self):
        return len(self.elements)


@_per_cover
def tuple_basis(cover: C2Cover, p: int) -> TupleBasis:
    """Basis of degree-``p`` cochains: tuples of ``p + 1`` indices whose
    support intersects, no two consecutive entries equal, one element per
    component."""
    order = sorted(cover.indices)
    # prefixes grown one entry at a time stay in lexicographic order.  No
    # self-calling nested function here: its closure is a reference cycle
    # that would keep the cover, and so its cache, alive until the cyclic
    # garbage collector runs
    prefixes = [((), frozenset())]
    for _ in range(p + 1):
        longer = []
        for tup, support in prefixes:
            for i in order:
                if tup and tup[-1] == i:
                    continue
                if i in support:
                    longer.append((tup + (i,), support))
                elif (grown := support | {i}) in cover.intersections:
                    longer.append((tup + (i,), grown))
        prefixes = longer
    elements = [
        (tup, c) for tup, support in prefixes for c in sorted(cover.components_of(support))
    ]
    return TupleBasis(p, tuple(elements), {e: n for n, e in enumerate(elements)})


@_per_cover
def cech_differential(cover: C2Cover, p: int) -> SparseIntMatrix:
    """Coboundary matrix from degree ``p`` to degree ``p + 1``.

    Entry rule: the value on a target tuple is the alternating sum over
    deletions of one entry, transported along the face map when the deleted
    entry was the last occurrence of its index.  Deletions producing a tuple
    outside the basis (a degenerate one) contribute nothing.  Deleting
    positions ``a < b`` gives the same tuple only when entries ``a .. b``
    are all equal, which no basis tuple has, so each entry is written once.
    """
    src = tuple_basis(cover, p)
    dst = tuple_basis(cover, p + 1)
    m = SparseIntMatrix(len(dst), len(src))
    for r, (tup, c) in enumerate(dst.elements):
        row = m.rows[r]
        for k in range(len(tup)):
            sub = tup[:k] + tup[k + 1 :]
            if tup[k] in sub:
                c2 = c  # support unchanged; same component
            else:
                c2 = cover.face(c, tup[k])
            col = src.position.get((sub, c2))
            if col is None:
                continue
            row[col] = -1 if k % 2 else 1
    return m


@_per_cover
def basis_involution(cover: C2Cover, p: int) -> list:
    """The index/component involution on degree-``p`` basis positions:
    entry ``pos`` is the position of the image of element ``pos``."""
    basis = tuple_basis(cover, p)
    inv = cover.involution.__getitem__
    sigma = cover.component_involution
    return [basis.position[(tuple(map(inv, tup)), sigma[c])] for tup, c in basis.elements]


def involution_matrix(cover: C2Cover, p: int, sign: int) -> SparseIntMatrix:
    """Action of the involution on degree-``p`` cochains: permute basis
    elements by the index/component involution, times the coefficient sign."""
    perm = basis_involution(cover, p)
    return SparseIntMatrix(len(perm), len(perm), [{j: sign} for j in perm])


@_per_cover
def _full_complex(cover: C2Cover) -> IntegerCochainComplex:
    cover_ref = ref(cover)
    return _growing(
        len(tuple_basis(cover, 0)), lambda n: cech_differential(_cover_of(cover_ref), n)
    )


def build_full_complex(cover: C2Cover, max_degree: int) -> IntegerCochainComplex:
    """The plain (non-equivariant) normalized cochain complex, carried in
    degrees ``0 .. max_degree`` at least: one per cover, grown in place."""
    return _carried(_full_complex(cover), max_degree)


def _require_free(cover: C2Cover) -> None:
    """Refuse a cover whose index involution fixes an index, with one
    violation per fixed index: a fixed index makes a fixed tuple, which
    has no orbit sum.  The descriptors read such a cover as it is."""
    fixed = [i for i in cover.indices if cover.involution[i] == i]
    if fixed:
        message = "index {!r} is fixed by the involution; apply double_fixed_indices to obtain a free cover"
        raise CoverValidationError([(FIXED_INDEX_PRESENT, message.format(i)) for i in fixed])


@_per_cover
def _orbit_complex(cover: C2Cover, sign: int):
    _require_free(cover)
    cover_ref = ref(cover)

    def action(k):
        perm = basis_involution(_cover_of(cover_ref), k)
        return perm, [1] * len(perm)

    return _grow_orbit_complex(_full_complex(cover), action, sign)


@_per_cover
def _orbit_keys(cover: C2Cover) -> tuple:
    """The angle key ``(i, j, c)`` of each orbit's representative in the
    sign -1 orbit complex's degree-1 basis, in orbit order: the later
    element of the orbit, whose entry is the orbit coordinate
    (``exactalg._orbit_basis``), where :func:`_flat_class` reads it."""
    keys = [(i, j, c) for (i, j), c in tuple_basis(cover, 1).elements]
    return tuple(keys[r] for r, pos in enumerate(basis_involution(cover, 1)) if pos < r)


def build_equivariant_complex(cover: C2Cover, coeff: CoefficientSystem, max_degree: int):
    """Integral complex of equivariant cochains, with its embedding.

    Returns ``(sub, bases)`` where ``bases[k]`` embeds the fixed basis into
    the full degree-``k`` cochain space.  The basis has one orbit sum
    ``e_r + sign * e_t(r)`` per orbit of the (free) basis involution, with
    ``r`` the later position of the pair, and the fixed differential is read
    off the representative rows of the full coboundary; no Smith reduction
    is involved.  There is one pair per cover and sign, carried to degree
    ``max_degree`` at least; reading ``sub`` further grows both.  The
    involution is checked to be free, to square to the identity and to
    commute with the coboundary once per degree, when that degree is first
    built.  The coefficient base is ignored here — this is the integral
    model, and rational or mod-n answers are derived from it downstream.
    """
    fixed = _orbit_complex(cover, coeff.sign)
    _carried(fixed[0], max_degree)
    return fixed



# ---------------------------------------------------------------------------
# Class coordinates of a cochain complex
# ---------------------------------------------------------------------------


def _cohomology_data(c: IntegerCochainComplex, k: int):
    """Kernel basis, its left inverse and the Smith reduction of
    ``left @ d_(k-1)``, with transforms: the class coordinates' basis.

    ``kernel`` is saturated and ``d_(k-1)`` lands in it, so expressing its
    columns in the kernel basis is one sparse product with the left-inverse
    rows, no solving required.  ``rows`` is ``R_k``, the rows of ``u @
    left`` at the free positions, then at the torsion positions, for ``u``
    the Smith row transform: one product with it reads a cocycle's
    coordinates."""
    key = ("cohomology", k)
    hit = c._cache.get(key)
    if hit is not None:
        return hit
    a_smith = _smith(c.diff(k), rows=False)
    ker, left = a_smith.kernel_basis(), a_smith.kernel_left_inverse()
    x_smith = _smith(left.matmul(c.diff(k - 1)), transforms=True)
    diag = x_smith.diag
    free_pos = [i for i in range(ker.ncols) if i >= len(diag) or diag[i] == 0]
    torsion_pos = [(i, d) for i, d in enumerate(diag) if d >= 2]
    u = x_smith.u
    rows = [u.rows[i] for i in free_pos + [i for i, _ in torsion_pos]]
    hit = c._cache[key] = {
        "kernel": ker,
        "left": left,
        "x_smith": x_smith,
        "free_pos": free_pos,
        "torsion_pos": torsion_pos,
        "rows": SparseIntMatrix(len(rows), u.ncols, rows).matmul(left),
    }
    return hit


def _kernel_coordinates(c: IntegerCochainComplex, k: int, cocycle):
    """Check that the flat sequence ``cocycle`` is a cocycle of ``c`` in
    degree ``k``; return the degree's coordinate data and the cocycle's
    coordinates against its kernel basis.

    The check reads the kernel coordinates ``w = L v`` it returns anyway:
    ``v`` is a cocycle exactly when ``K w == v``, for ``K`` the saturated
    kernel basis and ``L`` its left inverse.  If ``d_k v == 0``, ``v`` is in
    the span of ``K`` (over Q too: the basis of a lattice spans its rational
    span), so ``w`` is its coordinate vector; if ``K w == v``, ``v`` lies in
    the image of ``K``, inside the kernel.  So integer and Fraction vectors
    are checked exactly, at the cost of ``nnz(K)``, not of ``nnz(d_k)``.
    """
    c._require(k)
    v = list(cocycle)
    if len(v) != c.rank(k):
        raise NotACocycle(f"vector has length {len(v)}, expected {c.rank(k)}")
    data = _cohomology_data(c, k)
    w = data["left"].matvec(v)
    if data["kernel"].matvec(w) != v:
        raise NotACocycle("vector is not annihilated by the differential")
    return data, w


def _integral_kernel_coordinates(c: IntegerCochainComplex, k: int, cocycle):
    """:func:`_kernel_coordinates` of a cocycle that must be integral.
    ``v = K w`` is integral exactly when ``w`` is, so a closed vector with
    a fractional kernel coordinate raises ValueError."""
    data, w = _kernel_coordinates(c, k, cocycle)
    if any(x % 1 for x in w):
        raise ValueError("class coordinates are taken on integral cocycles only")
    return data, w


def class_coordinates(c: IntegerCochainComplex, k: int, cocycle) -> ElementCoordinates:
    """Coordinates of an integral cocycle's class, deterministically.

    The basis is the one produced by the Smith reductions with transforms
    in ``_cohomology_data``, made on the first coordinate question for
    degree ``k`` and kept, so repeated calls against the same complex are
    mutually consistent.  A vector of the wrong length or outside the
    kernel of ``d_k`` raises :class:`NotACocycle`, and a closed vector
    that is not integral raises ValueError; both are tested on the kernel
    coordinates (:func:`_kernel_coordinates`), never with a product by
    ``d_k``.  The coordinates are then one product with the cached rows
    ``R_k`` of ``u @ left``, read as ints (an integral cocycle given as
    Fractions reads the same), torsion entries reduced mod their orders.
    """
    v = list(cocycle)
    data, _ = _integral_kernel_coordinates(c, k, v)
    y = list(map(int, data["rows"].matvec(v)))
    nfree = len(data["free_pos"])
    torsion = tuple(x % d for x, (_, d) in zip(y[nfree:], data["torsion_pos"]))
    return ElementCoordinates(tuple(y[:nfree]), torsion)


def coboundary_preimage(c: IntegerCochainComplex, k: int, cocycle):
    """An integral ``x`` with ``d_(k-1) @ x == cocycle``, or None when the
    cocycle's class is nonzero.  Checks the cocycle, and its integrality,
    as :func:`class_coordinates` does.

    In kernel coordinates ``w`` the preimage solves ``(left @ d_(k-1)) x ==
    w``, whose Smith reduction is the one behind the coordinates; it is
    solvable exactly when every coordinate vanishes."""
    data, w = _integral_kernel_coordinates(c, k, cocycle)
    x_smith = data["x_smith"]
    return x_smith.back_solve(x_smith.u.matvec(w), rational=False)


def class_representative(c: IntegerCochainComplex, k: int, coords: ElementCoordinates):
    """An integral cocycle, as a list, whose class has the given coordinates.
    Coordinates of the wrong count, or not integers, raise ValueError."""
    c._require(k)
    data = _cohomology_data(c, k)
    want = (len(data["free_pos"]), len(data["torsion_pos"]))
    if (len(coords.free_part), len(coords.torsion_part)) != want:
        raise ValueError(f"coordinates need {want[0]} free and {want[1]} torsion entries")
    z = data["kernel"].ncols
    y = [0] * z
    positions = data["free_pos"] + [i for i, _ in data["torsion_pos"]]
    for val, i in zip((*coords.free_part, *coords.torsion_part), positions):
        if val % 1:
            raise ValueError(f"coordinates must be integers, got {val!r}")
        y[i] = int(val)
    # w = u^{-1} @ y, with u^{-1} stored by columns
    uinvT = data["x_smith"].uinvT
    w = [0] * z
    for i, yi in enumerate(y):
        if not yi:
            continue
        for j, x in uinvT.rows[i].items():
            w[j] += yi * x
    return data["kernel"].matvec(w)


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


# ---------------------------------------------------------------------------
# Flat classes
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
