"""Cech cochain complexes of a cover with involution, and their cohomology.

Two cochain models live here.

*Alternating cochains* ``C_alt`` have one basis vector per (sorted
``(j + 1)``-subset of indices with a nonempty intersection, component of
that intersection); the coboundary ``δ_alt`` is the alternating sum over
faces.  The involution ``T`` relabels indices and components, re-sorts the
subset and multiplies by the sign of that sort and by the coefficient sign.
Every descriptor is read from the Borel complex ``Hom_C2(W, C_alt)``, with
``W`` the 2-periodic free resolution of Z over Z[C2] (K. S. Brown,
*Cohomology of Groups*, GTM 87: Ch. I §6 for ``W``, Ch. VII for the
equivariant cohomology of a G-complex)::

    Tot^n = ⊕_{i + j = n} C^j_alt,   0 <= j <= dim N (N the nerve),

where ``D`` carries summand ``(i, j)`` by ``(-1)^i δ_alt`` into
``(i, j + 1)`` and by ``1 - T`` (``i + 1`` odd) or ``1 + T`` (``i + 1``
even) into ``(i + 1, j)``.  Its rank is constant, ``Σ_j |C^j_alt|``, once
``n >= dim N``, and ``D_n = D_(n+2)`` from there, so H^k is 2-periodic
above ``dim N`` and every degree is read in a finite window
(:func:`equivariant_cohomology`).  When T fixes no basis element, even up
to sign (every antipodal cover), each ``C^j_alt`` is Z[C2]-free and
descriptors read the smaller fixed complex ``C_alt^{C2}`` instead, which
is quasi-isomorphic; one function makes that choice
(:func:`_descriptor_of`), and its answer is the one memo entry per cover
and sign that descriptors read (:func:`_descriptor_read`).  The Borel
complex of a free model is read by no answer: ``verify`` builds it
(:func:`_borel_of`) as its cross-check.  Plain cohomology reads ``C_alt``.

All of these read the cover's :class:`AlternatingModel`, one of three:
the model of its nerve; for a product, the tensor model ``C_alt(A) ⊗
C_alt(B)`` of its factors' models, naturally (so equivariantly)
quasi-isomorphic to the product's cochains by Eilenberg–Zilber (Amer. J.
Math. 75, 1953; Dold–Puppe 1961); for a join, that of its factors'
augmented models without degree 0 (:func:`_augmented_model`).  Each model is
reduced as soon as it is built, by equivariant Gaussian elimination of its
unit pivots (:func:`_reduced`), to a Z[C2]-chain homotopy equivalent model
that is much smaller (the conjugation circle's 6/10/4 becomes 2/2), so the
ranks of every complex above are those of the reduced model, not of the
alternating basis.  A product's or a join's nerve is built only when
read (``nerves``): ``to_json``, the ordered cochains, a ``FlatCocycle``
and its class, ``verify``.

*Ordered cochains* ``C_ord`` live on ordered index tuples, normalized by
dropping tuples with two equal consecutive entries; the tuple involution
is free because the index involution is, so the fixed complex has one
orbit sum ``e + sign * t(e)`` per orbit, read off the representative rows
of the full coboundary (the induced-module picture; Brown, §III.5).  The
flat classifier (``flatclasses``) takes its torus and torsion
coordinates against this complex's Smith bases, and ``verify`` keeps it as
the independent cross-check of the descriptor route.

The two agree: ``C_alt -> C_ord`` (extend by the sort sign, zero on
repeats) is an equivariant quasi-isomorphism (Serre, FAC §20), ``Hom_C2(W,
-)`` preserves it, and ``C_ord`` is degreewise Z[C2]-free, so ``Hom_C2(W,
C_ord)`` is quasi-isomorphic to the orbit complex ``C_ord^{C2}``.

Every per-cover object (bases, coboundaries, the involution's action and
the complexes built on them) comes from one builder under
``coverdata._per_cover``, which keeps it in the cover's own memo (its
``_memo`` slot) under the builder's name and positional arguments, but
for the unreduced nerve model's parts, built in one pass for the
reduction and not kept (:func:`_nerve_parts`).  A complex is a seed plus a
grower that returns the differential out of its top degree, and reading a
degree extends it to there, so, as H^k reads d_(k-1) and d_k, each degree
is built and checked once and never past the highest degree read + 1;
``max_degree`` is only a range check.  The alternating complexes are
built at once to degree top + 1 of their model and grow only zero terms
above it.  No grower holds the cover (the ordered ones reach it through a
weak reference), so a cover and its memo die with its last reference.
Rational ranks are read off the same Smith diagonals as the integral
groups, and mod-n groups come from the integral complexes by universal
coefficients degreewise, cached like them; hypercohomology splits its
coefficient complex into single terms and pairs and reads each of those
the same way (:func:`hypercohomology`).
"""

from __future__ import annotations

from math import gcd
from weakref import ref

from .coverdata import C2Cover, CoefficientSystem, _nerve_rows, _per_cover, _require_free
from .errors import DegreeOutOfRange, InvalidCoefficientComplex
from .exactalg import (
    GroupDescriptor,
    IntegerCochainComplex,
    SparseIntMatrix,
    _check_commutes,
    _checked_involution,
    _column_sets,
    _diagonal,
    _eliminate,
    _grow_orbit_complex,
    _whole,
    complex_cohomology,
)
from .records import Record


def _growing(rank0: int, step) -> IntegerCochainComplex:
    """A complex with degree 0 of rank ``rank0``, grown by ``step(n) = d_n``."""
    c = IntegerCochainComplex({0: rank0}, {})
    c._grow = step
    return c


def _finite(c: IntegerCochainComplex, top: int) -> IntegerCochainComplex:
    """Build ``c``, zero above ``top``, to degree ``top + 1`` with its own
    grower (which may hold the cover); from there it reads as zero and
    grows no further."""
    c.rank(top + 1)
    c._grow = lambda n: None
    return c


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
    (``exactalg._orbit_basis``), where ``flatclasses._flat_class`` reads it."""
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
# Alternating cochains and the Borel complex
# ---------------------------------------------------------------------------


class AlternatingModel:
    """The alternating cochains of a cover as every descriptor reads them:
    the plain complex, built to ``top + 1`` and zero above ``top``, and the
    involution on each degree ``0 .. top`` as a signed permutation ``(perm,
    eps)``, one action per degree, so ``top`` is ``len(actions) - 1``.  A
    model is checked when it is made: each action squares to the identity
    and commutes with the differential.  It holds no cover."""

    __slots__ = ("complex", "actions", "top")

    def __init__(self, complex: IntegerCochainComplex, actions: list):
        actions = [_checked_involution(j, *act, complex.rank(j)) for j, act in enumerate(actions)]
        for j in range(len(actions) - 1):
            _check_commutes(complex.diff(j), actions[j], actions[j + 1], j)
        self.complex, self.actions, self.top = complex, actions, len(actions) - 1

    def action(self, j: int):
        return self.actions[j] if j <= self.top else ([], [])


def _model_of(diffs: list, actions: list) -> AlternatingModel:
    """The checked model with ``d_j = diffs[j]``, the last into zero."""
    c = IntegerCochainComplex({0: len(actions[0][0])}, {})
    for d in diffs:
        c.extend(d.nrows, d)
    return AlternatingModel(_finite(c, len(diffs) - 1), actions)


def _parts(model: AlternatingModel) -> tuple:
    """``(diffs, actions)`` of ``model``, as :func:`_model_of` takes them."""
    return [model.complex.diff(j) for j in range(model.top + 1)], model.actions


def _tensor_model(a: AlternatingModel, b: AlternatingModel) -> AlternatingModel:
    """``C_alt(A) ⊗ C_alt(B)``: degree ``n`` lists the blocks ``(p, n - p)``
    by ascending ``p``, each ``|A^p| × |B^(n-p)|`` row-major; ``d(a ⊗ b) =
    da ⊗ b + (-1)^p a ⊗ db`` and ``T(a ⊗ b) = T_A a ⊗ T_B b``."""
    top = a.top + b.top
    ra = [a.complex.rank(p) for p in range(a.top + 2)]
    rb = [b.complex.rank(q) for q in range(b.top + 2)]
    da, db = ([d.rows for d in _parts(m)[0]] for m in (a, b))
    blocks = []  # per degree n: the offset of each block (p, n - p), and the rank
    for n in range(top + 2):
        offset, size = {}, 0
        for p in range(max(0, n - b.top), min(n, a.top) + 1):
            offset[p] = size
            size += ra[p] * rb[n - p]
        blocks.append((offset, size))

    diffs = []
    for n in range(top + 1):
        (src, ncols), (dst, nrows) = blocks[n], blocks[n + 1]
        d = SparseIntMatrix(nrows, ncols)
        rows = d.rows
        for p, col in src.items():
            q = n - p
            w, w1 = rb[q], rb[q + 1]
            if p + 1 in dst:  # da ⊗ b
                row0 = dst[p + 1]
                for r1, row in enumerate(da[p]):
                    for r, x in row.items():
                        for s in range(w):
                            rows[row0 + r1 * w + s][col + r * w + s] = x
            if p in dst and w1:  # (-1)^p a ⊗ db
                row0, sign = dst[p], -1 if p % 2 else 1
                for r in range(ra[p]):
                    for s1, row in enumerate(db[q]):
                        target = rows[row0 + r * w1 + s1]
                        for s, x in row.items():
                            target[col + r * w + s] = sign * x
        diffs.append(d)
    actions = []
    for n in range(top + 1):
        perm, eps = [], []
        for p, off in blocks[n][0].items():
            (pa, ea), (pb, eb), w = a.actions[p], b.actions[n - p], rb[n - p]
            for r in range(ra[p]):
                base, e = off + pa[r] * w, ea[r]
                perm += [base + x for x in pb]
                eps += [e * x for x in eb]
        actions.append((perm, eps))
    return _model_of(diffs, actions)


def _nerve_parts(cover: C2Cover):
    """``(diffs, actions)`` of the unreduced nerve model in degrees ``0 ..
    top`` (the nerve's dimension), from one pass over each degree's basis
    elements ``(s, c)``: in degree ``j`` the sorted ``(j + 1)``-subsets
    ``s`` with a nonempty intersection and their components ``c``, in
    sorted order, as :func:`tuple_basis` lists them.  Positions are keyed
    by component id (unique in a checked cover): ``(s, c)`` has the row
    ``{pos[c_i]: (-1)^k}`` in ``δ_alt``, ``c_i`` the face of ``c`` without
    its ``k``-th member ``i``, and T takes it to ``eps`` times ``pos[σ c]``,
    ``eps`` the sign of the sort that puts the relabelled members back in
    order.

    Each subset's members and each component's faces are the rows the
    structural check left in the cover's memo, taken out here, or read
    by the same function for a cover that never went through the check
    (``coverdata._nerve_rows``).  The sort sign counts inversions among the
    ranks of the images in the sorted index order."""
    members, faces = _nerve_rows(cover)
    intersections, t, sigma = cover.intersections, cover.involution, cover.component_involution
    rank = {i: n for n, i in enumerate(sorted(cover.indices))}
    image_rank = {i: rank[t[i]] for i in cover.indices}.__getitem__
    top = max(map(len, intersections), default=1) - 1
    signs = (1, -1) * (top // 2 + 1)  # (-1)^k for every member k
    # degree 0 by member then component; a singleton's sort sign is 1
    points = sorted((i, c) for s, comps in intersections.items() if len(s) == 1 for i in s for c in comps)
    comps = [[c for _, c in points]] + [[] for _ in range(top)]
    eps = [[1] * len(points)] + [[] for _ in range(top)]
    pos = {c: n for n, c in enumerate(comps[0])}
    place = pos.__getitem__
    rows = [[] for _ in range(top + 2)]  # rows[j]: the rows of d_(j-1)
    for s in sorted(sorted(members, key=members.__getitem__), key=len):
        m = members[s]
        j = len(m) - 1
        inversions = seen = 0  # seen: the image ranks of the earlier members
        for r in map(image_rank, m):
            inversions += (seen >> r).bit_count()
            seen |= 1 << r
        e = -1 if inversions % 2 else 1
        level, signed, below = comps[j], eps[j], rows[j]
        pieces = intersections[s]
        for c in pieces if len(pieces) == 1 else sorted(pieces):
            pos[c] = len(level)
            level.append(c)
            signed.append(e)
            # every face lies one degree down, so is already placed
            below.append(dict(zip(map(place, faces[c]), signs)))
    diffs = [SparseIntMatrix(len(rows[j + 1]), len(comps[j]), rows[j + 1]) for j in range(top + 1)]
    return diffs, [([pos[sigma[c]] for c in comps[j]], eps[j]) for j in range(top + 1)]


def _nerve_model(cover: C2Cover) -> AlternatingModel:
    """The model read off the nerve (:func:`_nerve_parts`), unreduced, with
    top its dimension; it is built once, for the reduction, and not kept."""
    return _model_of(*_nerve_parts(cover))


def _reduced(model: AlternatingModel) -> AlternatingModel:
    """``model`` with its unit pivots eliminated equivariantly: a
    Z[C2]-chain homotopy equivalent model, so one with the same plain,
    Borel and fixed cohomology (the elimination lemma: Barnes and Lambe,
    Proc. AMS 112, 1991; Sköldberg, Trans. AMS 358, 2006).

    A pivot of ``d_j`` is an entry ``d[r][c] = ±1`` with ``c`` and ``r``
    both fixed by the signed permutation, or both free with ``d[T r][c] ==
    0``, so that the Z[C2] entry between their orbits is a unit; a free
    pair takes its image ``(T c, T r)`` with it.  Rows are visited shortest
    first, each taking its pivot of sparsest column, as in
    :func:`exactalg._unit_pivots`.  Eliminating ``(c, r)`` clears column
    ``c`` of ``d_j`` by row operations and drops ``c`` and ``r`` from the
    model, so row ``c`` of ``d_(j-1)`` and column ``r`` of ``d_(j+1)`` go
    with them.  That makes no new pivot below degree ``j + 1``, so one pass
    up the degrees leaves none.  The survivors keep their order and the
    restricted action, the new model is checked like any other, and its
    top is its highest nonzero degree; without a pivot, it is ``model``."""
    alive = [[True] * model.complex.rank(j) for j in range(model.top + 2)]
    rows, eliminated = [], False
    for j in range(model.top):
        (perm, _), (perm1, _) = model.actions[j], model.actions[j + 1]
        live, live1 = alive[j], alive[j + 1]
        a = [{c: x for c, x in row.items() if live[c]} for row in model.complex.diff(j).rows]
        cols = _column_sets(a, len(live))
        for r in sorted(range(len(a)), key=list(map(len, a)).__getitem__):
            t = perm1[r]
            fixed, c, fewest = t == r, None, None
            for u, x in a[r].items():  # the first unit pivot of sparsest column
                if (x == 1 or x == -1) and (perm[u] == u) == fixed and (fixed or u not in a[t]):
                    if c is None or len(cols[u]) < fewest:
                        c, fewest = u, len(cols[u])
            if c is None:
                continue
            for pc, pr in ((c, r),) if t == r else ((c, r), (perm[c], t)):
                _eliminate(a, cols, pr, pc)
                live[pc] = live1[pr] = False
            eliminated = True
        rows.append(a)
    if not eliminated:
        return model
    # each survivor's new position, per degree, in the old order
    new = [{old: n for n, old in enumerate(i for i, x in enumerate(live) if x)} for live in alive]
    top = max((j for j in range(model.top + 1) if new[j]), default=0)
    diffs = [
        SparseIntMatrix(len(new[j + 1]), len(new[j]), [
            {new[j][c]: x for c, x in row.items()} for row, kept in zip(rows[j], alive[j + 1]) if kept
        ])
        for j in range(top)
    ]
    diffs.append(SparseIntMatrix(0, len(new[top])))
    # a survivor whose partner is gone maps to -1, which _checked_involution refuses
    actions = [
        ([new[j].get(perm[r], -1) for r in new[j]], [eps[r] for r in new[j]])
        for j, (perm, eps) in enumerate(model.actions[: top + 1])
    ]
    return _model_of(diffs, actions)


def _augmented(diffs: list, actions: list) -> AlternatingModel:
    """:func:`_model_of` with the empty simplex as a new degree 0: rank 1,
    fixed with ``ε = +1``, ``d_0`` the column of ones."""
    n = len(actions[0][0])
    return _model_of([SparseIntMatrix(n, 1, [{0: 1} for _ in range(n)]), *diffs], [([0], [1]), *actions])


def _unaugmented(model: AlternatingModel) -> AlternatingModel:
    """An augmented model without its degree 0, the empty simplex."""
    return _model_of(*(x[1:] for x in _parts(model)))


@_per_cover
def _augmented_model(cover: C2Cover) -> AlternatingModel:
    """The cover's reduced model augmented (:func:`_augmented`, a nerve's
    before its model is built), graded by vertex count.  A join's simplices
    are the pairs of its factors' simplices, one maybe empty, so its model
    is the reduced tensor model of theirs, whose sign ``(-1)^p`` is the
    join's when the first factor's indices sort first (else the same up to
    sort signs); the fixed empty simplex never pairs with a free vertex."""
    if cover.joined:
        return _reduced(_tensor_model(*map(_augmented_model, cover.factors)))
    if cover.factors:
        return _augmented(*_parts(_alternating_model(cover)))
    return _reduced(_augmented(*_nerve_parts(cover)))


@_per_cover
def _alternating_model(cover: C2Cover) -> AlternatingModel:
    """The model every reader reads, reduced (:func:`_reduced`): the
    nerve's, a product's tensor model of its factors' models, or a join's
    augmented model without degree 0."""
    if cover.joined:
        return _unaugmented(_augmented_model(cover))
    if cover.factors:
        return _reduced(_tensor_model(*map(_alternating_model, cover.factors)))
    return _reduced(_nerve_model(cover))


def _borel_of(model: AlternatingModel, sign: int) -> IntegerCochainComplex:
    """The Borel complex ``Hom_C2(W, C_alt)`` of ``model`` with coefficient
    sign ``sign``, grown in place from degree 0.

    Summand ``(i, j)`` of ``Tot^n`` sits at offset ``Σ_{j' < j} rank
    C^j'`` for every ``n >= j``.  ``D_n`` carries it by ``(-1)^i δ`` to
    ``(i, j + 1)`` and by ``1 - T`` or ``1 + T`` (``i + 1`` odd or even) to
    ``(i + 1, j)``, where ``T`` is ``sign`` times the model's action.  The
    model was checked when it was made (``T^2 = id`` and ``T δ = δ T`` in
    every degree), and ``extend`` checks each new differential's shape and
    D∘D = 0.
    """
    alt, actions, top = model.complex, model.actions, model.top
    offset = [0]
    for j in range(top + 1):
        offset.append(offset[-1] + alt.rank(j))

    def step(n):
        d = SparseIntMatrix(offset[min(n + 1, top) + 1], offset[min(n, top) + 1])
        for j in range(min(n, top) + 1):
            i, col = n - j, offset[j]
            vertical = -1 if i % 2 else 1
            for r, row in enumerate(alt.diff(j).rows):
                d.rows[offset[j + 1] + r] = {col + cj: vertical * x for cj, x in row.items()}
            horizontal = sign if i % 2 else -sign  # 1 - T into odd i + 1, 1 + T into even
            perm, eps = actions[j]
            rows = d.rows[offset[j] : offset[j + 1]]
            for r, (target, p, e) in enumerate(zip(rows, perm, eps)):
                target[col + r] = 1
                v = target.get(col + p, 0) + horizontal * e
                if v:
                    target[col + p] = v
                else:
                    del target[col + p]
        return d

    return _growing(alt.rank(0), step)


def _acts_freely(model: AlternatingModel) -> bool:
    """True when T fixes no basis element of ``model``, even up to sign, in
    any degree; then every degree is a free Z[C2]-module."""
    return all(p != r for perm, _ in model.actions for r, p in enumerate(perm))


def _descriptor_of(model: AlternatingModel, sign: int) -> IntegerCochainComplex:
    """The complex descriptors read off ``model`` for coefficient sign
    ``sign``.

    When the action is free (T fixes no basis element even up to sign;
    every antipodal cover), each degree is Z[C2]-free, so the Borel complex
    is quasi-isomorphic to the fixed complex ``C_alt^{C2}``: one orbit sum
    ``e_r + sign * ε_r * e_π(r)`` per orbit, at most half the Borel rank in
    every degree, built at once to ``top + 1`` and zero above.  Otherwise
    it is the Borel complex of the model (:func:`_borel_of`)."""
    if not _acts_freely(model):
        return _borel_of(model, sign)
    sub, _ = _grow_orbit_complex(model.complex, model.action, sign)
    return _finite(sub, model.top)


@_per_cover
def _descriptor_read(cover: C2Cover, sign: int):
    """``(c, s)``: :func:`_descriptor_of` the cover's reduced model for
    ``sign`` and the degree ``s`` (model top + 1) it is 2-periodic from,
    one entry per cover and sign, so a question makes one lookup."""
    _require_free(cover)
    model = _alternating_model(cover)
    return _descriptor_of(model, sign), model.top + 1


def build_descriptor_complex(cover: C2Cover, sign: int) -> IntegerCochainComplex:
    """The complex every descriptor reads for coefficient sign ``sign``,
    one per cover and sign, grown in place: the fixed complex of the
    cover's reduced model when its action is free, else its Borel complex
    (:func:`_descriptor_of`)."""
    return _descriptor_read(cover, sign)[0]


def _degree(k: int) -> int:
    """``k`` as an int if it is a cohomological degree: an integer (by
    :func:`operator.index`) and nonnegative; else DegreeOutOfRange."""
    k = _whole(k, "degree")
    if k < 0:
        raise DegreeOutOfRange("negative cohomological degree")
    return k


def _check_degree(k: int, max_degree: int):
    if _degree(k) > _whole(max_degree, "max_degree") - 1:
        raise DegreeOutOfRange(
            f"degree {k} needs max_degree >= {k + 1}, got {max_degree}"
        )


def _descriptor_mod_n(c: IntegerCochainComplex, k: int, n: int) -> GroupDescriptor:
    """H^k of ``c`` with Z/n coefficients via universal coefficients:
    reduce H^k mod n and add the n-torsion of H^(k+1) (of ``coker d_k``).
    It reads only d_(k-1) and d_k, so ``extend`` drops it when it is stale."""
    key = ("mod", k, n)
    hit = c._cache.get(key)
    if hit is None:
        hk = complex_cohomology(c, k)
        orders = [n] * hk.rank + [gcd(d, n) for d in hk.torsion]
        orders += [gcd(d, n) for d in _diagonal(c, k) if d > 1]
        hit = c._cache[key] = GroupDescriptor.from_cyclic_orders(0, orders)
    return hit


def _descriptor(c: IntegerCochainComplex, k: int, coeff: CoefficientSystem) -> GroupDescriptor:
    """H^k of ``c`` itself, unfolded: integral from the Smith diagonals,
    rational as the rank of that, mod-n by universal coefficients."""
    if coeff.base == "Z":
        return complex_cohomology(c, k)
    if coeff.base == "Q":
        return GroupDescriptor(complex_cohomology(c, k).rank)
    return _descriptor_mod_n(c, k, coeff.modulus)


def _folded(k: int, s: int) -> int:
    """``k`` moved into the window ``0 .. s + 1`` of a complex whose
    cohomology is 2-periodic from degree ``s`` on."""
    return k if k < s else s + (k - s) % 2


def equivariant_cohomology(
    cover: C2Cover,
    coeff: CoefficientSystem,
    k: int,
    max_degree: int,
) -> GroupDescriptor:
    """H^k of the cover with the given equivariant coefficients, read from
    the descriptor complex of the coefficient sign
    (:func:`build_descriptor_complex`) in the degree ``k`` folds to.

    The Borel differential ``D_n`` depends on ``n`` only through ``min(n,
    top)`` and the parity of ``n - j``, so ``D_n = D_(n+2)`` from ``n =
    top`` on and H^k = H^(k+2) from ``k = top + 1`` on (the fixed complex
    is zero there); every degree is read in ``0 .. top + 2`` of the reduced
    model, and the time and memory of one degree do not grow with ``k``.
    ``max_degree`` is only the range check.  Integral coefficients give the
    full descriptor; rational ones report the rank of the integral group,
    read off the same Smith diagonals; mod-n ones use universal
    coefficients over the integral complex.
    """
    _check_degree(k, max_degree)
    c, periodic = _descriptor_read(cover, coeff.sign)
    return _descriptor(c, _folded(k, periodic), coeff)


def nonequivariant_cohomology(
    cover: C2Cover,
    coeff: CoefficientSystem,
    k: int,
    max_degree: int,
) -> GroupDescriptor:
    """H^k of the plain alternating cochain complex, the involution
    forgotten (the sign of ``coeff`` is irrelevant here)."""
    _check_degree(k, max_degree)
    return _descriptor(_alternating_model(cover).complex, k, coeff)


# ---------------------------------------------------------------------------
# Hypercohomology of a bounded coefficient complex
# ---------------------------------------------------------------------------


class CoefficientComplex(Record):
    """A bounded complex of coefficient systems in degrees ``0..m``.

    ``maps[i]`` is the map from term ``i`` to term ``i + 1``: an integer
    (multiplication) or the string ``"incl"`` for the canonical inclusion of
    integers into rationals.
    """

    __slots__ = ("terms", "maps")

    def __init__(self, terms: tuple, maps: tuple = ()):
        terms = tuple(terms)
        maps = tuple(maps)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "maps", maps)
        if not terms:
            raise InvalidCoefficientComplex("empty coefficient complex")
        if len(maps) != len(terms) - 1:
            raise InvalidCoefficientComplex(
                f"{len(terms)} terms need {len(terms) - 1} maps, got {len(maps)}"
            )
        if len(terms) > 1 and any(t.base == "Z/n" for t in terms):
            raise InvalidCoefficientComplex(
                "mod-n terms are supported only as single-term complexes; "
                "model multiplication-by-n complexes over the integers instead"
            )
        for i, m in enumerate(maps):
            src, dst = terms[i], terms[i + 1]
            if m == "incl":
                if not (src.base == "Z" and dst.base == "Q"):
                    raise InvalidCoefficientComplex(
                        f"map {i} is the inclusion but goes {src.base} -> {dst.base}"
                    )
            elif isinstance(m, int):
                if (src.base, dst.base) == ("Q", "Z"):
                    raise InvalidCoefficientComplex(
                        f"map {i} goes from rationals to integers"
                    )
            else:
                raise InvalidCoefficientComplex(
                    f"map {i} must be an integer or 'incl', got {m!r}"
                )
            if self.rate(i) != 0 and src.sign != dst.sign:
                raise InvalidCoefficientComplex(
                    f"nonzero map {i} does not commute with the sign actions"
                )
        for i in range(len(maps) - 1):
            if self.rate(i) != 0 and self.rate(i + 1) != 0:
                raise InvalidCoefficientComplex(
                    f"consecutive maps {i} and {i + 1} do not compose to zero"
                )

    def rate(self, i: int) -> int:
        m = self.maps[i]
        return 1 if m == "incl" else m

    def __len__(self):
        return len(self.terms)


def hypercohomology(
    cover: C2Cover,
    fstar: CoefficientComplex,
    k: int,
    max_degree: int,
) -> GroupDescriptor:
    """H^k of the total complex of the equivariant double complex of
    ``fstar``, whose Cech direction is the descriptor complex ``C_s`` of
    each term's sign ``s``; ``max_degree`` is only the range check.

    No total complex is built.  No two consecutive maps of ``fstar`` are
    nonzero and a nonzero map keeps the sign, so ``fstar`` is a direct sum
    of single terms and pairs ``A_s --r--> B_s``, ``r != 0``, and each
    piece in degrees from ``i`` on is read by
    :func:`equivariant_cohomology` (folded) on ``C_s``:

    * a term ``Z`` adds ``H^(k-i)(C_s; Z)``;
    * a pair ``Z --r--> Z`` adds ``H^(k-i-1)(C_s; Z/|r|)``, 0 for ``|r| =
      1``: the cone of ``r`` on a free complex is quasi-isomorphic to
      ``C_s ⊗ Z/r`` (Weibel, *An Introduction to Homological Algebra*,
      §3.6);
    * a pair ``Z --r--> Q`` adds the torsion of ``H^(k-i)(C_s; Z)``, the
      kernel of ``r`` into ``H^(k-i)(C_s; Q)``;
    * a term ``Q`` or a pair ``Q --r--> Q`` adds nothing.

    With rational terms the divisible summand is not representable in a
    :class:`GroupDescriptor`, so beside other terms the result describes
    the reduced quotient: the image of H^k in the cohomology of the
    integer terms' total complex (classes modulo rational ones), which is
    what the last two rules give.  A complex of one term is that term's
    :func:`equivariant_cohomology`, a rational one included.
    """
    _check_degree(k, max_degree)
    if len(fstar) == 1:
        return equivariant_cohomology(cover, fstar.terms[0], k, max_degree)
    _require_free(cover)
    rank, torsion, i = 0, [], 0
    while i < len(fstar):
        t = fstar.terms[i]
        j = k - i  # the piece's degree in its own Cech direction
        n = abs(fstar.rate(i)) if i + 1 < len(fstar) else 0
        if t.base == "Z" and j >= 0:
            if n == 0:
                g = equivariant_cohomology(cover, t, j, j + 1)
                rank += g.rank
                torsion += g.torsion
            elif fstar.terms[i + 1].base == "Q":
                torsion += equivariant_cohomology(cover, t, j, j + 1).torsion
            elif n > 1 and j > 0:
                mod_n = CoefficientSystem.integers_mod(n, t.sign)
                torsion += equivariant_cohomology(cover, mod_n, j - 1, j).torsion
        i += 2 if n else 1
    return GroupDescriptor.from_cyclic_orders(rank, torsion)
