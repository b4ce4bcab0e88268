"""Cech cochain complexes of a cover with involution, and their cohomology.

Cochains live on ordered index tuples with repeats, normalized by dropping
tuples with two equal consecutive entries; each tuple contributes one basis
vector per component of its support intersection.  The involution acts by
relabeling tuples and components and multiplying by the coefficient sign.
The index involution is free, so the tuple involution is too, and
equivariant cochains are spanned by orbit sums ``e + sign * t(e)``: the
fixed complex has one basis vector per orbit, its differential is read off
the representative rows of the full coboundary, and a fixed cochain's
coordinates are its entries at the representatives (the induced-module
picture; K. S. Brown, *Cohomology of Groups*, §III.5).

A cover's cache holds one plain complex, one fixed complex per sign and
one total complex per all-integer coefficient complex (the hypercohomology
of, say, the cone of multiplication by n).  Each is grown in place, one
degree at a time: the plain and fixed complexes to ``max_degree + 1``, the
total complex only to total degree k + 1, which is all H^k reads (there
``max_degree`` is only the range check).  So each degree is built and
checked once and its Smith reductions serve every later question.

Rational and mod-n results are derived from the integral fixed complex: the
basis involution is free (the index involution is), so fixing commutes with
the change of coefficients and universal coefficients applies degreewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from weakref import WeakKeyDictionary

from .coverdata import C2Cover, CoefficientSystem
from .errors import (
    CoverNotFree,
    DegreeOutOfRange,
    InternalInvariantError,
    InvalidCoefficientComplex,
)
from .exactalg import (
    GroupDescriptor,
    IntegerCochainComplex,
    SparseIntMatrix,
    _grow_orbit_complex,
    _quotient_data,
    _smith,
    complex_cohomology,
    integer_rank,
)

_covercache: WeakKeyDictionary = WeakKeyDictionary()


def _cache(cover: C2Cover) -> dict:
    return _covercache.setdefault(cover, {})


@dataclass(eq=False)
class TupleBasis:
    """Ordered basis of the degree-``p`` cochain space of a cover.

    Elements are pairs ``(tuple, component)`` listed lexicographically by
    index name and then component id, so positions are reproducible.
    """

    degree: int
    elements: tuple
    position: dict

    def __len__(self):
        return len(self.elements)


def tuple_basis(cover: C2Cover, p: int, include_degenerate: bool = False) -> TupleBasis:
    """Basis of degree-``p`` cochains: tuples of ``p + 1`` indices whose
    support intersects, no two consecutive entries equal (unless degenerate
    tuples are explicitly requested), one element per component."""
    key = ("basis", p, include_degenerate)
    cache = _cache(cover)
    if key in cache:
        return cache[key]
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
                if not include_degenerate and tup and tup[-1] == i:
                    continue
                if i in support:
                    longer.append((tup + (i,), support))
                elif (grown := support | {i}) in cover.intersections:
                    longer.append((tup + (i,), grown))
        prefixes = longer
    elements = [
        (tup, c) for tup, support in prefixes for c in sorted(cover.components_of(support))
    ]
    basis = TupleBasis(p, tuple(elements), {e: n for n, e in enumerate(elements)})
    cache[key] = basis
    return basis


def cech_differential(cover: C2Cover, p: int, include_degenerate: bool = False) -> SparseIntMatrix:
    """Coboundary matrix from degree ``p`` to degree ``p + 1``.

    Entry rule: the value on a target tuple is the alternating sum over
    deletions of one entry, transported along the face map when the deleted
    entry was the last occurrence of its index.  Deletions producing a tuple
    outside the basis (a degenerate one, in the normalized model) contribute
    nothing.
    """
    key = ("delta", p, include_degenerate)
    cache = _cache(cover)
    if key in cache:
        return cache[key]
    src = tuple_basis(cover, p, include_degenerate)
    dst = tuple_basis(cover, p + 1, include_degenerate)
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
            sign = -1 if k % 2 else 1
            val = row.get(col, 0) + sign
            if val:
                row[col] = val
            else:
                del row[col]
    cache[key] = m
    return m


def basis_involution(cover: C2Cover, p: int, include_degenerate: bool = False) -> list:
    """The index/component involution on degree-``p`` basis positions:
    entry ``pos`` is the position of the image of element ``pos``."""
    key = ("involution", p, include_degenerate)
    cache = _cache(cover)
    if key not in cache:
        basis = tuple_basis(cover, p, include_degenerate)
        inv = cover.involution.__getitem__
        sigma = cover.component_involution
        cache[key] = [
            basis.position[(tuple(map(inv, tup)), sigma[c])] for tup, c in basis.elements
        ]
    return cache[key]


def involution_matrix(
    cover: C2Cover, p: int, sign: int, include_degenerate: bool = False
) -> SparseIntMatrix:
    """Action of the involution on degree-``p`` cochains: permute basis
    elements by the index/component involution, times the coefficient sign."""
    perm = basis_involution(cover, p, include_degenerate)
    return SparseIntMatrix(len(perm), len(perm), [{j: sign} for j in perm])


def build_full_complex(
    cover: C2Cover, max_degree: int, include_degenerate: bool = False
) -> IntegerCochainComplex:
    """The plain (non-equivariant) normalized cochain complex, carried in
    degrees ``0 .. max_degree + 1`` at least: one per cover, grown in place."""
    if max_degree < 0:
        raise DegreeOutOfRange("max_degree must be nonnegative")
    key = ("full", include_degenerate)
    cache = _cache(cover)
    if key not in cache:
        rank0 = len(tuple_basis(cover, 0, include_degenerate))
        cache[key] = IntegerCochainComplex(lo=0, hi=0, ranks={0: rank0}, diffs={})
    c = cache[key]
    while c.hi <= max_degree:
        c.extend(
            len(tuple_basis(cover, c.hi + 1, include_degenerate)),
            cech_differential(cover, c.hi, include_degenerate),
        )
    return c


def build_equivariant_complex(
    cover: C2Cover,
    coeff: CoefficientSystem,
    max_degree: int,
    include_degenerate: bool = False,
):
    """Integral complex of equivariant cochains, with its embedding.

    Returns ``(sub, bases)`` where ``bases[k]`` embeds the fixed basis into
    the full degree-``k`` cochain space.  The basis has one orbit sum
    ``e_r + sign * e_t(r)`` per orbit of the (free) basis involution, with
    ``r`` the later position of the pair, and the fixed differential is read
    off the representative rows of the full coboundary; no Smith reduction
    is involved.  There is one pair per cover and sign, grown in place to
    degree ``max_degree + 1``; the involution is checked to be free, to
    square to the identity and to commute with the coboundary once per
    degree, when that degree is first built.  The coefficient base is
    ignored here — this is the integral model, and rational or mod-n
    answers are derived from it downstream.
    """
    if not cover.is_free():
        raise CoverNotFree(
            f"cover {cover.name!r} has an involution-fixed index; "
            "double_fixed_indices produces a free model"
        )
    full = build_full_complex(cover, max_degree, include_degenerate)

    def perm(k):
        return basis_involution(cover, k, include_degenerate)

    key = ("equivariant", coeff.sign, include_degenerate)
    cache = _cache(cover)
    cache[key] = _grow_orbit_complex(full, perm, coeff.sign, cache.get(key), max_degree + 1)
    return cache[key]


def _check_degree(k: int, max_degree: int):
    if k < 0:
        raise DegreeOutOfRange("negative cohomological degree")
    if k > max_degree - 1:
        raise DegreeOutOfRange(
            f"degree {k} needs max_degree >= {k + 1}, got {max_degree}"
        )


def _descriptor_mod_n(c: IntegerCochainComplex, k: int, n: int) -> GroupDescriptor:
    """H^k of ``c`` with Z/n coefficients via universal coefficients:
    reduce H^k mod n and add the n-torsion of H^(k+1)."""
    hk = complex_cohomology(c, k)
    hk1 = complex_cohomology(c, k + 1)
    orders = [n] * hk.rank
    orders += [gcd(d, n) for d in hk.torsion]
    orders += [gcd(d, n) for d in hk1.torsion]
    return GroupDescriptor.from_cyclic_orders(0, orders)


def _rational_rank(c: IntegerCochainComplex, k: int) -> int:
    key = ("qrank", k)
    if key not in c._cache:
        c._cache[key] = (
            c.rank(k) - integer_rank(c.diff(k)) - integer_rank(c.diff(k - 1))
        )
    return c._cache[key]


def _descriptor(c: IntegerCochainComplex, k: int, coeff: CoefficientSystem) -> GroupDescriptor:
    if coeff.base == "Z":
        return complex_cohomology(c, k)
    if coeff.base == "Q":
        return GroupDescriptor(_rational_rank(c, k))
    return _descriptor_mod_n(c, k, coeff.modulus)


def equivariant_cohomology(
    cover: C2Cover,
    coeff: CoefficientSystem,
    k: int,
    max_degree: int,
    include_degenerate: bool = False,
) -> GroupDescriptor:
    """H^k of the equivariant cochain complex with the given coefficients.

    Integral coefficients give the full descriptor; rational ones report the
    dimension (computed by the independent rank formula, not by reusing the
    integral kernel data); mod-n ones use universal coefficients over the
    integral fixed complex.
    """
    _check_degree(k, max_degree)
    sub, _ = build_equivariant_complex(cover, coeff, max_degree, include_degenerate)
    return _descriptor(sub, k, coeff)


def nonequivariant_cohomology(
    cover: C2Cover,
    coeff: CoefficientSystem,
    k: int,
    max_degree: int,
    include_degenerate: bool = False,
) -> GroupDescriptor:
    """H^k of the plain cochain complex, the involution forgotten (the sign
    of ``coeff`` is irrelevant here)."""
    _check_degree(k, max_degree)
    return _descriptor(build_full_complex(cover, max_degree, include_degenerate), k, coeff)


# ---------------------------------------------------------------------------
# Hypercohomology of a bounded coefficient complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientComplex:
    """A bounded complex of coefficient systems in degrees ``0..m``.

    ``maps[i]`` is the map from term ``i`` to term ``i + 1``: an integer
    (multiplication) or the string ``"incl"`` for the canonical inclusion of
    integers into rationals.
    """

    terms: tuple
    maps: tuple = ()

    def __post_init__(self):
        terms = tuple(self.terms)
        maps = tuple(self.maps)
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


def _total_blocks(cover, fstar, n, include_degenerate):
    """Blocks of the total differential at total degree ``n``.

    Columns are the summands (term degree i, Cech degree j = n - i); rows
    the same at n + 1.  Vertical maps carry the sign (-1)^i on the Cech
    coboundary; horizontal maps are the coefficient maps degreewise.
    Returns (A, B, C): integer-to-integer, integer-to-rational and
    rational-to-rational blocks (there are no rational-to-integer maps).
    The summands reach Cech degree n + 1 at most, so each sign's fixed
    complex is carried just that far.
    """
    subs = {}
    for t in fstar.terms:
        if t.sign not in subs:
            subs[t.sign], _ = build_equivariant_complex(
                cover, t, max(n, 0), include_degenerate
            )

    def segments(total):
        segs = []
        for i, t in enumerate(fstar.terms):
            j = total - i
            if j >= 0:
                segs.append((i, j, t, subs[t.sign].rank(j)))
        return segs

    def offsets(segs, base):
        out, off = {}, 0
        for i, _j, t, size in segs:
            if t.base == base:
                out[i] = off
                off += size
        return out, off

    src = segments(n)
    dst = segments(n + 1)
    szoff, s_zsize = offsets(src, "Z")
    sqoff, s_qsize = offsets(src, "Q")
    dzoff, d_zsize = offsets(dst, "Z")
    dqoff, d_qsize = offsets(dst, "Q")

    a = SparseIntMatrix(d_zsize, s_zsize)
    b = SparseIntMatrix(d_qsize, s_zsize)
    c = SparseIntMatrix(d_qsize, s_qsize)

    for i, j, t, size in src:
        is_q = t.base == "Q"
        col = sqoff[i] if is_q else szoff[i]
        sub = subs[t.sign]
        # vertical: same term, Cech degree up one
        index = dqoff if is_q else dzoff
        if i in index and size:
            (c if is_q else a).set_block(index[i], col, sub.diff(j), scale=-1 if i % 2 else 1)
        # horizontal: next term, same Cech degree
        if i + 1 < len(fstar.terms):
            r = fstar.rate(i)
            if r:
                t2 = fstar.terms[i + 1]
                tgt_q = t2.base == "Q"
                index = dqoff if tgt_q else dzoff
                if i + 1 in index:
                    target = (c if is_q else b) if tgt_q else a
                    row = index[i + 1]
                    for s in range(size):
                        target.set(row + s, col + s, r)
    return a, b, c


def build_total_complex(
    cover: C2Cover,
    fstar: CoefficientComplex,
    max_degree: int,
    include_degenerate: bool = False,
) -> IntegerCochainComplex:
    """Total complex of the equivariant double complex of an all-integer
    ``fstar``, carried in total degrees ``0 .. max_degree + 1`` at least.

    There is one per cover and coefficient complex, grown in place one
    total degree at a time; each new total differential is checked (shape,
    d∘d = 0) once, when it is first built, and the Smith answers cached on
    the complex serve every later question.
    """
    key = ("total", fstar, include_degenerate)
    cache = _cache(cover)
    c = cache.get(key)
    while c is None or c.hi <= max_degree:
        n = 0 if c is None else c.hi
        a, _, _ = _total_blocks(cover, fstar, n, include_degenerate)
        if c is None:
            c = cache[key] = IntegerCochainComplex(lo=0, hi=0, ranks={0: a.ncols}, diffs={})
        c.extend(a.nrows, a)
    return c


def hypercohomology(
    cover: C2Cover,
    fstar: CoefficientComplex,
    k: int,
    max_degree: int,
    include_degenerate: bool = False,
) -> GroupDescriptor:
    """H^k of the total complex of the equivariant double complex of
    ``fstar``.

    All-integer complexes produce the honest finitely generated group, from
    the cover's one cached total complex (:func:`build_total_complex`),
    grown to total degree k + 1: H^k reads only d_(k-1) and d_k.
    ``max_degree`` is only the range check.  When rational terms are
    present the divisible summand is not representable in a
    :class:`GroupDescriptor`; the result then describes the reduced
    quotient (classes modulo divisible ones), whose integral part is
    computed from the kernel-with-rational-image presentation.
    """
    _check_degree(k, max_degree)
    if len(fstar) == 1:
        return equivariant_cohomology(
            cover, fstar.terms[0], k, max_degree, include_degenerate
        )

    if {t.base for t in fstar.terms} == {"Z"}:
        return complex_cohomology(build_total_complex(cover, fstar, k, include_degenerate), k)

    # mixed integers/rationals: block-triangular total differential
    a_k, b_k, c_k = _total_blocks(cover, fstar, k, include_degenerate)
    a_prev, _, _ = _total_blocks(cover, fstar, k - 1, include_degenerate)

    # E: saturated basis of the left kernel of the rational block, so that
    # "E @ (B x) = 0" says B x lies in the rational column span of C
    e = _smith(c_k.transpose(), transforms=True).kernel_basis().transpose()
    stacked = SparseIntMatrix(a_k.nrows + e.nrows, a_k.ncols)
    stacked.set_block(0, 0, a_k)
    stacked.set_block(a_k.nrows, 0, e.matmul(b_k))
    if not stacked.matmul(a_prev).is_zero():
        raise InternalInvariantError("total differential blocks do not compose to zero")
    data = _quotient_data(_smith(stacked, transforms=True), a_prev)
    return data["descriptor"]
