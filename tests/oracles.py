"""Independent closed-form references the tests freeze expected values from.

Everything here but the reference routes at the end is elementary integer
arithmetic on one-dimensional cochain groups — deliberately sharing no code
with the package under test.  Groups
are reported as ``(rank, torsion_tuple)`` pairs.

Four families, and seven reference routes:

* cohomology of the two-element group acting on cyclic coefficient modules,
  via the 2-periodic free resolution (differentials alternate between
  multiplication by ``sign - 1`` and ``sign + 1``);

* cellular cochain complexes of quotients of free actions — the point, the
  circle with a monodromy-twisted local system, and real projective space
  with twisted/untwisted integer coefficients (differentials alternate
  between 0 and multiplication by 2);

* equivariant cohomology above the dimension, which localizes to the
  fixed points (:data:`FIXED_POINTS`, :func:`localized`);

* the representation spheres ``S(a + bσ)`` with ``a >= 1``, split by a
  fixed point (:func:`representation_sphere`), and their covers by
  undoubled joins (:func:`representation_sphere_cover`).

The reference routes, :func:`flat_checks_fraction_route` and
:func:`flat_class_fraction_route`, are the flat cocycle checks and the flat
classifier's arithmetic done the slow way, every angle sum and cochain
product on Fractions.  The classifier route reads the package's bases and
Smith transforms (:func:`smith_reading`), so it checks the integer scaling
of the classifier and its cached coordinate rows, not its algebra.  It
takes an integral preimage of the obstruction and reads the residual
cocycle, where the classifier reads the lift through the rows mod ``D``.
Unlike the classifier, which builds its lift in orbit
coordinates, it lifts to full ordered cochains, takes their coboundary
with the full ``cech_differential`` and projects back with
:func:`orbit_coordinates`.

The third, :func:`degenerate_orbit_complex`, is the unnormalized ordered
cochain model, every word of indices with repeats kept: its face rule
written out here, its complex assembled by hand, and its fixed complex
taken by the general Smith route on ``t - id``
(:func:`realdeligne.exactalg.fixed_subcomplex`).  It shares neither the
normalized bases and coboundaries nor the orbit-sum construction with the
engine, so its cohomology is an independent check on every descriptor
(Serre, FAC §20: the normalized and unnormalized models agree).

The fourth, :func:`plain_smith_rank`, is the rank of H^k by plain Smith on
whole differentials, against the unit-pivot diagonals every descriptor,
rational ones included, is read from.

The fifth, :func:`total_complex` and :func:`reduced_quotient`, is the
total complex of a coefficient complex, assembled from its blocks
(:func:`total_blocks`) and read unfolded: all-integer complexes by their
Smith diagonals, those with rational terms by the transform route's
kernel quotient.  The engine's hypercohomology builds no total complex;
it splits the coefficient complex into single terms and pairs and reads
each off the descriptor complexes, folded.

The sixth, :func:`cover_violations`, :func:`alternating_basis` and
:func:`nerve_model_parts`, is the cover layer the set-by-set way: every
structural check on frozensets and keyed face lookups, and each
alternating basis from its own scan of the nerve, where the package
compares bit masks and builds every basis in one pass.
:func:`doubled_parts` is the doubling of fixed indices the same way:
every component id decorated and every face's underlying supports
rebuilt on its own, where the package works out each new subset's id
suffix once and reads a face's underlying set off the copy it drops.
:func:`cross_polytope_raw` is the antipodal sphere's cover file from an
enumeration of the faces of the cross-polytope, where the catalog joins
two-point covers.

The seventh, :func:`join_model`, is a join's reduced model the augmented
way: each factor's model with the empty simplex prepended, made and
checked as its own model (a nerve's augmented before it is reduced, a
join's recursively), their tensor model reduced, then its copy without
the empty simplex.  The package prepends the empty simplex to its
factors' reduced models as plain parts and reduces once, after dropping
it (``cechengine._join_model``).  It holds for free vertices only: a
fixed vertex and the fixed empty simplex make a unit pivot, so a join
with a fixed vertex is checked against its own nerve instead.
"""

from fractions import Fraction
from itertools import product


def _one_by_one_cohomology(d_prev: int, d_here: int):
    """(rank, torsion) of ker(d_here)/im(d_prev) inside a single Z summand."""
    if d_here != 0:
        # kernel is 0
        return (0, ())
    if d_prev == 0:
        return (1, ())
    a = abs(d_prev)
    return (0, ()) if a == 1 else (0, (a,))


# ---------------------------------------------------------------------------
# 2-periodic resolution of the two-element group
# ---------------------------------------------------------------------------


def _periodic_maps(sign: int, k: int) -> int:
    """Multiplication constant of the k-th differential: sign-1, sign+1, ..."""
    return (sign - 1) if k % 2 == 0 else (sign + 1)


def cyclic_two_integer(sign: int, k: int):
    """H^k of the two-element group with Z coefficients, generator acting
    by ``sign``; rank/torsion pair."""
    if k < 0:
        return (0, ())
    d_here = _periodic_maps(sign, k)
    d_prev = _periodic_maps(sign, k - 1) if k > 0 else 0
    return _one_by_one_cohomology(d_prev, d_here)


def cyclic_two_mod(sign: int, modulus: int, k: int) -> int:
    """Order of H^k with Z/modulus coefficients (always cyclic here)."""
    from math import gcd

    d_here = _periodic_maps(sign, k) % modulus
    d_prev = (_periodic_maps(sign, k - 1) % modulus) if k > 0 else 0
    ker = gcd(d_here, modulus)
    im = modulus // gcd(d_prev, modulus) if k > 0 else 1
    assert ker % im == 0
    return ker // im


def cyclic_two_circle_quotient(sign: int, k: int) -> int:
    """Order of the reduced (finite) part of H^k with rationals-mod-integers
    coefficients twisted by ``sign``.

    Multiplication by a nonzero integer is surjective on Q/Z, so whenever
    the previous differential is nonzero the quotient is divisible-by-zero:
    only kernels of nonzero maps survive reduction.
    """
    d_here = _periodic_maps(sign, k)
    d_prev = _periodic_maps(sign, k - 1) if k > 0 else None
    if d_here != 0 and (k == 0 or d_prev == 0):
        return abs(d_here)
    return 1


# ---------------------------------------------------------------------------
# Cellular quotient complexes for the free catalog actions
# ---------------------------------------------------------------------------


def quotient_point(k: int):
    """Free two-point orbit: the quotient is a point."""
    return (1, ()) if k == 0 else (0, ())


def circle_monodromy(sign: int, k: int):
    """Circle quotient of the free circle action, local system with
    monodromy ``sign`` around the loop: one 0-cell, one 1-cell,
    differential multiplication by sign - 1."""
    d0 = sign - 1
    if k == 0:
        return _one_by_one_cohomology(0, d0)
    if k == 1:
        return _one_by_one_cohomology(d0, 0)
    return (0, ())


def projective_space(n: int, twisted: bool, k: int):
    """Real projective n-space with integer coefficients, optionally twisted
    by the orientation double cover; one cell per dimension 0..n.

    Untwisted cochain differentials are 0, 2, 0, ... and the twisted ones
    are 2, 0, 2, ... (top differential absent).
    """
    if k < 0 or k > n:
        return (0, ())

    def d(i):  # differential leaving degree i
        if i < 0 or i >= n:
            return 0
        even = i % 2 == 0
        return 2 if (even == twisted) else 0

    return _one_by_one_cohomology(d(k - 1), d(k))


def sphere_quotient(n: int, sign: int, k: int):
    """Equivariant cohomology of the antipodal n-sphere = cohomology of
    projective n-space, twisted exactly when the coefficient sign is -1;
    n = 0 degenerates to the two-point orbit."""
    if n == 0:
        return quotient_point(k)
    return projective_space(n, sign == -1, k)


# ---------------------------------------------------------------------------
# Localization above the dimension
# ---------------------------------------------------------------------------

# Fixed points of the catalog actions, by catalog name: the doubled points
# fix their point, complex conjugation fixes 1 and -1 on the circle, and
# the rest are free.
FIXED_POINTS = {
    "point_trivial": 1,
    "point_trivial_fine": 1,
    "free_orbit": 0,
    "circle_antipodal": 0,
    "circle_antipodal_fine": 0,
    "circle_conjugation": 2,
    "sphere_antipodal": 0,
}


def fixed_points(name, params=()):
    """Fixed points of the catalog space ``name``: a torus fixes the
    product of its factors' fixed-point sets, so m conjugation circles fix
    2^m points."""
    if name != "torus":
        return FIXED_POINTS[name]
    count = 1
    for factor in params:
        count *= FIXED_POINTS[factor]
    return count


def localized(fixed_points: int, sign: int, k: int, modulus: int = 0):
    """H^k, with integer coefficients (``modulus`` 0) or mod ``modulus``,
    of a C2-space with finitely many fixed points, above its dimension:
    one copy of H^k(C2; coefficients) per fixed point (localization:
    Quillen, Ann. Math. 1971; tom Dieck, *Transformation Groups*, Ch.
    III).  A rank/torsion pair."""
    if modulus:
        order = cyclic_two_mod(sign, modulus, k)
        return (0, () if order == 1 else (order,) * fixed_points)
    rank, torsion = cyclic_two_integer(sign, k)
    return (rank * fixed_points, torsion * fixed_points)


# ---------------------------------------------------------------------------
# Representation spheres
# ---------------------------------------------------------------------------


def _group_cohomology(base: str, sign: int, j: int):
    """H^j of the two-element group with coefficients ``base`` ("Z", "Q"
    or "Z/2"), the generator acting by ``sign``; 0 below degree 0."""
    if j < 0:
        return (0, ())
    if base == "Z":
        return cyclic_two_integer(sign, j)
    if base == "Q":
        return (1, ()) if j == 0 and sign == 1 else (0, ())
    return (0, (cyclic_two_mod(sign, 2, j),))


def representation_sphere(a: int, b: int, base: str, sign: int, k: int):
    """H^k of S(a + bσ), the unit sphere of ``a >= 1`` trivial and ``b``
    sign coordinates (Atiyah's S^{b,a}), with coefficients ``base`` twisted
    by ``sign``.  With ``n = a + b - 1``,

        H^k = H^k(C2; M(s)) ⊕ H^(k - n)(C2; M(s (-1)^b)),

    the Gysin sequence of the sphere bundle of ``a + bL`` over BC2, whose
    Euler class vanishes with the trivial summand and which a fixed point
    splits; ``(-1)^b`` is the bundle's orientation character.  A
    rank/torsion pair."""
    assert a >= 1
    n = a + b - 1
    parts = (_group_cohomology(base, sign, k), _group_cohomology(base, sign * (-1) ** b, k - n))
    return (sum(rank for rank, _ in parts), tuple(sorted(t for _, torsion in parts for t in torsion)))


def representation_sphere_cover(a: int, b: int):
    """S(a + bσ) covered as the join of ``a`` checked two-point covers
    ``{y_i+, y_i-}`` whose indices and pieces the involution fixes, then
    ``b`` checked two-point covers ``{x_i+, x_i-}`` it swaps, axis 0
    first: fixed indices as they are, not doubled."""
    from realdeligne.catalog import _one_piece
    from realdeligne.coverdata import _checked, join_cover

    out = None
    for i in range(a + b):
        axis = "y" if i < a else "x"
        plus, minus = f"{axis}{i}+", f"{axis}{i}-"
        involution = {plus: plus, minus: minus} if i < a else {plus: minus, minus: plus}
        pair = _checked(_one_piece(f"S({a}+{b}σ)", "reflection", involution,
                                   {frozenset([plus]): plus, frozenset([minus]): minus}))
        out = pair if out is None else join_cover(out, pair, name=f"S({a}+{b}σ)")
    return out


# ---------------------------------------------------------------------------
# mod-1 helper shared by flat-cocycle tests
# ---------------------------------------------------------------------------


def frac_mod1(x) -> Fraction:
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


# ---------------------------------------------------------------------------
# invariant factors of a direct sum of cyclic groups
# ---------------------------------------------------------------------------


def invariant_factors(orders):
    """Invariant factors of the direct sum of cyclic groups of the given
    orders, through the primary decomposition.

    Each order is split into prime powers by trial division; the largest
    power of every prime goes into the last factor, the next largest into
    the one before, and so on.  Orders of at most 1 (in absolute value)
    are trivial summands.
    """
    powers = {}
    for n in orders:
        n = abs(n)
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p**e)
            p += 1
    count = max((len(v) for v in powers.values()), default=0)
    factors = [1] * count
    for prime_powers in powers.values():
        for i, q in enumerate(sorted(prime_powers, reverse=True)):
            factors[count - 1 - i] *= q
    return tuple(factors)


# ---------------------------------------------------------------------------
# Smith diagonal from determinantal divisors
# ---------------------------------------------------------------------------


def _det(rows):
    """Exact determinant by Fraction elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def smith_diagonal(rows):
    """Nonzero invariant factors ``D_k / D_(k-1)``, where ``D_k`` is the gcd
    of the k-by-k minors; for small matrices only."""
    from itertools import combinations
    from math import gcd

    nr, nc = len(rows), len(rows[0])
    out, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = gcd(g, _det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# ---------------------------------------------------------------------------
# flat classes with every product on Fractions
# ---------------------------------------------------------------------------


def flat_checks_fraction_route(fc):
    """The antisymmetry, equivariance and cocycle checks of
    :meth:`realdeligne.coverdata.FlatCocycle.validate` on a table with the
    expected keys, every angle sum reduced mod 1 as a Fraction: raises the
    same InvalidCocycle on the first violation, in the same order."""
    from realdeligne.errors import InvalidCocycle

    cover, angles = fc.cover, fc.angles
    for (i, j, c), theta in angles.items():
        if frac_mod1(angles[(j, i, c)] + theta) != 0:
            raise InvalidCocycle(f"antisymmetry fails on ({i}, {j}) component {c}")
        tc = cover.sigma(c)
        if frac_mod1(angles[(cover.t(i), cover.t(j), tc)] + theta) != 0:
            raise InvalidCocycle(f"equivariance fails on ({i}, {j}) component {c}")
    for subset, comps in cover.intersections.items():
        if len(subset) != 3:
            continue
        i, j, k = sorted(subset)
        for c in comps:
            value = (
                angles[(j, k, cover.face(c, i))]
                - angles[(i, k, cover.face(c, j))]
                + angles[(i, j, cover.face(c, k))]
            )
            if frac_mod1(value) != 0:
                raise InvalidCocycle(f"cocycle condition fails on {sorted(subset)} component {c}")


def orbit_coordinates(perm, sign, v):
    """Coordinates of ``v`` against the orbit-sum basis of the signed
    permutation ``perm`` (one column ``e_r + sign * e_perm[r]`` per orbit,
    ``r`` the later position, in ascending ``r``): its entries at the
    representatives.  Raises NotEquivariant when ``v`` is not fixed."""
    from realdeligne.errors import NotEquivariant

    out = []
    for r, j in enumerate(perm):
        if j < r:
            if v[j] != sign * v[r]:
                raise NotEquivariant(
                    f"vector is not fixed: entry {j} is not {sign} times entry {r}"
                )
            out.append(v[r])
    return out


def flat_class_fraction_route(fc):
    """``(torus_part, torsion_part)`` of a flat cocycle's class, as
    :func:`realdeligne.deligne.flat_cocycle_class` reports them, with the
    lift's coboundary and the rational class coordinates taken on
    Fractions; ``torus_part`` is None when the obstruction is nonzero.
    Raises InvalidCocycle when the lift's coboundary is not integral."""
    from realdeligne import cechengine, exactalg
    from realdeligne.errors import InvalidCocycle

    cover = fc.cover
    sub, _ = cechengine._orbit_complex(cover, -1)
    basis = cechengine.tuple_basis(cover, 1)
    perm = cechengine.basis_involution(cover, 1)
    lift = [Fraction(0)] * len(basis)
    for pos, ((i, j), c) in enumerate(basis.elements):
        if pos < perm[pos]:
            lift[pos] = frac_mod1(fc.angles[(i, j, c)])
            lift[perm[pos]] = -lift[pos]
    raw = [
        sum((x * lift[col] for col, x in row.items()), Fraction(0))
        for row in cechengine.cech_differential(cover, 1).rows
    ]
    if any(x.denominator != 1 for x in raw):
        raise InvalidCocycle("coboundary of the lift is not integral")
    y_beta = orbit_coordinates(cechengine.basis_involution(cover, 2), -1, [int(x) for x in raw])
    torsion = tuple(y % d for y, d in smith_reading(sub, 2, y_beta)[1])
    if any(torsion):
        return None, torsion
    mu = exactalg.coboundary_preimage(sub, 2, y_beta)
    residual = [a - b for a, b in zip(orbit_coordinates(perm, -1, lift), mu)]
    return tuple(frac_mod1(y) for y in smith_reading(sub, 1, residual)[0]), torsion


def smith_reading(c, k, cocycle):
    """``(free, torsion)``: the entries of ``u (L v)`` at the free
    positions, and ``(entry, order)`` at the torsion positions, for ``L``
    the kernel left inverse and ``u`` the Smith row transform behind
    ``class_coordinates``; the torsion entries are not reduced.  This reads
    the transforms themselves, not the cached rows ``R_k`` the engine reads
    its coordinates through."""
    from realdeligne import flatclasses

    data, w = flatclasses._kernel_coordinates(c, k, cocycle)
    y = data["x_smith"].u.matvec(w)
    return [y[i] for i in data["free_pos"]], [(y[i], d) for i, d in data["torsion_pos"]]


# ---------------------------------------------------------------------------
# unnormalized ordered cochains, fixed complex by the Smith route
# ---------------------------------------------------------------------------


def degenerate_tuples(cover, p):
    """Basis of unnormalized degree-``p`` cochains: every word of ``p + 1``
    indices, repeats allowed anywhere, whose support intersects, one
    element ``(word, component)`` per component of that intersection."""
    from itertools import product

    return [
        (word, c)
        for word in product(sorted(cover.indices), repeat=p + 1)
        for c in sorted(cover.components_of(word))
    ]


def degenerate_orbit_complex(cover, sign, top):
    """The fixed complex, in degrees ``0 .. top``, of the unnormalized
    ordered cochains of a free cover under the word involution times
    ``sign``.  Face ``k`` of ``(word, c)`` deletes entry ``k`` with sign
    ``(-1)^k``, moving ``c`` to the face component when that was the last
    occurrence of its index; every face of a word lies in the basis."""
    from realdeligne.exactalg import IntegerCochainComplex, SparseIntMatrix, fixed_subcomplex

    bases = [degenerate_tuples(cover, p) for p in range(top + 1)]
    where = [{e: n for n, e in enumerate(b)} for b in bases]
    diffs = {}
    for p in range(top):
        d = SparseIntMatrix(len(bases[p + 1]), len(bases[p]))
        for row, (word, c) in zip(d.rows, bases[p + 1]):
            for k, i in enumerate(word):
                face = word[:k] + word[k + 1 :]
                col = where[p][face, c if i in face else cover.face(c, i)]
                row[col] = row.get(col, 0) + (-1) ** k
                if not row[col]:
                    del row[col]
        diffs[p] = d
    full = IntegerCochainComplex({p: len(b) for p, b in enumerate(bases)}, diffs)
    t = {}
    for p, basis in enumerate(bases):
        image = [where[p][tuple(map(cover.t, word)), cover.sigma(c)] for word, c in basis]
        t[p] = SparseIntMatrix(len(basis), len(basis), [{j: sign} for j in image])
    return fixed_subcomplex(full, t)[0]


# ---------------------------------------------------------------------------
# the rank of H^k by plain Smith
# ---------------------------------------------------------------------------


def plain_smith_rank(c, k):
    """``n_k - rank d_k - rank d_(k-1)`` of a complex, each rank by plain
    Smith on the whole differential (:func:`realdeligne.exactalg.integer_rank`),
    not by the cached unit-pivot diagonals the descriptors read."""
    from realdeligne.exactalg import integer_rank

    return c.rank(k) - integer_rank(c.diff(k)) - integer_rank(c.diff(k - 1))


# ---------------------------------------------------------------------------
# the total complex of a coefficient complex
# ---------------------------------------------------------------------------


def total_blocks(cover, fstar):
    """The blocks of the total differential, as a function of the total
    degree ``n``.

    Columns are the summands (term degree i, Cech degree j = n - i); rows
    the same at n + 1.  Vertical maps carry the sign (-1)^i on the Cech
    coboundary; horizontal maps are the coefficient maps degreewise.  Each
    call returns (A, B, C): integer-to-integer, integer-to-rational and
    rational-to-rational blocks (there are no rational-to-integer maps).
    The Cech direction is each sign's descriptor complex; the function
    holds those, not the cover.
    """
    from realdeligne.cechengine import build_descriptor_complex
    from realdeligne.exactalg import SparseIntMatrix

    subs = {t.sign: build_descriptor_complex(cover, t.sign) for t in fstar.terms}

    def layout(n):
        # offset of each summand (i, n - i) in its term's part of Tot^n
        offset, size = {}, {"Z": 0, "Q": 0}
        for i, t in enumerate(fstar.terms[: n + 1]):
            offset[i] = size[t.base]
            size[t.base] += subs[t.sign].rank(n - i)
        return offset, size

    def blocks(n):
        (src, ssize), (dst, dsize) = layout(n), layout(n + 1)
        m = {(x, y): SparseIntMatrix(dsize[y], ssize[x]) for x, y in ("ZZ", "ZQ", "QQ")}
        for i, col in src.items():
            t, sub = fstar.terms[i], subs[fstar.terms[i].sign]
            # vertical: same term, Cech degree up one
            m[t.base, t.base].set_block(dst[i], col, sub.diff(n - i), scale=-1 if i % 2 else 1)
            # horizontal: next term, same Cech degree
            if i + 1 < len(fstar) and fstar.rate(i):
                target = m[t.base, fstar.terms[i + 1].base]
                for s in range(sub.rank(n - i)):
                    target.set(dst[i + 1] + s, col + s, fstar.rate(i))
        return m["Z", "Z"], m["Z", "Q"], m["Q", "Q"]

    return blocks


def total_complex(cover, fstar):
    """The total complex of the equivariant double complex of an
    all-integer ``fstar``, read unfolded: its differential is the integer
    block of :func:`total_blocks`, built one total degree at a time as it
    is read, each checked (shape, d∘d = 0) once.  It holds the descriptor
    complexes, not the cover."""
    from realdeligne import cechengine

    blocks = total_blocks(cover, fstar)
    # the map into total degree 0 has Tot^0 as its target
    return cechengine._growing(blocks(-1)[0].nrows, lambda n: blocks(n)[0])


def reduced_quotient(cover, fstar, k):
    """The reduced H^k of the total complex of a ``fstar`` with rational
    terms, unfolded: the integer parts of its cocycles modulo the integer
    coboundaries, ``ker [A_k; E B_k] / im A_(k-1)`` by the transform
    route (:func:`realdeligne.verify.kernel_quotient`), with ``E`` the
    left kernel of the rational block ``C_k``, so that ``E B_k x = 0``
    says ``B_k x`` lies in the rational column span of ``C_k``."""
    from realdeligne import exactalg, verify

    blocks = total_blocks(cover, fstar)
    a_k, b_k, c_k = blocks(k)
    e = exactalg.as_sparse(exactalg.kernel_basis(c_k.transpose())).transpose()
    stacked = exactalg.SparseIntMatrix(a_k.nrows + e.nrows, a_k.ncols)
    stacked.set_block(0, 0, a_k)
    stacked.set_block(a_k.nrows, 0, e.matmul(b_k))
    return verify.kernel_quotient(stacked, blocks(k - 1)[0])


# ---------------------------------------------------------------------------
# the cover checks and the nerve model, the set-by-set way
# ---------------------------------------------------------------------------


def cover_violations(cover):
    """Every structural violation of a cover's parts, in the order the
    package reports them, found the set-by-set way: every drop, face
    target and involution image is a frozenset compared with the listed
    ones, and every face pair is looked up by key.  The package's
    ``coverdata._checked`` must raise exactly this list (or pass on [])."""
    from itertools import combinations

    from realdeligne.errors import (
        FACE_INCOHERENCE,
        INVOLUTION_FACE_MISMATCH,
        INVOLUTION_NOT_SELF_INVERSE,
        NOT_DOWNWARD_CLOSED,
    )

    indices, involution, intersections = cover.indices, cover.involution, cover.intersections
    faces, comp_inv = cover.faces, cover.component_involution
    out = []
    index_set = set(indices)
    if len(index_set) != len(indices):
        out.append((INVOLUTION_NOT_SELF_INVERSE, "duplicate index names"))
    for i in indices:
        ti = involution.get(i)
        if ti is None or ti not in index_set:
            out.append((INVOLUTION_NOT_SELF_INVERSE, f"involution undefined or escapes the index set at {i!r}"))
        elif involution.get(ti) != i:
            out.append((INVOLUTION_NOT_SELF_INVERSE,
                        f"involution not self-inverse at {i!r}: t(t({i!r})) = {involution.get(ti)!r}"))
    for i in sorted(set(involution) - index_set):
        out.append((INVOLUTION_NOT_SELF_INVERSE, f"involution defined on unknown index {i!r}"))
    if out:
        return out

    support_of = {}
    for subset, comps in intersections.items():
        if not subset:
            out.append((NOT_DOWNWARD_CLOSED, "empty subset listed in intersections"))
            continue
        stray = subset - index_set
        if stray:
            out.append((NOT_DOWNWARD_CLOSED, f"subset {sorted(subset)} uses unknown indices {sorted(stray)}"))
            continue
        if not comps:
            out.append((NOT_DOWNWARD_CLOSED,
                        f"subset {sorted(subset)} listed with no components; omit empty intersections"))
        for c in comps:
            if c in support_of:
                out.append((FACE_INCOHERENCE, f"component id {c!r} used by two subsets"))
            support_of[c] = subset
    for i in indices:
        if frozenset([i]) not in intersections:
            out.append((NOT_DOWNWARD_CLOSED, f"singleton {{{i!r}}} missing from intersections"))

    below = {}
    for subset in intersections:
        if len(subset) < 2:
            continue
        below[subset] = [(i, subset - {i}) for i in sorted(subset)]
        for i, smaller in below[subset]:
            if smaller not in intersections:
                out.append((NOT_DOWNWARD_CLOSED,
                            f"subset {sorted(subset)} intersects but {sorted(smaller)} carries no components"))

    face_of = {}
    for c, subset in support_of.items():
        if len(subset) < 2:
            continue
        for i, smaller in below[subset]:
            target = faces.get((c, i))
            if target is None:
                out.append((FACE_INCOHERENCE, f"face of component {c!r} dropping {i!r} is missing"))
            elif support_of.get(target) == smaller:
                face_of[(c, i)] = target
            else:
                out.append((FACE_INCOHERENCE, f"face of {c!r} dropping {i!r} lands in {target!r}, "
                                              f"which is not a component of {sorted(smaller)}"))
    for (c, i) in faces:
        subset = support_of.get(c)
        if subset is None or i not in subset or len(subset) < 2:
            out.append((FACE_INCOHERENCE, f"face entry ({c!r}, drop {i!r}) does not match any component support"))
    for c, subset in support_of.items():
        if len(subset) < 3:
            continue
        for i, j in combinations(sorted(subset), 2):
            ci, cj = face_of.get((c, i)), face_of.get((c, j))
            if ci is None or cj is None:
                continue
            via_i, via_j = face_of.get((ci, j)), face_of.get((cj, i))
            if via_i is not None and via_j is not None and via_i != via_j:
                out.append((FACE_INCOHERENCE, f"dropping {i!r} then {j!r} from {c!r} gives {via_i!r} "
                                              f"but the other order gives {via_j!r}"))

    for c in support_of:
        sc = comp_inv.get(c)
        if sc is None or sc not in support_of:
            out.append((INVOLUTION_FACE_MISMATCH,
                        f"component involution undefined or escapes known components at {c!r}"))
            continue
        if comp_inv.get(sc) != c:
            out.append((INVOLUTION_NOT_SELF_INVERSE, f"component involution not self-inverse at {c!r}"))
        expected = frozenset(involution[i] for i in support_of[c])
        if support_of[sc] != expected:
            out.append((INVOLUTION_FACE_MISMATCH, f"component {c!r} of {sorted(support_of[c])} maps to {sc!r} "
                                                  f"of {sorted(support_of[sc])}, expected a component of {sorted(expected)}"))
    for c in sorted(set(comp_inv) - set(support_of)):
        out.append((INVOLUTION_FACE_MISMATCH, f"component involution defined on unknown component {c!r}"))
    for (c, i), f in face_of.items():
        sc = comp_inv.get(c)
        if sc not in support_of or f not in comp_inv:
            continue
        rhs = faces.get((sc, involution[i]))
        if rhs is not None and comp_inv[f] != rhs:
            out.append((INVOLUTION_FACE_MISMATCH,
                        f"involution and face maps disagree on component {c!r} dropping {i!r}"))
    return out


def alternating_basis(cover, j):
    """The degree-``j`` alternating basis as the nerve model lists it: the
    sorted ``(j + 1)``-subsets with a nonempty intersection, one element
    ``(members, component)`` per component, in sorted order; empty above
    the nerve's dimension."""
    return sorted(
        (tuple(sorted(s)), c) for s, comps in cover.intersections.items() if len(s) == j + 1 for c in comps
    )


def nerve_model_parts(cover):
    """``(bases, diffs, actions)`` of a valid cover's unreduced alternating
    model, degree by degree, each basis from its own scan of the nerve:
    the element lists, the coboundaries as row dicts and the involution as
    ``(perm, eps)``, its sign an inversion count.  The package's
    ``cechengine._nerve_model`` must hold the same, in the same order."""
    top = max(map(len, cover.intersections), default=1) - 1
    bases = [
        [(tup, c)
         for tup in sorted(tuple(sorted(s)) for s in cover.intersections if len(s) == j + 1)
         for c in sorted(cover.components_of(tup))]
        for j in range(top + 2)
    ]
    where = [{e: n for n, e in enumerate(b)} for b in bases]
    diffs = []
    for j in range(top + 1):
        rows = []
        for tup, c in bases[j + 1]:
            rows.append({where[j][tup[:k] + tup[k + 1 :], cover.face(c, i)]: (-1) ** k for k, i in enumerate(tup)})
        diffs.append(rows)
    actions = []
    for j in range(top + 1):
        perm, eps = [], []
        for tup, c in bases[j]:
            image = [cover.t(i) for i in tup]
            inversions = sum(a > b for n, a in enumerate(image) for b in image[n + 1 :])
            perm.append(where[j][tuple(sorted(image)), cover.sigma(c)])
            eps.append((-1) ** inversions)
        actions.append((perm, eps))
    return bases, diffs, actions


def augmented(diffs, actions):
    """The checked model of ``(diffs, actions)`` with the empty simplex as
    a new degree 0: rank 1, fixed with sign +1, ``d`` the column of ones."""
    from realdeligne.cechengine import AlternatingModel
    from realdeligne.exactalg import SparseIntMatrix

    n = len(actions[0][0])
    return AlternatingModel([SparseIntMatrix(n, 1, [{0: 1} for _ in range(n)]), *diffs], [([0], [1]), *actions])


def augmented_model(cover):
    """The cover's reduced model with the empty simplex prepended: a
    nerve's augmented before it is reduced, a product's reduced model
    augmented, a join's the reduced tensor model of its factors'."""
    from realdeligne import cechengine

    if cover.joined:
        return cechengine._reduced(cechengine._tensor_model(*map(augmented_model, cover.factors)))
    if cover.factors:
        model = cechengine._alternating_model(cover)
        return augmented(model.diffs, model.actions)
    return cechengine._reduced(augmented(*cechengine._nerve_parts(cover)))


def join_model(cover):
    """A join's reduced model: :func:`augmented_model` without degree 0,
    checked again as a model of its own.  It holds for joins of covers
    with free vertices only: it reduces with the empty simplex in place,
    and a fixed vertex could pivot it away."""
    from realdeligne.cechengine import AlternatingModel

    model = augmented_model(cover)
    return AlternatingModel(model.diffs[1:], model.actions[1:])


def doubled_parts(cover):
    """``(indices, involution, intersections, faces, component_involution)``
    of ``coverdata.double_fixed_indices`` on a cover with fixed indices that
    passes every other check, built the set-by-set way, every dict in the
    order the package fills it."""
    indices, involution = cover.indices, cover.involution
    faces, comp_inv = cover.faces, cover.component_involution
    fixed = [i for i in indices if involution.get(i) == i]

    used = set(indices)
    copy_of = {}
    for i in fixed:
        fresh = i + "'"
        while fresh in used:
            fresh += "'"
        copy_of[i] = fresh
        used.add(fresh)
    underlying = {ip: i for i, ip in copy_of.items()}
    for i in indices:
        underlying[i] = i

    new_indices = []
    new_involution = {}
    for i in indices:
        new_indices.append(i)
        if i in copy_of:
            new_indices.append(copy_of[i])
            new_involution[i] = copy_of[i]
            new_involution[copy_of[i]] = i
        else:
            new_involution[i] = involution[i]

    originals = set(indices)

    def decorate(comp, subset):
        if subset <= originals:
            return comp
        return comp + "|" + ",".join(sorted(subset))

    new_intersections = {}
    comp_origin = {}  # new component id -> (old component id, new subset)
    for subset, comps in cover.intersections.items():
        stack = [()]
        for i in sorted(subset):
            opts = [(i,), (copy_of[i],), (i, copy_of[i])] if i in copy_of else [(i,)]
            stack = [acc + opt for acc in stack for opt in opts]
        for members in stack:
            new_subset = frozenset(members)
            ids = tuple(decorate(c, new_subset) for c in comps)
            new_intersections[new_subset] = ids
            for cid, c in zip(ids, comps):
                comp_origin[cid] = (c, new_subset)

    new_faces = {}
    for cid, (c, new_subset) in comp_origin.items():
        if len(new_subset) < 2:
            continue
        old_support = frozenset(underlying[y] for y in new_subset)
        for x in sorted(new_subset):
            smaller = new_subset - {x}
            if frozenset(underlying[y] for y in smaller) == old_support:
                target_old = c  # dropped a redundant copy; same underlying set
            else:
                target_old = faces[(c, underlying[x])]
            new_faces[(cid, x)] = decorate(target_old, smaller)

    new_comp_inv = {}
    for cid, (c, new_subset) in comp_origin.items():
        t_subset = frozenset(new_involution[x] for x in new_subset)
        new_comp_inv[cid] = decorate(comp_inv[c], t_subset)
    return tuple(new_indices), new_involution, new_intersections, new_faces, new_comp_inv


def cross_polytope_raw(n):
    """The cover file (``C2Cover.to_raw``) of the antipodal ``n``-sphere by
    its ``2(n + 1)`` open hemispheres ``x_i > 0`` and ``x_i < 0``: each axis
    contributes its + cap, its - cap or neither, which gives the ``3^(n+1)
    - 1`` nonempty faces of the cross-polytope, each in one piece named by
    its caps in order joined by ``|``."""
    opposite = {f"x{i}{s}": f"x{i}{t}" for i in range(n + 1) for s, t in ("+-", "-+")}
    faces = [sorted(filter(None, choice)) for choice in product(*(("", f"x{i}+", f"x{i}-") for i in range(n + 1)))]
    faces = sorted((caps for caps in faces if caps), key=lambda caps: (len(caps), caps))
    name = "|".join
    return {
        "name": f"sphere_antipodal_{n}",
        "involution_name": "antipodal",
        "indices": list(opposite),
        "involution": opposite,
        "intersections": [{"sets": caps, "components": [name(caps)]} for caps in faces],
        "faces": [
            {"component": name(caps), "drop": i, "in_component": name([x for x in caps if x != i])}
            for caps in sorted(faces, key=name) if len(caps) > 1 for i in caps
        ],
        "component_involution": {name(caps): name(sorted(map(opposite.get, caps))) for caps in sorted(faces, key=name)},
        "good": True,
        "compact": True,
    }
