"""Self-check suites run over every catalog space.

Each suite pits two independently implemented routes to the same quantity
against each other and collects a failure record for every disagreement.
An empty list means the suite passed.

Second routes that only these checks read live here too, and resolve in
``exactalg`` on first read: the dense interchange, the rank and solves by
plain Smith on the whole matrix, and the fixed subcomplex of any
degreewise involution by the Smith form of ``t_k - id``.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from . import catalog
from .cechengine import (
    AlternatingModel,
    CoefficientComplex,
    _alternating_model,
    _borel_of,
    _descriptor,
    _descriptor_of,
    _join_model,
    _nerve_model,
    _tensor_model,
    build_descriptor_complex,
    equivariant_cohomology,
    hypercohomology,
    nonequivariant_cohomology,
)
from .coverdata import IQ, IZ, C2Cover, CoefficientSystem, Z_TRIVIAL, join_cover
from .deligne import deligne_descriptor, quotient_coefficients_cohomology
from .errors import NotAnInvolution, NotEquivariant
from .exactalg import (
    GroupDescriptor,
    IntegerCochainComplex,
    SparseIntMatrix,
    _diagonal,
    _smith,
    _SmithData,
    as_sparse,
    complex_cohomology,
)
from .flatclasses import _orbit_complex, build_equivariant_complex, build_full_complex, involution_matrix


def smith_normal_form(m):
    """Smith normal form with transforms: ``(d, u, v)``, lists of row lists,
    with ``u @ m @ v == d``, ``u`` and ``v`` unimodular, and the diagonal of
    ``d`` nonnegative with each entry dividing the next."""
    res = _smith(as_sparse(m), transforms=True)
    d = SparseIntMatrix(res.nrows, res.ncols)
    for t, x in enumerate(res.diag):
        d.set(t, t, x)
    return d.to_dense(), res.u.to_dense(), res.vT.transpose().to_dense()


def kernel_basis(m):
    """A basis of the integer kernel (a saturated sublattice) as the columns
    of a list of row lists."""
    return _smith(as_sparse(m), rows=False).kernel_basis().to_dense()


def integer_rank(m) -> int:
    return _smith(as_sparse(m), transforms=False).rank()


def solve_int(m, b):
    """Exact integral solution of ``m @ x == b`` for a vector ``b``: a list,
    or None.  ``b`` must have one entry per row of ``m`` (else ValueError)."""
    return _smith(as_sparse(m), transforms=True).solve(b, rational=False)


def solve_rational(m, b):
    """Exact rational solution of ``m @ x == b`` for a vector ``b``: a list,
    or None.  ``b`` must have one entry per row of ``m`` (else ValueError)."""
    return _smith(as_sparse(m), transforms=True).solve(b, rational=True)


def _fixed_lattice(k: int, tk: SparseIntMatrix, n: int) -> _SmithData:
    """Check that ``tk`` is an involution of ``Z^n``; return the Smith
    reduction of ``t_k - id``, whose kernel is the saturated fixed lattice."""
    if tk.shape != (n, n):
        raise NotAnInvolution(f"map at degree {k} has shape {tk.shape}, want ({n}, {n})")
    if tk.matmul(tk) != SparseIntMatrix.identity(n):
        raise NotAnInvolution(f"map at degree {k} does not square to the identity")
    delta = tk.copy()
    delta.set_block(0, 0, SparseIntMatrix.identity(n), scale=-1)
    return _smith(delta, rows=False)


def fixed_subcomplex(c: IntegerCochainComplex, involution: dict):
    """Subcomplex of vectors fixed by a degreewise involution.

    ``involution[k]`` must be a square integer matrix with ``t_k^2 = id``
    commuting with the differentials.  Returns ``(sub, bases)`` where
    ``bases[k]`` has as columns a basis of the saturated fixed sublattice
    ``ker(t_k - id)`` (computed from its Smith form) and ``sub`` carries the
    rewritten differentials in those bases.

    This is the general route, for any involution: the engine's free
    signed permutations go through ``exactalg._grow_orbit_complex``, and this
    one serves as its independent cross-check.
    """
    t = {k: as_sparse(involution[k]) for k in c.degrees()}
    basis = _fixed_lattice(c.lo, t[c.lo], c.rank(c.lo)).kernel_basis()
    sub = IntegerCochainComplex({c.lo: basis.ncols}, {})
    bases = {c.lo: basis}
    for k in range(c.lo, c.hi):
        sm = _fixed_lattice(k + 1, t[k + 1], c.rank(k + 1))
        d = c.diff(k)
        if t[k + 1].matmul(d) != d.matmul(t[k]):
            raise NotEquivariant(f"map does not commute with the differential at degree {k}")
        basis = sm.kernel_basis()
        image = d.matmul(bases[k])
        dk = sm.kernel_left_inverse().matmul(image)
        if basis.matmul(dk) != image:
            raise NotEquivariant(
                f"differential at degree {k} does not preserve the fixed sublattice"
            )
        bases[k + 1] = basis
        sub.extend(basis.ncols, dk)
    return sub, bases


def _spaces():
    return [(catalog.entry_label(e), e.build()) for e in catalog.ENTRIES]


def _record(suite, space, check, detail):
    return {"suite": suite, "space": space, "check": check, "detail": detail}


def _check_smith(out, m, space, check):
    """Postconditions of the public ``smith_normal_form`` and
    ``kernel_basis`` on ``m``, checked with sparse products."""
    m = as_sparse(m)
    d, u, v = smith_normal_form(m)
    if as_sparse(u).matmul(m).matmul(as_sparse(v)).to_dense() != d:
        out.append(_record("snf", space, check, "u @ m @ v != d"))
    diag = [d[i][i] for i in range(min(m.shape))]
    chain = [x for x in diag if x != 0]
    if any(x < 0 for x in diag) or any(
        b % a for a, b in zip(chain, chain[1:])
    ):
        out.append(_record("snf", space, check, f"bad diagonal {diag}"))
    if any(diag[i] == 0 and diag[i + 1] != 0 for i in range(len(diag) - 1)):
        out.append(_record("snf", space, check, f"zeros precede units in {diag}"))
    if not m.matmul(as_sparse(kernel_basis(m))).is_zero():
        out.append(_record("snf", space, check, "kernel basis not annihilated"))


def kernel_quotient(matrix, generators) -> GroupDescriptor:
    """Descriptor of ``ker(matrix) / span(generator columns)`` over Z, the
    route ``complex_cohomology`` is checked against.

    The generators must be integral and annihilated by ``matrix``; since the
    kernel basis is saturated this makes them honest lattice points, and
    their coordinates in it are one product with the kernel's left inverse.
    The quotient is read off the Smith diagonal of those coordinates."""
    m, gens = as_sparse(matrix), as_sparse(generators)
    if not m.matmul(gens).is_zero():
        raise ValueError("generators do not lie in the kernel")
    kernel = _smith(m, rows=False)
    diag = _smith(kernel.kernel_left_inverse().matmul(gens), transforms=False).diag
    rank = len(kernel.kernel_columns()) - sum(1 for x in diag if x)
    return GroupDescriptor(rank, tuple(x for x in diag if x > 1))


def _check_diagonal(out, c, k, space, check):
    """The descriptor diagonal (unit pivots, then Smith on the residual)
    against plain ``_smith`` of the whole differential, entry by entry."""
    fast, plain = _diagonal(c, k), _smith(c.diff(k), transforms=False).diag
    if fast != plain:
        out.append(_record("snf", space, check, f"unit-pass diagonal {fast} vs Smith {plain}"))


def suite_snf():
    """Smith-form postconditions on random matrices and real differentials,
    the descriptor diagonals (unit pivots first) against plain Smith on
    those matrices, and descriptors read off the Smith diagonals
    (``complex_cohomology``) against the kernel-quotient route
    (:func:`kernel_quotient`) on the orbit, Borel and descriptor
    complexes and the cones of multiplication by 2 and 3 on the sign -1
    descriptor complex."""
    out = []
    rng = random.Random(20240917)
    for case in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        check = f"case {case} shape {(nrows, ncols)}"
        _check_smith(out, m, "random", check)
        single = IntegerCochainComplex({0: ncols, 1: nrows}, {0: m})
        _check_diagonal(out, single, 0, "random", f"diagonal of {check}")
    for label, cover in _spaces():
        full = build_full_complex(cover, 2)
        for k in (0, 1):
            _check_smith(out, full.diff(k), label, f"differential d_{k}")
        complexes = [(f"fixed sign {sign}", _orbit_complex(cover, sign)[0]) for sign in (-1, 1)]
        model = _alternating_model(cover)
        complexes += [(f"Borel sign {sign}", _borel_of(model, sign)) for sign in (-1, 1)]
        complexes += [
            (f"descriptor sign {sign}", build_descriptor_complex(cover, sign)) for sign in (-1, 1)
        ]
        complexes += [
            (f"cone {n}", _multiplication_cone(build_descriptor_complex(cover, -1), n, 4))
            for n in (2, 3)
        ]
        for name, c in complexes:
            for k in range(4):
                _check_diagonal(out, c, k, label, f"diagonal of d_{k} of the {name} complex")
                diagonal = complex_cohomology(c, k)
                quotient = kernel_quotient(c.diff(k), c.diff(k - 1))
                if diagonal != quotient:
                    out.append(
                        _record(
                            "snf",
                            label,
                            f"H^{k} of the {name} complex",
                            f"diagonals {diagonal} vs kernel quotient {quotient}",
                        )
                    )
    return out


def suite_les():
    """Rank accounting across the coefficient sequences.

    The rational rank from the descriptor route must equal the rank of H^k
    of the descriptor complex by plain Smith, ``n_k - rank d_k - rank
    d_(k-1)`` with :func:`integer_rank` (the route reads the unit-pivot
    diagonals instead), and mod-n cohomology computed through lifted
    torsion invariants must match the cone of multiplication by n on the
    sign -1 descriptor complex, one degree up, built here
    (:func:`_multiplication_cone`).
    """
    out = []
    n_deg = 4
    for label, cover in _spaces():
        for sign in (-1, 1):
            c = build_descriptor_complex(cover, sign)
            for k in range(n_deg):
                gq = equivariant_cohomology(cover, CoefficientSystem.rationals(sign), k, n_deg)
                plain = c.rank(k) - integer_rank(c.diff(k)) - integer_rank(c.diff(k - 1))
                if gq != GroupDescriptor(plain):
                    detail = f"route {gq} vs plain Smith rank {plain}"
                    out.append(_record("les", label, f"rational H^{k} sign {sign}", detail))
        for n in (2, 3):
            cone = _multiplication_cone(build_descriptor_complex(cover, -1), n, 4)
            for k in range(3):
                direct = equivariant_cohomology(
                    cover, CoefficientSystem.integers_mod(n, -1), k, k + 2
                )
                via_cone = complex_cohomology(cone, k + 1)
                if direct != via_cone:
                    out.append(
                        _record(
                            "les",
                            label,
                            f"H^{k} mod {n}",
                            f"direct {direct} vs cone {via_cone}",
                        )
                    )
    return out


def suite_refinement():
    """Coarse and fine covers of the same space must agree degreewise."""
    out = []
    for coarse_name, fine_name in catalog.REFINEMENT_PAIRS:
        coarse = catalog.build(coarse_name)
        fine = catalog.build(fine_name)
        for coeff in (IZ, Z_TRIVIAL, IQ):
            for k in range(3):
                a = equivariant_cohomology(coarse, coeff, k, 4)
                b = equivariant_cohomology(fine, coeff, k, 4)
                if a != b:
                    out.append(
                        _record(
                            "refinement",
                            f"{coarse_name}/{fine_name}",
                            f"H^{k} coeff {coeff}",
                            f"coarse {a} vs fine {b}",
                        )
                    )
        for p, q in ((2, 2), (3, 2)):
            da = deligne_descriptor(coarse, p, q).to_record()
            db = deligne_descriptor(fine, p, q).to_record()
            da.pop("space")
            db.pop("space")
            if da != db:
                out.append(
                    _record(
                        "refinement",
                        f"{coarse_name}/{fine_name}",
                        f"descriptor ({p},{q})",
                        f"coarse {da} vs fine {db}",
                    )
                )
    return out


def suite_bockstein():
    """Circle coefficients (the compact-extension descriptor) against the
    hypercohomology of the inclusion of integers into rationals, and both
    against the torsion of the orbit complex one degree up."""
    out = []
    incl = CoefficientComplex((IZ, IQ), ("incl",))
    for label, cover in _spaces():
        orbit, _ = _orbit_complex(cover, -1)
        for k in range(4):
            assembled = quotient_coefficients_cohomology(cover, k)
            total = hypercohomology(cover, incl, k + 1, k + 3)
            ordered = complex_cohomology(orbit, k + 1).torsion
            if total.rank != 0:
                out.append(
                    _record(
                        "bockstein",
                        label,
                        f"reduced rank at {k + 1}",
                        f"expected 0, got {total.rank}",
                    )
                )
            if not tuple(assembled.torsion) == tuple(total.torsion) == tuple(ordered):
                out.append(
                    _record(
                        "bockstein",
                        label,
                        f"torsion at H^{k}",
                        f"assembled {assembled.torsion} vs total {total.torsion}"
                        f" vs orbit {ordered}",
                    )
                )
    return out


def column_permutation(a: SparseIntMatrix, b: SparseIntMatrix):
    """The permutation matrix ``p`` with ``a == b @ p`` when the columns of
    ``a`` are those of ``b`` in some order, else None."""
    if a.shape != b.shape:
        return None

    def columns(m):
        cols = [[] for _ in range(m.ncols)]
        for i, row in enumerate(m.rows):
            for j, x in row.items():
                cols[j].append((i, x))
        return [tuple(c) for c in cols]

    where = {col: j for j, col in enumerate(columns(b))}
    p = SparseIntMatrix(b.ncols, a.ncols)
    for j, col in enumerate(columns(a)):
        i = where.pop(col, None)
        if i is None:
            return None
        p.rows[i][j] = 1
    return p


def suite_fixed():
    """The engine's orbit-sum fixed complex against the Smith form of
    ``t_k - id``: the same basis columns, differentials conjugate by the
    column permutations, equal cohomology."""
    out = []
    md = 4
    for label, cover in _spaces():
        full = build_full_complex(cover, md)
        for sign in (-1, 1):
            coeff = CoefficientSystem.integers(sign)
            sub, bases = build_equivariant_complex(cover, coeff, md)
            t_maps = {k: involution_matrix(cover, k, sign) for k in full.degrees()}
            ref, ref_bases = fixed_subcomplex(full, t_maps)

            def fail(check, detail):
                out.append(_record("fixed", label, f"{check} sign {sign}", detail))

            perms = {}
            for k in ref.degrees():
                perms[k] = p = column_permutation(bases[k], ref_bases[k])
                if p is None or bases[k] != ref_bases[k].matmul(p):
                    fail(f"basis {k}", "columns differ as a set")
            for k in range(ref.lo, ref.hi):
                p, q = perms[k], perms[k + 1]
                if p is None or q is None:
                    continue
                if sub.diff(k) != q.transpose().matmul(ref.diff(k)).matmul(p):
                    fail(f"d_{k}", "not conjugate by the basis permutations")
            for k in range(md):
                a, b = complex_cohomology(sub, k), complex_cohomology(ref, k)
                if a != b:
                    fail(f"H^{k}", f"orbit {a} vs Smith {b}")
    return out


def _multiplication_cone(c, n: int, hi: int):
    """Total complex of ``c --n--> c`` in degrees ``0 .. hi``: ``Tot^k =
    C^k + C^(k-1)`` and ``D_k = [[d_k, 0], [n, -d_(k-1)]]``."""
    cone = IntegerCochainComplex({0: c.rank(0)}, {})
    for k in range(hi):
        d = SparseIntMatrix(c.rank(k + 1) + c.rank(k), c.rank(k) + c.rank(k - 1))
        d.set_block(0, 0, c.diff(k))
        for s in range(c.rank(k)):
            d.set(c.rank(k + 1) + s, s, n)
        d.set_block(c.rank(k + 1), c.rank(k), c.diff(k - 1), scale=-1)
        cone.extend(d.nrows, d)
    return cone


def suite_borel():
    """The descriptor route (``equivariant_cohomology`` and
    ``hypercohomology``, which read the alternating fixed complex or the
    Borel complex ``Hom_C2(W, C_alt)``) and the Borel complex of the
    cover's reduced model, built here whether or not the route reads it,
    against the orbit complex of ordered cochains: H^0..H^4 with Z, Q, Z/2
    and Z/3 coefficients and both signs, and the cones of multiplication by
    2 and 3."""
    out = []
    top = 5
    for label, cover in _spaces():
        for sign in (-1, 1):
            integral = CoefficientSystem.integers(sign)
            orbit, _ = _orbit_complex(cover, sign)
            borel = _borel_of(_alternating_model(cover), sign)

            def compare(check, ordered, route, direct):
                if not ordered == route == direct:
                    detail = f"orbit {ordered} vs descriptor {route} vs Borel {direct}"
                    out.append(_record("borel", label, f"{check} sign {sign}", detail))

            for coeff in (
                integral,
                CoefficientSystem.rationals(sign),
                CoefficientSystem.integers_mod(2, sign),
                CoefficientSystem.integers_mod(3, sign),
            ):
                for k in range(top):
                    if coeff.base == "Q":  # the integral rank, not a second reduction
                        ordered = GroupDescriptor(complex_cohomology(orbit, k).rank)
                    else:
                        ordered = _descriptor(orbit, k, coeff)
                    route = equivariant_cohomology(cover, coeff, k, top)
                    compare(f"H^{k} coeff {coeff}", ordered, route, _descriptor(borel, k, coeff))
            for n in (2, 3):
                fstar = CoefficientComplex((integral, integral), (n,))
                ordered = _multiplication_cone(orbit, n, top)
                direct = _multiplication_cone(borel, n, top)
                for k in range(top):
                    compare(
                        f"H^{k} cone {n}",
                        complex_cohomology(ordered, k),
                        hypercohomology(cover, fstar, k, top),
                        complex_cohomology(direct, k),
                    )
    return out


# The catalog names a torus takes as factors, but point_trivial_fine: its
# square's nerve alone has 65535 subsets (8 s to build)
PRODUCT_FACTORS = (
    "point_trivial", "free_orbit", "circle_antipodal", "circle_antipodal_fine",
    "circle_conjugation", "sphere_antipodal",
)
# Rational ranks and cones on the nerve side cost seconds past this size
SMALL_NERVE = 5000


def _nerve_only(cover: C2Cover) -> C2Cover:
    """The cover's nerve, checked, as a cover without factors, as its file
    reads back."""
    return C2Cover(
        cover.name, cover.involution_name, cover.indices, cover.involution,
        cover.intersections, cover.faces, cover.component_involution,
        cover.good, cover.compact,
    )


def _unreduced_model(cover: C2Cover) -> AlternatingModel:
    """The alternating model as it is built, before the engine reduces it:
    the nerve's, or the join or tensor model of the factors' unreduced
    models."""
    if cover.factors:
        return (_join_model if cover.joined else _tensor_model)(*map(_unreduced_model, cover.factors))
    return _nerve_model(cover)


# Joins beside the spheres; only the second's model is not free (Borel route)
JOIN_PAIRS = (("circle_antipodal", "free_orbit"), ("free_orbit", "circle_conjugation"))


def suite_product():
    """The engine's route on every two-factor torus over
    ``PRODUCT_FACTORS`` (21 pairs), S^0..S^3 and the joins of
    ``JOIN_PAIRS`` against the descriptor complex of the cover's own
    nerve's unreduced model (``cechengine._descriptor_of``): both signs,
    H^0..H^4 (to H^(top + 3) on a join) with Z and Z/2, and with Q, the
    cone of 2 and plain cohomology where the nerve has at most
    ``SMALL_NERVE`` subsets."""
    out = []
    covers = [(f"torus:{a},{b}", catalog.build("torus", a, b))
              for a, b in combinations_with_replacement(PRODUCT_FACTORS, 2)]
    covers += [(f"sphere_antipodal:{n}", catalog.build("sphere_antipodal", n)) for n in range(4)]
    covers += [(f"join:{a},{b}", join_cover(catalog.build(a), catalog.build(b))) for a, b in JOIN_PAIRS]
    for label, product in covers:
        nerve = _nerve_only(product)
        model = _nerve_model(nerve)
        top = model.top + 4 if product.joined else 5
        small = len(nerve.intersections) <= SMALL_NERVE

        def compare(check, tensor, direct):
            if tensor != direct:
                detail = f"tensor {tensor} vs nerve {direct}"
                out.append(_record("product", label, check, detail))

        for k in range(top if small else 0):
            compare(f"plain H^{k}", nonequivariant_cohomology(product, Z_TRIVIAL, k, top),
                    complex_cohomology(model.complex, k))
        for sign in (-1, 1):
            integral = CoefficientSystem.integers(sign)
            unreduced = _descriptor_of(model, sign)
            coeffs = [integral, CoefficientSystem.integers_mod(2, sign)]
            coeffs += [CoefficientSystem.rationals(sign)] if small else []
            for coeff in coeffs:
                for k in range(top):
                    compare(f"H^{k} coeff {coeff} sign {sign}", equivariant_cohomology(product, coeff, k, top),
                            _descriptor(unreduced, k, coeff))
            if small:
                cone = CoefficientComplex((integral, integral), (2,))
                direct = _multiplication_cone(unreduced, 2, top)
                for k in range(top):
                    compare(f"H^{k} cone 2 sign {sign}", hypercohomology(product, cone, k, top),
                            complex_cohomology(direct, k))
    return out


def suite_reduction():
    """The engine's reduced models against the unreduced ones they come
    from, on the catalog and every two-factor torus over
    ``PRODUCT_FACTORS``: H^0..H^(top + 4) with Z and Z/2 coefficients and
    both signs, read from the engine's descriptor route and from the
    unreduced model's descriptor complex, and the plain H^k of both
    models."""
    out = []
    covers = _spaces() + [
        (f"torus:{a},{b}", catalog.build("torus", a, b))
        for a, b in combinations_with_replacement(PRODUCT_FACTORS, 2)
    ]
    for label, cover in covers:
        model = _unreduced_model(cover)
        top = model.top + 5

        def compare(check, got, want):
            if got != want:
                detail = f"reduced {got} vs unreduced {want}"
                out.append(_record("reduction", label, check, detail))

        for k in range(top):
            compare(f"plain H^{k}", nonequivariant_cohomology(cover, Z_TRIVIAL, k, top),
                    complex_cohomology(model.complex, k))
        for sign in (-1, 1):
            unreduced = _descriptor_of(model, sign)
            for coeff in (CoefficientSystem.integers(sign), CoefficientSystem.integers_mod(2, sign)):
                for k in range(top):
                    compare(f"H^{k} coeff {coeff}", equivariant_cohomology(cover, coeff, k, top),
                            _descriptor(unreduced, k, coeff))
    return out


SUITES = {
    "snf": suite_snf,
    "les": suite_les,
    "refinement": suite_refinement,
    "bockstein": suite_bockstein,
    "fixed": suite_fixed,
    "borel": suite_borel,
    "product": suite_product,
    "reduction": suite_reduction,
}


def run_suite(name: str):
    """Run one named suite of :data:`SUITES` (or ``all``); returns the
    failure records."""
    if name == "all":
        return [rec for suite in SUITES.values() for rec in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    return SUITES[name]()
