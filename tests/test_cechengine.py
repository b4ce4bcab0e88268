"""Engine-level tests: bases, differentials, equivariant cohomology,
hypercohomology of coefficient complexes."""

import gc
import hashlib
import itertools
import json
import random
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from realdeligne import catalog, cechengine, deligne, exactalg, flatclasses, nerves, verify
from realdeligne.cechengine import (
    CoefficientComplex,
    build_equivariant_complex,
    build_full_complex,
    cech_differential,
    equivariant_cohomology,
    hypercohomology,
    involution_matrix,
    nonequivariant_cohomology,
    tuple_basis,
)
from realdeligne.coverdata import (
    IQ,
    IZ,
    Z_TRIVIAL,
    C2Cover,
    CoefficientSystem,
    FlatCocycle,
    join_cover,
    product_cover,
)
from realdeligne.errors import (
    FIXED_INDEX_PRESENT,
    CoverValidationError,
    DegreeOutOfRange,
    InvalidCoefficientComplex,
)
from realdeligne.exactalg import GroupDescriptor, complex_cohomology, fixed_subcomplex
from realdeligne.verify import column_permutation

Q_TRIVIAL = CoefficientSystem.rationals(+1)


def desc(pair):
    return GroupDescriptor(pair[0], pair[1])


# ---------------------------------------------------------------------------
# bases and differentials
# ---------------------------------------------------------------------------


def test_doubled_point_basis_counts(spaces):
    pt = spaces["point_trivial"]
    for p in range(4):
        basis = tuple_basis(pt, p)
        # alternating words in two letters, one component each
        assert len(basis) == 2
        # every word in two letters, in the unnormalized model
        assert len(oracles.degenerate_tuples(pt, p)) == 2 ** (p + 1)


def test_free_orbit_basis_collapse(spaces):
    orbit = spaces["free_orbit"]
    assert len(tuple_basis(orbit, 0)) == 2
    for p in (1, 2, 3):
        assert len(tuple_basis(orbit, p)) == 0


def test_basis_enumeration_deterministic(spaces):
    circle = spaces["circle_antipodal"]
    a = tuple_basis(circle, 2).elements
    b = tuple_basis(circle, 2).elements
    assert a == b
    assert list(a) == sorted(a)


def test_differentials_square_to_zero(spaces):
    for cover in spaces.values():
        full = build_full_complex(cover, 3)
        assert all(full.diff(k + 1).matmul(full.diff(k)).is_zero() for k in range(3))
        # the unnormalized complex is checked when the oracle makes it
        oracles.degenerate_orbit_complex(cover, 1, 4)


def test_involution_matrix_is_signed_permutation(spaces):
    circle = spaces["circle_antipodal"]
    for p in (0, 1, 2):
        t = involution_matrix(circle, p, -1)
        n = len(tuple_basis(circle, p))
        dense = np.array(t.to_dense(), dtype=object)
        assert np.array_equal(dense @ dense, np.eye(n, dtype=object))
        for i in range(n):
            assert sum(1 for x in dense[i] if x != 0) == 1


def test_doubled_point_fixed_complex_is_periodic(spaces):
    """Rank one per degree, differentials alternating ±2 and 0."""
    pt = spaces["point_trivial"]
    sub, _ = build_equivariant_complex(pt, IZ, 5)
    mags = []
    for k in range(5):
        assert sub.rank(k) == 1
        d = sub.diff(k).to_dense()
        mags.append(abs(d[0][0]))
    assert mags == [2, 0, 2, 0, 2]


def test_trivial_sign_fixed_rank_counts_orbits(spaces):
    """With sign +1 the fixed rank in degree p is the number of basis
    orbits under the involution."""
    for name in ("circle_antipodal", "circle_conjugation"):
        cover = spaces[name]
        sub, _ = build_equivariant_complex(cover, Z_TRIVIAL, 3)
        for p in range(3):
            basis = tuple_basis(cover, p)
            seen, orbits = set(), 0
            for tup, c in basis.elements:
                if (tup, c) in seen:
                    continue
                orbits += 1
                seen.add((tup, c))
                seen.add((tuple(cover.t(i) for i in tup), cover.sigma(c)))
            assert sub.rank(p) == orbits


def test_cover_not_free_rejected():
    stuck = C2Cover(
        name="stuck",
        involution_name="id",
        indices=("U",),
        involution={"U": "U"},
        intersections={frozenset({"U"}): ("c",)},
        faces={},
        component_involution={"c": "c"},
        good=True,
        compact=True,
    )
    cone = CoefficientComplex((IZ, IZ), (2,))
    for ask in (
        lambda: build_equivariant_complex(stuck, IZ, 2),
        lambda: equivariant_cohomology(stuck, IZ, 0, 2),
        lambda: cechengine.build_descriptor_complex(stuck, -1),
        lambda: hypercohomology(stuck, cone, 1, 2),
    ):
        with pytest.raises(CoverValidationError) as info:
            ask()
        assert [kind for kind, _ in info.value.violations] == [FIXED_INDEX_PRESENT]


def test_degree_range_enforced(spaces):
    pt = spaces["point_trivial"]
    with pytest.raises(DegreeOutOfRange):
        equivariant_cohomology(pt, IZ, 3, 3)
    with pytest.raises(DegreeOutOfRange):
        equivariant_cohomology(pt, IZ, -1, 3)
    cone = CoefficientComplex((IZ, IZ), (2,))
    for bad in (1.5, "2"):  # refused as a degree and as a max_degree
        for ask in (
            lambda: equivariant_cohomology(pt, IZ, bad, 3),
            lambda: equivariant_cohomology(pt, IZ, 1, bad),
            lambda: nonequivariant_cohomology(pt, Z_TRIVIAL, bad, 3),
            lambda: hypercohomology(pt, cone, bad, 3),
            lambda: build_equivariant_complex(pt, IZ, bad),
            lambda: build_full_complex(pt, bad),
        ):
            with pytest.raises(DegreeOutOfRange):
                ask()
    assert equivariant_cohomology(pt, IZ, np.int64(1), np.int64(3)) == equivariant_cohomology(pt, IZ, 1, 3)


# ---------------------------------------------------------------------------
# equivariant cohomology values
# ---------------------------------------------------------------------------


def test_doubled_point_tables(spaces):
    pt = spaces["point_trivial"]
    for sign, coeff in ((-1, IZ), (+1, Z_TRIVIAL)):
        for k in range(6):
            expected = desc(oracles.cyclic_two_integer(sign, k))
            assert equivariant_cohomology(pt, coeff, k, 6) == expected


def test_fine_point_group_cohomology_to_degree_twelve():
    """Far past the ordered-tuple route's reach (rank 39366 in degree 8):
    the 2-periodic group cohomology of C2 in every degree up to 12."""
    cover = catalog.build("point_trivial_fine")
    for sign in (-1, 1):
        coeff = CoefficientSystem.integers(sign)
        for k in range(13):
            expected = desc(oracles.cyclic_two_integer(sign, k))
            assert equivariant_cohomology(cover, coeff, k, 13) == expected, (sign, k)


def test_three_sphere_matches_projective_space_to_degree_ten():
    """The free antipodal S^3 against cellular RP^3, twisted for sign -1,
    up to degree 10: zero above the dimension.  Descriptors read the
    alternating fixed complex here; the Borel complex (rank 80 from degree
    3 on) must give the same groups."""
    cover = catalog.build("sphere_antipodal", 3)
    for sign in (-1, 1):
        coeff = CoefficientSystem.integers(sign)
        borel = cechengine._borel_of(cechengine._alternating_model(cover), sign)
        for k in range(11):
            expected = desc(oracles.sphere_quotient(3, sign, k))
            assert equivariant_cohomology(cover, coeff, k, 11) == expected, (sign, k)
            assert complex_cohomology(borel, k) == expected, (sign, k)


def test_doubled_point_mod_n(spaces):
    pt = spaces["point_trivial"]
    for n in (2, 3, 4):
        for k in range(4):
            got = equivariant_cohomology(
                pt, CoefficientSystem.integers_mod(n, -1), k, 5
            )
            order = oracles.cyclic_two_mod(-1, n, k)
            expected = GroupDescriptor(0, () if order == 1 else (order,))
            assert got == expected, (n, k)


def test_circle_monodromy_table(spaces):
    circle = spaces["circle_antipodal"]
    for sign, coeff in ((-1, IZ), (+1, Z_TRIVIAL)):
        for k in range(3):
            assert equivariant_cohomology(circle, coeff, k, 4) == desc(
                oracles.circle_monodromy(sign, k)
            )


def test_rational_dimensions(spaces):
    """The rational dimension, read off the descriptor diagonals, equals
    the rank of H^k of the descriptor complex by plain Smith, and the rank
    of the integral group."""
    for cover in spaces.values():
        for integral, rational in ((IZ, IQ), (Z_TRIVIAL, Q_TRIVIAL)):
            c = cechengine.build_descriptor_complex(cover, rational.sign)
            for k in range(4):
                gz = equivariant_cohomology(cover, integral, k, 4)
                gq = equivariant_cohomology(cover, rational, k, 4)
                assert gq == GroupDescriptor(oracles.plain_smith_rank(c, k))
                assert gz.rank == gq.rank


def test_free_action_collapse(spaces):
    """No group-cohomology tail above the nerve dimension when the pairs
    {i, t(i)} never co-intersect."""
    dims = {"free_orbit": 0, "circle_antipodal": 1, "sphere_antipodal(2)": 2}
    for name, dim in dims.items():
        cover = spaces[name]
        for subset in cover.intersections:
            assert not any(cover.t(i) in subset for i in subset)
        for coeff in (IZ, Z_TRIVIAL):
            for k in range(dim + 1, 5):
                assert equivariant_cohomology(cover, coeff, k, 5).is_trivial


def test_nonequivariant_matches_betti(spaces, entries):
    for name, cover in spaces.items():
        betti = entries[name].betti
        for k, b in enumerate(betti):
            g = nonequivariant_cohomology(cover, Z_TRIVIAL, k, len(betti) + 1)
            assert g == GroupDescriptor(b, ()), (name, k)


def test_nonequivariant_point_acyclic(spaces):
    pt = spaces["point_trivial"]
    for k in (1, 2, 3):
        assert nonequivariant_cohomology(pt, Z_TRIVIAL, k, 4).is_trivial


# ---------------------------------------------------------------------------
# degenerate-tuple soundness
# ---------------------------------------------------------------------------


def test_degenerate_inclusion_changes_nothing(spaces):
    """The descriptor route (the Borel or alternating fixed complex)
    against a different model, the fixed complex of ordered cochains with
    degenerate tuples kept, taken by the Smith route
    (:func:`oracles.degenerate_orbit_complex`)."""
    small = [
        name
        for name, cover in spaces.items()
        if len(cover.indices) <= 4
    ]
    assert small  # the catalog does carry desk-scale covers
    for name in small:
        cover = spaces[name]
        for coeff in (IZ, Z_TRIVIAL):
            fat = oracles.degenerate_orbit_complex(cover, coeff.sign, 3)
            for k in range(3):
                lean = equivariant_cohomology(cover, coeff, k, 3)
                assert lean == complex_cohomology(fat, k), (name, coeff, k)


def test_degenerate_oracle_is_a_larger_model(spaces):
    """The degenerate oracle is not the normalized model again: on every
    cover with at most 4 indices, in degrees 1..3, it has more words than
    the normalized basis and a fixed complex of higher rank than the
    engine's orbit complex, so comparing their cohomology compares two
    different complexes."""
    small = [cover for cover in spaces.values() if len(cover.indices) <= 4]
    assert small
    for cover in small:
        for sign in (-1, 1):
            fat = oracles.degenerate_orbit_complex(cover, sign, 3)
            lean = cechengine._orbit_complex(cover, sign)[0]
            for p in (1, 2, 3):
                assert len(oracles.degenerate_tuples(cover, p)) > len(tuple_basis(cover, p))
                assert fat.rank(p) > lean.rank(p), (cover.name, sign, p)


# ---------------------------------------------------------------------------
# alternating cochains and the Borel complex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_borel_rank_saturates(entry):
    """Tot^n has rank Σ_{j <= n} of the ranks of the cover's (reduced)
    alternating model, constant once n passes the model's top."""
    cover = _fresh(entry)
    model = cechengine._alternating_model(cover)
    alt = [model.complex.rank(j) for j in range(8)]
    for sign in (-1, 1):
        borel = cechengine._borel_of(model, sign)
        for n in range(8):
            assert borel.rank(n) == sum(alt[: n + 1]), (sign, n)


def _sort_sign(seq):
    """Sign of the permutation sorting ``seq``, from its cycle count."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(seq)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = order[start]
    return -1 if (len(seq) - cycles) % 2 else 1


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_descriptor_complex_follows_the_alternating_action(entry):
    """Covers of free actions have a free alternating action and read the
    fixed complex of their reduced model (half its rank, zero above its
    top); the doubled points and the conjugation circle read its Borel
    complex.  ``_descriptor_of`` makes that choice; the cover's descriptor
    complex is its answer on the reduced model, degree for degree: the
    Borel complex ``_borel_of`` builds, or the fixed complex of the
    model's actions.  The fixed complex is built at once to degree top +
    1, the first zero term, and never past it: H^k read far above reads
    zero and leaves ``hi`` where it was."""
    cover = _fresh(entry)
    model = cechengine._alternating_model(cover)
    assert cechengine._acts_freely(model) == entry.free_action
    plain, top = model.complex, model.top
    alt = [plain.rank(j) for j in range(7)]
    assert alt[top] and not any(alt[top + 1 :])
    for sign in (-1, 1):
        c = cechengine.build_descriptor_complex(cover, sign)
        assert cechengine.build_descriptor_complex(cover, sign) is c
        if not entry.free_action:
            borel = cechengine._borel_of(model, sign)
            assert [c.rank(n) for n in range(7)] == [borel.rank(n) for n in range(7)]
            assert all(c.diff(n) == borel.diff(n) for n in range(6)), sign
            continue
        # the orbit sums are fixed by T and embed the complex as a chain map
        sub, bases = exactalg._grow_orbit_complex(plain, model.action, sign)
        sub.rank(top + 1)
        assert sub.hi == c.hi == top + 1 and sorted(bases) == list(range(top + 2))
        assert sub.ranks == c.ranks and sub.diffs == c.diffs
        for k in bases:
            perm, eps = model.action(k)
            t = exactalg.SparseIntMatrix(
                len(perm), len(perm), [{p: sign * e} for p, e in zip(perm, eps)]
            )
            assert t.matmul(bases[k]) == bases[k], (sign, k)
            if k + 1 in bases:
                assert bases[k + 1].matmul(sub.diff(k)) == plain.diff(k).matmul(bases[k])
        assert [c.rank(j) for j in range(7)] == [r // 2 for r in alt]
        assert complex_cohomology(c, 10**20).is_trivial
        assert c.hi == top + 1


def test_alternating_involution_is_signed_and_self_inverse(spaces):
    """On sorted subsets, the nerve model's T relabels, re-sorts and
    multiplies by the sign of that sort, and it squares to the identity."""
    flipped = 0
    for cover in spaces.values():
        model = cechengine._nerve_model(cover)
        for j in range(4):
            basis = oracles.alternating_basis(cover, j)
            perm, eps = model.action(j)
            assert len(perm) == len(basis)
            for r, ((tup, c), p, e) in enumerate(zip(basis, perm, eps)):
                image = tuple(cover.t(i) for i in tup)
                assert basis[p] == (tuple(sorted(image)), cover.sigma(c))
                assert e == _sort_sign(image)
                assert perm[p] == r and eps[p] * e == 1
                flipped += e == -1
    assert flipped  # the catalog does exercise odd sorts


def test_plain_alternating_and_ordered_complexes_agree(spaces):
    for cover in spaces.values():
        alt = cechengine._alternating_model(cover).complex
        full = build_full_complex(cover, 4)
        for k in range(5):
            assert complex_cohomology(alt, k) == complex_cohomology(full, k)


def _ranks(model):
    return [model.complex.rank(j) for j in range(model.top + 2)]


@pytest.mark.parametrize(
    "name, params, unreduced, reduced",
    [
        ("circle_conjugation", (), [6, 10, 4, 0], [2, 2, 0]),
        ("sphere_antipodal", (3,), [8, 24, 32, 16, 0], [2, 2, 2, 2, 0]),
        ("torus", ("circle_conjugation",) * 3, [4, 16, 20, 8, 0], [2, 8, 14, 8, 0]),
    ],
)
def test_reduced_ranks_are_pinned(name, params, unreduced, reduced):
    """Equivariant elimination shrinks each model to these ranks.  The
    unreduced model is the nerve's (for the sphere, the nerve it builds
    when read), or for the torus the tensor model of its factors' reduced
    models; the reduced model's top is its highest nonzero degree."""
    cover = catalog.build(name, *params)
    if cover.factors and not cover.joined:
        before = cechengine._tensor_model(*map(cechengine._alternating_model, cover.factors))
        after = cechengine._alternating_model(cover)
    else:
        before = cechengine._nerve_model(cover)
        after = cechengine._reduced(before)
    assert _ranks(before) == unreduced
    assert _ranks(after) == reduced
    assert _ranks(cechengine._alternating_model(cover)) == reduced


def test_join_ranks_are_pinned():
    """The antipodal S^3 is the join of S^2 and S^0: the tensor model of
    their reduced augmented models (ranks 1/2/2/2 and 1/2, the empty
    simplex first) has ranks 1/4/6/6/4 and reduces to 1/2/2/2/2, which
    without the empty simplex is the reduced model 2/2/2/2, as its nerve
    model reduces to."""
    s2, s0 = catalog.build("sphere_antipodal", 3).factors
    aug = [cechengine._augmented_model(f) for f in (s2, s0)]
    assert [_ranks(m) for m in aug] == [[1, 2, 2, 2, 0], [1, 2, 0]]
    before = cechengine._tensor_model(*aug)
    assert _ranks(before) == [1, 4, 6, 6, 4, 0]
    assert _ranks(cechengine._reduced(before)) == [1, 2, 2, 2, 2, 0]


REDUCTION_COVERS = [pytest.param(e.name, e.params, id=catalog.entry_label(e)) for e in catalog.ENTRIES]
REDUCTION_COVERS += [pytest.param("sphere_antipodal", (3,), id="sphere_antipodal:3")]
REDUCTION_COVERS += [
    pytest.param("torus", factors, id=",".join(factors))
    for factors in (
        ("circle_conjugation", "circle_conjugation"),
        ("circle_antipodal", "circle_conjugation"),
        ("point_trivial", "sphere_antipodal"),
        ("point_trivial", "circle_antipodal", "circle_conjugation"),
        ("free_orbit", "circle_conjugation", "circle_antipodal"),
    )
]


@pytest.mark.parametrize("name, params", REDUCTION_COVERS)
def test_reduced_and_unreduced_descriptors_agree(name, params):
    """Every descriptor read from the reduced model equals the one read
    from the unreduced model it came from (``verify._unreduced_model``,
    which for a product tensors the factors' unreduced models): Z, Z/2 and
    Q of sign -1, Z/4 of sign +1 and plain Z, in degrees 0..top + 4, and
    plain cohomology."""
    cover = catalog.build(name, *params)
    model = verify._unreduced_model(cover)
    top = model.top + 5
    for k in range(top):
        want = complex_cohomology(model.complex, k)
        assert nonequivariant_cohomology(cover, Z_TRIVIAL, k, top) == want, k
    for coeff in (IZ, Z_TRIVIAL, IQ, CoefficientSystem.integers_mod(2, -1),
                  CoefficientSystem.integers_mod(4, 1)):
        unreduced = cechengine._descriptor_of(model, coeff.sign)
        for k in range(top):
            want = cechengine._descriptor(unreduced, k, coeff)
            assert equivariant_cohomology(cover, coeff, k, top) == want, (coeff, k)


def test_reduction_without_a_pivot_returns_its_model():
    """A model with no unit pivot, a reduced one or the augmented model of
    a two-point cover, is returned as it is, not rebuilt and checked
    again."""
    for space in (("circle_conjugation",), ("sphere_antipodal", 3), ("torus",)):
        model = cechengine._alternating_model(catalog.build(*space))
        assert cechengine._reduced(model) is model, space
    pair = cechengine._augmented_model(catalog.build("sphere_antipodal", 0))
    assert _ranks(pair) == [1, 2, 0] and cechengine._reduced(pair) is pair


def assert_answers_as_its_nerve(cover, top):
    """Every answer on ``cover`` equals the one read off the nerve model of
    its own nerve (``verify._nerve_only``): Z, Q and Z/2 of both signs in
    degrees 0 .. top - 1, and plain cohomology."""
    model = cechengine._nerve_model(verify._nerve_only(cover))
    for k in range(top):
        want = complex_cohomology(model.complex, k)
        assert nonequivariant_cohomology(cover, Z_TRIVIAL, k, top) == want, k
    for sign in (-1, 1):
        nerve = cechengine._descriptor_of(model, sign)
        for coeff in (CoefficientSystem.integers(sign), CoefficientSystem.rationals(sign),
                      CoefficientSystem.integers_mod(2, sign)):
            for k in range(top):
                want = cechengine._descriptor(nerve, k, coeff)
                assert equivariant_cohomology(cover, coeff, k, top) == want, (coeff, k)


@pytest.mark.parametrize("n", range(4))
def test_sphere_join_answers_as_its_nerve(n):
    """S^n, the join of n + 1 two-point covers, answers from its factors'
    augmented models as the nerve model of its own nerve does, in degrees
    0 .. n + 3: iZ, Z, iQ, Q and Z/2 of both signs, and plain cohomology.
    No answer builds the nerve; the comparison reads it."""
    cover = catalog.build("sphere_antipodal", n)
    assert cover.joined == (n > 0)
    cechengine._alternating_model(cover)
    assert type(cover) is not C2Cover or n == 0  # the nerve is still unread
    assert_answers_as_its_nerve(cover, n + 4)


def test_join_model_answers_as_projective_space_to_dimension_twenty():
    """The join model alone, past the catalog's bound of 3
    (``catalog._antipodal_join``): S^n for n <= 20 has the reduced model
    of cellular RP^n, rank 2 in each degree 0..n, and answers as RP^n
    (``oracles.sphere_quotient``) with Z of both signs in degrees
    0..n + 2, all of it in under a second, with no nerve built."""
    start = time.perf_counter()
    for n in range(21):
        cover = catalog._antipodal_join(n)
        assert _ranks(cechengine._alternating_model(cover)) == [2] * (n + 1) + [0], n
        for sign in (-1, 1):
            coeff = CoefficientSystem.integers(sign)
            for k in range(n + 3):
                want = desc(oracles.sphere_quotient(n, sign, k))
                assert equivariant_cohomology(cover, coeff, k, n + 3) == want, (n, sign, k)
        assert type(cover) is not C2Cover or n == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("a, b", verify.JOIN_PAIRS + (("torus", "free_orbit"),), ids=lambda name: name)
def test_join_cover_answers_as_its_nerve(a, b):
    """Joins of catalog covers other than two-point ones, a product among
    them, answer as the nerve model of their own nerve, in degrees 0 ..
    top + 4 of the model.  The conjugation circle's model is not free,
    and neither is that of its join, so that join reads the Borel
    complex."""
    cover = join_cover(catalog.build(a), catalog.build(b))
    model = cechengine._alternating_model(cover)
    assert cechengine._acts_freely(model) == ("circle_conjugation" not in (a, b))
    assert_answers_as_its_nerve(cover, model.top + 5)


def test_join_cover_refuses_what_product_cover_refuses():
    """A join of a cover with itself repeats every index, and a join with
    a factor that fixes an index fixes it too: both are refused."""
    circle = catalog.build("circle_antipodal")
    with pytest.raises(CoverValidationError, match="duplicate index names"):
        join_cover(circle, circle)
    with pytest.raises(CoverValidationError) as err:
        join_cover(catalog._point(1, "point"), circle)
    assert {kind for kind, _ in err.value.violations} == {FIXED_INDEX_PRESENT}
    joined = join_cover(circle, catalog.build("free_orbit"))
    assert repr(joined) == "C2Cover('join(circle_antipodal,free_orbit)', 6 indices, join of 'circle_antipodal' x 'free_orbit')"
    assert joined.involution_name == "antipodal*swap"


# ---------------------------------------------------------------------------
# coefficient complexes and hypercohomology
# ---------------------------------------------------------------------------


def test_coefficient_complex_validation():
    CoefficientComplex((IZ,), ())
    CoefficientComplex((IZ, IQ), ("incl",))
    CoefficientComplex((IZ, IZ), (2,))
    CoefficientComplex((IZ, IZ, IZ), (2, 0))
    with pytest.raises(InvalidCoefficientComplex):
        CoefficientComplex((IQ, IZ), ("incl",))  # wrong direction
    with pytest.raises(InvalidCoefficientComplex):
        CoefficientComplex((IZ, Z_TRIVIAL), (2,))  # sign clash
    with pytest.raises(InvalidCoefficientComplex):
        CoefficientComplex((IZ, IZ, IZ), (2, 3))  # does not compose to zero
    with pytest.raises(InvalidCoefficientComplex):
        CoefficientComplex((IZ, IZ), (2, 3))  # arity
    with pytest.raises(InvalidCoefficientComplex):
        CoefficientComplex(
            (CoefficientSystem.integers_mod(2, -1), IZ), (0,)
        )  # finite coefficients only stand alone


def test_single_term_hyper_delegates(spaces):
    pt = spaces["point_trivial"]
    for coeff in (IZ, Z_TRIVIAL, IQ):
        single = CoefficientComplex((coeff,), ())
        for k in range(3):
            assert hypercohomology(pt, single, k, 4) == equivariant_cohomology(
                pt, coeff, k, 4
            )


def test_identity_complex_is_acyclic(spaces):
    for name in ("point_trivial", "circle_antipodal"):
        cover = spaces[name]
        ident = CoefficientComplex((IZ, IZ), (1,))
        for k in range(4):
            assert hypercohomology(cover, ident, k, 4).is_trivial


def test_inclusion_complex_reduced_part(spaces):
    """[integers -> rationals] with sign: the reduced part in degree k+1 is
    the finite part of the sign-twisted circle-coefficient cohomology."""
    pt = spaces["point_trivial"]
    incl = CoefficientComplex((IZ, IQ), ("incl",))
    assert hypercohomology(pt, incl, 0, 5).is_trivial
    for k in range(1, 5):
        order = oracles.cyclic_two_circle_quotient(-1, k - 1)
        expected = GroupDescriptor(0, () if order == 1 else (order,))
        assert hypercohomology(pt, incl, k, 5) == expected, k


def test_multiplication_cone_shifts_mod_n(spaces):
    pt = spaces["point_trivial"]
    for sign, coeff in ((-1, IZ), (+1, Z_TRIVIAL)):
        for n in (2, 3):
            cone = CoefficientComplex((coeff, coeff), (n,))
            assert hypercohomology(pt, cone, 0, 5).is_trivial
            for k in range(4):
                order = oracles.cyclic_two_mod(sign, n, k)
                expected = GroupDescriptor(0, () if order == 1 else (order,))
                assert hypercohomology(pt, cone, k + 1, 5) == expected, (sign, n, k)


def test_cone_matches_direct_mod_n_on_curved_spaces(spaces):
    for name in ("circle_conjugation", "sphere_antipodal(2)"):
        cover = spaces[name]
        cone = CoefficientComplex((IZ, IZ), (3,))
        for k in range(3):
            direct = equivariant_cohomology(
                cover, CoefficientSystem.integers_mod(3, -1), k, k + 2
            )
            assert hypercohomology(cover, cone, k + 1, k + 2) == direct, (name, k)


MIXED_COMPLEXES = (
    CoefficientComplex((IZ, IQ), ("incl",)),
    CoefficientComplex((Z_TRIVIAL, Q_TRIVIAL), ("incl",)),
    CoefficientComplex((IZ, IZ, IQ), (2, 0)),
    CoefficientComplex((IZ, IQ, IQ), (-3, 0)),
    CoefficientComplex((Z_TRIVIAL, IZ, IQ, IQ), (0, "incl", 0)),
)


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_mixed_hypercohomology_matches_the_kernel_quotient(entry):
    """With rational terms present, the reduced quotient, read off the
    integer pieces, equals the transform route's ``ker [A_k; E B_k] / im
    A_(k-1)`` on the total blocks, with ``E`` the left kernel of the
    rational block (:func:`oracles.reduced_quotient`)."""
    cover = _fresh(entry)
    for fstar in MIXED_COMPLEXES:
        for k in range(5):
            want = oracles.reduced_quotient(cover, fstar, k)
            assert hypercohomology(cover, fstar, k, k + 1) == want, (fstar, k)


# ---------------------------------------------------------------------------
# one complex per (cover, sign), grown degree by degree
# ---------------------------------------------------------------------------


def _fresh(entry):
    return catalog.build(entry.name, *entry.params)


def _is_permutation(p):
    """Square, one entry 1 in each row, and each column hit once."""
    cols = sorted(j for row in p.rows for j, x in row.items() if x == 1)
    return p.nrows == p.ncols and all(len(r) == 1 for r in p.rows) and cols == list(range(p.ncols))


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_grown_complex_matches_fixed_subcomplex(entry):
    """Asking one cover for max_degree 2, then 5, then 3 gives the complex
    that fixed_subcomplex builds in one go on a fresh cover from the Smith
    form of t_k - id, up to the order of the basis columns: bit for bit
    ``bases[k] == ref_bases[k] @ P_k`` for a permutation matrix ``P_k``,
    and ``sub.diff(k) == P_(k+1)^-1 @ ref.diff(k) @ P_k``.  Each call reads
    degree max_degree, so the complex reaches the highest such degree asked
    so far and no further."""
    cover = _fresh(entry)
    for sign in (-1, 1):
        coeff = CoefficientSystem.integers(sign)
        top = 0
        for md in (2, 5, 3):
            sub, bases = build_equivariant_complex(cover, coeff, md)
            top = max(top, md)
            assert sub.hi == top and sorted(bases) == list(range(top + 1))
            fresh = _fresh(entry)
            full = build_full_complex(fresh, md)
            t_maps = {k: involution_matrix(fresh, k, sign) for k in full.degrees()}
            ref_sub, ref_bases = fixed_subcomplex(full, t_maps)
            perms = {}
            for k in ref_sub.degrees():
                assert sub.rank(k) == ref_sub.rank(k), (sign, md, k)
                p = perms[k] = column_permutation(bases[k], ref_bases[k])
                assert p is not None and _is_permutation(p), (sign, md, k)
                assert bases[k] == ref_bases[k].matmul(p), (sign, md, k)
            for k in range(ref_sub.lo, ref_sub.hi):
                conjugated = perms[k + 1].transpose().matmul(ref_sub.diff(k)).matmul(perms[k])
                assert sub.diff(k) == conjugated, (sign, md, k)
        assert build_equivariant_complex(cover, coeff, 3)[0] is sub


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_embedding_is_a_chain_map(entry):
    """The orbit-sum embedding intertwines the fixed and the full
    coboundaries: bases[k+1] @ sub.diff(k) == full.diff(k) @ bases[k]."""
    cover = _fresh(entry)
    full = build_full_complex(cover, 4)
    for sign in (-1, 1):
        sub, bases = build_equivariant_complex(cover, CoefficientSystem.integers(sign), 4)
        for k in range(sub.lo, sub.hi):
            assert bases[k + 1].matmul(sub.diff(k)) == full.diff(k).matmul(bases[k]), (sign, k)


def test_growth_drops_answers_cached_at_the_old_top():
    """An engine complex read at its top first grows by exactly one degree,
    so H^hi sees the real d_hi, never a zero map, and its rank is the
    plain-Smith rank of a fresh complex.  A bounded copy of the same
    degrees does read a zero d_hi; once it is extended by hand, that
    answer is dropped and recomputed."""
    changed = 0
    for entry in catalog.ENTRIES:
        cover = _fresh(entry)
        for coeff in (IZ, Z_TRIVIAL):
            sub, _ = build_equivariant_complex(cover, coeff, 1)
            top = sub.hi
            bounded = exactalg.IntegerCochainComplex(sub.ranks, {k: sub.diff(k) for k in range(top)})
            truncated = complex_cohomology(bounded, top)
            got = complex_cohomology(sub, top)
            assert sub.hi == top + 1
            ref, _ = build_equivariant_complex(_fresh(entry), coeff, 3)
            assert got == complex_cohomology(ref, top)
            assert got.rank == oracles.plain_smith_rank(ref, top)
            bounded.extend(sub.rank(top + 1), sub.diff(top))
            assert complex_cohomology(bounded, top) == got
            changed += got != truncated
    assert changed  # the catalog does exercise a nonzero top differential


def test_memo_keys_calls_on_their_positional_arguments():
    """A per-cover builder is memoized under its name and positional
    arguments: the same call returns the same object and another argument
    a second one.  The memo takes no keywords, so a keyword call raises
    TypeError, as does a call missing an argument."""
    cover = catalog.build("circle_antipodal")
    for builder in (tuple_basis, cech_differential, cechengine.basis_involution):
        first = builder(cover, 1)
        assert builder(cover, 1) is first, builder.__name__
        assert builder(cover, 2) is not first, builder.__name__
        for bad in ({"p": 1}, {"typo": True}):
            with pytest.raises(TypeError):
                builder(cover, **bad)
        with pytest.raises(TypeError):
            builder(cover)
    minus, plus = (cechengine._descriptor_read(cover, sign) for sign in (-1, 1))
    assert minus is not plus
    assert cechengine._descriptor_read(cover, -1) is minus
    with pytest.raises(TypeError):
        cechengine._descriptor_read(cover, sign=1)


def models_of_joins(cover) -> set:
    """What a join's memo holds beside the models every cover's does: the
    augmented model its alternating model comes from."""
    return {"_augmented_model"} if cover.joined else set()


def test_session_builds_each_fixed_degree_once(monkeypatch):
    """A session of every public question on one cover, each at the
    max_degree its entry point uses, builds each (sign, n) degree of the
    descriptor complexes exactly once, and that growth makes no Smith
    reduction and no involution matrix.  No descriptor reads the ordered
    orbit complex, so it is never built, and neither is a Borel complex
    beside the descriptor complex.  The antipodal sphere's alternating
    action is free, so it reads the alternating fixed complex; the
    conjugation circle's is not, so it reads the Borel complex.  With
    either sign the highest degree read is 3: H^2 reads d_2, and so do the
    mod-2 H^2, which adds the torsion of coker d_2, and the cone's H^3,
    which is the mod-3 H^2.  No total complex is built for the cone.  The
    Borel complexes are built that far and no further; the alternating
    fixed complexes are built at once to dim N + 1 = 3, their first zero
    term, and no further.  The sphere is a join, so its memo also holds
    the augmented model its alternating model comes from."""
    for name, params, free, tops in (
        ("sphere_antipodal", (2,), True, (3, 3)),
        ("circle_conjugation", (), False, (3, 3)),
    ):
        cover = catalog.build(name, *params)
        inside, smith_inside, matrices_inside, orbit_builds = [0], [], [], []
        extended = []
        inner_reach = exactalg.IntegerCochainComplex._reach
        inner_smith, inner_extend = exactalg._smith, exactalg.IntegerCochainComplex.extend
        inner_matrix = cechengine.involution_matrix
        inner_orbit = cechengine._orbit_complex

        def reach(self, k):
            inside[0] += 1
            try:
                return inner_reach(self, k)
            finally:
                inside[0] -= 1

        def smith(m, transforms=True):
            if inside[0]:
                smith_inside.append(m)
            return inner_smith(m, transforms)

        def matrix(*args, **kwargs):
            if inside[0]:
                matrices_inside.append(args)
            return inner_matrix(*args, **kwargs)

        def orbit(*args, **kwargs):
            orbit_builds.append(args)
            return inner_orbit(*args, **kwargs)

        def extend(self, rank, diff):
            extended.append((self, self.hi))
            return inner_extend(self, rank, diff)

        monkeypatch.setattr(exactalg.IntegerCochainComplex, "_reach", reach)
        for module in (cechengine, flatclasses):
            monkeypatch.setattr(module, "_orbit_complex", orbit)
        monkeypatch.setattr(cechengine, "involution_matrix", matrix)
        monkeypatch.setattr(exactalg, "_smith", smith)
        monkeypatch.setattr(exactalg.IntegerCochainComplex, "extend", extend)
        for k in range(3):
            for coeff in (IZ, Z_TRIVIAL, IQ, CoefficientSystem.integers_mod(2, -1)):
                equivariant_cohomology(cover, coeff, k, k + 1)
            nonequivariant_cohomology(cover, Z_TRIVIAL, k, k + 1)
            hypercohomology(cover, CoefficientComplex((IZ, IZ), (3,)), k + 1, k + 2)
        for p in range(4):
            for q in range(3):
                deligne.deligne_descriptor(cover, p, q)
        deligne.classify_line_bundles(cover)
        deligne.classify_line_bundles_with_connection(cover)
        deligne.classify_flat_line_bundles(cover)
        deligne.real_circle_maps(cover)
        for k in (0, 1):
            deligne.quotient_coefficients_cohomology(cover, k)
        monkeypatch.undo()

        assert smith_inside == [] and matrices_inside == [] and orbit_builds == [], name
        keys = {key[0] for key in cover._memo}
        assert keys == {"_alternating_model", "_descriptor_read"} | models_of_joins(cover), name
        assert cechengine._acts_freely(cechengine._alternating_model(cover)) == free, name
        for sign, top in zip((-1, 1), tops):
            c = cechengine.build_descriptor_complex(cover, sign)
            assert c.hi == top, (name, sign)
            assert sorted(n for grown, n in extended if grown is c) == list(range(top)), (name, sign)


def test_torus_session_never_builds_the_product_nerve(monkeypatch):
    """Every question of a session on the default torus (every degree and
    coefficient, cones, Deligne descriptors and classifiers) reads the
    tensor model of its factors: the product nerve is never built, and the
    memo holds no ordered cochains.  Its JSON builds the nerve exactly once
    and is the golden one.  The memo lives on through the class swap that
    reading the nerve makes: asked again, the session builds no model."""
    built, tensors = [], []
    inner, inner_tensor = nerves._nerve_of_product, cechengine._tensor_model

    def counted(*args):
        built.append(args)
        return inner(*args)

    def tensor(*args):
        tensors.append(args)
        return inner_tensor(*args)

    monkeypatch.setattr(nerves, "_nerve_of_product", counted)
    monkeypatch.setattr(cechengine, "_tensor_model", tensor)
    cover = catalog.build("torus")
    repr(cover)
    for k in range(3):
        for coeff in (IZ, Z_TRIVIAL, IQ, CoefficientSystem.integers_mod(2, -1),
                      CoefficientSystem.integers_mod(3, -1)):
            equivariant_cohomology(cover, coeff, k, k + 1)
        nonequivariant_cohomology(cover, Z_TRIVIAL, k, k + 1)
        for fstar in TOTAL_COMPLEXES + (CoefficientComplex((IZ, IQ), ("incl",)),):
            hypercohomology(cover, fstar, k + 1, k + 2)
    for p in range(4):
        for q in range(3):
            deligne.deligne_descriptor(cover, p, q)
    deligne.classify_line_bundles(cover)
    deligne.classify_line_bundles_with_connection(cover)
    deligne.classify_flat_line_bundles(cover)
    deligne.real_circle_maps(cover)
    for k in (0, 1):
        deligne.quotient_coefficients_cohomology(cover, k)
    assert built == [] and len(tensors) == 1
    assert not {key[0] for key in cover._memo} & {"tuple_basis", "_full_complex"}
    before = [str(equivariant_cohomology(cover, coeff, k, 4)) for coeff in (IZ, Z_TRIVIAL) for k in range(4)]
    text = cover.to_json()
    assert cover.to_json() == text and len(built) == 1 and type(cover) is C2Cover
    assert [str(equivariant_cohomology(cover, coeff, k, 4)) for coeff in (IZ, Z_TRIVIAL) for k in range(4)] == before
    assert len(tensors) == 1
    goldens = json.loads((Path(__file__).parent / "cover_goldens.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == goldens["to_json_sha256"]["torus"]


def test_product_of_a_fixed_point_reads_its_factors():
    """A free product may have a factor that fixes an index: the undoubled
    point times the antipodal circle is the antipodal circle, through the
    tensor model and through the product nerve alike.  Two factors that
    both fix an index make a product that does, and it is refused."""
    point = catalog._point(1, "point")
    circle = catalog.build("circle_antipodal")
    product = product_cover(point, circle)
    nerve = C2Cover.from_json(product.to_json())
    for coeff in (IZ, Z_TRIVIAL):
        for k in range(4):
            want = equivariant_cohomology(circle, coeff, k, 4)
            assert equivariant_cohomology(product, coeff, k, 4) == want == equivariant_cohomology(nerve, coeff, k, 4)
    with pytest.raises(CoverValidationError) as err:
        product_cover(point, point)
    assert {kind for kind, _ in err.value.violations} == {FIXED_INDEX_PRESENT}


TOTAL_COMPLEXES = (
    CoefficientComplex((IZ, IZ), (2,)),
    CoefficientComplex((IZ, IZ), (3,)),
    CoefficientComplex((IZ, IZ, Z_TRIVIAL), (2, 0)),
)


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_hypercohomology_builds_no_total_complex(entry, monkeypatch):
    """Hypercohomology of an all-integer complex, and of the single terms
    Zmod:2, Zmod:3 and Zmod:4 first, asked in a shuffled order of degrees
    with max_degree going up and then down, answers as a fresh cover does,
    so no mod-n group cached on a complex goes stale as it grows; and it
    builds no total complex: it never assembles the total blocks, and the
    cover's memo holds its model (a join's, with the augmented model it
    comes from) and descriptor complexes only, each
    degree of which is extended once.  H^3 of a cone is the mod-n H^2 of
    the sign -1 column, which reads its d_2, and the mod-n H^3 reads d_j
    for j the degree 3 folds to (:func:`cechengine._folded`), so the
    highest degree read is 3 or j + 1.  The sign +1 column is the third
    term of the last complex, read up to H^(3 - 2), so degree 2.  Neither
    is built further, except that the alternating fixed complex is built
    at once to degree dim N + 1, its first zero term, and never past it."""
    extended = []
    inner_extend = exactalg.IntegerCochainComplex.extend

    def extend(self, rank, diff):
        extended.append((self, self.hi))
        return inner_extend(self, rank, diff)

    monkeypatch.setattr(exactalg.IntegerCochainComplex, "extend", extend)
    cover = _fresh(entry)
    rng = random.Random(entry.name + str(entry.params))
    fresh = {}
    mod_terms = tuple(CoefficientComplex((CoefficientSystem.integers_mod(n, -1),)) for n in (2, 3, 4))
    for fstar in mod_terms + TOTAL_COMPLEXES:
        for md in (1, 3, 4, 2):
            degrees = list(range(md))
            rng.shuffle(degrees)
            for k in degrees:
                got = hypercohomology(cover, fstar, k, md)
                if (fstar, k) not in fresh:
                    fresh[fstar, k] = hypercohomology(_fresh(entry), fstar, k, k + 1)
                assert got == fresh[fstar, k], (fstar, k, md)
    keys = {key[0] for key in cover._memo}
    assert keys == {"_alternating_model", "_descriptor_read"} | models_of_joins(cover)
    periodic = cechengine._alternating_model(cover).top + 1
    at_once = periodic if entry.free_action else 0
    for sign, read in ((-1, max(3, cechengine._folded(3, periodic) + 1)), (1, 2)):
        column = cechengine.build_descriptor_complex(cover, sign)
        assert column.hi == (at_once or read), sign
        assert sorted(n for c, n in extended if c is column) == list(range(column.hi))


TWO_FACTOR_TORI = [
    pytest.param("torus", (a, b), id=f"{a},{b}")
    for a, b in itertools.combinations_with_replacement(verify.PRODUCT_FACTORS, 2)
]
FOLD_COVERS = [pytest.param(e.name, e.params, id=catalog.entry_label(e)) for e in catalog.ENTRIES]
FOLD_COVERS += TWO_FACTOR_TORI


BOREL_COVERS = [
    pytest.param("sphere_antipodal", (n,), id=f"sphere_antipodal:{n}") for n in range(4)
] + TWO_FACTOR_TORI


@pytest.mark.parametrize("name, params", BOREL_COVERS)
def test_borel_reading_equals_the_descriptor_complex(name, params):
    """On S^0..S^3 and the 21 two-factor tori over ``PRODUCT_FACTORS``, the
    Borel complex of the cover's reduced model (``_borel_of``), whatever
    complex the engine reads, gives the descriptor complex's Z and Z/2
    groups for both signs (so iZ, Z and their mod-2 groups) in degrees 0 ..
    top + 4, and those are the public answers."""
    cover = catalog.build(name, *params)
    model = cechengine._alternating_model(cover)
    top = model.top + 5
    for sign in (-1, 1):
        borel = cechengine._borel_of(model, sign)
        c = cechengine.build_descriptor_complex(cover, sign)
        for coeff in (CoefficientSystem.integers(sign), CoefficientSystem.integers_mod(2, sign)):
            for k in range(top):
                want = cechengine._descriptor(borel, k, coeff)
                assert cechengine._descriptor(c, k, coeff) == want, (coeff, k)
                assert equivariant_cohomology(cover, coeff, k, top) == want, (coeff, k)


@pytest.mark.parametrize("name, params", FOLD_COVERS)
def test_folded_degrees_equal_the_unfolded_ones(name, params):
    """Every degree up to top + 8 read folded into the 2-periodic window
    (the public entry points) equals the same degree read off the
    descriptor or total complex itself, unfolded: both signs, Z, Z/2 and
    Q, the cones and the three-term complex against the oracle total
    complex, and the complexes with rational terms against the oracle
    reduced quotient of their total blocks."""
    cover = catalog.build(name, *params)
    top = cechengine._alternating_model(cover).top
    for sign in (-1, 1):
        c = cechengine.build_descriptor_complex(cover, sign)
        for coeff in (CoefficientSystem.integers(sign), CoefficientSystem.integers_mod(2, sign),
                      CoefficientSystem.rationals(sign)):
            for k in range(top + 9):
                want = cechengine._descriptor(c, k, coeff)
                assert equivariant_cohomology(cover, coeff, k, k + 1) == want, (coeff, k)
    for fstar in TOTAL_COMPLEXES:
        total = oracles.total_complex(cover, fstar)
        for k in range(top + 9):
            assert hypercohomology(cover, fstar, k, k + 1) == complex_cohomology(total, k), (fstar, k)
    for fstar in MIXED_COMPLEXES:
        for k in range(top + 9):
            want = oracles.reduced_quotient(cover, fstar, k)
            assert hypercohomology(cover, fstar, k, k + 1) == want, (fstar, k)


RATES = (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6)


@st.composite
def coefficient_complexes(draw, rational):
    """A coefficient complex of 2 to 4 terms: random signs and rates, but
    a nonzero map only after a zero one (consecutive maps compose to
    zero) and only between terms of one sign.  All terms are integers,
    or, if ``rational``, some integer terms are followed by at least one
    rational term (rationals do not map to integers), and the map from
    the last integer term may also be the inclusion."""
    length = draw(st.integers(2, 4))
    integers = draw(st.integers(0, length - 1)) if rational else length
    signs, maps = [draw(st.sampled_from((-1, 1)))], []
    for i in range(1, length):
        rates = RATES + ("incl",) if i == integers else RATES
        rate = draw(st.sampled_from(rates)) if not any(maps[-1:]) else 0
        signs.append(signs[-1] if rate else draw(st.sampled_from((-1, 1))))
        maps.append(rate)
    terms = [CoefficientSystem.integers(s) for s in signs[:integers]]
    terms += [CoefficientSystem.rationals(s) for s in signs[integers:]]
    return CoefficientComplex(tuple(terms), tuple(maps))


HYPER_COVERS = [(e.name, e.params) for e in catalog.ENTRIES]
HYPER_COVERS += [("torus", ("circle_conjugation", "circle_conjugation")),
                 ("torus", ("circle_antipodal", "sphere_antipodal"))]


@settings(max_examples=50, deadline=None)
@given(coefficient_complexes(rational=False))
def test_integer_hypercohomology_equals_the_total_complex(fstar):
    """Any all-integer coefficient complex, split into single terms and
    cones and read off the descriptor complexes, answers as its total
    complex (:func:`oracles.total_complex`) read unfolded, in degrees 0 ..
    top + 6, on the catalog and two two-factor tori (one Borel, one
    fixed)."""
    for name, params in HYPER_COVERS:
        cover = catalog.build(name, *params)
        total = oracles.total_complex(cover, fstar)
        for k in range(cechengine._alternating_model(cover).top + 7):
            want = complex_cohomology(total, k)
            assert hypercohomology(cover, fstar, k, k + 1) == want, (name, params, k)


@settings(max_examples=30, deadline=None)
@given(coefficient_complexes(rational=True))
def test_mixed_hypercohomology_equals_the_reduced_quotient(fstar):
    """Any coefficient complex with rational terms, read off its integer
    pieces, answers as the transform route on its total blocks
    (:func:`oracles.reduced_quotient`), unfolded, in degrees 0 .. top +
    6, on the catalog and two two-factor tori."""
    for name, params in HYPER_COVERS:
        cover = catalog.build(name, *params)
        for k in range(cechengine._alternating_model(cover).top + 7):
            want = oracles.reduced_quotient(cover, fstar, k)
            assert hypercohomology(cover, fstar, k, k + 1) == want, (name, params, k)


def test_a_mixed_table_reads_the_cached_diagonals(monkeypatch):
    """A complex with rational terms reduces nothing of its own: after an
    iZ table H^0..H^5 on a warm cover, an inclusion table H^0..H^5, read
    once and again, makes no Smith call, and each group is the torsion
    of the iZ group in its degree."""
    cover = catalog.build("torus", "circle_conjugation", "circle_conjugation")
    integral = [equivariant_cohomology(cover, IZ, k, 6) for k in range(6)]
    incl = CoefficientComplex((IZ, IQ), ("incl",))
    calls = []
    inner = exactalg._smith

    def smith(m, transforms=True):
        calls.append(m)
        return inner(m, transforms)

    monkeypatch.setattr(exactalg, "_smith", smith)
    for _ in range(2):
        table = [hypercohomology(cover, incl, k, 6) for k in range(6)]
        assert table == [GroupDescriptor(0, g.torsion) for g in integral]
    assert calls == []


FAR = (10**6, 10**6 + 1, 10**20, 10**20 + 1)
LOCALIZATION_COVERS = FOLD_COVERS + [
    pytest.param("torus", ("circle_conjugation",) * m, id=f"circle_conjugation^{m}") for m in (3, 4)
]


@pytest.mark.parametrize("name, params", LOCALIZATION_COVERS)
def test_far_degrees_localize(name, params):
    """On the catalog, the 21 two-factor tori and three and four
    conjugation circles, H^k for k = 10^6 and 10^20 and the next degrees is
    that of the fixed points (localization, :func:`oracles.localized`),
    with Z and Z/2 coefficients and both signs, and the cone of
    multiplication by 2 one degree up gives the mod-2 group.  Nothing is
    built past the window:
    after the integral degrees the descriptor complex reaches top + 3 at
    most, and after the mod-2 ones, which read one degree more, top + 4."""
    cover = catalog.build(name, *params)
    top = cechengine._alternating_model(cover).top
    fixed_points = oracles.fixed_points(name, params)
    for sign in (-1, 1):
        integral = CoefficientSystem.integers(sign)
        for k in FAR:
            want = desc(oracles.localized(fixed_points, sign, k))
            assert equivariant_cohomology(cover, integral, k, k + 1) == want, (sign, k)
        assert cechengine.build_descriptor_complex(cover, sign).hi <= top + 3, sign
        mod2 = CoefficientSystem.integers_mod(2, sign)
        cone = CoefficientComplex((integral, integral), (2,))
        for k in FAR:
            want = desc(oracles.localized(fixed_points, sign, k, 2))
            assert equivariant_cohomology(cover, mod2, k, k + 1) == want, (sign, k)
            assert hypercohomology(cover, cone, k + 1, k + 2) == want, (sign, k)
        assert cechengine.build_descriptor_complex(cover, sign).hi <= top + 4, sign


def _built(kind, cover, sign, max_degree):
    """The engine complex of one kind, carried as the public builders carry
    theirs for ``max_degree``: to degree max_degree + 1."""
    coeff = CoefficientSystem.integers(sign)
    if kind == "orbit":
        return build_equivariant_complex(cover, coeff, max_degree)[0]
    if kind == "borel":
        c = cechengine._borel_of(cechengine._alternating_model(cover), sign)
    elif kind == "descriptor":
        c = cechengine.build_descriptor_complex(cover, sign)
    else:
        c = oracles.total_complex(cover, CoefficientComplex((coeff, coeff), (2,)))
    c.rank(max_degree + 1)
    return c


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=catalog.entry_label)
def test_no_cohomology_is_read_from_a_truncated_top(entry):
    """A complex carried to max_degree 2 answers H^k at its top and three
    degrees beyond as a fresh cover does when asked for H^k with
    max_degree k + 2: reading H^k grows the complex to degree k + 1 first,
    instead of reading a zero map beyond the top (which gave Z + Z/2 for
    the Borel H^3 of the doubled point with sign -1, whose true group is
    Z/2).  The Borel, descriptor and orbit complexes all compute the
    descriptor route's groups, and the oracle total complex of the cone
    of 2 the hypercohomology route's."""
    cover, fresh = _fresh(entry), _fresh(entry)
    for sign in (-1, 1):
        coeff = CoefficientSystem.integers(sign)
        cone = CoefficientComplex((coeff, coeff), (2,))
        for kind in ("borel", "descriptor", "orbit", "total"):
            c = _built(kind, cover, sign, 2)
            top = c.hi
            for k in range(top, top + 4):
                if kind == "total":
                    want = hypercohomology(fresh, cone, k, k + 2)
                else:
                    want = equivariant_cohomology(fresh, coeff, k, k + 2)
                assert complex_cohomology(c, k) == want, (sign, kind, k)


def test_descriptors_make_no_smith_transforms(monkeypatch):
    """Descriptor questions read Smith diagonals only; the transforms are
    built on the first coordinate question (in ``flatclasses``)."""
    cover = catalog.build("sphere_antipodal", 2)
    calls = []
    inner = exactalg._smith

    def smith(m, transforms=True, rows=True):
        calls.append(transforms)
        return inner(m, transforms, rows)

    for module in (exactalg, flatclasses):
        monkeypatch.setattr(module, "_smith", smith)
    for k in range(3):
        for coeff in (IZ, Z_TRIVIAL, IQ, CoefficientSystem.integers_mod(2, -1)):
            equivariant_cohomology(cover, coeff, k, k + 1)
        nonequivariant_cohomology(cover, Z_TRIVIAL, k, k + 1)
        for fstar in TOTAL_COMPLEXES:
            hypercohomology(cover, fstar, k + 1, k + 2)
    for p in range(4):
        for q in range(3):
            deligne.deligne_descriptor(cover, p, q)
    deligne.quotient_coefficients_cohomology(cover, 1)
    assert calls and True not in calls
    sub, _ = build_equivariant_complex(cover, IZ, 3)
    exactalg.class_coordinates(sub, 1, [0] * sub.rank(1))
    assert True in calls


def test_unit_pass_does_the_work_on_the_borel_torus(monkeypatch):
    """On the Borel complex of ``circle_conjugation`` squared, sign -1, the
    descriptor diagonal eliminates at least 99% of ``rank D_k`` as unit
    pivots in degrees 2..4, and Smith sees only the residual: the cut is
    structural, so a silent fallback to plain Smith fails here.  Degrees 2
    and 3 are also compared with plain Smith (degree 4 alone would take it
    over a second).  The matrices are those of the product nerve's
    unreduced model, which still has its pivots; the engine reads the
    reduced tensor model of the factors, where few are left."""
    product = catalog.build("torus", "circle_conjugation", "circle_conjugation")
    borel = cechengine._borel_of(cechengine._nerve_model(product), -1)
    passes, smith_shapes = [], []
    unit_pivots, smith = exactalg._unit_pivots, exactalg._smith

    def counted_unit_pivots(m):
        eliminated, residual = unit_pivots(m)
        passes.append((eliminated, residual.shape))
        return eliminated, residual

    def shaped_smith(m, transforms=True):
        smith_shapes.append(m.shape)
        return smith(m, transforms)

    monkeypatch.setattr(exactalg, "_unit_pivots", counted_unit_pivots)
    monkeypatch.setattr(exactalg, "_smith", shaped_smith)
    for k in (2, 3, 4):
        d = borel.diff(k)
        alone = exactalg.IntegerCochainComplex({k: d.ncols, k + 1: d.nrows}, {k: d})
        passes.clear()
        smith_shapes.clear()
        diag = exactalg._diagonal(alone, k)
        rank = sum(1 for x in diag if x)
        [(eliminated, residual_shape)] = passes
        assert eliminated >= 0.99 * rank, (k, eliminated, rank)
        assert smith_shapes == ([residual_shape] if all(residual_shape) else [])
        if k < 4:
            assert diag == smith(d, transforms=False).diag


def test_empty_residual_skips_smith(monkeypatch):
    """Unit pivots eliminate every differential of the plain alternating
    complex of ``sphere_antipodal:2`` (H = Z, 0, Z), so its descriptors
    make no Smith reduction at all, not even of the empty residual, and
    the diagonals are still those of plain Smith on each differential."""
    c = cechengine._alternating_model(catalog.build("sphere_antipodal", 2)).complex
    smith, calls = exactalg._smith, []

    def counted_smith(m, *args, **kwargs):
        calls.append(m.shape)
        return smith(m, *args, **kwargs)

    monkeypatch.setattr(exactalg, "_smith", counted_smith)
    assert [str(exactalg.complex_cohomology(c, k)) for k in range(4)] == ["Z", "0", "Z", "0"]
    assert calls == []
    diags = [exactalg._diagonal(c, k) for k in range(3)]
    assert 1 in diags[0] + diags[1]
    assert diags == [smith(c.diff(k), transforms=False).diag for k in range(3)]


@pytest.mark.parametrize(
    "name, params",
    [(e.name, e.params) for e in catalog.ENTRIES] + [("torus", ()), ("torus", ("circle_antipodal", "sphere_antipodal"))],
    ids=[catalog.entry_label(e) for e in catalog.ENTRIES] + ["torus", "torus:circle_antipodal,sphere_antipodal"],
)
def test_cover_and_its_cache_die_with_the_last_reference(name, params):
    """Nothing reachable from a cover's memo refers back to the cover, so
    dropping the last reference frees it and its complexes at once, without
    waiting for the cyclic garbage collector; a product whose nerve was
    read (its class swapped, its memo kept) frees its factors with it.
    The Borel and descriptor
    complexes, and the oracle total complex read off them, grow on without
    it, up to the zero top dim N + 1 of an
    alternating fixed complex; the ordered complexes, which reach it
    through a weak reference, refuse to."""
    gc.collect()
    gc.disable()
    try:
        cover = catalog.build(name, *params)
        for coeff in (IZ, Z_TRIVIAL, IQ):
            equivariant_cohomology(cover, coeff, 1, 3)
        nonequivariant_cohomology(cover, Z_TRIVIAL, 1, 2)
        hypercohomology(cover, TOTAL_COMPLEXES[0], 2, 3)
        hypercohomology(cover, CoefficientComplex((IZ, IQ), ("incl",)), 2, 3)
        deligne.deligne_descriptor(cover, 3, 2)
        assert deligne.flat_cocycle_class(FlatCocycle.zero(cover)).trivial
        assert deligne.cocycles_equivalent(FlatCocycle.zero(cover), FlatCocycle.zero(cover))
        cover.to_json()
        assert type(cover) is C2Cover and ("_alternating_model", ()) in cover._memo
        factors = [weakref.ref(f) for f in cover.factors]
        model = cechengine._alternating_model(cover)
        growing = [cechengine._borel_of(model, sign) for sign in (-1, 1)]
        growing += [cechengine.build_descriptor_complex(cover, sign) for sign in (-1, 1)]
        growing.append(oracles.total_complex(cover, TOTAL_COMPLEXES[0]))
        finite = growing[2:4] if cechengine._acts_freely(model) else []
        zero_top = model.top + 1
        ordered = [build_full_complex(cover, 2), build_equivariant_complex(cover, IZ, 2)[0]]
        ref = weakref.ref(cover)
        del cover
        assert ref() is None and all(f() is None for f in factors)
        for c in growing:
            top = c.hi
            complex_cohomology(c, top + 1)
            assert c.hi == (zero_top if c in finite else top + 2)
        for c in ordered:
            with pytest.raises(DegreeOutOfRange, match="cover is gone"):
                c.rank(c.hi + 1)
    finally:
        gc.enable()
