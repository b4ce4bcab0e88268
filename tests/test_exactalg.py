"""Exact integer linear algebra: Smith reduction, cohomology of integer
cochain complexes, class coordinates, fixed subcomplexes."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from realdeligne import catalog, cechengine
from realdeligne.coverdata import IZ
from realdeligne.errors import (
    DegreeOutOfRange,
    InternalInvariantError,
    NotACocycle,
    NotAnInvolution,
    NotEquivariant,
)
from realdeligne.exactalg import (
    ElementCoordinates,
    _grow_orbit_complex,
    GroupDescriptor,
    IntegerCochainComplex,
    SparseIntMatrix,
    _diagonal,
    _smith,
    _unit_pivots,
    as_sparse,
    class_coordinates,
    class_representative,
    coboundary_preimage,
    complex_cohomology,
    fixed_subcomplex,
    integer_rank,
    kernel_basis,
    smith_normal_form,
    solve_int,
    solve_rational,
)
from realdeligne.flatclasses import _cohomology_data, _kernel_coordinates
from realdeligne.verify import kernel_quotient


def intmat(rows):
    return np.array(rows, dtype=object)


small_matrices = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


def test_as_sparse_reads_rows_of_any_sequence():
    rows = [[0, 2, 0], [-1, 0, 3]]
    want = as_sparse(rows)
    assert (want.shape, want.rows) == ((2, 3), [{1: 2}, {0: -1, 2: 3}])
    assert as_sparse(tuple(tuple(r) for r in rows)) == want
    assert as_sparse(intmat(rows)) == want
    column = SparseIntMatrix(3, 1, [{0: 4}, {}, {0: -5}])
    assert as_sparse([4, 0, -5]) == column
    assert as_sparse(np.array([4, 0, -5], dtype=object)) == column
    assert as_sparse(np.zeros((0, 3), dtype=object)).shape == (0, 3)
    assert as_sparse([[], []]).shape == as_sparse(np.zeros((2, 0), dtype=object)).shape == (2, 0)
    for bad in ([[1, 2], [3]], [[Fraction(1, 2), 3]]):
        with pytest.raises(ValueError):
            as_sparse(bad)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_smith_known_diagonal():
    d, u, v = smith_normal_form(intmat([[2, 0], [0, 3]]))
    assert all(isinstance(x, list) for x in (d, u, v))
    assert [d[0][0], d[1][1]] == [1, 6]
    assert np.array_equal(intmat(u) @ intmat([[2, 0], [0, 3]]) @ intmat(v), intmat(d))


def test_smith_zero_matrix():
    d, u, v = smith_normal_form(intmat([[0, 0], [0, 0], [0, 0]]))
    assert not np.any(d)
    assert abs(oracles._det(u)) == abs(oracles._det(v)) == 1


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_smith_postconditions(rows):
    m = intmat(rows)
    d, u, v = smith_normal_form(m)
    assert np.array_equal(intmat(u) @ m @ intmat(v), intmat(d))
    assert abs(oracles._det(u)) == abs(oracles._det(v)) == 1
    diag = [d[i][i] for i in range(min(m.shape))]
    assert all(x >= 0 for x in diag)
    chain = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    # off-diagonal must vanish
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            if i != j:
                assert d[i][j] == 0
    k = kernel_basis(m)
    assert isinstance(k, list) and len(k) == m.shape[1]
    if k[0]:
        assert not np.any(m @ intmat(k))
    assert integer_rank(m) + len(k[0]) == m.shape[1]


@st.composite
def structured_matrices(draw):
    """Tall, wide and square matrices whose columns are zero, random, or
    integer combinations of earlier columns (emptied during elimination),
    interleaved in any order."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cols = []
    for _ in range(nc):
        kind = draw(st.sampled_from(("zero", "random", "combination")))
        if kind == "random" or (kind == "combination" and not cols):
            col = draw(st.lists(st.integers(-6, 6), min_size=nr, max_size=nr))
        elif kind == "combination":
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
            col = [sum(c * v[i] for c, v in zip(coeffs, cols)) for i in range(nr)]
        else:
            col = [0] * nr
        cols.append(col)
    return [[cols[j][i] for j in range(nc)] for i in range(nr)]


@settings(max_examples=200, deadline=None)
@given(structured_matrices())
@example([[0, 2, 0, 4], [0, 0, 0, 0], [0, 4, 0, 8]])
@example([[0], [3], [0], [6], [0], [9]])
@example([[1, 1, 0, 2, 0, 3]])
def test_smith_pivot_scan_on_structured_matrices(rows):
    """The pivot search takes the first nonempty column and the smallest
    entry of it: sound because after step t no column past t has an entry in
    a row up to t.  Postconditions, and the diagonal against the
    determinantal divisors."""
    m = intmat(rows)
    d, u, v = smith_normal_form(m)
    assert np.array_equal(intmat(u) @ m @ intmat(v), intmat(d))
    assert abs(oracles._det(u)) == abs(oracles._det(v)) == 1
    diag = [d[i][i] for i in range(min(m.shape))]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero  # zeros come last
    assert nonzero == oracles.smith_diagonal(rows)


@st.composite
def nonunit_matrices(draw):
    """Sparse matrices whose entries mix units with non-units (±2, ±3, ±4,
    ±6), some rows and columns zeroed out, so that elimination meets
    torsion and runs out of unit pivots."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, nr - 1)))
    zero_cols = draw(st.sets(st.integers(0, nc - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def unit_pass_diagonal(m):
    """``_diagonal`` of ``m`` as the only differential of a complex."""
    m = as_sparse(m)
    return _diagonal(IntegerCochainComplex({0: m.ncols, 1: m.nrows}, {0: m}), 0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(structured_matrices(), nonunit_matrices()))
@example([[0, 2, 0, 4], [0, 0, 0, 0], [0, 4, 0, 8]])
@example([[1, 2, 0], [1, 0, 2], [0, 0, 0]])
def test_unit_pass_diagonal_matches_smith(rows):
    """Eliminating the unit pivots first, then reducing the residual, gives
    the diagonal of plain ``_smith`` entry by entry, zeros included, and
    the invariant factors of the determinantal divisors."""
    m = as_sparse(rows)
    diag = unit_pass_diagonal(m)
    assert diag == _smith(m, transforms=False).diag
    assert [x for x in diag if x] == oracles.smith_diagonal(rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(structured_matrices(), nonunit_matrices()))
def test_column_transforms_alone_match_the_full_reduction(rows):
    """A reduction that builds only the column transforms makes the same
    pivots: the same diagonal, ``v`` and ``v^-1``, so the same kernel."""
    m = as_sparse(rows)
    full, cols = _smith(m), _smith(m, rows=False)
    assert cols.u is None and cols.uinvT is None
    assert (cols.diag, cols.vT, cols.vinv) == (full.diag, full.vT, full.vinv)


@pytest.mark.parametrize("space", (
    ("circle_conjugation",), ("circle_antipodal_fine",), ("sphere_antipodal", 2), ("point_trivial_fine",),
    ("torus",), ("torus", "circle_antipodal", "circle_antipodal_fine"),
), ids=lambda space: ":".join(map(str, space)))
def test_column_transforms_alone_on_the_flat_complexes(space):
    """The kernels the flat classifier reads, d_1 and d_2 of the iZ complex,
    are the same from a reduction with the column transforms alone."""
    sub, _ = cechengine.build_equivariant_complex(catalog.build(*space), IZ, 3)
    for k in (1, 2):
        full, cols = _smith(sub.diff(k)), _smith(sub.diff(k), rows=False)
        assert cols.kernel_basis() == full.kernel_basis()
        assert cols.kernel_left_inverse() == full.kernel_left_inverse()


@pytest.mark.parametrize(
    "rows, eliminated, want",
    [
        ([[2, 1], [1, 2]], 1, [1, 3]),
        ([[2, 0], [0, 3]], 0, [1, 6]),  # no unit pivot, but Smith makes one
        ([[0, 0, -1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]], 4, [1, 1, 1, 1]),
        ([[2, 4, 1], [0, 0, 0]], 1, [1, 0]),
    ],
)
def test_unit_pass_examples(rows, eliminated, want):
    """Known eliminations and diagonals; the residual keeps no empty row or
    column."""
    m = as_sparse(rows)
    count, residual = _unit_pivots(m)
    assert count == eliminated
    assert residual.shape[0] + count <= m.nrows and residual.shape[1] + count <= m.ncols
    assert all(residual.rows) and all(any(j in r for r in residual.rows) for j in range(residual.ncols))
    assert unit_pass_diagonal(m) == _smith(m, transforms=False).diag == want


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_unit_pass_on_empty_shapes(shape):
    m = SparseIntMatrix(*shape)
    assert _unit_pivots(m)[0] == 0
    assert unit_pass_diagonal(m) == _smith(m, transforms=False).diag == []


def test_solve_int_known():
    x = solve_int(intmat([[2, 0], [0, 3]]), np.array([4, 9], dtype=object))
    assert x == [2, 3]
    assert solve_int(intmat([[2]]), np.array([1], dtype=object)) is None


def test_solve_rational_known():
    x = solve_rational(intmat([[2, 0], [0, 3]]), np.array([1, 1], dtype=object))
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    # inconsistent systems stay unsolvable over the rationals
    assert solve_rational(intmat([[1], [1]]), np.array([0, 1], dtype=object)) is None


def test_solves_refuse_a_right_hand_side_of_the_wrong_length():
    """``b`` needs one entry per row of ``m``: a longer one is not cut to
    fit, and a shorter one is refused as plainly."""
    for solve in (solve_int, solve_rational):
        for b in ([4, 9, 1], [4]):
            with pytest.raises(ValueError, match=f"length {len(b)} for 2 rows"):
                solve([[2, 0], [0, 3]], b)


def test_solves_read_numpy_integers_exactly():
    """An int64 right-hand side is read as Python ints: the solution
    ``(-2^70, 2^30)`` does not wrap around to a wrong answer."""
    m, b = [[1, 2**40], [0, 1]], np.array([0, 2**30])
    assert solve_int(m, b) == [-(2**70), 2**30]
    assert solve_rational(m, b) == [-(2**70), 2**30]
    assert solve_int([[2]], [Fraction(1, 2)]) is None
    assert solve_rational([[2]], [Fraction(1, 2)]) == [Fraction(1, 4)]


def test_matmul_refuses_mismatched_shapes():
    """The shape check is an exception, not an ``assert``, so it holds
    under ``python -O`` too."""
    with pytest.raises(ValueError, match=r"\(1, 2\) by \(3, 1\)"):
        as_sparse([[1, 2]]).matmul(as_sparse([[1], [1], [1]]))


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_solve_int_roundtrip(rows, xs):
    m = intmat(rows)
    x = np.array(xs[: m.shape[1]] + [0] * (m.shape[1] - len(xs)), dtype=object)
    b = m @ x
    got = solve_int(m, b)
    assert got is not None
    assert np.array_equal(m @ intmat(got), b)


# ---------------------------------------------------------------------------
# cochain complexes and cohomology
# ---------------------------------------------------------------------------


def times_two_complex():
    # 0 -> Z --2--> Z -> 0 carried in degrees 0, 1
    return IntegerCochainComplex({0: 1, 1: 1}, {0: intmat([[2]])})


def periodic_complex(sign, n):
    """Z in each degree 0..n, differentials alternating sign-1, sign+1."""
    diffs = {}
    for k in range(n):
        c = (sign - 1) if k % 2 == 0 else (sign + 1)
        diffs[k] = intmat([[c]])
    return IntegerCochainComplex({k: 1 for k in range(n + 1)}, diffs)


def test_cokernel_of_two():
    c = times_two_complex()
    assert complex_cohomology(c, 0) == GroupDescriptor(0, ())
    assert complex_cohomology(c, 1) == GroupDescriptor(0, (2,))


def test_periodic_complex_tables():
    import oracles

    for sign in (-1, +1):
        c = periodic_complex(sign, 6)
        for k in range(6):
            rank, torsion = oracles.cyclic_two_integer(sign, k)
            assert complex_cohomology(c, k) == GroupDescriptor(rank, torsion)


def test_degree_out_of_range():
    c = times_two_complex()
    for k in (2, -1, 1.5, "2"):  # above, below, and no integer at all
        with pytest.raises(DegreeOutOfRange):
            complex_cohomology(c, k)
    assert complex_cohomology(c, 1) == complex_cohomology(c, np.int64(1))


def test_dsquared_checked():
    with pytest.raises(ValueError, match="d∘d") as caught:
        IntegerCochainComplex({0: 1, 1: 1, 2: 1}, {0: intmat([[1]]), 1: intmat([[1]])})
    assert not isinstance(caught.value, InternalInvariantError)


@pytest.mark.parametrize(
    "ranks, diffs",
    [
        ({0: 2, 1: 3}, {0: [[1, 2]]}),  # the shape of 1 x 2 into rank 3 from rank 2
        ({0: 1, 1: 1}, {1: [[1]]}),  # out of the top degree
        ({0: 1, 1: 1}, {-1: [[1]]}),  # into the bottom degree
        ({0: 1, 1: -1}, {}),
        ({0: 1.5}, {}),
        ({"0": 1}, {}),
        ({}, {}),
    ],
    ids=["shape", "above", "below", "negative-rank", "fractional-rank", "text-degree", "empty"],
)
def test_hand_built_complexes_are_checked_when_made(ranks, diffs):
    """A complex built by hand is checked by its constructor, and a bad one
    is the caller's input error, a plain ValueError, not an internal
    invariant failure (d∘d != 0 is ``test_dsquared_checked``)."""
    with pytest.raises(ValueError) as caught:
        IntegerCochainComplex(ranks, diffs)
    assert not isinstance(caught.value, InternalInvariantError)


def test_complex_range_is_read_off_its_ranks():
    """``lo`` and ``hi`` are the least and greatest keys of ``ranks``; a
    degree between them with no key has rank 0.  Growth checks as before:
    a differential of the wrong shape is the engine's own fault."""
    c = IntegerCochainComplex({2: 1, 3: 1, 5: 2}, {2: [[3]]})
    assert (c.lo, c.hi, c.rank(4)) == (2, 5, 0)
    assert complex_cohomology(c, 3) == GroupDescriptor(0, (3,))
    with pytest.raises(InternalInvariantError, match="shape"):
        c.extend(1, SparseIntMatrix(1, 1))


@st.composite
def complexes_with_torsion(draw):
    """``Z^a --d0--> Z^b --d1--> Z^c`` with ``d0 = kernel_basis(d1) @ r``, so
    ``d1 @ d0 == 0`` and the invariant factors of ``r`` become torsion."""
    a, b, c = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entries = st.integers(-4, 4)
    d1 = np.array(draw(st.lists(entries, min_size=b * c, max_size=b * c)), dtype=object)
    kernel = intmat(kernel_basis(d1.reshape(c, b)))
    z = kernel.shape[1]
    r = np.array(draw(st.lists(entries, min_size=z * a, max_size=z * a)), dtype=object)
    d0 = kernel @ r.reshape(z, a) if z else np.zeros((b, a), dtype=object)
    return IntegerCochainComplex({0: a, 1: b, 2: c}, {0: d0, 1: d1.reshape(c, b)})


@settings(max_examples=150, deadline=None)
@given(complexes_with_torsion())
def test_diagonal_descriptors_match_kernel_quotient(c):
    """Descriptors from the Smith diagonals alone agree with ker d_k / im
    d_(k-1) computed through the kernel basis (``verify.kernel_quotient``)."""
    for k in range(c.lo, c.hi + 1):
        assert complex_cohomology(c, k) == kernel_quotient(c.diff(k), c.diff(k - 1)), k


def test_class_coordinates_torsion_generator():
    c = times_two_complex()
    coords = class_coordinates(c, 1, [1])
    assert coords.free_part == ()
    assert coords.torsion_part == (1,)
    # twice the generator is exact
    assert class_coordinates(c, 1, [2]).is_zero
    rep = class_representative(c, 1, coords)
    assert rep == [1]
    assert class_coordinates(c, 1, rep) == coords


def test_class_coordinates_rejects_noncocycle():
    c = times_two_complex()
    with pytest.raises(NotACocycle):
        class_coordinates(c, 0, [1])
    with pytest.raises(NotACocycle):
        class_coordinates(c, 1, [1, 2])
    for wrong_length in ([2, 0], []):
        with pytest.raises(NotACocycle):
            coboundary_preimage(c, 1, wrong_length)
    with pytest.raises(DegreeOutOfRange):
        coboundary_preimage(c, 2, [2])


def test_class_representative_checks_degree_and_coordinate_counts():
    """As ``class_coordinates`` does, it refuses a degree outside the
    complex, and coordinates with one entry too many or too few for the
    group's free or torsion generators are refused, not cut to fit."""
    c = times_two_complex()  # H^1 = Z/2: no free and one torsion generator
    with pytest.raises(DegreeOutOfRange):
        class_representative(c, 5, ElementCoordinates((), ()))
    for free, torsion in (((), (1, 1, 1)), ((1,), (1,)), ((), ())):
        with pytest.raises(ValueError, match="need 0 free and 1 torsion"):
            class_representative(c, 1, ElementCoordinates(free, torsion))
    assert list(class_representative(c, 1, ElementCoordinates((), (1,)))) == [1]


def test_coordinate_questions_refuse_fractions():
    """On the sign -1 orbit complex of the conjugation circle (H^1 = Z +
    Z/2), coordinates with a fractional entry are refused, not cut to the
    zero cocycle, and half the representative of ``(1, 1)``, a closed but
    not integral vector, is refused, not classified to a residue 1/2 in
    Z/2 or read as a nonzero class."""
    cover = catalog.build("circle_conjugation")
    sub, _ = cechengine._orbit_complex(cover, -1)
    assert str(complex_cohomology(sub, 1)) == "Z + Z/2"
    with pytest.raises(ValueError, match="integers"):
        class_representative(sub, 1, ElementCoordinates((Fraction(1, 2),), (0,)))
    with pytest.raises(ValueError, match="integers"):
        class_representative(sub, 1, ElementCoordinates((0,), (0.5,)))
    rep = class_representative(sub, 1, ElementCoordinates((Fraction(1),), (1,)))
    assert class_coordinates(sub, 1, rep) == ElementCoordinates((1,), (1,))
    half = [Fraction(x, 2) for x in rep]
    assert _kernel_coordinates(sub, 1, half)  # closed, so the check passes
    for question in (class_coordinates, coboundary_preimage):
        with pytest.raises(ValueError, match="integral"):
            question(sub, 1, half)
    assert coboundary_preimage(sub, 1, [Fraction(x) for x in rep]) is None


def test_fraction_cocycle_reads_int_coordinates():
    """An integral cocycle given as Fractions classifies to the int-valued
    coordinates, repr included: the representative of ``(1, 1)`` on the
    sign -1 orbit complex of the conjugation circle reads ``(1,), (1,)``."""
    cover = catalog.build("circle_conjugation")
    sub, _ = cechengine._orbit_complex(cover, -1)
    want = ElementCoordinates((1,), (1,))
    rep = class_representative(sub, 1, want)
    got = class_coordinates(sub, 1, [Fraction(x) for x in rep])
    assert repr(got) == repr(want) == repr(class_coordinates(sub, 1, rep))
    assert all(type(x) is int for x in (*got.free_part, *got.torsion_part))


def test_coordinates_vanish_exactly_on_images():
    """class_coordinates(v) == 0 iff v is a coboundary."""
    d0 = intmat([[2, 0], [0, 3], [0, 0]])
    d1 = intmat([[0, 0, 0]])
    c = IntegerCochainComplex({0: 2, 1: 3, 2: 1}, {0: d0, 1: d1})
    rng = np.random.RandomState(7)
    for _ in range(40):
        x = np.array(rng.randint(-5, 6, size=2), dtype=object)
        v = d0 @ x
        assert class_coordinates(c, 1, v).is_zero
    for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        coords = class_coordinates(c, 1, v)
        exact = solve_int(d0, np.array(v, dtype=object)) is not None
        assert coords.is_zero == exact


def test_representative_roundtrip_mixed():
    d1 = intmat([[0, 0, 0]])
    c = IntegerCochainComplex({0: 2, 1: 3, 2: 1}, {0: intmat([[2, 0], [0, 3], [0, 0]]), 1: d1})
    g = complex_cohomology(c, 1)
    assert g == GroupDescriptor(1, (6,))
    for free in ([-2], [0], [5]):
        for tor in ([0], [1], [5]):
            y = ElementCoordinates(tuple(free), tuple(tor))
            assert class_coordinates(c, 1, class_representative(c, 1, y)) == y


def test_coboundary_preimage_exactly_on_zero_classes():
    c = periodic_complex(-1, 4)  # H^1 = Z/2, d_0 = -2
    assert list(coboundary_preimage(c, 1, [6])) == [-3]
    assert coboundary_preimage(c, 1, [1]) is None
    with pytest.raises(NotACocycle):
        coboundary_preimage(times_two_complex(), 0, [1])
    rng = np.random.RandomState(5)
    d0 = intmat([[1, 2, 0], [0, 2, 4], [3, 0, 6], [1, 1, 1]])
    wide = IntegerCochainComplex({0: 3, 1: 4}, {0: d0})
    for _ in range(20):
        v = d0 @ np.array(rng.randint(-5, 6, size=3), dtype=object)
        x = coboundary_preimage(wide, 1, v)
        assert x is not None and np.array_equal(d0 @ x, v)


FLAT_CLASSIFY_SPACES = (
    ("circle_conjugation",),
    ("circle_antipodal_fine",),
    ("sphere_antipodal", 2),
    ("point_trivial_fine",),
    ("torus",),
    ("torus", "circle_antipodal", "circle_antipodal_fine"),
)


@functools.cache
def flat_orbit_complex(space):
    """The sign -1 ordered orbit complex the flat classifier reads, built to
    degree 3, with its cover (which the complex holds only weakly)."""
    cover = catalog.build(*space)
    sub = cechengine._orbit_complex(cover, -1)[0]
    sub.rank(3)
    return cover, sub


integers_or_fractions = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=6)


@st.composite
def degree_vectors(draw, c, k):
    """A degree-``k`` vector of ``c`` with integer or Fraction entries: a
    sparse random one, a true cocycle ``K w`` (``K`` the kernel basis of
    ``d_k``), or such a cocycle with one entry moved."""
    n = c.rank(k)
    if n == 0:
        return []
    kind = draw(st.sampled_from(("random", "cocycle", "perturbed")))
    if kind == "random":
        v = [0] * n
        for pos, x in draw(st.dictionaries(st.integers(0, n - 1), integers_or_fractions, max_size=6)).items():
            v[pos] = x
        return v
    kernel = _cohomology_data(c, k)["kernel"]
    w = draw(st.lists(integers_or_fractions, min_size=kernel.ncols, max_size=kernel.ncols))
    v = kernel.matvec(w)
    if kind == "perturbed":
        v[draw(st.integers(0, n - 1))] += draw(integers_or_fractions.filter(bool))
    return v


def assert_cocycle_check_is_the_differential_check(c, k, v):
    """``NotACocycle`` is raised exactly when ``d_k v != 0``, by the
    coordinate pass and, on integer vectors, by the public entry points;
    a cocycle's kernel coordinates give it back."""
    closed = not any(c.diff(k).matvec(v))
    integral = all(Fraction(x).denominator == 1 for x in v)
    if closed:
        data, w = _kernel_coordinates(c, k, v)
        assert data["kernel"].matvec(w) == v
        if integral:
            class_coordinates(c, k, v)
        return
    with pytest.raises(NotACocycle, match="not annihilated"):
        _kernel_coordinates(c, k, v)
    if integral:
        with pytest.raises(NotACocycle, match="not annihilated"):
            class_coordinates(c, k, v)
        with pytest.raises(NotACocycle, match="not annihilated"):
            coboundary_preimage(c, k, v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_coordinate_check_is_the_differential_check_on_flat_covers(data):
    """On the orbit complexes the flat classifier reads, degrees 1 and 2."""
    _, c = flat_orbit_complex(data.draw(st.sampled_from(FLAT_CLASSIFY_SPACES)))
    k = data.draw(st.sampled_from((1, 2)))
    assert_cocycle_check_is_the_differential_check(c, k, data.draw(degree_vectors(c, k)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_coordinate_check_is_the_differential_check_with_torsion(data):
    """On hand-built complexes with torsion, every degree, the top (where
    ``d`` is the zero map and every vector is a cocycle) included."""
    c = data.draw(complexes_with_torsion())
    k = data.draw(st.integers(c.lo, c.hi))
    assert_cocycle_check_is_the_differential_check(c, k, data.draw(degree_vectors(c, k)))


def test_kernel_coordinate_check_on_a_top_degree_and_torsion():
    c = periodic_complex(1, 4)  # d_3 = 2 into the top, so H^4 = Z/2
    assert complex_cohomology(c, 4) == GroupDescriptor(0, (2,))
    for v in ([1], [Fraction(1, 3)], [0]):
        assert_cocycle_check_is_the_differential_check(c, 4, v)
    for v in ([1], [Fraction(1, 2)], [0]):
        assert_cocycle_check_is_the_differential_check(c, 3, v)


COORDINATE_SPACES = tuple((e.name, *e.params) for e in catalog.ENTRIES) + (
    ("torus",),
    ("torus", "circle_antipodal", "circle_antipodal_fine"),
)


@functools.cache
def coordinate_complex(space, kind, sign):
    """The sign ``sign`` orbit complex or descriptor complex of a catalog
    cover, with the cover (which the complex holds only weakly)."""
    cover = catalog.build(*space)
    if kind == "orbit":
        return cover, cechengine._orbit_complex(cover, sign)[0]
    return cover, cechengine.build_descriptor_complex(cover, sign)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coordinate_rows_read_what_the_smith_transforms_read(data):
    """On the orbit and descriptor complexes of catalog covers, degrees 1
    and 2, the coordinates of a random integral cocycle (a representative
    of drawn coordinates plus a coboundary), read through the cached rows
    ``R_k``, are the drawn ones and the reading of ``u (L v)``."""
    space = data.draw(st.sampled_from(COORDINATE_SPACES))
    kind = data.draw(st.sampled_from(("orbit", "descriptor")))
    _, c = coordinate_complex(space, kind, data.draw(st.sampled_from((-1, 1))))
    k = data.draw(st.sampled_from((1, 2)))
    group = complex_cohomology(c, k)
    free = data.draw(st.lists(st.integers(-6, 6), min_size=group.rank, max_size=group.rank))
    torsion = [data.draw(st.integers(0, d - 1)) for d in group.torsion]
    coords = ElementCoordinates(tuple(free), tuple(torsion))
    n = c.rank(k - 1)
    x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    v = [a + b for a, b in zip(class_representative(c, k, coords), c.diff(k - 1).matvec(x))]
    got = class_coordinates(c, k, v)
    reading_free, reading_torsion = oracles.smith_reading(c, k, v)
    assert got == coords
    assert got == ElementCoordinates(tuple(reading_free), tuple(y % d for y, d in reading_torsion))


def test_kernel_quotient_checks_generators():
    with pytest.raises(ValueError):
        kernel_quotient(intmat([[1, 0]]), intmat([[1], [0]]))
    g = kernel_quotient(intmat([[0, 0]]), intmat([[2, 0], [0, 0]]))
    assert g == GroupDescriptor(1, (2,))


# ---------------------------------------------------------------------------
# fixed subcomplexes
# ---------------------------------------------------------------------------


def two_term_swap_complex():
    """Rank-2 in degrees 0 and 1, differential the identity."""
    return IntegerCochainComplex({0: 2, 1: 2}, {0: intmat([[1, 0], [0, 1]])})


def test_fixed_subcomplex_plain_swap():
    c = two_term_swap_complex()
    swap = intmat([[0, 1], [1, 0]])
    sub, bases = fixed_subcomplex(c, {0: swap, 1: swap})
    assert sub.rank(0) == 1 and sub.rank(1) == 1
    col = [row[0] for row in bases[0].to_dense()]
    assert col in ([1, 1], [-1, -1])


def test_fixed_subcomplex_signed_swap():
    c = two_term_swap_complex()
    signed = intmat([[0, -1], [-1, 0]])
    sub, bases = fixed_subcomplex(c, {0: signed, 1: signed})
    col = [row[0] for row in bases[0].to_dense()]
    assert col in ([1, -1], [-1, 1])
    assert complex_cohomology(sub, 0) == GroupDescriptor(0, ())


def test_fixed_subcomplex_rejects_non_involution():
    c = two_term_swap_complex()
    shear = intmat([[1, 1], [0, 1]])
    with pytest.raises(NotAnInvolution):
        fixed_subcomplex(c, {0: shear, 1: shear})


def test_fixed_subcomplex_rejects_non_equivariant():
    c = IntegerCochainComplex({0: 2, 1: 2}, {0: intmat([[1, 0], [0, 2]])})
    swap = intmat([[0, 1], [1, 0]])
    ident = intmat([[1, 0], [0, 1]])
    with pytest.raises(NotEquivariant):
        fixed_subcomplex(c, {0: swap, 1: ident})


def swap_pairs_complex(d):
    """Rank 4 in degrees 0 and 1; the involution swaps 0<->1 and 2<->3."""
    return IntegerCochainComplex({0: 4, 1: 4}, {0: intmat(d)})


SWAP_PAIRS = [1, 0, 3, 2]


def _swap_pairs_to(top, eps=(1, 1, 1, 1)):
    """The swap with signs ``eps`` in every degree up to ``top``, and
    nothing above."""
    return lambda k: (SWAP_PAIRS, list(eps)) if k <= top else ([], [])


def test_orbit_complex_of_swapped_pairs():
    """Orbit sums e_r + sign e_perm(r), r the larger position, ascending,
    and the differential read off the representative rows.  The fixed part
    is seeded in the lowest degree and grows as it is read, with zero terms
    above the top of the complex, where the permutation is empty."""
    d = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    for sign in (-1, 1):
        sub, bases = _grow_orbit_complex(swap_pairs_complex(d), _swap_pairs_to(1), sign)
        assert (sub.hi, list(bases)) == (0, [0])
        assert sub.diff(0).to_dense() == [[1, 0], [0, 2 * sign]]
        assert bases[0].transpose().to_dense() == [[sign, 1, 0, 0], [0, 0, sign, 1]]
        assert bases[1] == bases[0]
        assert (sub.rank(2), sub.hi, bases[2].shape) == (0, 2, (0, 0))
        ref, _ = fixed_subcomplex(
            swap_pairs_complex(d), {k: _signed_permutation(SWAP_PAIRS, sign) for k in (0, 1)}
        )
        for k in (0, 1):
            assert complex_cohomology(sub, k) == complex_cohomology(ref, k)


def test_orbit_complex_of_sign_twisted_pairs():
    """With per-position signs eps (constant on orbits) the action is
    e_i -> sign * eps[i] * e_perm(i) and the orbit sums are
    e_r + sign * eps[r] * e_perm(r)."""
    d = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    eps = [1, 1, -1, -1]
    for sign in (-1, 1):
        sub, bases = _grow_orbit_complex(swap_pairs_complex(d), _swap_pairs_to(1, eps), sign)
        assert bases[0].transpose().to_dense() == [[sign, 1, 0, 0], [0, 0, -sign, 1]]
        assert sub.diff(0).to_dense() == [[1, 0], [0, -2 * sign]]
        t = np.array(_signed_permutation(SWAP_PAIRS, sign)) * np.array(eps, dtype=object)[:, None]
        ref, _ = fixed_subcomplex(swap_pairs_complex(d), {0: t, 1: t})
        for k in (0, 1):
            assert complex_cohomology(sub, k) == complex_cohomology(ref, k)
    with pytest.raises(InternalInvariantError):  # eps not constant on an orbit
        _grow_orbit_complex(swap_pairs_complex(d), lambda k: (SWAP_PAIRS, [1, -1, 1, 1]), 1)


def _signed_permutation(perm, sign):
    t = np.zeros((len(perm), len(perm)), dtype=object)
    for i, j in enumerate(perm):
        t[i, j] = sign
    return t


@pytest.mark.parametrize(
    "perm",
    [[1, 2, 3, 0], [1, 0, 2, 3], [1, 0, 3], [1, 0, 3, 4]],
    ids=["four-cycle", "fixed-positions", "short", "out-of-range"],
)
def test_orbit_complex_rejects_non_involution(perm):
    """A permutation that does not square to the identity, fixes a position
    or does not fit the degree is refused before anything is built, here
    in the seed degree.  The engine supplies these permutations itself, so
    this is an internal invariant failure."""
    c = swap_pairs_complex(np.eye(4, dtype=object).tolist())
    with pytest.raises(InternalInvariantError):
        _grow_orbit_complex(c, lambda k: (perm, [1] * len(perm)), -1)


def test_orbit_complex_rejects_non_equivariant():
    """d[perm(i), perm(j)] must equal d[i, j]: here d fixes e_0 but sends
    e_1 to 2 e_1, so it does not commute with the swap (an internal
    invariant failure, like a non-involution).  The check runs when the
    degree is first read, and leaves the fixed part unextended."""
    c = swap_pairs_complex([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for sign in (-1, 1):
        sub, _ = _grow_orbit_complex(c, _swap_pairs_to(1), sign)
        with pytest.raises(InternalInvariantError):
            sub.diff(0)
        assert sub.hi == 0


def test_orbit_coordinates_read_representatives():
    """The reference route's projection (``oracles.orbit_coordinates``) is
    the left inverse of the orbit-sum embedding the engine grows."""
    v = np.array([-5, 5, 7, -7], dtype=object)
    assert list(oracles.orbit_coordinates(SWAP_PAIRS, -1, v)) == [5, -7]
    with pytest.raises(NotEquivariant):
        oracles.orbit_coordinates(SWAP_PAIRS, 1, v)
    half = [Fraction(1, 2), Fraction(1, 2), 0, 0]
    assert list(oracles.orbit_coordinates(SWAP_PAIRS, 1, half)) == [Fraction(1, 2), 0]
    c = swap_pairs_complex([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for sign in (-1, 1):
        _, bases = _grow_orbit_complex(c, _swap_pairs_to(1), sign)
        for w in ([5, -7], [0, 3]):
            full = bases[0].matvec(w)
            assert oracles.orbit_coordinates(SWAP_PAIRS, sign, full) == w


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(4)), st.lists(st.booleans(), min_size=4, max_size=4))
def test_fixed_vectors_lie_in_span(perm, flips):
    """Any vector fixed by a signed permutation involution is an integer
    combination of the computed basis columns."""
    # force the permutation to be an involution by symmetrizing 2-cycles
    invol = list(range(4))
    for i, j in enumerate(perm):
        if invol[i] == i and invol[j] == j:
            invol[i], invol[j] = j, i
    t = np.zeros((4, 4), dtype=object)
    for i in range(4):
        s = -1 if (flips[i] and invol[i] != i) else 1
        t[invol[i], i] = s
        t[i, invol[i]] = s
    if np.any(t @ t != np.eye(4, dtype=object)):
        return
    c = IntegerCochainComplex({0: 4}, {})
    sub, bases = fixed_subcomplex(c, {0: t})
    rng = np.random.RandomState(11)
    coeff = np.array(rng.randint(-3, 4, size=bases[0].ncols), dtype=object)
    v = np.array(bases[0].matvec(coeff), dtype=object)
    assert np.array_equal(t @ v, v)
    back = solve_int(bases[0], v)
    assert back == list(coeff)


# ---------------------------------------------------------------------------
# group descriptors
# ---------------------------------------------------------------------------


def test_descriptor_canonical_forms():
    assert str(GroupDescriptor(0, ())) == "0"
    assert str(GroupDescriptor(1, ())) == "Z"
    assert str(GroupDescriptor(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert GroupDescriptor.from_cyclic_orders(0, [2, 3]) == GroupDescriptor(0, (6,))
    assert GroupDescriptor.from_cyclic_orders(0, [4, 6]) == GroupDescriptor(0, (2, 12))
    assert GroupDescriptor.from_cyclic_orders(1, [1, 1]) == GroupDescriptor(1, ())
    assert GroupDescriptor.from_cyclic_orders(0, [2, 2, 2]) == GroupDescriptor(
        0, (2, 2, 2)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-400, 400), max_size=7))
@example([0, 1, -1])  # orders of at most 1 are skipped, 0 included
@example([0, -6, 4])
def test_from_cyclic_orders_matches_primary_decomposition(orders):
    got = GroupDescriptor.from_cyclic_orders(3, orders)
    assert got == GroupDescriptor(3, oracles.invariant_factors(orders))


def test_descriptor_rejects_broken_chain():
    with pytest.raises(ValueError):
        GroupDescriptor(0, (4, 2))
    with pytest.raises(ValueError):
        GroupDescriptor(0, (1,))


def test_descriptor_rejects_negative_or_fractional_rank():
    """A rank below 0 or not an integer is refused: ``GroupDescriptor(-1)``
    would print ``0`` without being trivial, and ``GroupDescriptor(1.5)``
    ``Z^1.5``."""
    with pytest.raises(ValueError, match="rank"):
        GroupDescriptor(-1)
    with pytest.raises(TypeError):
        GroupDescriptor(1.5)
    assert GroupDescriptor(np.int64(2)) == GroupDescriptor(2)


def test_element_coordinates_zero():
    assert ElementCoordinates((), ()).is_zero
    assert ElementCoordinates((0, 0), (0,)).is_zero
    assert not ElementCoordinates((1,), ()).is_zero
