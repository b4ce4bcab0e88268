"""Exact integer linear algebra for finitely generated cochain complexes.

Everything here runs on arbitrary-precision Python integers (Fractions for
the few rational solves); no floating point is ever involved, so results are
exact by construction.  Matrices are stored sparsely as dicts of rows, which
keeps Smith reduction of the large but very sparse coboundary matrices cheap;
vectors are plain lists.  Matrix arguments may be nested sequences of rows
or 2-D arrays.  The dense interchange (:meth:`SparseIntMatrix.to_dense`,
:func:`smith_normal_form`, :func:`kernel_basis`) returns lists of row
lists, and the solves return lists, so nothing here needs numpy.

The main entry points are :func:`smith_normal_form` and
:func:`complex_cohomology`.  Descriptors need only the Smith diagonals of
the differentials, reduced without transforms and cached on the complex
(:func:`_diagonal`): the ±1 pivots, nearly every pivot of a coboundary,
are eliminated first in Markowitz order (:func:`_unit_pivots`), and only
a nonempty residual goes to Smith.
Every other reduction stays plain Smith on the whole matrix and checks the
descriptor path independently: ranks (:func:`integer_rank`, the check
``verify`` and the tests make on the rational descriptors, which read the
integral ones' diagonals), the transforms of the coordinate questions,
:func:`smith_normal_form`, the solves and :func:`fixed_subcomplex`.  The
kernel-quotient route that the descriptors are checked against lives in
``verify`` (``verify.kernel_quotient``).  The coordinate questions
(``class_coordinates``, ``coboundary_preimage``, ``class_representative``)
live in ``flatclasses``, which only the flat classifier loads; their names
resolve here too, on first read (:func:`__getattr__`).

The subcomplex fixed by a degreewise involution has two routes:
:func:`fixed_subcomplex` reads it off the Smith form of ``t_k - id`` for
any involution, and :func:`_grow_orbit_complex`, which the Cech engine
uses, reads it off the orbits of a free signed permutation, one orbit sum
per basis vector, with no reduction at all.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .errors import (
    DegreeOutOfRange,
    InternalInvariantError,
    NotAnInvolution,
    NotEquivariant,
)
from .records import Record


class SparseIntMatrix:
    """Dict-of-rows sparse matrix over the integers.

    ``rows[i]`` maps a column index to a nonzero integer entry.  The class is
    deliberately small; reduction algorithms below manipulate the row dicts
    directly.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows

    @classmethod
    def from_dense(cls, a) -> "SparseIntMatrix":
        """Read a sequence of rows (lists, tuples or a 2-D array); a flat
        sequence is read as one column.  With no rows, the column count is
        taken from a 2-D ``shape`` if there is one."""
        rows = [r if hasattr(r, "__len__") else (r,) for r in a]
        shape = getattr(a, "shape", ())
        ncols = len(rows[0]) if rows else (shape[1] if len(shape) == 2 else 0)
        m = cls(len(rows), ncols)
        for row, r in zip(m.rows, rows):
            if len(r) != ncols:
                raise ValueError(f"row of length {len(r)} in a matrix with {ncols} columns")
            for j, x in enumerate(r):
                if x:
                    if x != int(x):
                        raise ValueError(f"entry {x} is not an integer")
                    row[j] = int(x)
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def copy(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def set(self, i: int, j: int, value) -> None:
        if value:
            self.rows[i][j] = int(value)
        else:
            self.rows[i].pop(j, None)

    def get(self, i: int, j: int):
        return self.rows[i].get(j, 0)

    def set_block(self, i0: int, j0: int, other: "SparseIntMatrix", scale=1) -> None:
        for i, row in enumerate(other.rows):
            target = self.rows[i0 + i]
            for j, x in row.items():
                v = target.get(j0 + j, 0) + scale * x
                if v:
                    target[j0 + j] = v
                else:
                    target.pop(j0 + j, None)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def transpose(self) -> "SparseIntMatrix":
        t = SparseIntMatrix(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                t.rows[j][i] = x
        return t

    def matvec(self, v):
        """Product with a dense vector (entries int or Fraction)."""
        out = [0] * self.nrows
        for i, row in enumerate(self.rows):
            acc = 0
            for j, x in row.items():
                acc += x * v[j]
            out[i] = acc
        return out

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc: dict = {}
            for j, x in row.items():
                for k, y in other.rows[j].items():
                    v = acc.get(k, 0) + x * y
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
            out.rows[i] = acc
        return out

    def to_dense(self) -> list:
        """The matrix as a list of row lists; with no rows, ``[]``."""
        return [[row.get(j, 0) for j in range(self.ncols)] for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def as_sparse(m) -> SparseIntMatrix:
    if isinstance(m, SparseIntMatrix):
        return m
    return SparseIntMatrix.from_dense(m)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class _SmithData(Record):
    """Result of a Smith reduction ``u @ m @ v == d``.

    ``diag`` lists the diagonal of ``d`` (nonnegative, divisibility chain).
    Transforms are kept sparse: ``u`` and ``vinv`` as plain row dicts,
    ``v`` and ``uinv`` through their transposes (so that the column
    operations performed on them become row operations).  Without
    transforms all four are None; with the column transforms only,
    ``u`` and ``uinvT`` are.
    """

    __slots__ = ("nrows", "ncols", "diag", "u", "vT", "uinvT", "vinv")

    def kernel_columns(self):
        ncols = self.ncols
        nd = len(self.diag)
        return [j for j in range(ncols) if j >= nd or self.diag[j] == 0]

    def kernel_basis(self) -> SparseIntMatrix:
        """Basis of the integer kernel as columns; the lattice is saturated."""
        cols = self.kernel_columns()
        out = SparseIntMatrix(self.ncols, len(cols))
        for jnew, j in enumerate(cols):
            for i, x in self.vT.rows[j].items():
                out.rows[i][jnew] = x
        return out

    def kernel_left_inverse(self) -> SparseIntMatrix:
        """Rows express any kernel vector in the :meth:`kernel_basis` basis.

        These are the rows of ``v^{-1}`` at the kernel positions, so for a
        vector ``w`` with ``m @ w == 0`` the product gives exact coordinates
        (and composing with :meth:`kernel_basis` returns ``w``).
        """
        cols = self.kernel_columns()
        left = SparseIntMatrix(len(cols), self.ncols)
        for inew, j in enumerate(cols):
            left.rows[inew] = dict(self.vinv.rows[j])
        return left

    def rank(self) -> int:
        return sum(1 for x in self.diag if x)

    def solve(self, b, rational: bool):
        """Solve ``m @ x == b`` for a vector ``b``: a list, or None if
        unsolvable.

        With ``rational=False`` solutions are integral (divisibility
        enforced); with ``rational=True`` entries may be Fractions.
        """
        if len(b) != self.nrows:
            raise ValueError(f"right-hand side of length {len(b)} for {self.nrows} rows")
        from fractions import Fraction  # not loaded by a cold descriptor command

        # Python ints and Fractions: products of numpy integers wrap around
        b = [int(x) if x == int(x) else Fraction(x) for x in b]
        return self.back_solve(self.u.matvec(b), rational)

    def back_solve(self, y, rational: bool):
        """:meth:`solve` from ``y = u @ b``: divide by the diagonal and map
        back through ``v``."""
        if rational:
            from fractions import Fraction
        nd = len(self.diag)
        z = [0] * self.ncols
        for i, yi in enumerate(y):
            di = self.diag[i] if i < nd else 0
            if di == 0:
                if yi:
                    return None
            elif rational:
                z[i] = Fraction(yi, di)
            else:
                q, r = divmod(yi, di)
                if r:
                    return None
                z[i] = q
        x = [0] * self.ncols
        for j, zj in enumerate(z):
            if zj:
                for i, vx in self.vT.rows[j].items():
                    x[i] += vx * zj
        return x


def _axpy(dst: dict, src: dict, q) -> None:
    """``dst += q * src`` on sparse rows."""
    for j, x in src.items():
        v = dst.get(j, 0) + q * x
        if v:
            dst[j] = v
        else:
            dst.pop(j, None)


def _smith(m: SparseIntMatrix, transforms: bool = True, rows: bool = True) -> _SmithData:
    """Smith reduction of ``m``; with ``rows=False`` only the column
    transforms are built, which is all the kernel needs.  The transforms
    never steer the pivots, so the diagonal and ``v`` are the same."""
    nr, nc = m.nrows, m.ncols
    a = [dict(r) for r in m.rows]
    colrows = _column_sets(a, nc)

    u = uinvT = vT = vinv = None
    if transforms:
        vT, vinv = SparseIntMatrix.identity(nc), SparseIntMatrix.identity(nc)
        if rows:
            u, uinvT = SparseIntMatrix.identity(nr), SparseIntMatrix.identity(nr)

    def row_axpy(i, t, q):
        # row_i -= q * row_t
        ai, at = a[i], a[t]
        for j, x in at.items():
            v = ai.get(j, 0) - q * x
            if v:
                ai[j] = v
                colrows[j].add(i)
            else:
                ai.pop(j, None)
                colrows[j].discard(i)
        if u is not None:
            _axpy(u.rows[i], u.rows[t], -q)
            # u_inv column t += q * column i  (stored transposed)
            _axpy(uinvT.rows[t], uinvT.rows[i], q)

    def col_axpy(j, t, q):
        # col_j -= q * col_t
        for i in list(colrows[t]):
            x = a[i].get(t)
            if x is None:
                colrows[t].discard(i)
                continue
            v = a[i].get(j, 0) - q * x
            if v:
                a[i][j] = v
                colrows[j].add(i)
            else:
                a[i].pop(j, None)
                colrows[j].discard(i)
        if transforms:
            _axpy(vT.rows[j], vT.rows[t], -q)
            _axpy(vinv.rows[t], vinv.rows[j], q)

    def row_swap(i, t):
        if i == t:
            return
        a[i], a[t] = a[t], a[i]
        for j in set(a[i]) | set(a[t]):
            members = colrows[j]
            has_i, has_t = j in a[i], j in a[t]
            members.discard(i)
            members.discard(t)
            if has_i:
                members.add(i)
            if has_t:
                members.add(t)
        if u is not None:
            u.rows[i], u.rows[t] = u.rows[t], u.rows[i]
            uinvT.rows[i], uinvT.rows[t] = uinvT.rows[t], uinvT.rows[i]

    def col_swap(j, t):
        if j == t:
            return
        for i in colrows[j] | colrows[t]:
            row = a[i]
            xj, xt = row.pop(j, None), row.pop(t, None)
            if xj is not None:
                row[t] = xj
            if xt is not None:
                row[j] = xt
        colrows[j], colrows[t] = colrows[t], colrows[j]
        if transforms:
            vT.rows[j], vT.rows[t] = vT.rows[t], vT.rows[j]
            vinv.rows[j], vinv.rows[t] = vinv.rows[t], vinv.rows[j]

    def row_negate(t):
        at = a[t]
        for j in at:
            at[j] = -at[j]
        if u is not None:
            for r in (u.rows[t], uinvT.rows[t]):
                for j in r:
                    r[j] = -r[j]

    # Invariant: when step t starts, rows and columns below t hold only
    # their diagonal entries, so every entry of a column j >= t lies in a
    # row >= t.  The helpers above keep ``colrows`` exact (no stale rows),
    # so a column is nonzero in the remaining block iff its set is nonempty.
    n = min(nr, nc)
    t = 0
    while t < n:
        # find the first nonzero column from t on
        pivot_col = None
        for j in range(t, nc):
            if colrows[j]:
                pivot_col = j
                break
        if pivot_col is None:
            break
        col_swap(pivot_col, t)
        # smallest |entry| in that column as pivot (deterministic tiebreak)
        piv = min(colrows[t], key=lambda i: (abs(a[i][t]), i))
        row_swap(piv, t)

        while True:
            if a[t][t] < 0:
                row_negate(t)
            # clear column t below the pivot, Euclid-style
            while True:
                below = sorted(i for i in colrows[t] if i > t)
                if not below:
                    break
                p = a[t][t]
                rem = []
                for i in below:
                    x = a[i].get(t)
                    if not x:
                        continue
                    q = x // p
                    if q:
                        row_axpy(i, t, q)
                    if a[i].get(t):
                        rem.append(i)
                if not rem:
                    break
                r = min(rem, key=lambda i: (a[i][t], i))
                row_swap(r, t)
            # clear row t to the right, Euclid-style
            while True:
                right = sorted(j for j in a[t] if j > t)
                if not right:
                    break
                p = a[t][t]
                rem = []
                for j in right:
                    x = a[t].get(j)
                    if not x:
                        continue
                    q = x // p
                    if q:
                        col_axpy(j, t, q)
                    if a[t].get(j):
                        rem.append(j)
                if not rem:
                    break
                c = min(rem, key=lambda j: (a[t][j], j))
                col_swap(c, t)
            if any(i > t for i in colrows[t]):
                continue  # a column swap reintroduced entries below the pivot
            # pivot isolated; enforce that it divides the rest of the block
            p = abs(a[t][t])
            if p == 1:
                break
            bad = None
            for i in range(t + 1, nr):
                for j, x in a[i].items():
                    if j > t and x % p:
                        if bad is None or (i, j) < bad:
                            bad = (i, j)
                if bad is not None and bad[0] == i:
                    break
            if bad is None:
                break
            row_axpy(t, bad[0], -1)  # fold the offending row into row t
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    diag = [a[i].get(i, 0) for i in range(n)]
    return _SmithData(nr, nc, diag, u, vT, uinvT, vinv)


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


# ---------------------------------------------------------------------------
# Group descriptors
# ---------------------------------------------------------------------------


class GroupDescriptor(Record):
    """Canonical form of a finitely generated abelian group.

    ``torsion`` holds the invariant factors, each at least 2 and each
    dividing the next, so equality of descriptors is isomorphism.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple = ()):
        rank = index(rank)
        if rank < 0:
            raise ValueError("rank must be >= 0")
        tor = tuple(int(d) for d in torsion)
        for d in tor:
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
        for x, y in zip(tor, tor[1:]):
            if y % x:
                raise ValueError("torsion invariants must form a divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", tor)

    @classmethod
    def from_cyclic_orders(cls, rank, orders) -> "GroupDescriptor":
        """Canonicalize a direct sum of cyclic groups of the given orders,
        skipping orders of at most 1.  ``Z/a + Z/b = Z/gcd + Z/lcm``, and a
        sweep over every pair ``i < j`` leaves each order dividing the next.
        For orders that need not form a chain (``gcd(d, n)``, sums of
        groups); a Smith diagonal's entries above 1 already are one."""
        factors = [n for n in (abs(int(n)) for n in orders) if n > 1]
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                g = gcd(a, b)
                factors[i], factors[j] = g, a * b // g
        return cls(rank, tuple(d for d in factors if d > 1))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class ElementCoordinates(Record):
    """Coordinates of a cohomology class in the canonical decomposition:
    ``free_part`` against the rank generators, ``torsion_part[i]`` a residue
    in ``[0, d_i)`` against the torsion generator of order ``d_i``."""

    __slots__ = ("free_part", "torsion_part")

    @property
    def is_zero(self) -> bool:
        return not any(self.free_part) and not any(self.torsion_part)


# ---------------------------------------------------------------------------
# Cochain complexes
# ---------------------------------------------------------------------------


def _whole(n, what: str, error=DegreeOutOfRange) -> int:
    """``n`` as an int, or ``error`` when :func:`operator.index` refuses it:
    a degree is never a float or a string."""
    try:
        return index(n)
    except TypeError:
        raise error(f"{what} must be an integer, got {n!r}") from None


class IntegerCochainComplex:
    """A complex of free Z-modules ``C^lo -> ... -> C^hi``.

    ``ranks[k]`` is the rank of ``C^k`` (0 where no key), ``lo`` and ``hi``
    its least and greatest keys; ``diffs[k]`` is the map ``C^k -> C^(k+1)``,
    the zero map where no key.  The constructor checks integer degrees and
    ranks, ranks >= 0, each differential keyed in ``lo .. hi - 1`` and
    shaped to its ranks, and ``d∘d = 0``, and raises ValueError on a fault.

    A complex built by hand is zero outside ``[lo, hi]``.  The Cech engine
    sets a private grower on its own complexes, ``_grow(n)`` returning
    ``d_n``, or None when the complex is zero from degree ``n`` up; reading
    ``rank(k)`` or ``diff(k)`` first extends such a complex by ``_grow(hi)``
    until it reaches degree ``k`` or ``k + 1`` or its zero top, so its
    ``hi`` is only how far it has been read.
    """

    __slots__ = ("lo", "hi", "ranks", "diffs", "_cache", "_grow")

    def __init__(self, ranks: dict, diffs: dict):
        if not ranks:
            raise ValueError("a complex needs the rank of at least one degree")
        self.ranks = {_whole(k, "degree", ValueError): _whole(r, "rank", ValueError)
                      for k, r in ranks.items()}
        self.lo, self.hi = min(self.ranks), max(self.ranks)
        if min(self.ranks.values()) < 0:
            raise ValueError(f"ranks must be nonnegative, got {ranks}")
        self.diffs = {_whole(k, "degree", ValueError): as_sparse(d) for k, d in diffs.items()}
        self._cache = {}
        self._grow = None
        for k in sorted(self.diffs):
            if not self.lo <= k < self.hi:
                raise ValueError(f"differential at degree {k} outside degrees {self.lo} .. {self.hi - 1}")
            self._check(k, self.diffs[k], self.rank(k + 1), ValueError)

    def _reach(self, k: int) -> None:
        while self.hi < k and self._grow is not None:
            d = self._grow(self.hi)
            if d is None:
                return
            self.extend(d.nrows, d)

    def _require(self, k: int) -> None:
        """Refuse a degree outside ``[lo, hi]``, unless the complex grows."""
        if _whole(k, "degree") < self.lo or (k > self.hi and self._grow is None):
            raise DegreeOutOfRange(f"degree {k} outside complex range [{self.lo}, {self.hi}]")

    def rank(self, k: int) -> int:
        self._reach(k)
        return self.ranks.get(k, 0)

    def diff(self, k: int) -> SparseIntMatrix:
        self._reach(k + 1)
        d = self.diffs.get(k)
        if d is None:
            return SparseIntMatrix(self.rank(k + 1), self.rank(k))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def _check(self, k: int, d: SparseIntMatrix, rank_above: int, error) -> None:
        """Raise ``error`` unless ``d_k = d`` fits the ranks and ``d_k d_(k-1) = 0``."""
        if d.shape != (rank_above, self.rank(k)):
            raise error(f"differential at degree {k} has shape {d.shape}")
        below = self.diff(k - 1).rows
        for row in d.rows:  # row by row, so the product is never stored
            acc = {}
            for j, x in row.items():
                for i, y in below[j].items():
                    acc[i] = acc.get(i, 0) + x * y
            if any(acc.values()):
                raise error(f"d∘d != 0 between degrees {k - 1} and {k + 1}")

    def extend(self, rank: int, diff: SparseIntMatrix) -> None:
        """Carry the complex one degree higher, in place, checking only the
        new differential ``diff`` into a new top term of rank ``rank``.
        Answers cached from the old top degree up saw a zero map there and
        are dropped."""
        k = self.hi
        self._check(k, diff, rank, InternalInvariantError)
        self.hi = k + 1
        self.ranks[k + 1] = rank
        self.diffs[k] = diff
        self._cache = {key: v for key, v in self._cache.items() if key[1] < k}


def _column_sets(a: list, ncols: int) -> list:
    """Per column, the set of rows of the sparse rows ``a`` with an entry there."""
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    return cols


def _eliminate(a: list, cols: list, r: int, c: int) -> None:
    """Clear column ``c`` of the sparse rows ``a`` by row operations against
    the unit pivot ``a[r][c]``, then empty row ``r``; ``cols[j]`` is the set
    of rows with an entry in column ``j``, kept up to date."""
    row = a[r]
    p = row[c]
    for i in list(cols[c]):
        if i == r:
            continue
        ai = a[i]
        q = ai[c] * p
        for j, x in row.items():
            v = ai.get(j, 0) - q * x
            if v:
                if j not in ai:
                    cols[j].add(i)
                ai[j] = v
            else:
                del ai[j]
                cols[j].discard(i)
    for j in row:
        cols[j].discard(r)
    a[r] = {}


def _unit_pivots(m: SparseIntMatrix):
    """Eliminate the ±1 pivots of ``m`` in Markowitz order; return how many
    were eliminated and the residual, compacted to its nonempty rows and
    columns.

    Rows are visited shortest first, and each takes as pivot its unit entry
    whose column is sparsest.  Row operations clear that column, and the
    pivot row and column are dropped: since the pivot is a unit this is
    exact over Z and splits off one diagonal 1, so the Smith diagonal of
    ``m`` is that many 1s followed by the residual's (Kaczynski, Mrozek and
    Ślusarek 1998; Dumas, Heckenbach, Saunders and Welker 2003).  The
    working copy is freed on return, before the residual is reduced.
    """
    if not any(m.rows):  # a zero map, as most of a small complex's are
        return 0, SparseIntMatrix(0, 0)
    a = [dict(r) for r in m.rows]
    cols = _column_sets(a, m.ncols)
    eliminated = 0
    for r in sorted(range(m.nrows), key=[len(row) for row in a].__getitem__):
        c, fewest = None, m.nrows + 1
        for j, x in a[r].items():  # the first unit of a sparsest column
            if (x == 1 or x == -1) and len(cols[j]) < fewest:
                c, fewest = j, len(cols[j])
        if c is None:
            continue
        _eliminate(a, cols, r, c)
        eliminated += 1
    kept = {j: t for t, j in enumerate(j for j, s in enumerate(cols) if s)}
    rows = [{kept[j]: x for j, x in row.items()} for row in a if row]
    return eliminated, SparseIntMatrix(len(rows), len(kept), rows)


def _diagonal(c: IntegerCochainComplex, k: int) -> list:
    """Smith diagonal of ``d_k``, reduced once without transforms and
    cached: the unit pivots are eliminated first (:func:`_unit_pivots`) and
    only a nonempty residual goes to :func:`_smith`.  The list is the one
    plain ``_smith`` gives, zeros padded to ``min`` of the shape.  This is the
    descriptor path only; ranks (:func:`integer_rank`), coordinates and
    the other solves reduce the whole matrix with plain ``_smith``."""
    key = ("diag", k)
    hit = c._cache.get(key)
    if hit is None:
        d = c.diff(k)
        eliminated, residual = _unit_pivots(d)
        hit = [1] * eliminated
        if residual.nrows:  # compacted, so it has columns too
            hit += [x for x in _smith(residual, transforms=False).diag if x]
        hit += [0] * (min(d.nrows, d.ncols) - len(hit))
        c._cache[key] = hit
    return hit


def complex_cohomology(c: IntegerCochainComplex, k: int) -> GroupDescriptor:
    """Cohomology ``ker d_k / im d_(k-1)`` in canonical form.

    Read off the Smith diagonals of ``d_k`` and ``d_(k-1)`` alone: the rank
    is ``n_k - rank d_k - rank d_(k-1)``, and since ``ker d_k`` is
    saturated the torsion is that of ``coker d_(k-1)``, its diagonal
    entries above 1, a divisibility chain as they stand.  No transforms
    are built; the class-coordinate questions (``flatclasses``) build them
    on demand.  The group is cached on the complex like the diagonals, and
    ``extend`` drops it with them.

    On a complex built by hand, differentials just outside the range count
    as zero maps, but ``k`` itself must lie inside ``[lo, hi]``.
    """
    c._require(k)
    hit = c._cache.get(("group", k))
    if hit is None:
        below = _diagonal(c, k - 1)
        rank = c.rank(k) - sum(1 for x in _diagonal(c, k) if x) - sum(1 for x in below if x)
        hit = c._cache["group", k] = GroupDescriptor(rank, tuple(x for x in below if x > 1))
    return hit


# ---------------------------------------------------------------------------
# Fixed subcomplex of a degreewise involution
# ---------------------------------------------------------------------------


def _checked_involution(k: int, perm, eps, n: int):
    """The signed permutation ``e_i -> eps[i] * e_perm[i]`` of a degree-``k``
    basis of size ``n``, checked to be an involution, ``T^2 = id``: every
    image fits the basis and maps back, with the same sign.  The engine
    supplies these maps itself, so a failure raises
    InternalInvariantError."""
    if len(perm) != n or len(eps) != n or not all(
        0 <= p < n and perm[p] == r and eps[r] * eps[p] == 1 for r, p in enumerate(perm)
    ):
        raise InternalInvariantError(f"signed permutation at degree {k}: T^2 != id")
    return perm, eps


def _orbit_basis(k: int, perm, eps, sign: int, n: int):
    """Orbit-sum basis of the lattice fixed by ``e_i -> sign * eps[i] *
    e_perm[i]``.

    ``perm`` must be an involution of the positions ``0 .. n-1`` that fixes
    none of them, and ``eps`` constant on its orbits.  Each orbit
    ``{r, perm[r]}`` gives one column, ``e_r + sign * eps[r] * e_perm[r]``,
    where the representative ``r`` is the larger position; columns run in
    ascending ``r``.  A vector ``v`` is fixed iff ``v[perm[r]] == sign *
    eps[r] * v[r]`` on every orbit, and then it is the combination of the
    columns with coefficients ``v[r]``: the columns span the saturated fixed
    lattice, and reading the entries at the representatives is their left
    inverse.  Returns ``(reps, basis)``.
    """
    _checked_involution(k, perm, eps, n)
    reps = [i for i, j in enumerate(perm) if j < i]
    if 2 * len(reps) != n:  # an involution whose orbits are not all pairs
        raise InternalInvariantError(f"permutation at degree {k} fixes {n - 2 * len(reps)} positions")
    basis = SparseIntMatrix(n, len(reps))
    for col, r in enumerate(reps):
        basis.rows[r][col] = 1
        basis.rows[perm[r]][col] = sign * eps[r]
    return reps, basis


def _check_commutes(d: SparseIntMatrix, src, dst, k: int) -> None:
    """Check that the signed permutations ``src = (perm, eps)`` on degree
    ``k`` and ``dst`` on degree ``k + 1`` commute with ``d``, which for
    signed permutations reads ``d[π(i), π(j)] == ε_i ε_j d[i, j]`` on every
    entry.  The entry map is a bijection, so entries sent to equal entries
    cover them all.  The engine supplies these maps itself, so a failure
    raises InternalInvariantError."""
    (perm, eps), (perm1, eps1) = src, dst
    for i, row in enumerate(d.rows):
        mirror = d.rows[perm1[i]]
        for j, x in row.items():
            if mirror.get(perm[j]) != eps1[i] * eps[j] * x:
                raise InternalInvariantError(
                    f"map does not commute with the differential at degree {k}"
                )


def _grow_orbit_complex(c: IntegerCochainComplex, action, sign: int):
    """The subcomplex of ``c`` fixed by the signed permutations ``e_i ->
    sign * eps[i] * e_perm[i]``, where ``action(k)`` returns the pair
    ``(perm, eps)`` of degree ``k``, with its orbit-sum embeddings
    (:func:`_orbit_basis`): ``(sub, bases)`` in degree ``c.lo``, with a
    grower that carries both, and ``c``, one degree higher.  ``action(k)``
    must fit degree k, so for a ``c`` built by hand it is empty above the
    top.

    Each new degree checks that its action is a free involution and that
    the differential into it commutes with the action
    (:func:`_check_commutes`); these are the engine's own invariants, so a
    failure raises InternalInvariantError.  Commutation
    carries fixed vectors to fixed vectors, so ``d @ bases[k]`` lies in the
    span of ``bases[k + 1]`` (the fixed lattice is preserved with no further
    check) and its coordinates are its representative rows:
    ``dk[r', r] = d[r', r] + sign * ε_r * d[r', π(r)]``, one pass over
    those rows.
    """
    _, basis = _orbit_basis(c.lo, *action(c.lo), sign, c.rank(c.lo))
    sub = IntegerCochainComplex({c.lo: basis.ncols}, {})
    bases = {c.lo: basis}

    def step(k):
        act = action(k + 1)
        reps, basis = _orbit_basis(k + 1, *act, sign, c.rank(k + 1))
        d = c.diff(k)
        _check_commutes(d, action(k), act, k)
        # each row of the source embedding holds one entry: (its orbit, ±1)
        src = bases[k].rows
        dk = SparseIntMatrix(len(reps), bases[k].ncols)
        for out, r in zip(dk.rows, reps):
            for j, x in d.rows[r].items():
                for col, coef in src[j].items():
                    v = out.get(col, 0) + coef * x
                    if v:
                        out[col] = v
                    else:
                        del out[col]
        bases[k + 1] = basis
        return dk

    sub._grow = step
    return sub, bases


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
    signed permutations go through :func:`_grow_orbit_complex`, and this
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


def __getattr__(name):
    """The coordinate questions, defined in ``flatclasses``: imported on
    the first read of one here (PEP 562), then kept in this namespace."""
    if name not in ("class_coordinates", "class_representative", "coboundary_preimage"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import flatclasses

    globals()[name] = value = getattr(flatclasses, name)
    return value
