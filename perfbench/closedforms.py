"""Closed-form answers the benchmark checks the program against.

Nothing here imports ``realdeligne``.  Every group is computed from a
cellular cochain complex of at most two cells per degree, whose invariant
factors come from gcds of minors, and is returned as ``(rank, torsion)``.

* Doubled points: the two-element group acting on a point, through its
  2-periodic resolution; the differentials are multiplication by
  ``sign - 1`` and ``sign + 1`` in turn.
* ``sphere_antipodal:n``: real projective n-space with one cell per
  dimension; the differential leaving degree ``j`` is ``1 - (-1)^j * sign``.
* The antipodal circle: the quotient circle with monodromy ``sign``.
* Both torus covers: the quotient torus with monodromy ``(sign, +1)``.
* The free orbit: its quotient is a point.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _invariant_factors(m):
    """Nonzero invariant factors of a small integer matrix (list of rows),
    from the gcds of its k-by-k minors."""
    if not m or not m[0]:
        return []
    factors, prev = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = 0
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                g = gcd(g, _det([[m[r][c] for c in cols] for r in rows]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def cochain_cohomology(ranks, diffs, k):
    """``(rank, torsion)`` of H^k of ``C^0 -> C^1 -> ...``; ``diffs[j]`` is
    the matrix (rows = rank of C^(j+1)) of the map leaving degree ``j``;
    degrees past the end carry zero groups."""

    def rank_of(j):
        return ranks[j] if 0 <= j < len(ranks) else 0

    def factors(j):
        if j < 0 or j >= len(diffs) or rank_of(j) == 0 or rank_of(j + 1) == 0:
            return []
        return _invariant_factors(diffs[j])

    out_rank = rank_of(k) - len(factors(k)) - len(factors(k - 1))
    torsion = tuple(d for d in factors(k - 1) if d > 1)
    return out_rank, torsion


def c2_point(sign, k, top):
    """Doubled point: group cohomology of the two-element group."""
    ranks = [1] * (top + 2)
    diffs = [[[sign - 1 if j % 2 == 0 else sign + 1]] for j in range(top + 1)]
    return cochain_cohomology(ranks, diffs, k)


def projective_space(n, sign, k):
    ranks = [1] * (n + 1)
    diffs = [[[1 - (-1) ** j * sign]] for j in range(n)]
    return cochain_cohomology(ranks, diffs, k)


def circle(sign, k):
    return cochain_cohomology([1, 1], [[[sign - 1]]], k)


def torus(sign, k):
    a, b = sign - 1, 0  # monodromy (sign, +1) around the two loops
    return cochain_cohomology([1, 2, 1], [[[a], [b]], [[-b, a]]], k)


def point(k):
    return cochain_cohomology([1], [], k)


def equivariant(space, sign, k):
    """Integral equivariant H^k with the given coefficient sign, or None
    when the space has no closed form here."""
    name, _, param = space.partition(":")
    if name in ("point_trivial", "point_trivial_fine"):
        return c2_point(sign, k, k + 1)
    if name == "free_orbit":
        return point(k)
    if name in ("circle_antipodal", "circle_antipodal_fine"):
        return circle(sign, k)
    if name == "sphere_antipodal":
        return projective_space(int(param), sign, k)
    if name == "torus":
        return torus(sign, k)
    return None


# Betti numbers of the underlying spaces (the involution forgotten); every
# integral cohomology group of these spaces is free.
_BETTI = {
    "point_trivial": (1,),
    "point_trivial_fine": (1,),
    "free_orbit": (2,),
    "circle_antipodal": (1, 1),
    "circle_antipodal_fine": (1, 1),
    "circle_conjugation": (1, 1),
    "sphere_antipodal:1": (1, 1),
    "sphere_antipodal:2": (1, 0, 1),
    "sphere_antipodal:3": (1, 0, 0, 1),
    "torus": (1, 2, 1),
}


def plain(space, k):
    betti = _BETTI["torus" if space.startswith("torus") else space]
    return (betti[k] if k < len(betti) else 0), ()


def parse_group(text):
    """``(rank, torsion)`` of a printed descriptor such as ``Z^2 + Z/2``."""
    rank, torsion = 0, []
    if text.strip() == "0":
        return 0, ()
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unparsable group {text!r}")
    return rank, tuple(torsion)


def shape(p, q):
    """The (p, q) shape law: discrete, compact extension or mixed."""
    if p == 0 or q > p:
        return "discrete"
    if q == p:
        return "mixed"
    return "compact_extension"
