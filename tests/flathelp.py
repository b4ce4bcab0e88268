"""Builders for randomized *valid* flat cocycles on a cover.

Validity is delicate: angle tables must be antisymmetric under swapping the
ordered pair, equivariant under the involution, and closed on triples.  We
get all three by construction:

* coboundaries of involution-fixed rational 0-cochains are antisymmetric
  and closed automatically;

* representatives of degree-1 classes are made antisymmetric by averaging
  with the order-reversal map (a chain map acting as the identity on
  cohomology), which keeps them fixed cocycles.

Cocycles with a nonzero integral obstruction (:func:`obstructed_cocycles`)
come from the torsion of fixed H^2 instead: ``n z = d_1 y`` for a torsion
generator ``z`` of order ``n``, so ``y / n`` has coboundary ``z``.
"""

from fractions import Fraction

import numpy as np

from realdeligne.cechengine import (
    build_equivariant_complex,
    cech_differential,
    tuple_basis,
)
from realdeligne.coverdata import IZ, FlatCocycle
from realdeligne.exactalg import (
    ElementCoordinates,
    class_representative,
    coboundary_preimage,
    complex_cohomology,
)


def frac_mod1(x):
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


def reversal_antisymmetrize(cover, vec):
    """Average a degree-1 cochain with its pullback along pair reversal."""
    basis = tuple_basis(cover, 1)
    out = np.zeros(len(basis), dtype=object)
    for pos, ((i, j), c) in enumerate(basis.elements):
        rev = basis.position[((j, i), c)]
        out[pos] = (Fraction(vec[pos]) - Fraction(vec[rev])) / 2
    return out


def angles_from_vector(cover, vec):
    basis = tuple_basis(cover, 1)
    return {
        (i, j, c): Fraction(vec[pos])
        for pos, ((i, j), c) in enumerate(basis.elements)
    }


def class_generators(cover):
    """Antisymmetric full-coordinate rational cocycles: one per free
    generator of fixed H^1 and one per torsion generator."""
    sub, bases = build_equivariant_complex(cover, IZ, 3)
    h1 = complex_cohomology(sub, 1)
    free_gens, torsion_gens = [], []
    for i in range(h1.rank):
        coords = ElementCoordinates(
            tuple(1 if j == i else 0 for j in range(h1.rank)),
            tuple(0 for _ in h1.torsion),
        )
        w = class_representative(sub, 1, coords)
        full = np.array(bases[1].matvec(list(w)), dtype=object)
        free_gens.append(reversal_antisymmetrize(cover, full))
    for i in range(len(h1.torsion)):
        coords = ElementCoordinates(
            tuple(0 for _ in range(h1.rank)),
            tuple(1 if j == i else 0 for j in range(len(h1.torsion))),
        )
        w = class_representative(sub, 1, coords)
        full = np.array(bases[1].matvec(list(w)), dtype=object)
        torsion_gens.append(reversal_antisymmetrize(cover, full))
    return free_gens, torsion_gens


def random_flat_cocycle(cover, rng, gens=None):
    """A random valid cocycle and the torus coordinates it must classify to.

    The cocycle is a rational combination of free-class generators (these
    carry the expected coordinates) plus rationally scaled torsion-class
    generators and a coboundary (both of which classify to zero).
    """
    sub, bases = build_equivariant_complex(cover, IZ, 3)
    if gens is None:
        gens = class_generators(cover)
    free_gens, torsion_gens = gens
    n1 = len(tuple_basis(cover, 1))
    vec = np.full(n1, Fraction(0), dtype=object)
    expected = []
    for g in free_gens:
        q = Fraction(int(rng.randint(-12, 13)), int(rng.randint(1, 7)))
        vec = vec + g * q
        expected.append(frac_mod1(q))
    for g in torsion_gens:
        q = Fraction(int(rng.randint(-6, 7)), int(rng.randint(1, 5)))
        vec = vec + g * q
    eta_fix = [
        Fraction(int(rng.randint(-6, 7)), int(rng.randint(1, 5)))
        for _ in range(bases[0].ncols)
    ]
    eta_full = np.array(bases[0].matvec(eta_fix), dtype=object)
    vec = vec + np.array(cech_differential(cover, 0).matvec(eta_full), dtype=object)
    fc = FlatCocycle(cover, angles_from_vector(cover, vec))
    return fc, tuple(expected)


def random_coboundary(cover, rng):
    """Angles that are exactly the coboundary of a fixed rational 0-cochain."""
    _, bases = build_equivariant_complex(cover, IZ, 3)
    eta_fix = [
        Fraction(int(rng.randint(-9, 10)), int(rng.randint(1, 6)))
        for _ in range(bases[0].ncols)
    ]
    eta_full = np.array(bases[0].matvec(eta_fix), dtype=object)
    vec = np.array(cech_differential(cover, 0).matvec(eta_full), dtype=object)
    return FlatCocycle(cover, angles_from_vector(cover, vec))


def obstructed_cocycles(cover, rng, gens=None):
    """Valid cocycles whose obstruction is nonzero, each with the torsion
    part it must classify to: one per torsion generator ``z``, of order
    ``n``, of fixed H^2 (the sign -1 orbit complex's).

    With ``n z = d_1 y``, the angles are ``y / n`` on the sorted pairs
    ``(i < j)``, each reversed pair carrying minus its partner, plus a
    :func:`random_flat_cocycle`, whose obstruction is zero.
    """
    sub, bases = build_equivariant_complex(cover, IZ, 3)
    h2 = complex_cohomology(sub, 2)
    basis = tuple_basis(cover, 1)
    out = []
    for t, n in enumerate(h2.torsion):
        torsion = tuple(int(j == t) for j in range(len(h2.torsion)))
        z = class_representative(sub, 2, ElementCoordinates((0,) * h2.rank, torsion))
        full = bases[1].matvec(coboundary_preimage(sub, 2, [n * x for x in z]))
        angles = {}
        for pos, ((i, j), c) in enumerate(basis.elements):
            if i < j:
                angles[(i, j, c)] = Fraction(full[pos], n)
                angles[(j, i, c)] = -Fraction(full[pos], n)
        out.append((FlatCocycle(cover, angles) + random_flat_cocycle(cover, rng, gens)[0], torsion))
    return out
