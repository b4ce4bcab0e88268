"""Print every answer the package gives on a fixed set of covers, one per line.

Run from the repository root::

    PYTHONPATH=src:tests python tests/answers.py

Two trees give the same answers when this prints the same bytes in both;
``tests/cover_goldens.json`` keeps the sha256 of its output under
``answers_sha256``, and ``tests/test_answers.py`` compares against
it.  The script uses the public names of the package only; its seeded flat
classes come from ``flathelp``.

* Descriptors, on the catalog entries, S^0..S^3 and the two-factor tori over
  ``verify.PRODUCT_FACTORS``: H^0..H^7 with iZ, Z, iQ-, Z/2 (sign -1) and
  Z/4 (sign +1); plain H^0..H^3; H^0..H^5 of the cone of 2 and of the
  inclusion of Z into Q; every Deligne descriptor with p, q in 0..3, as
  its string and its JSON record; and the classifiers.
* Flat classes, as values (torus part, torsion part, obstruction,
  ``trivial``): the zero class, seeded classes, the obstructed classes and
  equivalence tests of consecutive seeded classes, on the catalog entries
  and three tori.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations_with_replacement

import numpy as np

import flathelp
from realdeligne import catalog
from realdeligne.cechengine import (
    CoefficientComplex,
    equivariant_cohomology,
    hypercohomology,
    nonequivariant_cohomology,
)
from realdeligne.coverdata import IQ, IZ, Z_TRIVIAL, CoefficientSystem, FlatCocycle
from realdeligne.deligne import (
    classify_flat_line_bundles,
    classify_line_bundles,
    classify_line_bundles_with_connection,
    cocycles_equivalent,
    deligne_descriptor,
    flat_cocycle_class,
    quotient_coefficients_cohomology,
    real_circle_maps,
)
from realdeligne.verify import PRODUCT_FACTORS

COEFFICIENTS = (
    IZ,
    Z_TRIVIAL,
    IQ,
    CoefficientSystem.integers_mod(2, -1),
    CoefficientSystem.integers_mod(4, +1),
)
COMPLEXES = (
    ("cone 2", CoefficientComplex((IZ, IZ), (2,))),
    ("incl", CoefficientComplex((IZ, IQ), ("incl",))),
)
SEEDED = 8


def descriptor_covers():
    covers = [(catalog.entry_label(e), e.build()) for e in catalog.ENTRIES]
    covers += [(f"sphere_antipodal:{n}", catalog.build("sphere_antipodal", n)) for n in range(4)]
    covers += [
        (f"torus:{a},{b}", catalog.build("torus", a, b))
        for a, b in combinations_with_replacement(PRODUCT_FACTORS, 2)
    ]
    return covers


def flat_covers():
    covers = [(catalog.entry_label(e), e.build()) for e in catalog.ENTRIES]
    covers += [
        ("torus", catalog.build("torus")),
        ("torus:circle_antipodal,circle_antipodal_fine",
         catalog.build("torus", "circle_antipodal", "circle_antipodal_fine")),
        ("torus:circle_conjugation,circle_antipodal",
         catalog.build("torus", "circle_conjugation", "circle_antipodal")),
    ]
    return covers


def descriptor_lines(cover):
    for coeff in COEFFICIENTS:
        for k in range(8):
            yield f"H^{k}({coeff}) = {equivariant_cohomology(cover, coeff, k, 8)}"
    for k in range(4):
        yield f"plain H^{k} = {nonequivariant_cohomology(cover, Z_TRIVIAL, k, 4)}"
    for name, fstar in COMPLEXES:
        for k in range(6):
            yield f"H^{k}({name}) = {hypercohomology(cover, fstar, k, 6)}"
    for p in range(4):
        for q in range(4):
            d = deligne_descriptor(cover, p, q)
            yield f"({p},{q}) {d} {json.dumps(d.to_record(), sort_keys=True)}"
    yield f"line bundles = {classify_line_bundles(cover)}"
    yield f"with connection = {classify_line_bundles_with_connection(cover)}"
    yield f"flat = {classify_flat_line_bundles(cover)}"
    yield f"circle maps = {real_circle_maps(cover)}"
    for k in range(3):
        yield f"circle coefficients H^{k} = {quotient_coefficients_cohomology(cover, k)}"


def class_values(fc):
    """The class of ``fc`` as values, not as a repr."""
    cls = flat_cocycle_class(fc)
    torus = cls.coords.torus_part
    torus = "None" if torus is None else "(" + ", ".join(map(str, torus)) + ")"
    return (
        f"torus {torus} torsion {tuple(cls.coords.torsion_part)} "
        f"obstruction {tuple(cls.bockstein.free_part)} {tuple(cls.bockstein.torsion_part)} "
        f"trivial {cls.trivial}"
    )


def flat_lines(cover, seed):
    rng = np.random.RandomState(seed)
    gens = flathelp.class_generators(cover)
    yield f"zero: {class_values(FlatCocycle.zero(cover))}"
    seeded = []
    for n in range(SEEDED):
        fc, expected = flathelp.random_flat_cocycle(cover, rng, gens)
        seeded.append(fc)
        yield f"seeded {n} expected {tuple(map(str, expected))}: {class_values(fc)}"
    for n, (fc, torsion) in enumerate(flathelp.obstructed_cocycles(cover, rng, gens)):
        yield f"obstructed {n} expected {torsion}: {class_values(fc)}"
    for n, (a, b) in enumerate(zip(seeded, seeded[1:])):
        yield f"equivalent {n} {n + 1}: {cocycles_equivalent(a, b)}"


def main(out=sys.stdout):
    for label, cover in descriptor_covers():
        for line in descriptor_lines(cover):
            print(f"{label} {line}", file=out)
    for seed, (label, cover) in enumerate(flat_covers()):
        for line in flat_lines(cover, seed):
            print(f"flat {label} {line}", file=out)


if __name__ == "__main__":
    main()
