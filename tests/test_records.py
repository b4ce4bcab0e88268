"""Value semantics of the package's result records.

The golden strings are the reprs, strings and JSON report the package
printed when these types were generated dataclasses; they must not change.
"""

import copy
import inspect
import json
import re

import jsonschema
import numpy as np
import pytest

import flathelp
from realdeligne import catalog, cli
from realdeligne.catalog import CatalogEntry
from realdeligne.cechengine import CoefficientComplex, equivariant_cohomology, tuple_basis
from realdeligne.coverdata import IQ, IZ, CoefficientSystem
from realdeligne.deligne import (
    RESULT_RECORD_SCHEMA,
    FlatClassCoordinates,
    FlatCocycleClass,
    deligne_descriptor,
    flat_cocycle_class,
    quotient_coefficients_cohomology,
)
from realdeligne.exactalg import ElementCoordinates, GroupDescriptor, SparseIntMatrix, _smith
from realdeligne.flatclasses import _angle_layout

COMPUTE_JSON = """{
  "invocation": [
    "compute",
    "--space",
    "point_trivial",
    "--coeff",
    "Zmod:2",
    "--degree",
    "1",
    "--json"
  ],
  "version": "0.1.0",
  "cover": {
    "name": "point_trivial",
    "indices": 2,
    "good": true,
    "compact": true
  },
  "results": [
    {
      "space": "point_trivial",
      "p": null,
      "q": 1,
      "shape": "discrete",
      "rank": 0,
      "torsion": [
        2
      ],
      "torus_dim": null,
      "smooth_part_symbolic": false,
      "degrees_computed": [
        0,
        1
      ],
      "good_cover_asserted": true
    }
  ],
  "timings": {
    "build": T,
    "compute": T
  }
}
"""

# the result row of a classify question, as its --json report prints it
CLASSIFY_ROWS = {
    ("line-bundles", "torus"): """    {
      "space": "torus(circle_antipodal,circle_antipodal)",
      "p": null,
      "q": 2,
      "shape": "discrete",
      "rank": 0,
      "torsion": [
        2
      ],
      "torus_dim": null,
      "smooth_part_symbolic": false,
      "degrees_computed": [
        0,
        2
      ],
      "good_cover_asserted": true
    }""",
    ("circle-maps", "circle_conjugation"): """    {
      "space": "circle_conjugation",
      "p": null,
      "q": 1,
      "shape": "discrete",
      "rank": 1,
      "torsion": [
        2
      ],
      "torus_dim": null,
      "smooth_part_symbolic": false,
      "degrees_computed": [
        0,
        1
      ],
      "good_cover_asserted": true
    }""",
}


def test_group_descriptor_repr_and_str():
    g = GroupDescriptor(2, [2, 4])
    assert repr(g) == "GroupDescriptor(rank=2, torsion=(2, 4))"
    assert str(g) == "Z^2 + Z/2 + Z/4"
    assert repr(GroupDescriptor(0)) == "GroupDescriptor(rank=0, torsion=())"
    assert str(GroupDescriptor(0)) == "0"


def test_coefficient_system_repr_and_str():
    assert repr(IZ) == "CoefficientSystem(base='Z', sign=-1, modulus=None)"
    assert str(IZ) == "(Z, -1)"
    mod = CoefficientSystem.integers_mod(3, -1)
    assert repr(mod) == "CoefficientSystem(base='Z/n', sign=-1, modulus=3)"
    assert str(mod) == "(Z/3, -1)"


def test_deligne_descriptor_repr_and_str():
    d = deligne_descriptor(catalog.build("circle_conjugation"), 2, 1)
    assert repr(d) == (
        "DeligneDescriptor(space='circle_conjugation', p=2, q=1, rank=0, torsion=(2,), "
        "torus_dim=0, degrees_computed=(0, 1), good_cover_asserted=True)"
    )
    assert str(d) == "H(2,1)[circle_conjugation] = compact_extension: torus_dim 0 x Z/2 (split assumed)"
    d = deligne_descriptor(catalog.build("torus"), 2, 2)
    assert repr(d) == (
        "DeligneDescriptor(space='torus(circle_antipodal,circle_antipodal)', p=2, q=2, "
        "rank=0, torsion=(2,), torus_dim=None, degrees_computed=(0, 2), "
        "good_cover_asserted=True)"
    )
    assert str(d) == (
        "H(2,2)[torus(circle_antipodal,circle_antipodal)] = mixed: "
        "E^{p-1}/E^{p-1}_0(M) -> quotient Z/2"
    )


def test_flat_cocycle_class_repr_and_str():
    cover = catalog.build("circle_conjugation")
    fc, _ = flathelp.random_flat_cocycle(cover, np.random.RandomState(5))
    golden = (
        "FlatCocycleClass(coords=FlatClassCoordinates(torus_part=(Fraction(1, 2),), "
        "torsion_part=()), bockstein=ElementCoordinates(free_part=(), torsion_part=()))"
    )
    got = flat_cocycle_class(fc)
    assert repr(got) == str(got) == golden


# two equal values, built separately, for each kind of record, and one of
# its fields
PAIRS = [
    (lambda: GroupDescriptor(1, (2, 4)), "torsion"),
    (lambda: ElementCoordinates((1,), (0, 3)), "free_part"),
    (lambda: CoefficientSystem.integers_mod(4, -1), "modulus"),
    (lambda: CoefficientComplex([IZ, IQ], ["incl"]), "maps"),
    (lambda: quotient_coefficients_cohomology(catalog.build("circle_conjugation"), 0), "torus_dim"),
    (lambda: FlatClassCoordinates(None, (1,)), "torus_part"),
    (lambda: CatalogEntry("sphere_antipodal", (1, 1, 0), True, True, (1,)), "params"),
    (lambda: deligne_descriptor(catalog.build("circle_antipodal"), 3, 2), "torsion"),
]


@pytest.mark.parametrize("make", [make for make, _ in PAIRS])
def test_equal_values_are_equal_and_hash_alike(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert copy.deepcopy(a) == a


def test_records_of_different_classes_differ():
    assert GroupDescriptor(0, ()) != ElementCoordinates(0, ())
    assert ElementCoordinates((), ()) != FlatClassCoordinates((), ())
    assert GroupDescriptor(1) != (1, ())
    assert GroupDescriptor(1) != GroupDescriptor(2)
    assert len({GroupDescriptor(1), GroupDescriptor(1, ()), GroupDescriptor(1, (2,))}) == 2


@pytest.mark.parametrize("make, field", PAIRS)
def test_fields_cannot_be_assigned_or_deleted(make, field):
    record = make()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 0
    assert repr(record) == before


def smith_data():
    return _smith(SparseIntMatrix.from_dense([[2, 1], [0, 3]]))


# one value of each record that takes the constructor compiled from its
# slots; the engine's own records among them hold dicts, so they do not hash
COMPILED = [
    lambda: ElementCoordinates((1,), (0, 3)),
    lambda: FlatClassCoordinates(None, (1,)),
    lambda: FlatCocycleClass(FlatClassCoordinates((), ()), ElementCoordinates((), ())),
    lambda: _angle_layout(catalog.build("circle_antipodal")),
    lambda: deligne_descriptor(catalog.build("circle_antipodal"), 3, 2),
    lambda: catalog.ENTRIES[-1],
    smith_data,
    lambda: tuple_basis(catalog.build("circle_antipodal"), 1),
]


@pytest.mark.parametrize("make", COMPILED)
def test_compiled_constructor_takes_the_slots_in_order(make):
    record = make()
    cls = type(record)
    names = cls.__slots__
    values = [getattr(record, name) for name in names]
    assert list(inspect.signature(cls).parameters) == list(names)
    assert cls(*values) == cls(**dict(zip(names, values))) == record
    call = re.escape(f"{cls.__name__}.__init__()")
    with pytest.raises(TypeError, match=f"^{call} missing 1 required positional argument: '{names[-1]}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"^{call} got an unexpected keyword argument 'extra'$"):
        cls(*values, extra=0)
    with pytest.raises(TypeError, match=f"^{call} takes"):
        cls(*values, 0)


@pytest.mark.parametrize(
    "make, field", [(smith_data, "diag"), (lambda: tuple_basis(catalog.build("free_orbit"), 0), "position")]
)
def test_engine_records_refuse_assignment_and_survive_deepcopy(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    copied = copy.deepcopy(record)
    assert copied is not record and copied == record
    assert getattr(copied, field) is not getattr(record, field)


def test_shared_descriptors_stay_unchanged():
    """The engine hands cached descriptors out shared, so a caller cannot
    change the one another caller reads."""
    cover = catalog.build("circle_conjugation")
    first = equivariant_cohomology(cover, IZ, 1, 2)
    with pytest.raises(AttributeError):
        first.torsion = (3,)
    again = equivariant_cohomology(cover, IZ, 1, 3)
    assert again is first and str(again) == "Z + Z/2"


def test_compute_json_report_bytes(capsys):
    code = cli.main(["compute", "--space", "point_trivial", "--coeff", "Zmod:2", "--degree", "1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    timings = json.loads(out)["timings"]
    assert all(isinstance(v, float) for v in timings.values())
    assert re.sub(r'("(?:build|compute)": )[-+.eE0-9]+', r"\1T", out) == COMPUTE_JSON


@pytest.mark.parametrize("what, space", list(CLASSIFY_ROWS))
def test_classify_json_row_bytes(capsys, what, space):
    code = cli.main(["classify", "--space", space, "--what", what, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    _, rest = out.split('\n  "results": [\n')
    row, _ = rest.split('\n  ],\n  "timings"')
    assert row == CLASSIFY_ROWS[what, space]
    (rec,) = json.loads(out)["results"]
    jsonschema.validate(rec, RESULT_RECORD_SCHEMA)
