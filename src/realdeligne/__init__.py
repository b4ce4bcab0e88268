"""Exact equivariant Čech cohomology over combinatorial covers with a free
involution, and descriptors of Real smooth Deligne cohomology built from it.

Everything is computed over the integers with exact arithmetic; rationals
enter only as `fractions.Fraction`.

The flat-class names (``FlatCocycle``, ``FlatCocycleClass``,
``flat_cocycle_class``, ``cocycles_equivalent``, ``class_coordinates``,
``class_representative``) are defined in ``flatclasses``, which no
descriptor needs; it is imported on the first read of one of them here
(:func:`__getattr__`).
"""

__version__ = "0.1.0"

from .cechengine import (
    CoefficientComplex,
    build_equivariant_complex,
    build_full_complex,
    equivariant_cohomology,
    hypercohomology,
    nonequivariant_cohomology,
)
from .coverdata import (
    IQ,
    IZ,
    Z_TRIVIAL,
    C2Cover,
    CoefficientSystem,
    double_fixed_indices,
    join_cover,
    product_cover,
    validate_cover,
)
from .deligne import (
    DeligneDescriptor,
    classify_flat_line_bundles,
    classify_line_bundles,
    classify_line_bundles_with_connection,
    deligne_descriptor,
    quotient_coefficients_cohomology,
    real_circle_maps,
)
from .exactalg import (
    ElementCoordinates,
    GroupDescriptor,
    IntegerCochainComplex,
    complex_cohomology,
    fixed_subcomplex,
    kernel_basis,
    smith_normal_form,
    solve_int,
    solve_rational,
)

__all__ = [
    "__version__",
    "C2Cover",
    "CoefficientComplex",
    "CoefficientSystem",
    "DeligneDescriptor",
    "ElementCoordinates",
    "FlatCocycle",
    "FlatCocycleClass",
    "GroupDescriptor",
    "IntegerCochainComplex",
    "IQ",
    "IZ",
    "Z_TRIVIAL",
    "build_equivariant_complex",
    "build_full_complex",
    "class_coordinates",
    "class_representative",
    "classify_flat_line_bundles",
    "classify_line_bundles",
    "classify_line_bundles_with_connection",
    "cocycles_equivalent",
    "complex_cohomology",
    "deligne_descriptor",
    "double_fixed_indices",
    "equivariant_cohomology",
    "fixed_subcomplex",
    "flat_cocycle_class",
    "hypercohomology",
    "join_cover",
    "kernel_basis",
    "nonequivariant_cohomology",
    "product_cover",
    "quotient_coefficients_cohomology",
    "real_circle_maps",
    "smith_normal_form",
    "solve_int",
    "solve_rational",
    "validate_cover",
]


def __getattr__(name):
    """A flat-class name: imported from ``flatclasses`` on its first read
    here (PEP 562), then kept in this namespace."""
    if name not in ("FlatCocycle", "FlatCocycleClass", "class_coordinates", "class_representative",
                    "cocycles_equivalent", "flat_cocycle_class"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import flatclasses

    globals()[name] = value = getattr(flatclasses, name)
    return value
