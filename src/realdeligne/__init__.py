"""Exact equivariant Čech cohomology over combinatorial covers with an
involution, which may fix indices (only the flat classes need it free), and
descriptors of Real smooth Deligne cohomology built from it.

Everything is computed over the integers with exact arithmetic; rationals
enter only as `fractions.Fraction`.

Names no descriptor needs are defined in ``flatclasses`` (the flat
classes and the ordered-tuple complexes) and ``verify`` (the dense
interchange, the solves and the general fixed route); each module is
imported on the first read of one of its names here (:func:`__getattr__`).
"""

__version__ = "0.1.0"

from .cechengine import CoefficientComplex, equivariant_cohomology, hypercohomology, nonequivariant_cohomology
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
from .exactalg import ElementCoordinates, GroupDescriptor, IntegerCochainComplex, complex_cohomology
from .records import moved_names

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


__getattr__ = moved_names(globals(), {
    **dict.fromkeys(("FlatCocycle", "FlatCocycleClass", "build_equivariant_complex", "build_full_complex",
                     "class_coordinates", "class_representative", "cocycles_equivalent", "flat_cocycle_class"),
                    "flatclasses"),
    **dict.fromkeys(("fixed_subcomplex", "kernel_basis", "smith_normal_form", "solve_int", "solve_rational"),
                    "verify"),
})
