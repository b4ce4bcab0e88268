"""Exception types shared across the package."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


# --- exact linear algebra ---------------------------------------------------

class DegreeOutOfRange(EngineError):
    """A cochain degree outside the range carried by the complex."""


class NotAnInvolution(EngineError):
    """A degreewise map whose square is not the identity."""


class NotEquivariant(EngineError):
    """A degreewise map that does not commute with the differentials."""


class NotACocycle(EngineError):
    """A vector that is not annihilated by the differential."""


class InternalInvariantError(EngineError, ValueError):
    """An invariant the engine maintains itself failed: a differential of
    the wrong shape, d∘d != 0, or a class that contradicts its own
    derivation.  This is a defect in the package, never bad input."""


# --- cover data --------------------------------------------------------------

class CoverValidationError(EngineError):
    """A cover description violating one or more structural invariants.

    ``violations`` is the complete list of ``(kind, message)`` pairs found,
    where ``kind`` is one of the constants below.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = [f"[{kind}] {msg}" for kind, msg in self.violations]
        super().__init__("invalid cover description:\n" + "\n".join(lines))


MALFORMED_DESCRIPTION = "MalformedDescription"
INVOLUTION_NOT_SELF_INVERSE = "InvolutionNotSelfInverse"
FIXED_INDEX_PRESENT = "FixedIndexPresent"
FACE_INCOHERENCE = "FaceIncoherence"
INVOLUTION_FACE_MISMATCH = "InvolutionFaceMismatch"
NOT_DOWNWARD_CLOSED = "NotDownwardClosed"


class InvalidCocycle(EngineError):
    """Angle data violating antisymmetry, equivariance or the cocycle rule."""


class CoverMismatch(EngineError, ValueError):
    """Two cocycles living on different covers."""


class InvalidCoefficientComplex(EngineError):
    """Coefficient complex whose maps fail to compose to zero, do not
    commute with the sign actions, or mix unsupported bases."""


# --- descriptors and queries --------------------------------------------------

class NotCompact(EngineError):
    """A query that requires the compact flag on a cover lacking it."""


class UnknownSpace(EngineError):
    """Catalog name that does not exist."""


class UnsupportedDimension(EngineError):
    """Catalog parameter outside the supported range."""
