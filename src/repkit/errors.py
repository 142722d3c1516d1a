"""Exception taxonomy shared across the package.

Every failure mode callers are expected to handle gets its own class so that
library users (and the CLI's exit-code logic) can discriminate input mistakes
from numerical failures without parsing messages.
"""


class RepkitError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(RepkitError):
    """A square matrix was required."""


class NotHermitianError(RepkitError):
    """Hermiticity defect above tolerance."""


class NotPositiveDefiniteError(RepkitError):
    """A positive definite matrix was required; an eigenvalue is at or below
    the definiteness threshold."""


class SingularMatrixError(RepkitError):
    """Matrix inversion was requested near or at singularity."""


class DimensionMismatchError(RepkitError):
    """Vector or matrix dimensions inconsistent with the ambient space."""


class ShapeMismatchError(RepkitError):
    """Matrix-valued data of inconsistent shape."""


class KindMismatchError(RepkitError):
    """A group element (or element-valued argument) does not belong to the
    group it is used with."""


class GroupMismatchError(RepkitError):
    """Two objects defined over different groups were combined."""


class RuleMismatchError(RepkitError):
    """Two node-sampled objects were combined across different Haar rules."""


class InvalidResolutionError(RepkitError):
    """Quadrature resolution must be a positive integer."""


class EvaluationFailureError(RepkitError):
    """An integrand returned a non-finite or missing value at a node, or a
    representation's character at the identity is not its degree."""


class SpinOutOfRangeError(RepkitError):
    """Requested spin outside the supported range (twice the spin must be an
    integer in 0..12)."""


class AlreadyIrreducibleError(RepkitError):
    """A split was requested for a representation with scalar commutant."""


class NotIrreducibleError(RepkitError):
    """An operation required an irreducible representation."""


class NonIntegerMultiplicityError(RepkitError):
    """A character inner product landed too far from an integer; usually an
    under-resolved quadrature rule."""


class InputParseError(RepkitError):
    """An input file failed to parse or validate."""
