"""Exception types shared across the package."""


class MultdiscError(Exception):
    """Base class for all library-specific failures."""


class NonExactDivision(MultdiscError, ArithmeticError):
    """Exact division was requested but the divisor does not divide evenly."""


class EmptyDomain(MultdiscError):
    """An enumeration was requested over an empty parameter domain."""


class NotSquare(MultdiscError):
    """Determinant or permanent of a non-square matrix."""


class DimensionMismatch(MultdiscError):
    """Matrix or permutation dimensions do not line up."""


class DegreeTooHigh(MultdiscError):
    """A polynomial exceeds the degree bound of the requested operation."""


class DegreeMismatch(MultdiscError):
    """A polynomial does not have the degree required by the operation."""


class DegreeOutOfRange(MultdiscError):
    """Subresultant index outside the valid range."""


class ZeroPolynomial(MultdiscError):
    """The zero polynomial was passed where a nonzero one is required."""


class AmbiguousClassification(MultdiscError):
    """Zero or several candidate partitions tested nonzero.

    This must never happen for well-formed input; it signals either an
    implementation bug or a counterexample to the discriminant condition,
    so callers abort loudly instead of guessing.
    """


class ChainDegenerate(MultdiscError):
    """A polynomial in the repeated-subresultant chain vanished identically."""


class DuplicateRoots(MultdiscError):
    """Root specifications must list pairwise distinct roots."""


class ZeroLead(MultdiscError):
    """A zero leading coefficient: of a root specification or of coefficient input."""


class RootMismatch(MultdiscError):
    """A supplied value is not actually a root of the polynomial."""


class CapExceeded(MultdiscError):
    """Work requested beyond a fixed cap: degree, kernel work, candidates or matrix size."""


class UnknownSuite(MultdiscError):
    """Verification suite name not recognised."""


class ParseError(MultdiscError):
    """Malformed user input (coefficients, partitions, batch files)."""
