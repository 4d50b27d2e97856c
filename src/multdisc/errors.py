"""The three exception classes, one per failure exit code of the command line.

MultdiscError is bad input: malformed or out of range, or work over a
fixed cap (exit 1).  Anomaly is a counterexample to the discriminant
condition, or a bug that it exposes (exit 2).  NonExactDivision is a
fraction-free step that left a remainder, which only a broken step can
do (exit 3, with every other internal error).
"""


class MultdiscError(ValueError):
    """Malformed or out-of-range input, or work requested beyond a fixed cap."""


class Anomaly(MultdiscError):
    """Zero or several candidate partitions certified, or a symbolic chain vanished.

    This must never happen for well-formed input; it signals either an
    implementation bug or a counterexample to the discriminant condition,
    so callers abort loudly instead of guessing.
    """


class NonExactDivision(ArithmeticError):
    """Exact division was requested but the divisor does not divide evenly."""
