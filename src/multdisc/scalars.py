"""Exact scalar arithmetic: arbitrary-precision integers and reduced rationals.

Numeric values are plain ``int`` or ``fractions.Fraction``; ``Fraction``
already guarantees the reduced-form / positive-denominator invariants, so
this module only adds what the rest of the package needs on top: parsing,
printing, exact division and denominator clearing.  Fractions that reduce
to whole numbers are normalised back to ``int`` so that integer-only code
paths (fraction-free elimination in particular) stay in the integer ring.
"""

from decimal import Decimal
from fractions import Fraction
from functools import singledispatch
from math import lcm

from .errors import NonExactDivision, ParseError


def normalize_scalar(value):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def parse_scalar(text):
    """Parse an integer or a ``p/q`` rational from text."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return normalize_scalar(Fraction(int(num), int(den)))
        return int(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact scalar: {text!r}") from exc


def format_scalar(value):
    """Exact decimal text of an int or Fraction, at any size.

    str(int) refuses values above sys.get_int_max_str_digits() digits;
    Decimal converts an int without going through text, so it has no limit.
    """
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{format_scalar(value.numerator)}/{format_scalar(value.denominator)}"
    return str(Decimal(int(value)))


@singledispatch
def exact_div(a, b):
    """Divide a by b in their common ring, requiring an exact result.

    Registered for int, Fraction and (in their own modules) the symbolic
    and polynomial rings.  Raises NonExactDivision when b does not divide
    a; a non-exact division anywhere in a fraction-free algorithm means
    the algorithm itself is broken, so this is never caught internally.
    """
    raise TypeError(f"exact_div not supported for {type(a).__name__}")


@exact_div.register(int)
def _exact_div_int(a, b):
    if isinstance(b, Fraction):
        return normalize_scalar(a / b)
    if not isinstance(b, int):
        raise TypeError(f"cannot divide int by {type(b).__name__}")
    quot, rem = divmod(a, b)
    if rem:
        # sizes, not digits: str(int) refuses values over 4300 digits
        raise NonExactDivision(
            f"an int of {a.bit_length()} bits is not divisible by one of {b.bit_length()} bits"
        )
    return quot


@exact_div.register(Fraction)
def _exact_div_fraction(a, b):
    if not isinstance(b, (int, Fraction)):
        raise TypeError(f"cannot divide Fraction by {type(b).__name__}")
    if b == 0:
        raise ZeroDivisionError("exact division by zero")
    return normalize_scalar(a / b)


def clear_denominators(values):
    """Scale a sequence of int/Fraction values to integers.

    Returns (ints, factor) with ints[i] == factor * values[i] and factor
    the positive lcm of the denominators.
    """
    factor = lcm(*(v.denominator if isinstance(v, Fraction) else 1 for v in values)) if values else 1
    return [int(v * factor) for v in values], factor
