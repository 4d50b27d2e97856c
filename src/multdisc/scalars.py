"""Exact scalar arithmetic: arbitrary-precision integers and reduced rationals.

Numeric values are plain ``int`` or ``fractions.Fraction``; ``Fraction``
already guarantees the reduced-form / positive-denominator invariants, so
this module only adds what the rest of the package needs on top: parsing,
printing, exact division and denominator clearing.  Fractions that reduce
to whole numbers are normalised back to ``int`` so that integer-only code
paths (fraction-free elimination in particular) stay in the integer ring.

Q is handled here alone.  Rationals are cleared once, where they enter:
clear_denominators scales a batch of values to integers, and the exact
kernels that follow (unipoly.poly_div, linalg's Bareiss determinant, the
Newton kernel and classify's gcds) run over Z only.  exact_div is the one
division that stays over Z or Q, for the values that stay rational.  A
batch is integral when every value has ``type(v) is int``, tested by exact
type rather than by ``isinstance(v, Fraction)``, which dispatches through
``ABCMeta.__instancecheck__`` every time.
"""

import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm

from .errors import MultdiscError, NonExactDivision


def normalize_scalar(value):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def parse_scalar(text):
    """Parse an integer or a ``p/q`` rational from text.

    Python's limit on int-from-str conversion bounds each part; a part
    over it is named by its digit count.  An error quotes the field
    through quote_field.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return normalize_scalar(Fraction(int(num), int(den)))
        return int(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        digits = max(sum(ch.isdigit() for ch in part) for part in text.split("/"))
        if limit and digits > limit:
            raise MultdiscError(
                f"a coefficient of {digits} digits is over the {limit}-digit limit: {quote_field(text)}"
            ) from exc
        raise MultdiscError(f"not an exact scalar: {quote_field(text)}") from exc


def quote_field(text):
    """An input field quoted for an error message: past 20 characters, its first 20 and its length."""
    if len(text) > 20:
        return f"{text[:20]!r}... ({len(text)} characters)"
    return repr(text)


def format_scalar(value):
    """Exact decimal text of an int or Fraction, at any size.

    str(int) refuses values above sys.get_int_max_str_digits() digits;
    Decimal converts an int without going through text, so it has no limit.
    """
    if type(value) is not int and value.denominator != 1:
        return f"{format_scalar(value.numerator)}/{format_scalar(value.denominator)}"
    return str(Decimal(int(value)))


def exact_div(a, b):
    """a / b over Z or Q: two ints must divide evenly, else NonExactDivision.

    A non-exact division in a fraction-free algorithm means the algorithm
    itself is broken, so it is never caught internally.  A Fraction
    operand divides in Q, normalised.  A zero b raises ZeroDivisionError
    and any other operand type TypeError.
    """
    if isinstance(a, int) and isinstance(b, int):
        quot, rem = divmod(a, b)
        if rem:
            # sizes, not digits: str(int) refuses values over 4300 digits
            raise NonExactDivision(
                f"an int of {a.bit_length()} bits is not divisible by one of {b.bit_length()} bits"
            )
        return quot
    if not isinstance(a, (int, Fraction)) or not isinstance(b, (int, Fraction)):
        raise TypeError(f"exact_div of {type(a).__name__} by {type(b).__name__}")
    return normalize_scalar(a / b)  # Fraction raises ZeroDivisionError itself


def clear_denominators(values):
    """Scale a sequence of int/Fraction values to integers.

    Returns (ints, factor) with ints[i] == factor * values[i] and factor
    the positive lcm of the denominators.
    """
    if set(map(type, values)) <= {int}:
        return list(values), 1
    factor = lcm(*(v.denominator for v in values))
    return [int(v * factor) for v in values], factor
