import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multdisc.errors import MultdiscError, NonExactDivision
from multdisc.scalars import (
    clear_denominators,
    exact_div,
    format_scalar,
    normalize_scalar,
    parse_scalar,
    quote_field,
)

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4),
)


def test_parse_scalar():
    assert parse_scalar("42") == 42
    assert parse_scalar("-7") == -7
    assert parse_scalar("3/6") == Fraction(1, 2)
    assert parse_scalar("4/2") == 2 and isinstance(parse_scalar("4/2"), int)
    with pytest.raises(MultdiscError, match="not an exact scalar: 'x'"):
        parse_scalar("x")
    with pytest.raises(MultdiscError, match="not an exact scalar: '1/0'"):
        parse_scalar("1/0")
    # Python's int-from-str limit bounds each part, and is named as such
    limit = sys.get_int_max_str_digits()
    assert parse_scalar("7" * limit) == int("7" * limit)
    with pytest.raises(MultdiscError, match=f"of {limit + 1} digits is over the {limit}-digit limit"):
        parse_scalar("-1/" + "7" * (limit + 1))


def test_quote_field_bounds_a_long_field():
    assert quote_field("x" * 20) == repr("x" * 20)
    assert quote_field("x" * 21) == f"{'x' * 20!r}... (21 characters)"


def test_format_round_trip():
    for text in ["5", "-3", "7/3", "-2/9"]:
        assert format_scalar(parse_scalar(text)) == text


def test_exact_div_integers():
    assert exact_div(6, 3) == 2
    assert exact_div(-6, 3) == -2
    with pytest.raises(NonExactDivision):
        exact_div(5, 2)
    with pytest.raises(NonExactDivision):  # beyond the int-to-str digit limit
        exact_div(10**5000 + 1, 10**4999)
    with pytest.raises(ZeroDivisionError):
        exact_div(5, 0)


def test_exact_div_fractions():
    assert exact_div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert exact_div(3, Fraction(1, 2)) == 6
    assert exact_div(Fraction(5, 3), 5) == Fraction(1, 3)
    assert isinstance(exact_div(Fraction(3, 2), Fraction(3, 4)), int)  # normalised
    with pytest.raises(ZeroDivisionError):
        exact_div(Fraction(1, 2), 0)
    with pytest.raises(ZeroDivisionError):
        exact_div(3, Fraction(0))


def test_exact_div_rejects_other_types():
    # one plain function over Z and Q: polynomials divide through their own
    for a, b in ((1.5, 2), (2, 0.5), ("6", 3), (Fraction(1, 2), 1.0)):
        with pytest.raises(TypeError):
            exact_div(a, b)


def test_clear_denominators():
    ints, factor = clear_denominators([Fraction(1, 2), 3, Fraction(2, 3)])
    assert factor == 6
    assert ints == [3, 18, 4]
    assert clear_denominators([]) == ([], 1)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a + (-a) == 0


@given(scalars, scalars)
def test_exact_div_inverts_multiplication(a, b):
    if b:
        assert exact_div(a * b, b) == a


def test_normalize_scalar():
    assert normalize_scalar(Fraction(4, 2)) == 2 and isinstance(normalize_scalar(Fraction(4, 2)), int)
    assert normalize_scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert normalize_scalar(5) == 5
