import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multdisc.errors import MultdiscError, NonExactDivision
from multdisc.sympoly import FIELD_MAX, WIDTH, SymPoly, _unpack, sum_of_products, sympoly_div

from helpers import naive_str, random_sympoly

NV = 4


def sym(terms):
    return SymPoly(NV, terms)


a0 = SymPoly.variable(NV, 0)
a1 = SymPoly.variable(NV, 1)
a2 = SymPoly.variable(NV, 2)


def test_canonical_no_zero_terms():
    p = sym({(1, 0, 0, 0): 1})
    assert not (p - p)
    assert (p - p).terms == {}
    assert sym({(2, 0, 0, 0): 0}).terms == {}


def test_constructors_and_equality():
    assert SymPoly.const(NV, 0) == 0
    assert SymPoly.const(NV, 3) == 3
    assert a0 != a1
    assert a0 * a1 == a1 * a0
    with pytest.raises(IndexError):
        SymPoly.variable(NV, 9)


def test_int_coercion():
    assert 2 * a0 + a0 == 3 * a0
    assert (a0 + 1) * (a0 - 1) == a0 * a0 - 1
    assert 1 - a0 == -(a0 - 1)


def test_pow():
    assert (a0 + a1) ** 0 == 1
    assert (a0 + a1) ** 2 == a0**2 + 2 * a0 * a1 + a1**2
    with pytest.raises(ValueError):
        a0 ** -1


def test_degrees():
    p = a0**2 * a1 + a2
    assert p.total_degree() == 3
    assert not p.is_homogeneous()
    assert (a0 * a1 + a2**2).is_homogeneous()
    assert SymPoly(NV).is_homogeneous()
    with pytest.raises(ValueError):
        SymPoly(NV).total_degree()


def test_exact_division():
    num = a0**2 * a1 - a0 * a1**2
    assert sympoly_div(num, a0 * a1) == a0 - a1
    assert sympoly_div(6 * a0, 3) == 2 * a0
    with pytest.raises(NonExactDivision):
        sympoly_div(a0 * a1 + 1, a0)
    with pytest.raises(NonExactDivision):
        sympoly_div(3 * a0, 2)
    # a divisor of several terms is refused, even where it divides
    with pytest.raises(ValueError):
        sympoly_div((a0 + a1) * (a0 - a1), a0 + a1)
    with pytest.raises(ZeroDivisionError):
        sympoly_div(a0, 0)
    with pytest.raises(ZeroDivisionError):
        sympoly_div(a0, SymPoly(NV))


def test_exact_division_by_a_monomial():
    # symbolic dmu's final division: one term, so no leading-term search
    cube = a0**3
    num = 6 * a0**4 * a1 - 4 * a0**3 * a2**2 + 2 * a0**5
    assert sympoly_div(num, cube) == 6 * a0 * a1 - 4 * a2**2 + 2 * a0**2
    assert sympoly_div(num, 2 * cube) == 3 * a0 * a1 - 2 * a2**2 + a0**2
    assert sympoly_div(SymPoly(NV), cube) == 0
    with pytest.raises(NonExactDivision):
        sympoly_div(num + a0**2 * a1**2, cube)  # a0^2 a1^2 lacks a0^3
    with pytest.raises(NonExactDivision):
        sympoly_div(num, 4 * cube)  # 6 and 2 are not multiples of 4


def test_degree_guard():
    top = a0 ** (2**WIDTH - 1)
    assert top.total_degree() == FIELD_MAX
    assert top == SymPoly(NV, {(FIELD_MAX, 0, 0, 0): 1})
    assert str(top) == f"a0^{FIELD_MAX}"
    with pytest.raises(ValueError):
        a0 ** (2**WIDTH)
    with pytest.raises(ValueError):
        top * a1


@pytest.mark.parametrize(
    "exps",
    [
        (1, 0, 0),  # too short
        (1, 0, 0, 0, 0),  # too long
        (0, -1, 0, 0),
        (2**WIDTH, 0, 0, 0),
        (FIELD_MAX, 1, 0, 0),  # each field fits, the total degree does not
    ],
)
def test_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        sym({exps: 1})


def test_division_checks_every_exponent_field():
    # subtracting the packed keys would borrow across fields here
    for num, den in ((a0 * a2, a1), (a1**2, a0), (a1 * a2**2, a0 * a2)):
        with pytest.raises(NonExactDivision):
            sympoly_div(num, den)
    with pytest.raises(NonExactDivision):
        sympoly_div(2 * a0 + 3 * a1, 2)
    with pytest.raises(NonExactDivision):
        sympoly_div(2 * a0 * a1 + 3 * a1, 2 * a1)


@st.composite
def exponent_tuples(draw):
    """NV exponents summing to a total degree near 0 or near FIELD_MAX."""
    total = draw(st.one_of(st.integers(0, 6), st.integers(FIELD_MAX - 6, FIELD_MAX)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=NV - 1, max_size=NV - 1)))
    return tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total]))


@given(st.lists(exponent_tuples(), min_size=1, max_size=8, unique=True))
def test_packed_order_is_graded_lex(exps):
    p = sym({e: i + 1 for i, e in enumerate(exps)})
    glex = sorted(exps, key=lambda e: (sum(e), e))
    assert [_unpack(NV, key) for key in sorted(p.terms)] == glex


def test_evaluate():
    p = 2 * a0**2 * a1 - 3 * a2
    assert p.evaluate([2, 5, 7, 0]) == 2 * 4 * 5 - 21
    assert p.evaluate([Fraction(1, 2), 4, 0, 9]) == 2


def test_str_graded_lex():
    p = a0 * a1 - 2 * a2 + 5
    assert str(p) == "a0*a1 - 2*a2 + 5"
    assert str(SymPoly(NV)) == "0"
    assert str(-a0) == "-a0"
    assert str(a1**3) == "a1^3"


@st.composite
def term_dicts(draw):
    """nvars in 1..8 and a term dict with constants and coefficients +-1."""
    nvars = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.one_of(st.sampled_from((1, -1)), st.integers(-12, 12))
    return nvars, draw(st.dictionaries(exps, coeffs, max_size=8))


@given(term_dicts())
@example((1, {(0,): -1}))
@example((3, {(0, 0, 0): 1, (1, 0, 2): -1, (0, 3, 0): 7}))
@example((8, {(0,) * 7 + (1,): -1, (1,) + (0,) * 7: 1, (0,) * 8: -5}))
def test_str_matches_naive_formatter(case):
    nvars, terms = case
    assert str(SymPoly(nvars, terms)) == naive_str(nvars, terms)
    assert str(-SymPoly(nvars, terms)) == naive_str(nvars, {e: -c for e, c in terms.items()})


def test_mixed_nvars_rejected():
    b0 = SymPoly.variable(3, 0)
    for mixed in (lambda: a0 + b0, lambda: a0 - b0, lambda: b0 - a0, lambda: a0 == b0):
        with pytest.raises(MultdiscError, match="mixing SymPolys with different variable counts"):
            mixed()


def test_add_and_sub_take_ints_and_sympolys_only():
    # +, - and unary - are sums of products with factors +-1; any other
    # operand type gets NotImplemented, so Python raises TypeError
    for bad in (lambda: a0 + Fraction(1, 2), lambda: Fraction(1, 2) + a0, lambda: a0 - 1.5, lambda: 1.5 - a0):
        with pytest.raises(TypeError):
            bad()
    assert 5 - a0 == sym({(0, 0, 0, 0): 5, (1, 0, 0, 0): -1})
    assert -a0 == sym({(1, 0, 0, 0): -1})
    assert -SymPoly(NV) == 0 and (a0 - a0).nvars == NV


@given(st.integers(0, 2**32 - 1))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a = random_sympoly(rng, NV)
    b = random_sympoly(rng, NV)
    c = random_sympoly(rng, NV)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a + (-a) == 0


@given(st.integers(0, 2**32 - 1))
def test_division_inverts_multiplication(seed):
    rng = random.Random(seed)
    a = random_sympoly(rng, NV)
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    b = sym({tuple(rng.randint(0, 3) for _ in range(NV)): c}) if rng.random() < 0.8 else c
    assert sympoly_div(a * b, b) == a


def _value(z, point):
    return z.evaluate(point) if isinstance(z, SymPoly) else z


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_sum_of_products_matches_evaluation(seed, with_ints):
    rng = random.Random(seed)

    def operand():
        if with_ints and rng.random() < 0.3:
            return rng.randint(-9, 9)
        return random_sympoly(rng, NV)

    pairs = [(operand(), operand()) for _ in range(rng.randint(1, 6))]
    total = sum_of_products(pairs)
    assert isinstance(total, SymPoly) == any(isinstance(z, SymPoly) for pair in pairs for z in pair)
    for _ in range(3):
        point = [rng.randint(-6, 6) for _ in range(NV)]
        want = sum(_value(x, point) * _value(y, point) for x, y in pairs)
        assert _value(total, point) == want


def test_sum_of_products_edge_cases():
    assert sum_of_products([(2, 3), (4, -1)]) == 2
    assert type(sum_of_products([(2, 3), (4, -1)])) is int
    assert sum_of_products([]) == 0 and type(sum_of_products([])) is int
    for pairs in ([(a0, a1), (-a1, a0)], [(0, a0)], [(a0, 2), (-2, a0), (3, 1), (-1, 3)]):
        zero = sum_of_products(pairs)
        assert isinstance(zero, SymPoly) and zero.terms == {} and zero.nvars == NV
    assert sum_of_products([(a0, a1), (3, 2), (a0, -1)]) == a0 * a1 - a0 + 6
    with pytest.raises(ValueError):
        sum_of_products([(a0**FIELD_MAX, a1)])
    with pytest.raises(ValueError):
        sum_of_products([(a1, 2), (a0**FIELD_MAX, a1)])
    with pytest.raises(ValueError):
        sum_of_products([(a0, SymPoly.variable(3, 0))])
    with pytest.raises(ValueError):
        sum_of_products([(a0, a1), (2, SymPoly.variable(3, 0))])
