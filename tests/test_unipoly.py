import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multdisc.errors import NonExactDivision
from multdisc.sympoly import SymPoly
from multdisc.unipoly import NEG_INF, Poly, generic_poly, parse_poly, poly_div

from helpers import random_poly


def test_normalisation_and_degree():
    assert Poly([0, 0, 1, 2]).coeffs == (1, 2)
    assert Poly([1, 2]).degree == 1
    assert Poly().degree is NEG_INF
    assert Poly([5]).degree == 0


def test_neg_inf_sentinel():
    assert NEG_INF < 0
    assert NEG_INF < -100
    assert not NEG_INF > 3
    assert NEG_INF <= NEG_INF and NEG_INF >= NEG_INF
    with pytest.raises(TypeError):
        NEG_INF + 1  # arithmetic on the sentinel must fail loudly


def test_taylor_derivative_quartic_rows():
    # generic quartic: k = 3 gives 4 a0 x + a1, k = 1 the full derivative row
    F = generic_poly(4)
    nv = 5
    a = [SymPoly.variable(nv, i) for i in range(nv)]
    t3 = F.taylor_derivative(3)
    assert t3.coeffs == (4 * a[0], a[1])
    t1 = F.taylor_derivative(1)
    assert t1.coeffs == (4 * a[0], 3 * a[1], 2 * a[2], a[3])
    assert F.taylor_derivative(0) is F
    assert not Poly([1, 0, 1]).taylor_derivative(5)


def test_taylor_matches_iterated_derivative():
    rng = random.Random(9)
    for _ in range(40):
        p = random_poly(rng)
        for k in range(0, 6):
            plain = p
            for _ in range(k):
                plain = plain.derivative()
            assert p.taylor_derivative(k).scale(factorial(k)) == plain


def test_shift_mul():
    assert Poly([1, 1]).shift_mul(2).coeffs == (1, 1, 0, 0)
    assert not Poly().shift_mul(3)
    p = generic_poly(1)
    assert p.shift_mul(1).coeffs == p.coeffs + (0,)
    assert Poly([1]).shift_mul(0).coeffs == (1,)


def test_eval():
    assert Poly([1, 0, -1])(2) == 3
    assert parse_poly("1,-1,-3,5,-2")(1) == 0  # (x-1)^3 (x+2) at x = 1
    assert Poly([3, 2, 7])(0) == 7
    assert Poly([1, 1])(Fraction(1, 2)) == Fraction(3, 2)


@given(st.integers(0, 2**32 - 1), st.integers(-20, 20))
def test_eval_is_ring_homomorphism(seed, x):
    rng = random.Random(seed)
    p = random_poly(rng, max_deg=4)
    q = random_poly(rng, max_deg=4)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def test_arithmetic():
    p = Poly([1, 2, 3])
    q = Poly([1, -2])
    assert (p + q).coeffs == (1, 3, 1)
    assert (p - p).coeffs == ()
    assert (p * q).coeffs == (1, 0, -1, -6)
    assert p.scale(0).coeffs == ()
    assert (2 * q).coeffs == (2, -4)


def test_poly_exact_division():
    p = Poly([1, 0, -1])  # x^2 - 1
    q = Poly([1, -1])
    assert poly_div(p, q) == Poly([1, 1])
    assert poly_div(p, Poly([1, 1])) == q
    with pytest.raises(NonExactDivision):
        poly_div(Poly([1, 0, 1]), q)


def test_poly_division_refuses_a_rational_quotient():
    # 2x^2 - 1/2 = (x - 1/2)(2x + 1) over Q, but poly_div runs over Z: the
    # step -1 / 2 leaves a remainder, so it raises instead of dividing in Q
    with pytest.raises(NonExactDivision):
        poly_div(Poly([2, 0, Fraction(-1, 2)]), Poly([2, 1]))
    with pytest.raises(NonExactDivision):
        poly_div(Poly([2, 0, Fraction(1, 2)]), Poly([2, 1]))


def test_parse_and_format():
    p = parse_poly("1,-1,-3,5,-2")
    assert p.coeffs == (1, -1, -3, 5, -2)
    assert str(p) == "1,-1,-3,5,-2"
    r = parse_poly("1/2,3")
    assert r.coeffs == (Fraction(1, 2), 3)
    assert str(r) == "1/2,3"


def test_generic_poly():
    F = generic_poly(3)
    assert F.degree == 3
    assert F.is_symbolic()
    assert all(isinstance(c, SymPoly) for c in F.coeffs)
    assert str(F) == "a0,a1,a2,a3"


def test_symbolic_arithmetic_mixes_with_ints():
    F = generic_poly(2)
    G = F.shift_mul(1) + Poly([1])
    assert G.degree == 3
    assert G.coeff(0) == 1
