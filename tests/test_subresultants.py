import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multdisc.errors import MultdiscError
from multdisc.oracle import RootSpec, poly_from_roots
from multdisc.scalars import clear_denominators
from multdisc.subresultants import (
    pseudo_rem,
    resultant,
    subresultant_chain,
    subresultant_det,
)
from multdisc.unipoly import Poly, generic_poly, poly_div

from helpers import psd_oracle, random_poly, random_sympoly, subresultant_oracle


def test_pseudo_rem():
    # prem(P, Q) = lc(Q)^(deg P - deg Q + 1) P mod Q
    P = Poly([1, 0, -1])
    Q = Poly([2, 0])
    assert pseudo_rem(P, Q) == Poly([-4])
    assert not pseudo_rem(Poly([1, 0, 0]), Poly([3, 0]))


_COEFF = st.one_of(st.integers(-30, 30), st.fractions(-5, 5, max_denominator=7))


@st.composite
def _prem_operands(draw):
    nonzero_lead = lambda c: c[0] != 0
    q = draw(st.lists(_COEFF, min_size=1, max_size=4).filter(nonzero_lead))
    p = draw(st.lists(_COEFF, min_size=len(q), max_size=len(q) + 4).filter(nonzero_lead))
    return Poly(p), Poly(q)


@given(_prem_operands())
@example((Poly([1, 0, 0, 0, -1]), Poly([2, 0, 3])))  # zero inner coefficients
@example((Poly([3, 1, 2]), Poly([-2, 1, 5])))  # deg P = deg Q
@example((Poly([1, Fraction(1, 2), 0, 4]), Poly([Fraction(-3, 2)])))  # constant Q
def test_pseudo_rem_is_the_remainder(operands):
    # lc(Q)^(deg P - deg Q + 1) P - prem(P, Q) is a multiple of Q, and prem is
    # reduced.  poly_div runs over Z, so by Gauss's lemma Q divides it over Q
    # when the primitive part of Q with its denominators cleared divides it
    # with its own denominators cleared
    P, Q = operands
    rem = pseudo_rem(P, Q)
    assert rem.degree < Q.degree
    multiple, _ = clear_denominators(list((P.scale(Q.lead ** (P.degree - Q.degree + 1)) - rem).coeffs))
    divisor, _ = clear_denominators(list(Q.coeffs))
    content = gcd(*divisor)
    poly_div(Poly(multiple), Poly([c // content for c in divisor]))  # raises on a remainder


def test_chain_matches_determinant_definition():
    rng = random.Random(2024)
    checked = 0
    defective = 0
    for trial in range(250):
        style = trial % 3
        if style == 0:
            P = Poly([rng.choice([1, 2, -1])] + [rng.randint(-5, 5) for _ in range(rng.randint(2, 6))])
            Q = Poly([rng.choice([1, 2, -1])] + [rng.randint(-5, 5) for _ in range(rng.randint(0, P.degree - 1))])
        elif style == 1:
            roots = rng.sample(range(-4, 5), rng.randint(1, 3))
            P = Poly([rng.choice([1, 2])])
            for r in roots:
                for _ in range(rng.randint(1, 3)):
                    P = P * Poly([1, -r])
            if P.degree < 1:
                continue
            Q = P.derivative()
        else:
            P = Poly([1] + [0] * rng.randint(1, 5) + [rng.randint(-4, 4)])
            Q = P.derivative()
        if not Q or P.degree <= Q.degree:
            continue
        chain = subresultant_chain(P, Q)
        for k in range(Q.degree + 1):
            want = subresultant_det(P, Q, k)
            assert chain[k] == want, (P, Q, k)
            if want and want.degree < k:
                defective += 1
        checked += 1
    assert checked > 150
    assert defective > 20  # the sweep must actually exercise defective blocks


@st.composite
def _chain_operands(draw):
    nonzero_lead = lambda c: c[0] != 0
    q = draw(st.lists(_COEFF, min_size=1, max_size=4).filter(nonzero_lead))
    p = draw(st.lists(_COEFF, min_size=len(q) + 1, max_size=len(q) + 4).filter(nonzero_lead))
    return Poly(p), Poly(q)


@given(_chain_operands())
@example((Poly([1, 0, 0, 0, -1]), Poly([2, 0, 3])))  # a defective block
@example((Poly([Fraction(1, 2), 0, 0]), Poly([2, 1])))  # int leads over Q
@example((Poly([2, 0, 0]), Poly([1, Fraction(1, 2)])))  # int Bareiss pivots over Q
def test_chain_matches_determinant_definition_over_q(operands):
    # the list kernel over Z and Q alike, against the determinant route
    P, Q = operands
    chain = subresultant_chain(P, Q)
    assert len(chain) == Q.degree + 1
    for k in range(Q.degree + 1):
        assert chain[k] == subresultant_det(P, Q, k), (P, Q, k)


def test_chain_guards():
    with pytest.raises(MultdiscError, match="subresultant of the zero polynomial"):
        subresultant_chain(Poly(), Poly([1]))
    with pytest.raises(ValueError):
        subresultant_chain(Poly([1, 0]), Poly([1, 0]))


# (P, Q, k, error, message): bad index, degrees and zero inputs
_BAD_ARGUMENTS = [
    (Poly([1, 2, 3, 4]), Poly([3, 4, 2]), 5, MultdiscError, r"subresultant index 5 outside 0\.\.2"),
    (Poly([1, 2, 3, 4]), Poly([3, 4, 2]), 3, MultdiscError, r"index 3 outside"),  # k > q
    (Poly([1, 2, 3, 4]), Poly([3, 4, 2]), -1, MultdiscError, r"index -1 outside"),
    (Poly([1, 2, 3, 4]), Poly([1, 2, 3, 4]), 0, ValueError, "need deg P > deg Q"),  # p == q
    (Poly([1, 2, 3]), Poly([1, 2, 3]), 0, ValueError, "need deg P > deg Q"),
    (Poly([1, 2]), Poly([1, 2, 3]), 0, ValueError, "need deg P > deg Q"),  # p < q
    (Poly(), Poly([1]), 0, MultdiscError, "subresultant of the zero polynomial"),
    (Poly([1, 2]), Poly(), 0, MultdiscError, "subresultant of the zero polynomial"),
]


def test_subresultant_det_guards():
    for P, Q, k, error, message in _BAD_ARGUMENTS:
        with pytest.raises(error, match=message):
            subresultant_det(P, Q, k)


def test_k_equals_q_convention():
    P = Poly([1, 2, 3, 4, 5])
    Q = P.derivative()
    # p = q + 1, so S_q is Q itself
    assert subresultant_det(P, Q, Q.degree) == Q
    chain = subresultant_chain(P, Q)
    assert chain[Q.degree] == Q


def test_subresultant_yhz_op_routes_agree():
    rng = random.Random(3)
    for _ in range(25):
        spec_roots = rng.sample(range(-5, 6), rng.randint(1, 3))
        G = Poly([rng.choice([1, 2])])
        for r in spec_roots:
            for _ in range(rng.randint(1, 2)):
                G = G * Poly([1, -r])
        if G.degree < 1:
            continue
        dG = G.derivative()
        for k in range(G.degree):
            assert subresultant_chain(G, dG)[k] == subresultant_det(G, dG, k)
    G = Poly([1, 2, 3])
    with pytest.raises(MultdiscError, match=r"subresultant index 2 outside 0\.\.1"):
        subresultant_det(G, G.derivative(), 2)


def test_gcd_like_subresultant():
    # (x-1)^2 (x+2): the first subresultant has 1 as a root
    G = poly_from_roots(RootSpec(roots=(1, -2), mults=(2, 1), lead=1))
    s1 = subresultant_chain(G, G.derivative())[1]
    assert s1.degree == 1
    assert s1(1) == 0
    # squarefree cubic: nonzero resultant in degree 0
    H = poly_from_roots(RootSpec(roots=(1, 2, 5), mults=(1, 1, 1), lead=1))
    s0 = subresultant_chain(H, H.derivative())[0]
    assert s0.degree == 0 and s0.coeff(0) != 0


def test_resultant_and_psd_oracle_consistency():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 5)
        F = Poly([rng.choice([1, 2, -1])] + [rng.randint(-5, 5) for _ in range(n)])
        chain = subresultant_chain(F, F.derivative())
        for k in range(n):
            assert chain[k].coeff(k) == psd_oracle(F, k)
        assert resultant(F, F.derivative()) == psd_oracle(F, 0)


def _subresultant_cases():
    """(P, Q) with deg P > deg Q >= 0, int and symbolic."""
    rng = random.Random(29)
    for n in (3, 4):
        F = generic_poly(n)
        yield F, F.derivative()
    F = generic_poly(3)
    yield F, Poly([F.coeff(1), F.coeff(0)])  # a symbolic Q of degree 1
    for _ in range(8):
        P = Poly([random_sympoly(rng, 3, max_terms=2, max_exp=2) for _ in range(rng.randint(1, 4))])
        Q = Poly([random_sympoly(rng, 3, max_terms=2, max_exp=2) for _ in range(rng.randint(1, 3))])
        if P and Q and P.degree > Q.degree:
            yield P, Q
    rng = random.Random(31)
    for _ in range(20):
        P = random_poly(rng, max_deg=5)
        if P.degree < 1:
            continue
        Q = Poly([rng.choice([1, -2, 3])] + [rng.randint(-6, 6) for _ in range(rng.randint(0, P.degree - 1))])
        yield P, Q
    yield Poly([1, -2, 3]), Poly([2, -2])
    yield Poly([5, 0, 1, 4]), Poly([7])


def test_subresultant_det_matches_cofactor_dets():
    # every k in 0..q, so k = q's convention is checked too
    cases = 0
    for P, Q in _subresultant_cases():
        p, q = P.degree, Q.degree
        for k in range(q + 1):
            got = subresultant_det(P, Q, k)
            assert [got.coeff(j) for j in range(k, -1, -1)] == subresultant_oracle(P, Q, k, p, q), (P, Q, k)
        cases += 1
    assert cases > 20
