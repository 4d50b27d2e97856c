import random
import time
from fractions import Fraction
from math import log10, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import multdisc.discriminant as disc
from multdisc.discriminant import (
    classify,
    classify_report,
    dmu,
    dmu_degree,
    dmu_rows,
    psd_sequence,
)
from multdisc.errors import Anomaly, MultdiscError
from multdisc.combinat import expand_partition, multiset_permutations, partitions
from multdisc.linalg import wedge_dp
from multdisc.oracle import RootSpec, dmu_by_stacks, poly_from_roots, random_factored, random_instance
from multdisc.scalars import clear_denominators, normalize_scalar
from multdisc.subresultants import subresultant_det
from multdisc.suites import _translate, run_suite
from multdisc.sympoly import SymPoly, _unpack
from multdisc.unipoly import Poly, generic_poly, parse_poly
from multdisc.yhz import YHZ_WORK_CAP, yhz_condition, yhz_degree

from helpers import psd_oracle, root_product_dmu

C1_PRIME = {
    (1, 6, 0, 0, 0): -1,
    (2, 4, 1, 0, 0): 8,
    (3, 2, 2, 0, 0): -16,
    (3, 3, 0, 1, 0): -16,
    (4, 1, 1, 1, 0): 64,
    (5, 0, 0, 2, 0): -64,
}

F31 = parse_poly("1,-1,-3,5,-2")  # (x-1)^3 (x+2)
F22 = parse_poly("1,0,-2,0,1")  # (x^2-1)^2


def test_symbolic_quartic_is_the_known_condition():
    result = dmu(generic_poly(4), (3, 1))
    assert result.term_count == 4
    assert result.value == SymPoly(5, C1_PRIME)
    assert result.value.is_homogeneous()
    assert result.value.total_degree() == 7


def test_numeric_anchors_both_engines():
    # dmu (the Newton kernel on integers) and the per-stack reference
    for evaluate in (lambda F, mu: dmu(F, mu).value, dmu_by_stacks):
        assert evaluate(F31, (3, 1)) == -729
        assert evaluate(F31, (2, 2)) == 0
        assert evaluate(F22, (3, 1)) == 0
        assert evaluate(F22, (2, 2)) == 256


def test_engines_agree_on_random_instances():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(3, 7)
        spec = random_instance(rng.randrange(2**32), n, rng.randint(1, n))
        F = poly_from_roots(spec)
        nu = rng.choice(partitions(n, rng.randint(1, n)))
        assert dmu(F, nu).value == dmu_by_stacks(F, nu)


def test_symbolic_specialises_to_numeric():
    # the symbolic polynomial evaluated at integer points equals the
    # integer value: ties the two modes, and so the two kernels, together;
    # the symbolic value is also checked against the stack sum
    rng = random.Random(77)
    for n in (3, 4, 5):
        Fsym = generic_poly(n)
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                sym = dmu(Fsym, mu).value
                assert sym == dmu_by_stacks(Fsym, mu)
                for _ in range(3):
                    coeffs = [rng.choice([1, 2, -1, -3])] + [
                        rng.randint(-4, 4) for _ in range(n)
                    ]
                    num = dmu(Poly(coeffs), mu).value
                    assert sym.evaluate(coeffs) == num


def test_engine_stress_degenerate_inputs():
    # zero coefficients, big multiplicities, and wrong-candidate sums that
    # collapse to zero all exercise the pruning and scaling paths
    rng = random.Random(101)
    for trial in range(40):
        n = rng.randint(2, 8)
        if trial % 3 == 0:
            coeffs = [rng.choice([1, 2, -1])] + [
                rng.choice([0, 0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n)
            ]
            F = Poly(coeffs)
        else:
            m = rng.randint(1, n)
            F = poly_from_roots(random_instance(rng.randrange(2**32), n, m))
        mu = rng.choice(partitions(n, rng.randint(1, n)))
        assert dmu(F, mu).value == dmu_by_stacks(F, mu)
    # rational coefficients (denominator clearing), a 10-digit lead (the
    # lc powers on the remainder rows) and a zero constant term
    for trial in range(18):
        n = rng.randint(2, 6)
        spec = random_instance(rng.randrange(2**32), n, rng.randint(1, n))
        if trial % 3 == 0:
            F = Poly([Fraction(c, rng.randint(1, 9)) for c in poly_from_roots(spec).coeffs])
        elif trial % 3 == 1:
            lead = rng.choice((1, -1)) * rng.randint(10**9, 10**10 - 1)
            F = poly_from_roots(RootSpec(spec.roots, spec.mults, lead))
        else:
            F = Poly(list(poly_from_roots(spec).coeffs) + [0])
        # dmu clears denominators by factor; D_mu has degree 2n - nu_m
        _, factor = clear_denominators(list(F.coeffs))
        for nu in partitions(F.degree, rng.randint(1, F.degree)):
            scale = factor ** dmu_degree(F.degree, nu)
            assert dmu(F, nu).value == scale * dmu_by_stacks(F, nu)


def _cross_check_inputs(rng, n):
    """Degree-n inputs for the numeric kernels: root-built with each kind
    of lead, a zero constant term, sparse, 100-digit and rational."""
    spec = random_instance(rng.randrange(2**32), n, rng.randint(1, n))
    ten_digits = rng.choice((1, -1)) * rng.randint(10**9, 10**10 - 1)
    for lead in (1, -1, 2, -2, ten_digits):
        yield poly_from_roots(RootSpec(spec.roots, spec.mults, lead))
    yield Poly(list(poly_from_roots(random_instance(rng.randrange(2**32), n - 1, 1)).coeffs) + [0])
    yield Poly([rng.choice((1, -2))] + [rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)])
    yield Poly([rng.choice((1, -1)) * rng.randint(10**99, 10**100 - 1) for _ in range(n + 1)])
    yield Poly([Fraction(c, rng.randint(1, 9)) for c in poly_from_roots(spec).coeffs])


def _both_kernels(F, nu):
    """E(c) from linalg.wedge_dp and from the Newton kernel, on the same columns."""
    values = sorted(set(nu))
    c = [v * nu.count(v) for v in values]
    g, cols = disc._scaled_columns(F, values)
    return wedge_dp(cols, c).get((1 << F.degree) - 1, 0), disc._newton_traces(g, cols, c)


def test_wedge_dp_matches_newton_traces():
    # the two kernels against each other on every partition, and dmu
    # against the per-stack sum, which shares none of their setup
    rng = random.Random(2024)
    zeros = 0
    for n in range(2, 9):
        for F in _cross_check_inputs(rng, n):
            ints, factor = clear_denominators(list(F.coeffs))
            for m in range(1, n + 1):
                for nu in partitions(n, m):
                    wedge, newton = _both_kernels(Poly(ints), nu)
                    assert wedge == newton
                    value = dmu(F, nu).value
                    zeros += not value
                    if n <= 6:
                        assert value == factor ** dmu_degree(n, nu) * dmu_by_stacks(F, nu)
    assert zeros  # wrong candidates of the root-built inputs vanish
    # mu = (n,) gives lc^n; mu = (1,)*n gives lc^(n-1) prod F'(root)
    F = poly_from_roots(RootSpec((3, -1, 4), (1, 1, 1), 2))
    assert dmu(F, (3,)).value == 2**3
    assert dmu(F, (1, 1, 1)).value == 2**2 * prod(F.derivative()(r) for r in (3, -1, 4))


def test_dmu_rows_first_example_block():
    F = generic_poly(4)
    nv = 5
    a = [SymPoly.variable(nv, i) for i in range(nv)]
    rows = dmu_rows(4, (3, 1), (3, 3, 3, 1), F)
    assert len(rows) == 7
    assert rows[0] == F.shift_mul(2)
    assert rows[2] == F
    # x^3 F'''/3! = 4 a0 x^4 + a1 x^3
    assert rows[3].coeffs == (4 * a[0], a[1], 0, 0, 0)
    # last row: x^0 F'/1!
    assert rows[6].coeffs == (4 * a[0], 3 * a[1], 2 * a[2], a[3])


def test_dmu_rows_reordered_assignment():
    F = generic_poly(4)
    nv = 5
    a = [SymPoly.variable(nv, i) for i in range(nv)]
    rows = dmu_rows(4, (3, 1), (1, 3, 3, 3), F)
    # the first-derivative row lands in the x^3 slot, first among derivative rows
    assert rows[3].coeffs == (4 * a[0], 3 * a[1], 2 * a[2], a[3], 0, 0, 0)


def test_dmu_rows_degree_bound():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = rng.randint(1, n)
        mu = rng.choice(partitions(n, m))
        F = poly_from_roots(random_instance(rng.randrange(2**32), n, m))
        sigmas = list(multiset_permutations(expand_partition(mu)))
        sigma = rng.choice(sigmas)
        rows = dmu_rows(n, mu, sigma, F)
        assert len(rows) == 2 * n - mu[-1]
        assert all(r.degree <= 2 * n - mu[-1] - 1 for r in rows)


def test_dmu_rows_guards():
    F = generic_poly(4)
    with pytest.raises(MultdiscError, match=r"need deg F = sum\(mu\) = 5"):
        dmu_rows(5, (3, 1), (3, 3, 3, 1), F)
    with pytest.raises(ValueError):
        dmu_rows(4, (3, 1), (3, 3, 1, 1), F)


def test_dmu_degree():
    assert dmu_degree(8, (4, 4)) == 12
    assert dmu_degree(8, (7, 1)) == 15
    assert dmu_degree(4, (3, 1)) == 7
    with pytest.raises(MultdiscError, match=r"\(3, 1\) is not a partition of 5"):
        dmu_degree(5, (3, 1))


def test_dmu_guards():
    with pytest.raises(MultdiscError, match="dmu of the zero polynomial"):
        dmu(Poly(), (1,))
    with pytest.raises(MultdiscError, match=r"\(3, 2\) does not partition deg F = 4"):
        dmu(F31, (3, 2))
    with pytest.raises(MultdiscError, match="symbolic dmu capped at degree 7"):
        dmu(generic_poly(8), (7, 1))
    result = dmu(generic_poly(7), (6, 1))
    assert len(result.value.terms) == 37
    assert result.value.is_homogeneous()
    assert result.value.total_degree() == 13
    # a0 x^3 has no full-rank stack: the value is the zero of the ring
    zero = dmu(Poly([SymPoly.variable(4, 0), 0, 0, 0]), (2, 1)).value
    assert isinstance(zero, SymPoly) and not zero


def test_symbolic_dmu_takes_the_generic_family_only():
    a0, a1, a2, a3 = generic_poly(3).coeffs
    for F in (
        Poly([a0, a1, a2, 2 * a3]),
        Poly([a0, a1 + a2, a2, a3]),
        Poly([a0 * a0, a1, a2, a3]),
        Poly([a1, a0, a2, a3]),
        Poly([a0, 1, a2, a3]),
        Poly([a0, Fraction(1, 2), a2, a3]),
        Poly([1, a1, a2, a3]),
        Poly(generic_poly(4).coeffs[:4]),  # a_0..a_3 of five variables
    ):
        with pytest.raises(MultdiscError, match=r"symbolic dmu takes generic_poly\(n\), with any of a_1..a_n set to 0"):
            dmu(F, (2, 1))
    # a_i set to 0 is in the family: the value is the generic one there
    rng = random.Random(36)
    for zeros in ((1,), (3,), (1, 2), (1, 2, 3)):
        F = Poly([0 if i in zeros else a for i, a in enumerate((a0, a1, a2, a3))])
        for mu in ((3,), (2, 1), (1, 1, 1)):
            value, generic = dmu(F, mu).value, dmu(generic_poly(3), mu).value
            for _ in range(3):
                point = [0 if i in zeros else rng.randint(-9, 9) for i in range(4)]
                assert value.evaluate(point) == generic.evaluate(point)


def test_a0_divides_dmu_once_and_yhz_far_more():
    def a0_power(P, n):
        return min(_unpack(n + 1, key)[0] for key in P.terms)

    for n in range(1, 7):
        F = generic_poly(n)
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                assert a0_power(dmu(F, mu).value, n) == (n if m == 1 else 1), mu
    # past SYMBOLIC_CAP, as the q-adic valuation of D_mu at a_0 = q
    q, rng = 1_000_003, random.Random(7)
    for n in range(4, 12):
        F = Poly([q] + [rng.randint(-9, 9) for _ in range(n)])
        for m in range(2, n - 1):
            for mu in partitions(n, m):
                value = dmu(F, mu).value
                assert value % q == 0 and value % q**2, (F, mu)
    # measured, not proven: divided by its a_0 power, the largest yhz
    # polynomial has degree d_yhz (2m - 2)/(2m - 1), on all 14 table rows
    reduced = {}
    for n in range(4, 7):
        F = generic_poly(n)
        for m in range(2, n - 1):
            for mu in partitions(n, m):
                cond = yhz_condition(F, mu)
                reduced[mu] = max(P.total_degree() - a0_power(P, n) for P in (*cond.equations, cond.inequation) if P)
                assert reduced[mu] * (2 * m - 1) == yhz_degree(mu) * (2 * m - 2), mu
    assert len(reduced) == 14
    # the one tie of the reduced sizes: D_mu / a_0 against reduced yhz
    assert reduced[(3, 1)] == dmu_degree(4, (3, 1)) - 1 == 6


def test_symbolic_homogeneity_small_degrees():
    for n in (4, 5):
        F = generic_poly(n)
        for m in range(2, n - 1):
            for mu in partitions(n, m):
                value = dmu(F, mu).value
                assert value
                assert value.is_homogeneous()
                assert value.total_degree() == dmu_degree(n, mu)


def test_numeric_scaling_homogeneity():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(4, 7)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        mu = spec.partition()
        s = rng.choice((2, -3, 5))
        assert dmu(F.scale(s), mu).value == s ** dmu_degree(n, mu) * dmu(F, mu).value


def test_translation_preserves_zero_pattern():
    rng = random.Random(15)
    for _ in range(8):
        n = rng.randint(4, 6)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        t = rng.randint(-3, 3)
        Ft = _translate(F, t)
        for nu in partitions(n, m):
            assert bool(dmu(F, nu).value) == bool(dmu(Ft, nu).value)


def test_all_ones_partition_matches_resultant():
    rng = random.Random(33)
    for _ in range(12):
        n = rng.randint(2, 6)
        roots = tuple(rng.sample(range(-9, 10), n))
        F = poly_from_roots(RootSpec(roots=roots, mults=(1,) * n, lead=rng.choice((1, 2, -1))))
        lhs = dmu(F, (1,) * n).value
        rhs = subresultant_det(F, F.derivative(), 0).coeff(0)
        assert abs(lhs) == abs(rhs)


def test_rational_coefficients_are_cleared():
    F = parse_poly("1/2,-1/2,-3/2,5/2,-1")  # F31 scaled by 1/2
    assert classify(F) == (3, 1)
    # homogeneity: value is for the denominator-cleared polynomial (factor 2)
    assert dmu(F, (3, 1)).value == dmu(F31, (3, 1)).value


def test_psd_examples_and_oracle():
    rep = psd_sequence(F22)
    assert rep.psd[0] == 0 and rep.psd[1] == 0 and rep.psd[2] != 0
    assert rep.ndr == 2
    quartic = parse_poly("1,0,0,0,1")  # x^4 + 1, squarefree
    rep2 = psd_sequence(quartic)
    assert rep2.psd[0] != 0 and rep2.ndr == 4
    rep3 = psd_sequence(parse_poly("1,0,0"))  # x^2
    assert rep3.psd[0] == 0 and rep3.psd[1] != 0 and rep3.ndr == 1
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 6)
        m = rng.randint(1, n)
        F = poly_from_roots(random_instance(rng.randrange(2**32), n, m))
        rep = psd_sequence(F)
        assert rep.ndr == m
        for k in range(n):
            assert rep.psd[k] == psd_oracle(F, k)


def test_psd_guards():
    with pytest.raises(MultdiscError, match="psd sequence of the zero polynomial"):
        psd_sequence(Poly())
    with pytest.raises(MultdiscError, match="psd sequence needs degree >= 1"):
        psd_sequence(Poly([5]))


def test_classify_examples():
    assert classify(F31) == (3, 1)
    assert classify(F22) == (2, 2)
    assert classify(parse_poly("1,0,0,0,0")) == (4,)
    assert classify(parse_poly("1,1")) == (1,)
    assert classify(parse_poly("1,0,-1")) == (1, 1)
    assert classify(parse_poly("2,-4,2")) == (2,)  # 2 (x-1)^2


def test_classify_trivial_ndr_branch():
    # ndr = n - 1 forces (2, 1, ..., 1) without any discriminant evaluation
    F = poly_from_roots(RootSpec(roots=(0, 3, 5, -2), mults=(2, 1, 1, 1), lead=1))
    report = classify_report(F)
    assert report.multiplicity == (2, 1, 1, 1)
    assert report.certificates == ()
    # a single candidate at a degree above the recursion limit
    assert classify(Poly([1] + [0] * 1499 + [-1])) == (1,) * 1500
    assert classify(Poly([1] + [0] * 1500)) == (1500,)


def test_classify_report_certificates():
    report = classify_report(F31)
    assert report.multiplicity == (3, 1)
    assert report.certificates == (((3, 1), -729), ((2, 2), 0))


def test_classify_completeness():
    rng = random.Random(27)
    for _ in range(10):
        n = rng.randint(4, 8)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        for nu in partitions(n, m):
            value = dmu(F, nu).value
            assert bool(value) == (nu == spec.partition())


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 3),
    st.one_of(st.just(1), st.integers(2, 10**6)),
)
@example(seed=4, n=8, digits=100, den=999983)  # (3, 3, 1, 1), 400-digit coefficients
def test_classify_report_on_factored_inputs(seed, n, digits, den):
    # irrational and complex roots, some inputs over Q: the structure is the
    # built one, and the one nonzero certificate is dmu's value
    F, structure = random_factored(seed, n, digits)
    F = Poly([normalize_scalar(Fraction(c, den)) for c in F.coeffs])
    report = classify_report(F)
    assert report.multiplicity == structure
    # the psd counts the distinct roots apart from classify's gcd
    assert psd_sequence(F).ndr == len(structure)
    for nu, value in report.certificates:
        assert value == (dmu(F, nu).value if nu == structure else 0)
    assert not report.certificates or dict(report.certificates)[structure]


def _factored_input(seed, n, digits, squarefree):
    """random_factored's F, or a product of its squarefree factors of degree 1 and 2."""
    if not squarefree:
        return random_factored(seed, n, digits)[0]
    F, rng = Poly([1]), random.Random(seed)
    while F.degree < n:
        factor, structure = random_factored(rng.randrange(2**32), min(rng.randint(1, 2), n - F.degree), digits)
        if set(structure) == {1}:
            F = F * factor
    return F


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.sampled_from((1, 3, 100)), st.booleans())
@example(seed=3, n=10, digits=100, squarefree=True)
def test_gcd_degree_mod_p_bounds_the_chain(seed, n, digits, squarefree):
    # the image's gcd degree bounds the chain's, and classify's m is the psd's
    F = _factored_input(seed, n, digits, squarefree)
    if seed % 3 == 0:
        F = Poly([normalize_scalar(Fraction(c, 999983)) for c in F.coeffs])
    Fz = Poly(clear_denominators(list(F.coeffs))[0])
    bound = disc._gcd_degree_mod_p(Fz)
    assert bound is None or bound >= disc._gcd(Fz, Fz.derivative()).degree
    assert len(classify(F)) == psd_sequence(F).ndr


def test_gcd_degree_mod_p_is_the_first_nonzero_psd_mod_p():
    # the psd of (F, F') mod p, read off the exact chain, is the reference;
    # sparse inputs and coefficients of +-p make remainders drop several degrees
    p, rng = disc.GCD_PRIME, random.Random(28)
    for _ in range(300):
        n = rng.randint(1, 9)
        F = Poly([rng.choice((1, -2, 3))] + [rng.choice((0, 0, 0, 1, -1, 2, p, -p)) for _ in range(n)])
        psd = psd_sequence(F).psd
        assert disc._gcd_degree_mod_p(F) == next(k for k, v in enumerate(psd) if v % p)


def test_the_chain_decides_when_the_image_cannot():
    # x^2 - p x = x (x - p) is x^2 mod p; p x^2 + x - 1 loses its lead mod p
    p = disc.GCD_PRIME
    assert disc._gcd_degree_mod_p(Poly([1, -p, 0])) == 1
    assert disc._gcd_degree_mod_p(Poly([p, 1, -1])) is None
    assert classify(Poly([1, -p, 0])) == (1, 1)
    assert classify(Poly([p, 1, -1])) == (1, 1)


def test_squarefree_input_takes_no_chain(monkeypatch):
    F = poly_from_roots(RootSpec(roots=tuple(range(-12, 12)), mults=(1,) * 24, lead=3))
    assert disc._gcd_degree_mod_p(F) == 0

    def no_chain(P, Q):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(disc, "_gcd", no_chain)
    assert classify_report(F) == disc.ClassifyReport((1,) * 24, ())


def test_classify_high_degree_closed_form():
    # (k, k-1, ..., 1) at n = 21, 28, 45, at n = 21 with roots of up to 100
    # digits (coefficients of about 2,100), and (2, 2, 1^56) at n = 60, a
    # large Yun part and certificate resultant: the one nonzero certificate
    # is lc^(n - 1) prod_j T_(m_j)(r_j)^(m_j), computed from the known roots,
    # and equals the root product of helpers.root_product_dmu
    rng = random.Random(45)
    shapes = [(tuple(range(k, 0, -1)), digits) for k, digits in ((6, 1), (7, 1), (9, 1), (6, 100))]
    for mults, digits in shapes + [((2, 2) + (1,) * 56, 3)]:
        k, n = len(mults), sum(mults)
        if digits < 100:
            roots = rng.sample(range(1 - 10**digits, 10**digits), k)
        else:
            roots = [rng.randrange(1 - 10**digits, 10**digits) for _ in range(k)]
        spec = RootSpec(roots=tuple(roots), mults=mults, lead=rng.choice((-2, 3)))
        F = poly_from_roots(spec)
        report = classify_report(F)
        assert report.multiplicity == mults
        expected = spec.lead ** (n - 1) * prod(
            F.taylor_derivative(mult)(root) ** mult for root, mult in zip(spec.roots, mults)
        )
        assert [(nu, v) for nu, v in report.certificates if v] == [(mults, expected)]
        # and by the root product, which shares no code with classify
        assert expected == root_product_dmu(spec.lead, spec.roots, mults)
        assert [nu for nu, _ in report.certificates] == partitions(n, k)


def test_classify_random_shapes_match_the_root_product():
    # random compositions of n = 10..40 into m parts, 2 <= m <= n - 2 so that
    # there are at least two candidates, on distinct integer roots: the one
    # nonzero certificate is helpers.root_product_dmu's
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(10, 40)
        m = rng.randint(2, n - 2)
        cuts = sorted(rng.sample(range(1, n), m - 1))
        mults = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        roots, lead = tuple(rng.sample(range(-99, 100), m)), rng.choice((-3, -1, 1, 2))
        report = classify_report(poly_from_roots(RootSpec(roots=roots, mults=mults, lead=lead)))
        mu = tuple(sorted(mults, reverse=True))
        assert report.multiplicity == mu
        assert [nu for nu, _ in report.certificates] == partitions(n, m)
        assert [(nu, v) for nu, v in report.certificates if v] == [(mu, root_product_dmu(lead, roots, mults))]


def test_root_product_oracle_matches_dmu():
    # the oracle of test_classify_high_degree_closed_form against the Newton
    # kernel: one integer-root instance for each of the 95 partitions of n = 2..9
    rng = random.Random(95)
    checked = 0
    for n in range(2, 10):
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                roots = tuple(rng.sample(range(-9, 10), m))
                lead = rng.choice((-2, -1, 1, 3))
                F = poly_from_roots(RootSpec(roots=roots, mults=mu, lead=lead))
                assert dmu(F, mu).value == root_product_dmu(lead, roots, mu), (mu, roots)
                checked += 1
    assert checked == 95


def test_certificates_suite():
    # classify's certificates against dmu on every candidate, integer,
    # irrational and complex roots, integer and rational coefficients
    result = run_suite("certificates", 60, 7)
    assert result.ok, result.failures[:3]
    assert result.passed == 60


@pytest.mark.parametrize("suite", ["lemma1", "roundtrip", "scaling", "yhz-agree"])
def test_seeded_suites_pass(suite):
    # the lemma-1 root side, classify, the Newton kernel's homogeneity and
    # the yhz condition (one remainder sequence per chain step) against the structure
    result = run_suite(suite, 30, 11)
    assert result.ok, result.failures[:3]
    assert result.passed == result.trials == 30


def test_dmu_newton_cap(monkeypatch):
    # the matrix-vector work prod_v (c_v + 1) n^3 is counted from mu before
    # any arithmetic: (6,5,4,3,2,1,1) needs 80,498,880, over the cap
    def reached(F, values):
        raise RuntimeError("columns built")

    monkeypatch.setattr(disc, "_scaled_columns", reached)
    F = Poly([1] + [0] * 21 + [-1])
    with pytest.raises(MultdiscError, match=r"needs prod_v \(c_v \+ 1\) n\^3 = 80498880, over the cap of 50000000"):
        dmu(F, (6, 5, 4, 3, 2, 1, 1))
    # the largest partition of n = 21, at 46,675,440, is admitted
    with pytest.raises(RuntimeError, match="columns built"):
        dmu(Poly([1] + [0] * 20 + [-1]), (6, 5, 4, 3, 2, 1))
    # 1^180 has only 16,471 convolution terms but took 104 s
    for n in (84, 180):
        with pytest.raises(MultdiscError, match=r"needs prod_v \(c_v \+ 1\) n\^3 = \d+, over the cap of 50000000"):
            dmu(Poly([1] + [0] * (n - 1) + [-1]), (1,) * n)
    with pytest.raises(RuntimeError, match="columns built"):
        dmu(Poly([1] + [0] * 82 + [-1]), (1,) * 83)
    # every partition of n <= 21 is admitted
    for n in range(1, 22):
        F = Poly([1] + [0] * (n - 1) + [-1])
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                with pytest.raises(RuntimeError, match="columns built"):
                    dmu(F, mu)


def test_dmu_refusal_past_the_int_str_limit():
    # (2100, ..., 1) at n = 2,206,050: prod_v (c_v + 1) n^3 has 6,090 digits,
    # over Python's 4300-digit str limit, and mu has 2,100 parts; the
    # refusal names the cap, mu's first parts and both sizes in one short line
    n = 2100 * 2101 // 2
    F = Poly([1] + [0] * (n - 1) + [1])
    start = time.perf_counter()
    with pytest.raises(MultdiscError) as info:
        dmu(F, tuple(range(2100, 0, -1)))
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        "dmu of (2100, 2099, 2098, 2097, 2096, ..., 2100 parts) needs prod_v (c_v + 1) n^3"
        " = a number of 6090 digits, over the cap of 50000000")
    # 6,090 digits: log10(2101! n^3) = 6089.5...
    assert int(sum(log10(k) for k in range(2, 2102)) + 3 * log10(n)) + 1 == 6090


def test_work_caps_bound_terms_and_degree():
    # pure arithmetic over every partition of n <= 40: each work cap refuses
    # every partition over 2,000,000 Newton convolution terms, or over
    # closed-form yhz degree 3^11, before any arithmetic
    over_terms = over_degree = 0
    for n in range(1, 41):
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                c = [v * mu.count(v) for v in set(mu)]
                if prod((ck + 1) * (ck + 2) // 2 for ck in c) > 2_000_000:
                    over_terms += 1
                    assert prod(ck + 1 for ck in c) * n**3 > disc.NEWTON_WORK_CAP, mu
                if 2 <= m <= n - 2 and (degree := yhz_degree(mu)) > 3**11:
                    over_degree += 1
                    assert n**6 * degree > YHZ_WORK_CAP, mu
    assert over_terms and over_degree


def test_classify_candidate_cap():
    # (x-1)^2 ... (x-50)^2: p(100, 50) = 204,226 candidates, over the cap;
    # the count is taken before any candidate is listed
    F = Poly([1])
    for r in range(1, 51):
        F = F * Poly([1, -2 * r, r * r])
    with pytest.raises(MultdiscError, match="204226 candidate structures"):
        classify_report(F)


def test_ambiguity_aborts_loudly(monkeypatch):
    F42 = poly_from_roots(RootSpec(roots=(1, -2), mults=(4, 2), lead=1))
    assert classify(F42) == (4, 2)
    real = disc._certify
    # a distinct-root count that disagrees with Yun's decomposition
    for ndr in (3, 4):
        monkeypatch.setattr(disc, "_certify", lambda F, g, m: real(F, g, ndr))
        with pytest.raises(Anomaly, match=rf"gcd\(F, F'\) leaves {ndr} distinct roots, Yun's decomposition 2"):
            classify_report(F42)
    monkeypatch.setattr(disc, "_certify", real)
    # a certificate that is 0: T_i vanishing at the roots of f_i
    monkeypatch.setattr(disc, "_prem", lambda r, q: [])
    with pytest.raises(Anomaly, match=r"certificate of \(4, 2\) is 0"):
        classify_report(F42)
    monkeypatch.undo()
    # a certificate that is not an integer: x^3 (2x^2 + 1) with the
    # resultant for the simple roots off by one
    F = Poly([2, 0, 1, 0, 0, 0])
    assert classify(F) == (3, 1, 1)
    chain = disc.subresultant_chain
    off = lambda P, Q: [chain(P, Q)[0] + Poly([1])] if P.coeffs == (2, 0, 1) else chain(P, Q)
    monkeypatch.setattr(disc, "subresultant_chain", off)
    with pytest.raises(Anomaly, match="not an integer"):
        classify_report(F)


def test_classify_guards():
    with pytest.raises(MultdiscError, match="cannot classify the zero polynomial"):
        classify(Poly())
    with pytest.raises(MultdiscError, match="cannot classify a constant"):
        classify(Poly([7]))
