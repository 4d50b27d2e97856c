import random
import time
from fractions import Fraction
from math import log10

import pytest

from multdisc.combinat import partitions
from multdisc.discriminant import dmu
from multdisc.errors import MultdiscError
from multdisc.oracle import RootSpec, poly_from_roots, random_instance
from multdisc.sympoly import SymPoly
from multdisc import yhz
from multdisc.unipoly import Poly, generic_poly, parse_poly
from multdisc.yhz import (
    YHZ_WORK_CAP,
    _steps,
    measured_size,
    s_sequence,
    yhz_condition,
    yhz_count,
    yhz_degree,
    yhz_degree_lower_bound,
)

from helpers import random_poly, subresultant_oracle

# the published comparison rows for n = 8: mu -> (#, d_new, d)
TABLE_N8 = {
    (4, 4): (7, 12, 81),
    (5, 3): (8, 13, 81),
    (6, 2): (11, 14, 63),
    (7, 1): (16, 15, 33),
    (3, 3, 2): (3, 14, 75),
    (4, 2, 2): (4, 14, 75),
    (4, 3, 1): (5, 15, 75),
    (5, 2, 1): (7, 15, 75),
    (6, 1, 1): (11, 15, 45),
    (2, 2, 2, 2): (1, 14, 49),
    (3, 2, 2, 1): (2, 15, 49),
    (3, 3, 1, 1): (3, 15, 63),
    (4, 2, 1, 1): (4, 15, 63),
    (2, 2, 2, 1, 1): (1, 15, 45),
    (3, 2, 1, 1, 1): (2, 15, 45),
    (4, 1, 1, 1, 1): (4, 15, 45),
    (2, 2, 1, 1, 1, 1): (1, 15, 33),
    (3, 1, 1, 1, 1, 1): (2, 15, 33),
}

C1 = {
    (3, 5, 0, 1, 0): -36,
    (3, 4, 2, 0, 0): 12,
    (4, 4, 0, 0, 1): 576,
    (4, 3, 1, 1, 0): 48,
    (4, 2, 3, 0, 0): -32,
    (5, 2, 1, 0, 1): -3072,
    (5, 2, 0, 2, 0): 432,
    (5, 1, 2, 1, 0): 128,
    (6, 0, 2, 0, 1): 4096,
    (6, 0, 1, 2, 0): -1152,
}
C2 = {(1, 2, 0, 0, 0): -6, (2, 0, 1, 0, 0): 16}


def test_s_sequence_examples():
    assert s_sequence((3, 1)) == (2, 1, 0)
    assert s_sequence((4, 4)) == (6, 4, 2, 0)
    assert s_sequence((1, 1, 1, 1)) == (0,)


def test_count_examples():
    assert yhz_count((7, 1)) == 16
    assert yhz_count((2, 2, 2, 2)) == 1
    assert yhz_count((3, 1)) == 2


def test_degree_examples():
    assert yhz_degree((4, 4)) == 81
    assert yhz_degree((7, 1)) == 33
    assert yhz_degree((6, 1, 1)) == 45
    # stated for 2 <= m <= n - 2 parts only
    for mu in ((5,), (2, 1), (2, 1, 1, 1), (1, 1, 1, 1)):
        with pytest.raises(MultdiscError, match="the degree formula needs 2 <= m <= n - 2 parts"):
            yhz_degree(mu)


def test_degree_lower_bound_examples():
    assert yhz_degree_lower_bound(8, 1) == 15
    assert yhz_degree_lower_bound(8, 2) == 17
    assert yhz_degree_lower_bound(8, 4) == 81
    assert yhz_degree((4, 4)) == 81  # met with equality


def test_published_rows_n8():
    for mu, (count, d_new, d_yhz) in TABLE_N8.items():
        assert yhz_count(mu) == count
        assert 2 * 8 - mu[-1] == d_new
        assert yhz_degree(mu) == d_yhz


def test_degree_bound_exhaustive():
    for n in range(4, 13):
        for m in range(2, n - 1):
            for mu in partitions(n, m):
                assert yhz_degree(mu) >= yhz_degree_lower_bound(n, mu[1])


def test_quartic_condition_matches_published_pair():
    cond = yhz_condition(generic_poly(4), (3, 1))
    assert len(cond.equations) == 1
    assert cond.equations[0] == SymPoly(5, C1)
    assert cond.inequation == SymPoly(5, C2)
    assert measured_size(cond) == (2, 9)


def test_quartic_2_2_single_inequation():
    cond = yhz_condition(generic_poly(4), (2, 2))
    assert cond.equations == ()
    assert measured_size(cond) == (1, 9)


def test_symbolic_sizes_match_closed_forms_up_to_5():
    for n in (4, 5):
        F = generic_poly(n)
        for m in range(2, n - 1):
            for mu in partitions(n, m):
                cond = yhz_condition(F, mu)
                assert measured_size(cond) == (yhz_count(mu), yhz_degree(mu))


def test_condition_guards(monkeypatch):
    with pytest.raises(MultdiscError, match="the chain is undefined for mu_1 < 2"):
        yhz_condition(generic_poly(4), (1, 1, 1, 1))  # mu_1 < 2
    with pytest.raises(MultdiscError, match=r"need deg F = sum\(mu\) = 5"):
        yhz_condition(generic_poly(4), (3, 2))
    with pytest.raises(MultdiscError, match="symbolic chain capped at degree 7"):
        yhz_condition(generic_poly(8), (7, 1))

    # numeric F is capped at chain work n^6 D, checked before the chain:
    # (12, 12) has degree 3^12 and took 67 s
    def reached(G, p, ks):
        raise RuntimeError("chain reached")

    monkeypatch.setattr(yhz, "_steps", reached)
    with pytest.raises(MultdiscError, match=r"needs chain work n\^6 D = 101559956668416, over the cap of 20084909853888"):
        yhz_condition(Poly([1] + [0] * 23 + [-1]), (12, 12))
    # D = 6n where the closed form is not stated: (79, 1) took 25 s;
    # (60, 1) and (61) are the longest chains admitted
    for mu, work in (((79, 1), 80**6 * 465), ((61, 1), 62**6 * 357), ((62,), 62**6 * 6 * 62)):
        with pytest.raises(MultdiscError, match=rf"needs chain work n\^6 D = {work}, over the cap of {YHZ_WORK_CAP}"):
            yhz_condition(Poly([1] + [0] * (sum(mu) - 1) + [-1]), mu)
    for mu in ((60, 1), (61,)):
        with pytest.raises(RuntimeError, match="chain reached"):
            yhz_condition(Poly([1] + [0] * (sum(mu) - 1) + [-1]), mu)
    # every partition of n <= 22 is admitted, (11, 11) at exactly the cap
    assert yhz_degree((11, 11)) == 3**11 and 22**6 * 3**11 == YHZ_WORK_CAP
    for n in range(4, 23):
        F = Poly([1] + [0] * (n - 1) + [-1])
        for m in range(1, n + 1):
            for mu in partitions(n, m):
                if mu[0] >= 2:
                    with pytest.raises(RuntimeError, match="chain reached"):
                        yhz_condition(F, mu)


def test_numeric_refusal_past_the_int_str_limit():
    # n^6 D has 47,744 digits at (100000, 100000), over Python's 4300-digit
    # str limit: the refusal names the cap and the work's digit count in one
    # short line, and the closed form takes one pow per run of equal factors
    start = time.perf_counter()
    with pytest.raises(MultdiscError) as info:
        yhz.check_chain((100000, 100000), symbolic=False)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        f"yhz of (100000, 100000) needs chain work n^6 D = a number of 47744 digits, over the cap of {YHZ_WORK_CAP}")
    assert len(str(info.value)) < 300
    # 47,744 digits: log10(200000^6 3^100000) = 47743.93...
    assert int(6 * log10(200000) + 100000 * log10(3)) + 1 == 47744
    assert yhz_degree((100000, 100000)) == 3**100000


def test_numeric_truth_agrees_with_structure_and_discriminant():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.randint(4, 6)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        for nu in partitions(n, m):
            holds = yhz_condition(F, nu).is_satisfied()
            assert holds == (nu == spec.partition())
            assert holds == bool(dmu(F, nu).value)


def test_numeric_chain_specialises_symbolic_condition():
    # evaluating the symbolic condition polynomials equals the numeric run
    F = parse_poly("1,-1,-3,5,-2")
    cond_sym = yhz_condition(generic_poly(4), (3, 1))
    cond_num = yhz_condition(F, (3, 1))
    values = list(F.coeffs)
    assert [e.evaluate(values) for e in cond_sym.equations] == list(cond_num.equations)
    assert cond_sym.inequation.evaluate(values) == cond_num.inequation
    assert cond_num.is_satisfied()


def _step_cases():
    """(G, p): int, rational and symbolic G, at deg G = p and below it, zero G included."""
    rng = random.Random(18)
    for _ in range(12):
        G = random_poly(rng, max_deg=4)
        if G.degree >= 1:
            yield G, G.degree
            yield G, G.degree + rng.randint(1, 2)
    for roots, mults in (((1, -2), (3, 2)), ((0, 3), (2, 2)), ((2,), (4,))):  # defective blocks
        G = poly_from_roots(RootSpec(roots=roots, mults=mults, lead=2))
        yield G, G.degree
        yield G, G.degree + 1
    G = Poly([Fraction(1, 2), 0, Fraction(-3, 4), 5])
    yield G, 3
    yield G, 4
    for p in (1, 2, 4):
        yield Poly(), p
    for n in (3, 4):
        F = generic_poly(n)
        yield F, n
        yield F, n + 1
    F = generic_poly(3)
    yield Poly([F.coeff(2), F.coeff(1), F.coeff(0)]), 3  # a symbolic G below its formal degree


def test_steps_match_cofactor_oracle_at_formal_degrees():
    # every k in 0..p-1, so the zero rule, both deg G = p routes and k = p - 1 are checked
    for G, p in _step_cases():
        dG = G.derivative()
        for k, got in enumerate(_steps(G, p, range(p))):
            assert [got.coeff(j) for j in range(k, -1, -1)] == subresultant_oracle(G, dG, k, p, p - 1), (G, p, k)


def test_steps_specialise_at_a_collapsed_degree():
    # a_0 = 0 drops the point's degree below 3: the symbolic steps evaluated
    # there equal the numeric steps at the same formal degree
    values = [0, 1, -2, 3]
    ks = (0, 1, 2)
    sym = _steps(generic_poly(3), 3, ks)
    at = [Poly([c.evaluate(values) if isinstance(c, SymPoly) else c for c in S.coeffs]) for S in sym]
    assert at == _steps(Poly(values), 3, ks)
    assert at[2] == Poly(values).derivative() and not at[0] and not at[1]
