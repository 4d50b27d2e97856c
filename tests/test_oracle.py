import random
from fractions import Fraction

import pytest

from multdisc.combinat import partitions
from multdisc.discriminant import dmu
from multdisc.errors import MultdiscError
from multdisc.oracle import (
    RootSpec,
    check_det_per_identity,
    check_dp_ratio,
    dbar_mu,
    poly_from_roots,
    random_instance,
)
from multdisc.sympoly import SymPoly
from multdisc.unipoly import Poly, parse_poly

from helpers import identity


def test_poly_from_roots_examples():
    spec = RootSpec(roots=(1, -2), mults=(3, 1), lead=1)
    assert poly_from_roots(spec) == parse_poly("1,-1,-3,5,-2")
    spec2 = RootSpec(roots=(1, -1), mults=(2, 2), lead=1)
    assert poly_from_roots(spec2) == parse_poly("1,0,-2,0,1")
    assert poly_from_roots(RootSpec(roots=(Fraction(1, 2),), mults=(1,), lead=2)) == Poly([2, -1])


def test_poly_from_roots_guards():
    with pytest.raises(MultdiscError, match="root 5 listed twice"):
        poly_from_roots(RootSpec(roots=(5, 5), mults=(1, 1), lead=1))
    with pytest.raises(MultdiscError, match="leading coefficient must be nonzero"):
        poly_from_roots(RootSpec(roots=(1,), mults=(1,), lead=0))
    with pytest.raises(MultdiscError, match="roots and multiplicities differ in length"):
        poly_from_roots(RootSpec(roots=(1, 2), mults=(1,), lead=1))


def test_dbar_anchor():
    spec = RootSpec(roots=(1, -2), mults=(3, 1), lead=1)
    F = poly_from_roots(spec)
    alphas = spec.flattened_roots()
    assert alphas == (1, 1, 1, -2)
    assert dbar_mu(F, alphas, (3, 1)) == -729
    assert dbar_mu(F, alphas, (2, 2)) == 0


def test_dbar_squarefree_is_derivative_product():
    roots = (1, 2, 3)
    F = poly_from_roots(RootSpec(roots=roots, mults=(1, 1, 1), lead=1))
    expected = 1
    for r in roots:
        expected *= F.derivative()(r)
    assert dbar_mu(F, roots, (1, 1, 1)) == expected


def closed_form_31(lead, a):
    # the quartic (3,1) root-side value in fully expanded form
    return (
        -(lead**4)
        * (a[0] + a[1] - a[2] - a[3]) ** 2
        * (a[0] + a[2] - a[1] - a[3]) ** 2
        * (a[0] + a[3] - a[1] - a[2]) ** 2
    )


def test_dbar_closed_form_quartic():
    rng = random.Random(99)
    for _ in range(20):
        alphas = tuple(rng.randint(-6, 6) for _ in range(4))
        lead = rng.choice((1, 2, -1, 3))
        F = Poly([lead])
        for a in alphas:
            F = F * Poly([1, -a])
        assert dbar_mu(F, alphas, (3, 1)) == closed_form_31(lead, alphas)


def test_dbar_column_order_invariance():
    spec = RootSpec(roots=(2, -1, 5), mults=(2, 2, 1), lead=1)
    F = poly_from_roots(spec)
    alphas = list(spec.flattened_roots())
    rng = random.Random(1)
    base = dbar_mu(F, tuple(alphas), (2, 2, 1))
    for _ in range(5):
        rng.shuffle(alphas)
        assert dbar_mu(F, tuple(alphas), (2, 2, 1)) == base


def test_dbar_guards():
    F = parse_poly("1,-1,-3,5,-2")
    with pytest.raises(MultdiscError, match="3 is not a root"):
        dbar_mu(F, (1, 1, 1, 3), (3, 1))
    with pytest.raises(MultdiscError, match=r"need deg F = sum\(mu\) = len\(alphas\)"):
        dbar_mu(F, (1, 1, 1), (3, 1))


def test_dbar_agrees_with_dmu_scaled():
    rng = random.Random(14)
    # above degree 8 the per-stack sum (dmu_by_stacks) is too slow to be
    # the reference, so this root-side identity is the numeric engine's
    # reference there, up to the permanent cap of degree 14
    for n in [rng.randint(4, 8) for _ in range(15)] + [9, 9, 10, 10, 11, 11, 12, 13, 14]:
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        alphas = spec.flattened_roots()
        for nu in partitions(n, m):
            root_side = dbar_mu(F, alphas, nu)
            coeff_side = dmu(F, nu).value
            assert coeff_side == spec.lead ** (n - nu[-1]) * root_side


def test_det_per_identity_paper_instance():
    nv = 8
    A = [[SymPoly.variable(nv, 0), SymPoly.variable(nv, 1)],
         [SymPoly.variable(nv, 2), SymPoly.variable(nv, 3)]]
    B = [[SymPoly.variable(nv, 4), SymPoly.variable(nv, 5)],
         [SymPoly.variable(nv, 6), SymPoly.variable(nv, 7)]]
    assert check_det_per_identity(A, B)


def test_det_per_identity_random_and_identity():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        B = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        assert check_det_per_identity(A, B)
    eye = identity(3)
    B = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
    assert check_det_per_identity(eye, B)
    with pytest.raises(MultdiscError, match="matrices must have equal shapes"):
        check_det_per_identity(eye, identity(2))


def test_dp_ratio_paper_cubic():
    F = poly_from_roots(RootSpec(roots=(1, 2, 3), mults=(1, 1, 1), lead=1))
    G = [F.taylor_derivative(i).shift_mul(2) for i in (1, 2, 3)]
    assert check_dp_ratio(F, (1, 2, 3), G)


def test_dp_ratio_singular_stack():
    F = poly_from_roots(RootSpec(roots=(0, 2, -3), mults=(1, 1, 1), lead=1))
    # multiples of F are dependent on the F-block and vanish at the roots
    G = [F.shift_mul(1), F, F.shift_mul(1) + F]
    assert check_dp_ratio(F, (0, 2, -3), G)  # both sides vanish


def test_dp_ratio_random():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 5)
        roots = tuple(rng.sample(range(-8, 9), n))
        F = poly_from_roots(RootSpec(roots=roots, mults=(1,) * n, lead=rng.choice((1, 2, -1))))
        G = [
            Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 2 * n - 1))])
            for _ in range(n)
        ]
        assert check_dp_ratio(F, roots, G)


def test_dp_ratio_guards():
    F = poly_from_roots(RootSpec(roots=(1, 2), mults=(1, 1), lead=1))
    with pytest.raises(MultdiscError, match="roots must be pairwise distinct"):
        check_dp_ratio(F, (1, 1), [Poly([1]), Poly([1])])
    with pytest.raises(MultdiscError, match="stacked polynomial degree exceeds 2n - 2"):
        check_dp_ratio(F, (1, 2), [Poly([1, 0, 0, 0]), Poly([1])])
    with pytest.raises(MultdiscError, match="need exactly 2 stacked polynomials"):
        check_dp_ratio(F, (1, 2), [Poly([1])])


def test_random_instance_contracts():
    assert random_instance(42, 8, 3) == random_instance(42, 8, 3)
    spec = random_instance(1, 4, 2)
    assert len(spec.roots) == 2 and len(set(spec.roots)) == 2
    assert sum(spec.mults) == 4
    assert spec.lead != 0
    with pytest.raises(MultdiscError, match="no root structure with 5 distinct roots for degree 4"):
        random_instance(5, 4, 5)


def test_random_instance_partition_sorted():
    for seed in range(10):
        spec = random_instance(seed, 9, 3)
        assert spec.partition() == tuple(sorted(spec.mults, reverse=True))
        assert sum(spec.mults) == 9
