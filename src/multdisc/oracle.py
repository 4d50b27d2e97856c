"""Ground truth from explicit roots, and the identity checkers.

Polynomials built from prescribed roots have known multiplicity structure,
which makes them the reference against which the coefficient-side
discriminant is validated.  The root-side discriminant is the permanent of
the scaled derivative values at the roots divided by the repetition
constant of the expanded tuple; the two sides are related by
D_mu = lead^(n - mu_m) * Dbar_mu.

dmu_by_stacks is the coefficient-side reference: the defining sum of one
stack determinant per rearrangement, which both D_mu kernels must
reproduce.

Identity checkers for the two supporting facts (the det/per sum over row
permutations, and the coefficient-stack determinant as a ratio of root
matrices) compute both sides independently and compare exactly.
"""

import random
from dataclasses import dataclass
from itertools import permutations
from math import gcd, isqrt

from .combinat import expand_partition, multiset_permutations, partitions, repetition_constant
from .discriminant import dmu_rows
from .errors import MultdiscError
from .linalg import det, dp, hadamard, permanent, row_permute
from .scalars import exact_div
from .unipoly import Poly


@dataclass(frozen=True)
class RootSpec:
    roots: tuple
    mults: tuple
    lead: object

    def partition(self):
        return tuple(sorted(self.mults, reverse=True))

    def flattened_roots(self):
        """Each root repeated by its multiplicity, in descending-multiplicity order."""
        pairs = sorted(zip(self.mults, self.roots), key=lambda t: -t[0])
        out = []
        for mult, root in pairs:
            out.extend([root] * mult)
        return tuple(out)


def _validate(spec):
    if len(spec.roots) != len(spec.mults):
        raise MultdiscError("roots and multiplicities differ in length")
    if not spec.lead:
        raise MultdiscError("leading coefficient must be nonzero")
    if any(not isinstance(m, int) or m < 1 for m in spec.mults):
        raise MultdiscError("multiplicities must be positive integers")
    for i, r in enumerate(spec.roots):
        for other in spec.roots[i + 1 :]:
            if r == other:
                raise MultdiscError(f"root {r} listed twice")


def poly_from_roots(spec):
    """lead * prod (x - r_i)^(mult_i), expanded exactly."""
    _validate(spec)
    out = Poly([spec.lead])
    for root, mult in zip(spec.roots, spec.mults):
        factor = Poly([1, -root])
        for _ in range(mult):
            out = out * factor
    return out


def dbar_mu(F, alphas, mu):
    """Root-side discriminant: per[F^(p_i)(alpha_j)/p_i!] / c.

    alphas must be the full root multiset of F (each root repeated by its
    multiplicity); c is the repetition constant of the expanded tuple.
    The division by c is exact whenever the precondition holds.
    """
    n = F.degree
    p = expand_partition(mu)
    if len(alphas) != n or len(p) != n:
        raise MultdiscError("need deg F = sum(mu) = len(alphas)")
    for a in alphas:
        if F(a):
            raise MultdiscError(f"{a} is not a root")
    rows = []
    for order in p:
        t = F.taylor_derivative(order)
        rows.append([t(a) for a in alphas])
    per = permanent(rows)
    return exact_div(per, repetition_constant(p))


def dmu_by_stacks(F, mu):
    """D_mu(F) as the sum of dp(stack) over every rearrangement sigma.

    F is taken as given, in its own coefficient ring: no denominators are
    cleared, so for rational F this is dmu(F).value / factor^(2n - mu_m).
    """
    total = 0
    for sigma in multiset_permutations(expand_partition(mu)):
        total = total + dp(dmu_rows(F.degree, mu, sigma, F))
    return total


def check_det_per_identity(A, B):
    """sum over tau of det(A o P_tau B) == det(A) * per(B), exactly."""
    n = len(A)
    if len(B) != n or any(len(a) != len(b) for a, b in zip(A, B)):
        raise MultdiscError("matrices must have equal shapes")
    lhs = 0
    for tau in permutations(range(n)):
        lhs = lhs + det(hadamard(A, row_permute(tau, B)))
    rhs = det(A) * permanent(B)
    return lhs == rhs


def check_dp_ratio(F, roots, G):
    """Cross-multiplied stack-determinant ratio identity.

    dp(x^(n-2)F, ..., F, G_1, ..., G_n) * det(V) == lead^(n-1) * det[G_i(a_j)]
    for F with the n distinct supplied roots and deg G_i <= 2n - 2, where V
    is the monomial-basis Vandermonde of the roots.
    """
    n = F.degree
    if len(roots) != n:
        raise MultdiscError("need one root per degree")
    if len(set(roots)) != n:
        raise MultdiscError("roots must be pairwise distinct")
    G = list(G)
    if len(G) != n:
        raise MultdiscError(f"need exactly {n} stacked polynomials")
    for g in G:
        if g and g.degree > 2 * n - 2:
            raise MultdiscError("stacked polynomial degree exceeds 2n - 2")
    stack = [F.shift_mul(s) for s in range(n - 2, -1, -1)] + G
    lhs = dp(stack) * det([[a ** (n - 1 - i) for a in roots] for i in range(n)])
    rhs = F.lead ** (n - 1) * det([[g(a) for a in roots] for g in G])
    return lhs == rhs


def random_instance(seed, n, m):
    """Deterministic random root specification: m distinct integer roots
    in [-9, 9], multiplicities a uniformly chosen partition of n into m parts."""
    if m < 1 or m > n:
        raise MultdiscError(f"no root structure with {m} distinct roots for degree {n}")
    rng = random.Random(seed)
    roots = tuple(rng.sample(range(-9, 10), m))
    mults = rng.choice(partitions(n, m))
    lead = rng.choice((-2, -1, 1, 1, 2, 3))
    return RootSpec(roots=roots, mults=mults, lead=lead)


def random_factored(seed, n, digits=2):
    """Deterministic random integer polynomial of degree n with a known
    multiplicity structure: a product of pairwise coprime primitive factors
    raised to powers, linear a x + b and irreducible quadratic
    a x^2 + b x + c (a discriminant that is not a square: two irrational
    or two complex conjugate roots), coefficients below 10^digits and a
    lead in +-1..3.  Returns (F, structure)."""
    if n < 1:
        raise MultdiscError(f"no factored instance of degree {n}")
    rng = random.Random(seed)
    bound = 10**digits - 1
    factors, parts = set(), []
    out = Poly([rng.choice((-3, -2, -1, 1, 2, 3))])
    left = n
    while left:
        power = rng.randint(1, min(4, left))
        quadratic = 2 * power <= left and rng.random() < 0.4
        while True:
            a = rng.randint(1, bound)
            if quadratic:
                b, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
                disc = b * b - 4 * a * c
                if not c or (disc >= 0 and isqrt(disc) ** 2 == disc):
                    continue
                coeffs = (a, b, c)
            else:
                coeffs = (a, rng.randint(-bound, bound))
            g = gcd(*coeffs)
            factor = tuple(x // g for x in coeffs)
            if factor not in factors:
                break
        factors.add(factor)
        parts.extend([power] * (len(factor) - 1))
        left -= power * (len(factor) - 1)
        for _ in range(power):
            out = out * Poly(factor)
    return out, tuple(sorted(parts, reverse=True))
