"""Seeded inputs for the benchmark workloads, with their known answers.

Every polynomial is built here from factors whose multiplicities are
chosen first, so the expected multiplicity structure is known before the
program sees the input; nothing in this module calls the library.  All
randomness comes from one ``random.Random(seed)`` per workload, so the
same seed gives the same rounds, byte for byte.

A round is the unit the timed loop runs: one ``classify --file`` batch
(plus, for ``wide``, one single-line batch holding an over-limit input),
or one pass over the symbolic conditions.  Each round of a workload has
the same mix of input classes, so the seed changes the numbers inside the
inputs but not how many hard inputs a run meets.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, prod

ROUNDTRIP_DEGREES = range(4, 11)
ROUNDTRIP_SLOTS = 7  # inputs per degree per round
ROUNDTRIP_ROUNDS = 12

WIDE_ROUNDS = 24
# The normal wide inputs: (factor coefficient digits, factor shape), the
# shape a list of (kind, power) with Q an irreducible integer quadratic and
# L a linear factor.  Every shape has 2 <= m <= n - 2 distinct roots, so
# classify evaluates D_mu for each candidate.  Digits are fixed per shape
# (coefficient size drives the cost); the degree-8 shapes, the costliest,
# use the fewest.  Degrees 4, 5, 6, 7, 8 appear 3, 4, 5, 4, 3 times.
WIDE_SHAPES = (
    (12, (("L", 3), ("L", 1))),
    (12, (("Q", 2),)),
    (12, (("L", 2), ("L", 2))),
    (11, (("L", 3), ("L", 2))),
    (10, (("L", 3), ("Q", 1))),
    (12, (("Q", 2), ("L", 1))),
    (11, (("L", 2), ("L", 2), ("L", 1))),
    (12, (("Q", 3),)),
    (10, (("L", 3), ("L", 2), ("L", 1))),
    (11, (("Q", 2), ("L", 2))),
    (9, (("L", 3), ("Q", 1), ("L", 1))),
    (10, (("Q", 2), ("Q", 1))),
    (10, (("Q", 3), ("L", 1))),
    (9, (("L", 3), ("Q", 2))),
    (9, (("Q", 2), ("L", 2), ("L", 1))),
    (8, (("L", 3), ("L", 2), ("Q", 1))),
    (8, (("Q", 3), ("L", 2))),
    (8, (("Q", 2), ("Q", 2))),
    (8, (("Q", 3), ("Q", 1))),
)
# One over-limit input per round of len(WIDE_SHAPES) + 1 inputs.  Its
# certificate has more decimal digits than Python's default limit for
# int-to-str conversion (4300), while its own coefficients stay below it.
# (root digits per distinct root, multiplicities)
WIDE_OVER_LIMIT = (
    (((820, 880), (550, 650)), (3, 1)),
    (((620, 680), (540, 600), (540, 600)), (3, 1, 1)),
    (((620, 680), (540, 600), (540, 600)), (2, 2, 1)),
    (((620, 680), (540, 600)), (3, 2)),
)
WIDE_OVER_LIMIT_SHARE = Fraction(1, len(WIDE_SHAPES) + 1)

GENERIC_DEGREES = range(8, 25)
GENERIC_KINDS = ("squarefree", "double", "power")
GENERIC_DIGITS = (10, 30)
GENERIC_ROUNDS = 20

SYMBOLIC_DEGREES = (5, 6)
SYMBOLIC_ROUNDS = 8


@dataclass(frozen=True)
class Case:
    """One classify input: its batch line and the structure it was built with."""

    line: str
    degree: int
    expected: tuple


@dataclass(frozen=True)
class Round:
    """One timed unit: batches of classify cases, or symbolic conditions."""

    batches: tuple  # tuple of tuples of Case; each inner tuple is one batch file
    conditions: tuple = ()  # (n, mu) pairs, symbolic only

    @property
    def size(self):
        return len(self.conditions) or sum(len(b) for b in self.batches)


# --- exact integer polynomial arithmetic (descending coefficient lists) ---


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def partitions(n, m):
    """Partitions of n into exactly m parts, in descending lexicographic order."""
    out = []

    def rec(remaining, parts_left, cap, prefix):
        if parts_left == 1:
            if remaining <= cap:
                out.append(prefix + (remaining,))
            return
        lo = -(-remaining // parts_left)
        for first in range(min(cap, remaining - parts_left + 1), lo - 1, -1):
            rec(remaining - first, parts_left - 1, first, prefix + (first,))

    rec(n, m, n, ())
    return out


def yhz_count(mu):
    """Closed-form number of repeated-subresultant polynomials: 1 + sum C(mu_i - 1, 2)."""
    return 1 + sum(comb(part - 1, 2) for part in mu)


def yhz_degree(mu):
    """Closed-form maximum total degree of the repeated-subresultant condition.

    With m_j the number of parts exceeding j: prod_{j < mu_2} (2 m_j - 1),
    times (2(mu_1 - mu_2) - 1) when mu_1 > mu_2 + 1; when mu_1 = mu_2 + 1
    the last factor (2 m_(mu_2 - 1) - 1) becomes (2 m_(mu_2 - 1) + 1).
    """
    mu1, mu2 = mu[0], mu[1]
    m = [sum(1 for part in mu if part > j) for j in range(mu1 + 1)]
    factors = [2 * m[j] - 1 for j in range(mu2)]
    if mu1 == mu2 + 1:
        factors[-1] = 2 * m[mu2 - 1] + 1
    elif mu1 > mu2 + 1:
        factors.append(2 * (mu1 - mu2) - 1)
    return prod(factors)


def _line(coeffs, denominator=1):
    """Batch-file line for coeffs / denominator, rationals as reduced p/q."""
    parts = []
    for c in coeffs:
        q = Fraction(c, denominator)
        parts.append(str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}")
    return ",".join(parts)


def _signed(rng, digits):
    return rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10**digits - 1)


# --- roundtrip ---


ROUNDTRIP_LEADS = (-2, -1, 1, 1, 2, 3)
ROUNDTRIP_ROOTS = tuple(range(-9, 10))


def roundtrip_rounds(seed):
    """Integer-root inputs from the distribution of the roundtrip verify suite.

    The suite draws n in 4..10, then m in 2..n-2, then random_instance
    draws m distinct roots in [-9, 9], a partition of n into m parts and a
    lead from (-2, -1, 1, 1, 2, 3).  Here the features that decide most
    of an input's cost are enumerated instead of drawn, so that every seed
    meets the same mix:

    * every round holds ROUNDTRIP_SLOTS inputs of each degree, and m
      cycles through 2..n-2;
    * each (n, m) class steps through its partitions and the leads;
    * whether 0 is a root, and which multiplicity it carries, follows a
      fixed cycle of 19 visits in which 0 takes each root position with
      frequency 1/19, as in the suite (a root at 0 makes an input several
      times cheaper).

    The seed draws the other roots, uniformly among the nonzero values,
    and the order of the batch.
    """
    rng = random.Random(seed)
    nonzero = [v for v in ROUNDTRIP_ROOTS if v]
    rounds = []
    for r in range(ROUNDTRIP_ROUNDS):
        cases = []
        for n in ROUNDTRIP_DEGREES:
            for j in range(ROUNDTRIP_SLOTS):
                k = ROUNDTRIP_SLOTS * r + j
                m = 2 + k % (n - 3)
                visit = k // (n - 3)  # earlier inputs of this (n, m) class
                candidates = partitions(n, m)
                mults = candidates[visit % len(candidates)]
                lead = ROUNDTRIP_LEADS[(visit + m) % len(ROUNDTRIP_LEADS)]
                roots = rng.sample(nonzero, m)
                zero_at = 7 * (visit + m) % len(ROUNDTRIP_ROOTS)
                if zero_at < m:
                    roots[zero_at] = 0
                coeffs = [lead]
                for root, mult in zip(roots, mults):
                    coeffs = poly_mul(coeffs, poly_pow([1, -root], mult))
                cases.append(Case(_line(coeffs), n, mults))
        rng.shuffle(cases)
        rounds.append(Round((tuple(cases),)))
    return rounds


# --- wide ---


def _irreducible_quadratic(rng, bounds):
    """a x^2 + b x + c with a > 0 and a discriminant that is not a square."""
    while True:
        a = abs(_signed(rng, rng.randint(*bounds)))
        b = _signed(rng, rng.randint(*bounds))
        c = _signed(rng, rng.randint(*bounds))
        disc = b * b - 4 * a * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            g = gcd(a, b, c)
            return [a // g, b // g, c // g]


def _coprime_factors(rng, shape, bounds):
    """Pairwise coprime primitive factors for a shape: distinct linear
    roots, distinct irreducible quadratics (never proportional)."""
    while True:
        factors = []
        for kind, _ in shape:
            if kind == "Q":
                factors.append(_irreducible_quadratic(rng, bounds))
            else:
                a = abs(_signed(rng, rng.randint(*bounds)))
                b = _signed(rng, rng.randint(*bounds))
                g = gcd(a, b)
                factors.append([a // g, b // g])
        if len({tuple(f) for f in factors}) == len(factors):
            return factors


def _shape_structure(shape):
    parts = []
    for kind, power in shape:
        parts.extend([power] * (2 if kind == "Q" else 1))
    return tuple(sorted(parts, reverse=True))


def _build(rng, shape, bounds, rational):
    factors = _coprime_factors(rng, shape, bounds)
    coeffs = [rng.choice((-1, 1))]
    for factor, (_, power) in zip(factors, shape):
        coeffs = poly_mul(coeffs, poly_pow(factor, power))
    denominator = rng.randint(2, 10**6) if rational else 1
    return Case(_line(coeffs, denominator), len(coeffs) - 1, _shape_structure(shape))


def _over_limit_case(rng, index):
    digit_ranges, mults = WIDE_OVER_LIMIT[index % len(WIDE_OVER_LIMIT)]
    roots = set()
    while len(roots) < len(mults):
        roots.add(rng.choice((-1, 1)) * (10 ** rng.randint(*digit_ranges[len(roots)]) + rng.randint(1, 10**6)))
    coeffs = [1]
    for root, mult in zip(sorted(roots), mults):
        coeffs = poly_mul(coeffs, poly_pow([1, -root], mult))
    return Case(_line(coeffs), len(coeffs) - 1, tuple(sorted(mults, reverse=True)))


def wide_rounds(seed):
    """Large-coefficient inputs with irrational and complex roots.

    Each round is one batch with one input per entry of WIDE_SHAPES
    (degrees 4..8, factor coefficients of 8..12 digits, every third line
    divided by a common denominator) and one single-line batch with an
    over-limit input of degree 4 or 5.  The seed draws the factors'
    coefficients, the denominators and the order of the batch.
    """
    rng = random.Random(seed)
    rounds = []
    for r in range(WIDE_ROUNDS):
        cases = [
            _build(rng, shape, (digits, digits), i % 3 == 2)
            for i, (digits, shape) in enumerate(WIDE_SHAPES)
        ]
        rng.shuffle(cases)
        rounds.append(Round((tuple(cases), (_over_limit_case(rng, r),))))
    return rounds


# --- generic ---


def _generic_case(rng, n, kind, rational):
    """Degree-n input with m in {n, n-1, 1}: classify needs no D_mu.

    Factors have one- or two-digit coefficients (one digit for a perfect
    power); a seeded integer lead brings the largest coefficient to about
    GENERIC_DIGITS digits.
    """
    if kind == "power":
        shape = (("L", n),)
    else:
        shape = []
        remaining = n - (2 if kind == "double" else 0)
        while remaining:
            if remaining >= 2 and rng.random() < 0.5:
                shape.append(("Q", 1))
                remaining -= 2
            else:
                shape.append(("L", 1))
                remaining -= 1
        if kind == "double":
            shape.append(("L", 2))
    factors = _coprime_factors(rng, shape, (1, 1) if kind == "power" else (1, 2))
    coeffs = [1]
    for factor, (_, power) in zip(factors, shape):
        coeffs = poly_mul(coeffs, poly_pow(factor, power))
    size = len(str(max(abs(c) for c in coeffs)))
    target = rng.randint(*GENERIC_DIGITS)
    lead = _signed(rng, max(1, target - size))
    coeffs = [lead * c for c in coeffs]
    denominator = rng.randint(2, 10**6) if rational else 1
    return Case(_line(coeffs, denominator), n, _shape_structure(shape))


def generic_rounds(seed):
    """Squarefree, one-double-root and perfect-power inputs of degree 8..24.

    Each round has one input per (degree, kind) pair; every third input is
    divided by a common denominator so its line holds rationals.
    """
    rng = random.Random(seed)
    rounds = []
    for _ in range(GENERIC_ROUNDS):
        cases = []
        for n in GENERIC_DEGREES:
            for kind in GENERIC_KINDS:
                cases.append(_generic_case(rng, n, kind, len(cases) % 3 == 2))
        rng.shuffle(cases)
        rounds.append(Round((tuple(cases),)))
    return rounds


# --- symbolic ---


def symbolic_rounds(seed):
    """Every partition of n = 5, 6 with 2 <= m <= n - 2, in a seeded order."""
    conditions = [
        (n, mu) for n in SYMBOLIC_DEGREES for m in range(2, n - 1) for mu in partitions(n, m)
    ]
    rng = random.Random(seed)
    out = []
    for _ in range(SYMBOLIC_ROUNDS):
        order = list(conditions)
        rng.shuffle(order)
        out.append(Round((), tuple(order)))
    return out


# Term counts of the symbolic D_mu, pinned to the values this repository's
# seed produced; a change here means the program's output changed.
SYMBOLIC_TERMS = {
    (4, 1): 13,
    (3, 2): 30,
    (3, 1, 1): 44,
    (2, 2, 1): 55,
    (5, 1): 24,
    (4, 2): 86,
    (3, 3): 79,
    (4, 1, 1): 119,
    (3, 2, 1): 219,
    (2, 2, 2): 164,
    (3, 1, 1, 1): 238,
    (2, 2, 1, 1): 268,
}

WORKLOADS = {
    "roundtrip": roundtrip_rounds,
    "wide": wide_rounds,
    "generic": generic_rounds,
    "symbolic": symbolic_rounds,
}
