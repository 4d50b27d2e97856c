"""Seeded verification suites behind the command line's verify command.

Every suite draws its trial parameters from a single base seed, derives a
per-trial seed, recomputes both sides of the identity under test
independently, and collects counterexamples verbatim; a suite passes iff
no trial fails.  All checks are exact equalities.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import partitions
from .discriminant import classify, classify_report, dmu, dmu_degree, psd_sequence
from .errors import UnknownSuite
from .linalg import Matrix, dp
from .oracle import (
    RootSpec,
    check_det_per_identity,
    check_dp_ratio,
    dbar_mu,
    poly_from_roots,
    random_factored,
    random_instance,
)
from .scalars import normalize_scalar
from .sympoly import SymPoly
from .unipoly import Poly
from .yhz import yhz_condition


@dataclass
class SuiteResult:
    suite: str
    trials: int
    passed: int
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def _translate(F, t):
    # F(x + t) by Horner composition, exact
    acc = Poly([F.coeffs[0]])
    for c in F.coeffs[1:]:
        acc = acc * Poly([1, t]) + Poly([c])
    return acc


def suite_lemma2(trials, seed):
    result = SuiteResult("lemma2", trials + 1, 0)
    nv = 8
    A = Matrix([[SymPoly.variable(nv, i * 2 + j) for j in (0, 1)] for i in (0, 1)])
    B = Matrix([[SymPoly.variable(nv, 4 + i * 2 + j) for j in (0, 1)] for i in (0, 1)])
    if check_det_per_identity(A, B):
        result.passed += 1
    else:
        result.failures.append("symbolic 2x2 instance failed")
    rng = random.Random(seed)
    for trial in range(trials):
        k = rng.randint(1, 5)
        a = Matrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
        b = Matrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
        if check_det_per_identity(a, b):
            result.passed += 1
        else:
            result.failures.append(f"trial {trial}: size {k}, A={a.rows}, B={b.rows}")
    return result


def suite_lemma3(trials, seed):
    result = SuiteResult("lemma3", trials + 1, 0)
    # cubic instance with numeric roots 1, 2, 3: dp value specialises 9 a0^3 a3^2
    F = poly_from_roots(RootSpec(roots=(1, 2, 3), mults=(1, 1, 1), lead=1))
    G = [F.taylor_derivative(i).shift_mul(2) for i in (1, 2, 3)]
    stack = [F.shift_mul(1), F] + G
    if check_dp_ratio(F, (1, 2, 3), G) and dp(stack) == 9 * F.lead**3 * F.coeff(0) ** 2:
        result.passed += 1
    else:
        result.failures.append("cubic anchor instance failed")
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(2, 5)
        roots = tuple(rng.sample(range(-9, 10), n))
        F = poly_from_roots(RootSpec(roots=roots, mults=(1,) * n, lead=rng.choice((1, 2, -1))))
        G = [
            Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 2 * n - 1))])
            for _ in range(n)
        ]
        if check_dp_ratio(F, roots, G):
            result.passed += 1
        else:
            result.failures.append(f"trial {trial}: roots={roots}, G={[str(g) for g in G]}")
    return result


def suite_lemma1(trials, seed):
    result = SuiteResult("lemma1", trials, 0)
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(4, 8)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        alphas = spec.flattened_roots()
        truth = spec.partition()
        bad = None
        for nu in partitions(n, m):
            value = dbar_mu(F, alphas, nu)
            if bool(value) != (nu == truth):
                bad = (nu, value)
                break
        if bad is None:
            result.passed += 1
        else:
            result.failures.append(f"trial {trial}: spec={spec}, nu={bad[0]}, dbar={bad[1]}")
    return result


def suite_roundtrip(trials, seed):
    result = SuiteResult("roundtrip", trials, 0)
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(4, 10)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        got = classify(F)
        if got == spec.partition():
            result.passed += 1
        else:
            result.failures.append(f"trial {trial}: spec={spec}, classified {got}")
    return result


def suite_scaling(trials, seed):
    result = SuiteResult("scaling", trials, 0)
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(4, 8)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        mu = spec.partition()
        s = rng.choice((2, 3, -2, -3, 5))
        t = rng.randint(-4, 4)
        base = dmu(F, mu).value
        scaled = dmu(F.scale(s), mu).value
        shifted = dmu(_translate(F, t), mu).value
        if scaled == s ** dmu_degree(n, mu) * base and bool(shifted) == bool(base):
            result.passed += 1
        else:
            result.failures.append(
                f"trial {trial}: spec={spec}, s={s}, t={t}, "
                f"base={base}, scaled={scaled}, shifted={shifted}"
            )
    return result


def suite_yhz_agree(trials, seed):
    result = SuiteResult("yhz-agree", trials, 0)
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(4, 6)
        m = rng.randint(2, n - 2)
        spec = random_instance(rng.randrange(2**32), n, m)
        F = poly_from_roots(spec)
        truth = spec.partition()
        if psd_sequence(F).ndr != m:
            result.failures.append(f"trial {trial}: spec={spec}, ndr mismatch")
            continue
        bad = None
        for nu in partitions(n, m):
            holds = yhz_condition(F, nu).is_satisfied()
            dval = dmu(F, nu).value
            if holds != (nu == truth) or holds != bool(dval):
                bad = (nu, holds, dval)
                break
        if bad is None:
            result.passed += 1
        else:
            result.failures.append(f"trial {trial}: spec={spec}, nu/holds/dmu={bad}")
    return result


def suite_certificates(trials, seed):
    """classify_report against dmu on every candidate partition.

    Even trials draw integer roots (random_instance), odd ones products of
    linear and irreducible quadratic factors (random_factored), so roots
    are also irrational or complex; every third input is divided by a
    random denominator.  classify evaluates only the true structure's
    certificate in closed form; dmu evaluates them all.
    """
    result = SuiteResult("certificates", trials, 0)
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(4, 8)
        if trial % 2:
            F, truth = random_factored(rng.randrange(2**32), n, rng.randint(1, 3))
        else:
            spec = random_instance(rng.randrange(2**32), n, rng.randint(2, n - 2))
            F, truth = poly_from_roots(spec), spec.partition()
        if trial % 3 == 2:
            den = rng.randint(2, 10**6)
            F = Poly([normalize_scalar(Fraction(c, den)) for c in F.coeffs])
        candidates = partitions(n, len(truth))
        expected = tuple((nu, dmu(F, nu).value) for nu in candidates) if len(candidates) > 1 else ()
        report = classify_report(F)
        if report.multiplicity == truth and report.certificates == expected:
            result.passed += 1
        else:
            result.failures.append(
                f"trial {trial}: F={F}, structure {truth}, classified {report.multiplicity}, "
                f"certificates {report.certificates}, dmu {expected}"
            )
    return result


SUITES = {
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma1": suite_lemma1,
    "roundtrip": suite_roundtrip,
    "scaling": suite_scaling,
    "yhz-agree": suite_yhz_agree,
    "certificates": suite_certificates,
}


def run_suite(name, trials, seed):
    try:
        fn = SUITES[name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    return fn(trials, seed)
