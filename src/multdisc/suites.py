"""Seeded verification suites behind the command line's verify command.

A suite is one trial function, (rng, trial) -> None or the counterexample
text.  run_suite alone does the shared work: it runs the suite's fixed
anchor instance if it has one (lemma2 and lemma3), seeds one stream
random.Random(seed) for all trials, prefixes each counterexample with
"trial k: " and counts the passes.  Each trial recomputes both sides of the
identity under test independently; all checks are exact equalities, and a
suite passes iff nothing fails.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import partitions
from .discriminant import classify, classify_report, dmu, dmu_degree, psd_sequence
from .errors import MultdiscError
from .linalg import dp
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


def anchor_lemma2():
    nv = 8
    A = [[SymPoly.variable(nv, i * 2 + j) for j in (0, 1)] for i in (0, 1)]
    B = [[SymPoly.variable(nv, 4 + i * 2 + j) for j in (0, 1)] for i in (0, 1)]
    return None if check_det_per_identity(A, B) else "symbolic 2x2 instance failed"


def trial_lemma2(rng, trial):
    k = rng.randint(1, 5)
    a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
    b = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
    return None if check_det_per_identity(a, b) else f"size {k}, A={a}, B={b}"


def anchor_lemma3():
    # cubic instance with numeric roots 1, 2, 3: dp value specialises 9 a0^3 a3^2
    F = poly_from_roots(RootSpec(roots=(1, 2, 3), mults=(1, 1, 1), lead=1))
    G = [F.taylor_derivative(i).shift_mul(2) for i in (1, 2, 3)]
    stack = [F.shift_mul(1), F] + G
    if check_dp_ratio(F, (1, 2, 3), G) and dp(stack) == 9 * F.lead**3 * F.coeff(0) ** 2:
        return None
    return "cubic anchor instance failed"


def trial_lemma3(rng, trial):
    n = rng.randint(2, 5)
    roots = tuple(rng.sample(range(-9, 10), n))
    F = poly_from_roots(RootSpec(roots=roots, mults=(1,) * n, lead=rng.choice((1, 2, -1))))
    G = [Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 2 * n - 1))]) for _ in range(n)]
    return None if check_dp_ratio(F, roots, G) else f"roots={roots}, G={[str(g) for g in G]}"


def _random_spec(rng, low, high):
    n = rng.randint(low, high)
    m = rng.randint(2, n - 2)
    spec = random_instance(rng.randrange(2**32), n, m)
    return spec, poly_from_roots(spec)


def trial_lemma1(rng, trial):
    spec, F = _random_spec(rng, 4, 8)
    truth, alphas = spec.partition(), spec.flattened_roots()
    for nu in partitions(F.degree, len(truth)):
        value = dbar_mu(F, alphas, nu)
        if bool(value) != (nu == truth):
            return f"spec={spec}, nu={nu}, dbar={value}"
    return None


def trial_roundtrip(rng, trial):
    spec, F = _random_spec(rng, 4, 10)
    got = classify(F)
    return None if got == spec.partition() else f"spec={spec}, classified {got}"


def trial_scaling(rng, trial):
    spec, F = _random_spec(rng, 4, 8)
    mu = spec.partition()
    s = rng.choice((2, 3, -2, -3, 5))
    t = rng.randint(-4, 4)
    base = dmu(F, mu).value
    scaled = dmu(F.scale(s), mu).value
    shifted = dmu(_translate(F, t), mu).value
    if scaled == s ** dmu_degree(F.degree, mu) * base and bool(shifted) == bool(base):
        return None
    return f"spec={spec}, s={s}, t={t}, base={base}, scaled={scaled}, shifted={shifted}"


def trial_yhz_agree(rng, trial):
    spec, F = _random_spec(rng, 4, 10)
    truth = spec.partition()
    if psd_sequence(F).ndr != len(truth):
        return f"spec={spec}, ndr mismatch"
    for nu in partitions(F.degree, len(truth)):
        holds = yhz_condition(F, nu).is_satisfied()
        dval = dmu(F, nu).value
        if holds != (nu == truth) or holds != bool(dval):
            return f"spec={spec}, nu/holds/dmu={(nu, holds, dval)}"
    return None


def trial_certificates(rng, trial):
    """classify_report against dmu on every candidate partition.

    Even trials draw integer roots (random_instance), odd ones products of
    linear and irreducible quadratic factors (random_factored), so roots
    are also irrational or complex; every third input is divided by a
    random denominator.  classify evaluates only the true structure's
    certificate in closed form; dmu evaluates them all, psd_sequence counts m.
    """
    n = rng.randint(4, 10)
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
    ndr = psd_sequence(F).ndr
    if report.multiplicity == truth and report.certificates == expected and ndr == len(report.multiplicity):
        return None
    return (f"F={F}, structure {truth}, classified {report.multiplicity}, "
            f"certificates {report.certificates}, dmu {expected}, psd ndr {ndr}")


SUITES = {
    "lemma2": trial_lemma2,
    "lemma3": trial_lemma3,
    "lemma1": trial_lemma1,
    "roundtrip": trial_roundtrip,
    "scaling": trial_scaling,
    "yhz-agree": trial_yhz_agree,
    "certificates": trial_certificates,
}

ANCHORS = {"lemma2": anchor_lemma2, "lemma3": anchor_lemma3}


def run_suite(name, trials, seed):
    """The anchor, if any, then trials seeded trials of suite name."""
    try:
        trial_fn = SUITES[name]
    except KeyError:
        raise MultdiscError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    anchor = ANCHORS.get(name)
    failures = []
    if anchor and (text := anchor()) is not None:
        failures.append(text)
    rng = random.Random(seed)
    for trial in range(trials):
        text = trial_fn(rng, trial)
        if text is not None:
            failures.append(f"trial {trial}: {text}")
    total = trials + (anchor is not None)
    return SuiteResult(name, total, total - len(failures), failures)
