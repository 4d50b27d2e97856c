"""Multiplicity discriminants for univariate polynomials.

For an m-part partition mu of n, the discriminant D_mu(F) is the sum, over
all distinct rearrangements sigma of the expanded tuple p (each part mu_i
repeated mu_i times), of the determinant of the stacked coefficient rows

    x^(n-mu_m-1) F, ..., x^0 F,
    x^(n-1) F^(sigma_1)/sigma_1!, ..., x^0 F^(sigma_n)/sigma_n!,

a square stack of dimension 2n - mu_m.  Among degree-n polynomials with
exactly m distinct roots, D_mu(F) != 0 holds precisely when the
multiplicity structure of F is mu, so a classifier only has to find the
number of distinct roots (principal subresultant coefficients of F, F')
and then test each candidate partition.

D_mu is not computed as one determinant per rearrangement.  The F-block
rows x^j F (j < n - mu_m) span every multiple F h with deg h < n - mu_m,
so each derivative row can be replaced by its remainder mod F:
det(stack) = lc(F)^(n - mu_m) det(n x n remainder matrix).  The
determinant is multilinear in its rows, so the sum over rearrangements is
a DP over the counts of each part still to place; a state carries the
wedge product of the rows placed so far, summed over every prefix that
reaches it.  Remainders are pseudo-remainders with one power of lc per
slot, divided out exactly at the end.  The same DP runs over both
coefficient rings: integers (numeric F, denominators cleared first) and
SymPoly (the generic F, where lc is the variable a_0).
"""

from dataclasses import dataclass

from .combinat import check_partition, expand_partition, partitions, permutation_count
from .errors import (
    AmbiguousClassification,
    CapExceeded,
    DegreeMismatch,
    ZeroPolynomial,
)
from .scalars import clear_denominators, exact_div
from .subresultants import subresultant_chain
from .sympoly import SymPoly
from .unipoly import Poly

SYMBOLIC_CAP = 6


@dataclass(frozen=True)
class DmuResult:
    mu: tuple
    mode: str  # "numeric" | "symbolic"
    value: object  # int (numeric) or SymPoly (symbolic)
    term_count: int
    matrix_dim: int


@dataclass(frozen=True)
class PsdReport:
    psd: tuple
    ndr: int


@dataclass(frozen=True)
class ClassifyReport:
    degree: int
    ndr: int
    multiplicity: tuple
    certificates: tuple  # ((mu, value), ...) in candidate order


def dmu_degree(n, mu):
    """Total degree of D_mu in the coefficients: 2n - mu_m."""
    mu = check_partition(mu)
    if sum(mu) != n:
        raise DegreeMismatch(f"{mu} is not a partition of {n}")
    return 2 * n - mu[-1]


def dmu_rows(n, mu, sigma, F):
    """The 2n - mu_m stacked polynomials for one derivative-order assignment."""
    mu = check_partition(mu)
    if F.degree != n or sum(mu) != n:
        raise DegreeMismatch(f"need deg F = sum(mu) = {n}")
    if sorted(sigma) != sorted(expand_partition(mu)):
        raise ValueError(f"{sigma} is not a rearrangement of the expanded tuple")
    rows = [F.shift_mul(s) for s in range(n - mu[-1] - 1, -1, -1)]
    rows.extend(
        F.taylor_derivative(sigma[i]).shift_mul(n - 1 - i) for i in range(n)
    )
    return rows


def _reduced_rows(F, values):
    """Each slot's derivative rows, reduced mod F inside the coefficient ring.

    rows[i][k] is the coefficient vector (x^(n-1) first) of
    lc^e_i * (x^(n-1-i) T_v mod F) for v = values[k], with T_v the v-th
    Taylor derivative.  Slots are built from the bottom one up: multiply
    by x and, when any row of the slot reaches x^n, take one
    pseudo-reduction step lc*row - top*F for all of them, so a whole slot
    shares one power e_i of lc.  The rows are pseudo-remainders, so every
    entry stays in the ring of F's coefficients (int or SymPoly).  Returns
    the rows and sum(e_i).
    """
    n, lc = F.degree, F.lead
    tail = [F.coeff(n - 1 - j) for j in range(n)]
    taylors = [F.taylor_derivative(v) for v in values]
    cur = [[t.coeff(n - 1 - j) for j in range(n)] for t in taylors]
    rows = [cur] * n
    e = total_e = 0
    for i in range(n - 2, -1, -1):
        if any(r[0] for r in cur):
            e += 1
            cur = [[lc * a - r[0] * f for a, f in zip(r[1:] + [0], tail)] for r in cur]
        else:
            cur = [r[1:] + [0] for r in cur]
        rows[i] = cur
        total_e += e
    return rows, total_e


def _dmu_remainder_dp(F, mu):
    """D_mu of F, by a DP over the part counts still to place.

    F has int or SymPoly coefficients.  Each DP state holds the wedge
    product of the rows placed so far, summed over every prefix that
    reaches it, as {column bitmask: coefficient in F's ring}.  The final
    division by a power of lc is an exact_div in that ring (sympoly_div
    for SymPoly).
    """
    n = F.degree
    values = sorted(set(mu))
    rows, total_e = _reduced_rows(F, values)
    layer = {tuple(v * mu.count(v) for v in values): {0: 1}}
    for slot_rows in rows:
        slot = [[(1 << j, j + 1, c) for j, c in enumerate(r) if c] for r in slot_rows]
        nxt = {}
        for state, wedge in layer.items():
            for k, left in enumerate(state):
                if not left:
                    continue
                out = nxt.setdefault(state[:k] + (left - 1,) + state[k + 1 :], {})
                for mask, coef in wedge.items():
                    for bit, above, c in slot[k]:
                        if mask & bit:
                            continue
                        # e_S ^ e_j = (-1)^#{s in S: s > j} e_(S+j)
                        term = -coef * c if (mask >> above).bit_count() & 1 else coef * c
                        new = mask | bit
                        out[new] = out.get(new, 0) + term
        layer = nxt
    (wedge,) = layer.values()
    total = wedge.get((1 << n) - 1, 0)
    if not total:  # also keeps an int 0 away from a SymPoly divisor
        return total
    # det(stack) = lc^(n - mu_m) det(remainder rows) / lc^(sum e_i).  The
    # T_(mu_m) row reaches x^n in slot n - mu_m - 1, so every slot
    # i < n - mu_m has e_i >= 1 and sum e_i >= n - mu_m.
    return exact_div(total, F.lead ** (total_e - (n - mu[-1])))


def dmu(F, mu, *, symbolic_cap=SYMBOLIC_CAP):
    """D_mu(F), exact; symbolic when F has symbolic coefficients.

    Numeric coefficients are normalised to integers by clearing
    denominators first; D_mu is homogeneous of degree 2n - mu_m, so the
    zero/nonzero verdict is unaffected and the reported value is the one
    for the scaled integer polynomial.
    """
    mu = check_partition(mu)
    if not F:
        raise ZeroPolynomial("dmu of the zero polynomial")
    n = F.degree
    if sum(mu) != n:
        raise DegreeMismatch(f"{mu} does not partition deg F = {n}")
    dim = 2 * n - mu[-1]
    term_count = permutation_count(expand_partition(mu))
    symbolic = F.is_symbolic()
    if symbolic:
        if n > symbolic_cap:
            raise CapExceeded(f"symbolic dmu capped at degree {symbolic_cap}")
    else:
        ints, _ = clear_denominators(list(F.coeffs))
        F = Poly(ints)
    value = _dmu_remainder_dp(F, mu)
    if symbolic and isinstance(value, int):  # all-zero sum: normalise into the ring
        value = SymPoly.const(n + 1, value)
    return DmuResult(mu, "symbolic" if symbolic else "numeric", value, term_count, dim)


def psd_sequence(F):
    """Principal subresultant coefficients of (F, F') and the distinct-root count.

    psd_k vanishes for k below the gcd degree of F and F' and is nonzero
    there, so the number of distinct roots is n minus the first nonzero
    index.  Rational coefficients are cleared first; zero-testing is
    normalisation-independent.
    """
    if not F:
        raise ZeroPolynomial("psd sequence of the zero polynomial")
    n = F.degree
    if n < 1:
        raise DegreeMismatch("psd sequence needs degree >= 1")
    ints, _ = clear_denominators(list(F.coeffs))
    Fz = Poly(ints)
    chain = subresultant_chain(Fz, Fz.derivative())
    psd = tuple(chain[k].coeff(k) for k in range(n))
    first = next(k for k, v in enumerate(psd) if v)
    return PsdReport(psd, n - first)


def classify_report(F):
    """Distinct-root count, winning partition, and per-candidate certificates."""
    if not F:
        raise ZeroPolynomial("cannot classify the zero polynomial")
    n = F.degree
    report = psd_sequence(F)
    m = report.ndr
    if m == 1:
        return ClassifyReport(n, m, (n,), ())
    if m == n:
        return ClassifyReport(n, m, (1,) * n, ())
    if m == n - 1:
        return ClassifyReport(n, m, (2,) + (1,) * (n - 2), ())
    candidates = partitions(n, m)
    certificates = tuple((nu, dmu(F, nu).value) for nu in candidates)
    winners = [nu for nu, value in certificates if value]
    if len(winners) != 1:
        raise AmbiguousClassification(
            f"{len(winners)} candidates nonzero among {candidates}: "
            f"{[(nu, value) for nu, value in certificates]}"
        )
    return ClassifyReport(n, m, winners[0], certificates)


def classify(F):
    """The multiplicity structure of F, as a partition of its degree."""
    return classify_report(F).multiplicity
