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

D_mu is not computed as one determinant per rearrangement.  Two engines
evaluate it, chosen by the coefficient ring of F.

Integer F (numeric input, denominators cleared first) goes to
_dmu_power_sums.  By the root-side identity D_mu = lc^(n - mu_m) Dbar_mu,
and Dbar_mu is a symmetric function of the roots: the coefficient of s^c
in prod over the roots of (1 + sum_v s_v T_v(alpha)), T_v = F^(v)/v!.  It
follows from the power sums of the roots (Newton's identities on F's
coefficients) and a second Newton recurrence over the multi-indices
a <= c, with about prod_v (c_v + 1) products of n x n matrices by
vectors, polynomial in n.

SymPoly F (the generic F, where lc is the variable a_0) goes to
_dmu_remainder_dp, which is faster over that ring: there the power-sum
recurrence multiplies dense SymPolys and takes more than twice as long
(every partition at n = 5 and at n = 6).  The F-block rows x^j F
(j < n - mu_m) span every multiple F h with deg h < n - mu_m, so each
derivative row can be replaced by its remainder mod F:
det(stack) = lc(F)^(n - mu_m) det(n x n remainder matrix).  The
determinant is multilinear in its rows, so the sum over rearrangements is
a DP over the counts of each part still to place; a state carries the
wedge product of the rows placed so far, summed over every prefix that
reaches it, with up to C(n, n/2) column sets.  Remainders are
pseudo-remainders with one power of lc per slot, divided out exactly at
the end.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import mul

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

    dmu runs it on SymPoly F; int F works too, and the tests compare it
    there with _dmu_power_sums.  Each DP state holds the wedge
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


@lru_cache(maxsize=256)
def _power_sum_plan(n, mu):
    """The tables of _dmu_power_sums that depend on mu only.

    The multi-indices 0 <= a <= c over the distinct parts v, with
    c_v = v * #{i : mu_i = v}, are numbered in mixed radix with the first
    part varying fastest, so a' <= a has the number a - a' as well.  For
    each a > 0, in number order, a row holds: the part k and the number of
    a - e_k, whose product polynomial times U_k gives a's; the signed
    multinomial (-1)^(|a|-1) |a|! / prod a_v!; |a|; and the numbers of
    every 0 <= a' <= a in ascending order.  The box is symmetric under
    a' -> a - a', so reading it backwards gives the matching a - a'.
    Also returns the parts and d(c) = sum c_v (n - v).
    """
    values = sorted(set(mu))
    c = [v * mu.count(v) for v in values]
    strides = [1]
    for ck in c[:-1]:
        strides.append(strides[-1] * (ck + 1))
    rows = []
    for digits in product(*(range(ck + 1) for ck in reversed(c))):
        a = digits[::-1]
        size = sum(a)
        if not size:
            continue
        k = next(i for i, ak in enumerate(a) if ak)
        weight = factorial(size) // prod(factorial(ak) for ak in a)
        box = [0]
        for ak, stride in zip(a, strides):
            box = [s + j * stride for s in box for j in range(ak + 1)]
        box.sort()
        idx = len(rows) + 1
        rows.append((k, idx - strides[k], weight if size % 2 else -weight, size, array("i", box)))
    d_c = sum(ck * (n - v) for ck, v in zip(c, values))
    return tuple(values), tuple(rows), d_c


def _dmu_power_sums(F, mu):
    """D_mu of an integer F from the power sums of its roots.

    Dbar_mu is the coefficient of s^c in prod over the roots alpha of
    (1 + sum_v s_v T_v(alpha)), a symmetric function of the roots, so it
    is reached from F's coefficients alone.  Everything is scaled to the
    roots beta = lc*alpha of the monic integer polynomial
    G(y) = lc^(n-1) F(y/lc): U_v(beta) = lc^(n-v) T_v(alpha) is an integer
    polynomial, and so are the power sums Q_k of beta (Newton's
    identities on G).  The products prod_v U_v^(a_v) are kept reduced mod
    G, each from its predecessor times one U_v (an n x n matrix), so their
    traces tau(a) over the roots need only Q_0..Q_(n-1).  Newton's
    identities in the s_v, |b| E(b) = sum over 0 < a <= b of
    (-1)^(|a|-1) |a|!/prod a_v! E(b - a) tau(a), then give
    E(c) = lc^d(c) Dbar_mu, and D_mu = lc^(n - mu_m) Dbar_mu.  Both
    divisions are exact_div, so a wrong step raises instead of returning.
    """
    n, lc = F.degree, F.lead
    values, rows, d_c = _power_sum_plan(n, mu)
    lc_pows = [lc**i for i in range(n)]
    # G(y) = y^n + g[0] y^(n-1) + ... + g[n-1], g[i-1] = a_i lc^(i-1)
    g = [F.coeff(n - i) * lc_pows[i - 1] for i in range(1, n + 1)]
    # Newton: Q_k = -k g_k - sum_(0<i<k) g_i Q_(k-i), with g_i = g[i-1]
    Q = [n]
    for k in range(1, n):
        Q.append(-k * g[k - 1] - sum(map(mul, g[: k - 1], Q[:0:-1])))
    # mats[k][i][j]: the y^i coefficient of U_v y^j mod G, v = values[k]
    mats = []
    for v in values:
        t = F.taylor_derivative(v)
        col = [t.coeff(j) * lc_pows[n - v - j] for j in range(n - v + 1)] + [0] * (v - 1)
        cols = [col]
        for _ in range(n - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [x - top * gi for x, gi in zip(col, reversed(g))]
            cols.append(col)
        mats.append(list(zip(*cols)))
    # reduced products, their signed weighted traces and E, in number order
    polys, traces, E = [[1] + [0] * (n - 1)], [0], [1]
    for k, pred, weight, size, box in rows:
        p = [sum(map(mul, row, polys[pred])) for row in mats[k]]
        polys.append(p)
        traces.append(weight * sum(map(mul, p, Q)))
        acc = sum(map(mul, map(traces.__getitem__, box[1:]), map(E.__getitem__, box[-2::-1])))
        E.append(exact_div(acc, size))
    total = E[-1]
    if not total:
        return 0
    # d(c) = n^2 - sum mu_i^2 >= n - mu_m: for m >= 2 it is
    # sum_{i != j} mu_i mu_j >= 2 mu_m (n - mu_m); for m = 1 both are 0
    return exact_div(total, lc ** (d_c - (n - mu[-1])))


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
        value = _dmu_remainder_dp(F, mu)
        if isinstance(value, int):  # all-zero sum: normalise into the ring
            value = SymPoly.const(n + 1, value)
    else:
        ints, _ = clear_denominators(list(F.coeffs))
        value = _dmu_power_sums(Poly(ints), mu)
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
