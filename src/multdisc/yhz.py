"""The repeated-subresultant multiplicity condition and its size formulas.

The baseline condition for multiplicity structure mu builds a chain
G_0 = F, G_i = S_(s_i)(G_(i-1), G_(i-1)') with s_i = sum_j max(mu_j - i, 0),
and states: all principal coefficients sbar_j(G_i) vanish for
i = 1..mu_1-2, j = 0..s_(i+1)-1, while sbar_0(G_(mu_1-1)) does not.

Each pair (G_i, G_i') is read at *formal* degrees (s_i, s_i - 1), s_0 = n,
so evaluating the symbolic chain at a point equals running it there, even
where leading coefficients vanish.  Below its formal degree p, G gives
S_k = 0 for k < p - 1 (the top column is zero) and S_(p-1) = G'; at it,
numeric G takes one remainder sequence and symbolic G the determinants.

The closed-form size of the condition: the number of polynomials is
1 + sum_i C(mu_i - 1, 2), and the maximum total degree in the coefficients
follows the three-case product formula implemented in yhz_degree, bounded
below by 2n + 3^(mu_2) - 4 mu_2.
"""

from dataclasses import dataclass
from math import comb

from .combinat import check_partition
from .discriminant import check_symbolic_degree, over_cap
from .errors import Anomaly, MultdiscError
from .subresultants import subresultant_chain, subresultant_det
from .unipoly import Poly

# the most chain work of a numeric yhz_condition, n^6 D for closed-form
# degree D (6n, about that of (n - 1, 1), where the closed form is not
# stated): up to n chain steps, each a remainder sequence, so a small D
# does not bound it.  Measured times follow n^6 D within a factor of
# three, about 1 s per 5 * 10^12.  (11, 11) is at the cap, so every
# partition of n <= 22 is admitted; (60, 1) took 4.5 s, (61) 4.2 s and
# (11, 11) 4.5 s, while (79, 1) took 25 s and (12, 12) 67 s.  A closed-form
# degree over 3^11 needs n >= 23, so it is over the cap too
YHZ_WORK_CAP = 22**6 * 3**11


@dataclass(frozen=True)
class YhzCondition:
    equations: tuple  # values that must all vanish
    inequation: object  # value that must not vanish

    def is_satisfied(self):
        return not any(self.equations) and bool(self.inequation)


def s_sequence(mu):
    """s_i = sum_j max(mu_j - i, 0) for i = 1..mu_1."""
    mu = check_partition(mu)
    return tuple(sum(max(part - i, 0) for part in mu) for i in range(1, mu[0] + 1))


def yhz_count(mu):
    """Number of polynomials in the condition: 1 + sum C(mu_i - 1, 2)."""
    mu = check_partition(mu)
    return 1 + sum(comb(part - 1, 2) for part in mu)


def _odd_product(mu, stop):
    """prod of 2 m_j - 1 over j < stop, m_j the number of parts exceeding j.

    m_j is constant between consecutive distinct parts, so one pow per run.
    """
    total, start = 1, 0
    for v in sorted(set(mu)):
        if start >= stop:
            break
        total *= (2 * sum(part > start for part in mu) - 1) ** (min(v, stop) - start)
        start = v
    return total


def yhz_degree(mu):
    """Maximum total degree among the condition polynomials (closed form).

    Stated for 2 <= m <= n - 2 parts.  At m = n - 1, mu = (2, 1^(n-2)), the
    condition is the inequation alone, a coefficient of S_1(F, F') of
    degree 2n - 3, not the formula's 2n - 1.
    """
    mu = check_partition(mu)
    if not 2 <= len(mu) <= sum(mu) - 2:
        raise MultdiscError("the degree formula needs 2 <= m <= n - 2 parts")
    mu1, mu2 = mu[0], mu[1]
    if mu1 == mu2:
        return _odd_product(mu, mu2)
    if mu1 == mu2 + 1:
        # the fractional middle case collapses to an integer product; m_(mu_2 - 1) counts the parts >= mu_2
        return _odd_product(mu, mu2 - 1) * (2 * sum(part >= mu2 for part in mu) + 1)
    return _odd_product(mu, mu2) * (2 * (mu1 - mu2) - 1)


def yhz_degree_lower_bound(n, mu2):
    """2n + 3^(mu_2) - 4 mu_2."""
    if mu2 < 1:
        raise MultdiscError("mu_2 must be at least 1")
    return 2 * n + 3 ** mu2 - 4 * mu2


def _steps(G, p, ks):
    """S_k(G, G') at formal degrees (p, p - 1) for each k in ks, 0 <= k < p."""
    if G.degree < p:
        return [G.derivative() if k == p - 1 else Poly() for k in ks]
    if G.is_symbolic():
        return [subresultant_det(G, G.derivative(), k) for k in ks]
    chain = subresultant_chain(G, G.derivative())
    return [chain[k] for k in ks]


def check_chain(mu, symbolic):
    """Refuse mu_1 < 2, symbolic F over SYMBOLIC_CAP and numeric F over YHZ_WORK_CAP (MultdiscError)."""
    n = sum(mu)
    if mu[0] < 2:
        raise MultdiscError("the chain is undefined for mu_1 < 2")
    if symbolic:
        check_symbolic_degree(n, "chain")
    else:
        degree = yhz_degree(mu) if 2 <= len(mu) <= n - 2 else 6 * n
        if (work := n**6 * degree) > YHZ_WORK_CAP:
            raise over_cap("yhz", mu, "chain work n^6 D", work, YHZ_WORK_CAP)


def yhz_condition(F, mu):
    """Build the chain and collect the condition values for F and mu.

    Step i = 0..mu_1-1 reads S_k(G_i, G_i') for k < s_(i+1) when i >= 1,
    whose principal coefficients are the equations, and S_(s_(i+1)): that
    is G_(i+1), except at the last step, where s_(mu_1) = 0 and S_0's
    constant is the inequation.  Only the current G_i is held.
    In symbolic mode an identically vanishing chain member or inequation
    raises Anomaly, never skipped.  In numeric mode zero
    chain members simply propagate zeros into the collected values, which
    is exactly what specialising the symbolic chain would produce.
    check_chain refuses before any arithmetic.
    """
    mu = check_partition(mu)
    n = sum(mu)
    if not F or F.degree != n:
        raise MultdiscError(f"need deg F = sum(mu) = {n}")
    symbolic = F.is_symbolic()
    check_chain(mu, symbolic)
    G, equations, p = F, [], n
    for i, k in enumerate(s_sequence(mu)):
        *steps, G = _steps(G, p, [*range(k if i else 0), k])
        equations += [S.coeff(j) for j, S in enumerate(steps)]
        if k:  # s_(i+1) > 0 for i < mu_1 - 1: G is the next chain member
            if symbolic and not G:
                raise Anomaly(f"G_{i + 1} vanishes identically for mu={mu}")
            p = k
    inequation = G.coeff(0)
    if symbolic and not inequation:
        raise Anomaly(f"inequation vanishes identically for mu={mu}")
    return YhzCondition(tuple(equations), inequation)


def measured_size(cond):
    """(polynomial count, max total degree) of a symbolic condition."""
    count = len(cond.equations) + 1
    degrees = [v.total_degree() for v in cond.equations + (cond.inequation,) if v]
    return count, max(degrees)
