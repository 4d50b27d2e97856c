"""Multiplicity discriminants for univariate polynomials.

For an m-part partition mu of n, the discriminant D_mu(F) is the sum, over
all distinct rearrangements sigma of the expanded tuple p (each part mu_i
repeated mu_i times), of the determinant of the stacked coefficient rows

    x^(n-mu_m-1) F, ..., x^0 F,
    x^(n-1) F^(sigma_1)/sigma_1!, ..., x^0 F^(sigma_n)/sigma_n!,

a square stack of dimension 2n - mu_m.  Among degree-n polynomials with
exactly m distinct roots, D_mu(F) != 0 holds precisely when the
multiplicity structure of F is mu.

classify_report uses that theorem to certify, not to search, in one pass
over F with its denominators cleared once.  Every gcd it takes goes
through _gcd: the primitive part of the subresultant chain step at the
first nonzero principal coefficient.  g = gcd(F, F') gives m = n - deg g.
One image mod the prime p = GCD_PRIME = 2^31 - 1 comes first: when p does
not divide lc(F), deg g <= deg gcd(F mod p, F' mod p) (W. S. Brown, JACM
18(4), 1971), so an image gcd of degree 0 proves F squarefree, m = n, and
the chain is never run.  Otherwise the chain decides, and a chain gcd
above the image's degree raises Anomaly.  When p divides lc(F), the chain
decides alone.  From g one run of Yun's squarefree decomposition
F = c prod_i f_i^i (D. Y. Y. Yun, SYMSAC 1976), each quotient exact,
yields mu and its D_mu together: f_i carries the roots of multiplicity i,
and each f_i of positive degree extends mu and the closed form below
(lc and T_v = F^(v)/v! as in the next paragraph).  A root of
multiplicity i has T_v(alpha) = 0 for v < i, so in the root-side identity
below every root of multiplicity i contributes T_i(alpha) to each of its
i factors, and

    D_mu = lc^(n - mu_m) prod_i N_i^i,   N_i = prod over f_i(alpha) = 0 of T_i(alpha).

R = prem(T_i, f_i) equals lc(f_i)^e T_i at the roots of f_i, with
e = deg T_i - deg f_i + 1, so the resultant res(f_i, R) is
lc(f_i)^(deg R + e deg f_i) N_i, and the whole product is one exact
division of integers.  Every other candidate with m parts has
D_nu = 0 by the theorem, and is reported as 0 without evaluating it.
If m and Yun's part count disagree, or the certificate is 0 or not an
integer, the theorem or the code is wrong, and classify raises Anomaly.
`verify --suite certificates` runs the exhaustive check: psd_sequence's
m and dmu on every candidate, against classify's report.

D_mu is not computed as one determinant per rearrangement.  Write lc for
the leading coefficient of F, T_v = F^(v)/v! for a distinct part v,
c_v = v * #{i : mu_i = v}, and d(a) = sum_v a_v (n - v).  The root-side
identity is D_mu = lc^(n - mu_m) Dbar_mu, where Dbar_mu is the coefficient
of s^c in prod over the roots alpha of sum_v s_v T_v(alpha).  Scaled to the
roots beta = lc*alpha of the monic G(y) = lc^(n-1) F(y/lc), the
polynomials U_v(y) = lc^(n-v) T_v(y/lc) have coefficients in F's ring and
U_v(beta) = lc^(n-v) T_v(alpha).  The matrix M_v of multiplication by U_v
mod G has the eigenvalues U_v(beta), so

    E(c) = [s^c] det(sum_v s_v M_v) = lc^d(c) Dbar_mu,

and D_mu = E(c) / lc^(d(c) - (n - mu_m)), one exact division: exact_div
over Z, or sympoly_div by the monomial a_0^k for the generic F.
_scaled_columns builds the M_v with ring operations only, for int and
SymPoly coefficients alike.  Two kernels read E(c) off them, chosen by the
coefficient ring:

* _newton_traces, over Z only (numeric input, denominators cleared
  first).  Newton's identities on G give the power sums of beta, hence the
  traces of the products prod_v M_v^(a_v); a second Newton recurrence over
  the multi-indices a <= c turns those traces into E(c), dividing by |b|
  in Z at each step.  The work is prod_v (c_v + 1) products of an n x n
  matrix by a vector and prod_v (c_v + 1)(c_v + 2)/2 convolution terms,
  both known from mu before any arithmetic; above NEWTON_WORK_CAP for
  prod_v (c_v + 1) n^3, dmu raises MultdiscError at once.
* linalg.wedge_dp, for SymPoly F (the generic F, where lc is the variable
  a_0), with the M_v as its sources.  The determinant is multilinear in
  its columns, so E(c) sums det over every way to take column j from some
  M_v, c_v columns from each.  A DP over the counts still to place
  carries the wedge product of the columns taken so far, with up to
  C(n, n/2) row bitmasks per state, and drops the bitmasks that the
  remaining columns cannot complete.  It divides nothing.  Over SymPoly
  it was measured faster than the Newton recurrence, which multiplies
  dense SymPolys: summed over every partition, 0.05 vs 0.29 s at n = 6
  and 1.0 vs 7.0 s at n = 7 (best of three, 2 CPUs, Python 3.11.7).
"""

from dataclasses import dataclass
from itertools import product
from math import factorial, gcd, prod
from operator import mul

from .combinat import check_partition, expand_partition, partition_count, partitions, permutation_count
from .errors import Anomaly, MultdiscError
from .linalg import wedge_dp
from .scalars import clear_denominators, exact_div, format_scalar
from .subresultants import pseudo_rem, subresultant_chain
from .sympoly import SymPoly, sympoly_div
from .unipoly import Poly, poly_div

# the largest degree of a symbolic dmu or yhz_condition: at n = 7 the
# slowest command takes about a second, at n = 8 one yhz took 657 s
SYMBOLIC_CAP = 7
# the most candidate partitions classify lists: p(n, m) grows without
# bound in n, p(100, 50) = 204,226
CANDIDATE_CAP = 200_000
# the most matrix-vector work of the Newton kernel, prod_v (c_v + 1) n^3 (n^2
# products of integers that grow with n, per matrix-vector product): every
# partition of n <= 21 is under it, the largest (6,5,4,3,2,1) with 46,675,440,
# while 1^n is over it from n = 84 on (1^180 took 104 s).  It also keeps the
# prod_v (c_v + 1)(c_v + 2)/2 convolution terms under 2,000,000: checked for
# n <= 60, and above that they are at most prod_v (c_v + 1)^2 < (cap / n^3)^2
NEWTON_WORK_CAP = 50_000_000
# the prime of classify's one-image gcd bound: its residues are small ints
GCD_PRIME = 2**31 - 1


def check_symbolic_degree(n, what):
    """Refuse a symbolic `what` of degree n over SYMBOLIC_CAP, before F is built (MultdiscError)."""
    if n > SYMBOLIC_CAP:
        raise MultdiscError(f"symbolic {what} capped at degree {SYMBOLIC_CAP}")


def over_cap(command, mu, measure, work, cap):
    """The one-line MultdiscError of a numeric command on mu whose work, by measure, is over cap."""
    if len(mu) > 10:  # by its first parts and its part count
        mu = f"({', '.join(map(str, mu[:5]))}, ..., {len(mu)} parts)"
    if len(work := format_scalar(work)) > 30:  # by its size; str(int) refuses 4300 digits
        work = f"a number of {len(work)} digits"
    return MultdiscError(f"{command} of {mu} needs {measure} = {work}, over the cap of {cap}")


@dataclass(frozen=True)
class DmuResult:
    value: object  # int (numeric) or SymPoly (symbolic)
    term_count: int


@dataclass(frozen=True)
class PsdReport:
    psd: tuple
    ndr: int


@dataclass(frozen=True)
class ClassifyReport:
    multiplicity: tuple  # its length is the distinct-root count
    certificates: tuple  # ((mu, value), ...) in candidate order


def dmu_degree(n, mu):
    """Total degree of D_mu in the coefficients: 2n - mu_m."""
    mu = check_partition(mu)
    if sum(mu) != n:
        raise MultdiscError(f"{mu} is not a partition of {n}")
    return 2 * n - mu[-1]


def dmu_rows(n, mu, sigma, F):
    """The 2n - mu_m stacked polynomials for one derivative-order assignment."""
    mu = check_partition(mu)
    if F.degree != n or sum(mu) != n:
        raise MultdiscError(f"need deg F = sum(mu) = {n}")
    if sorted(sigma) != sorted(expand_partition(mu)):
        raise MultdiscError(f"{sigma} is not a rearrangement of the expanded tuple")
    rows = [F.shift_mul(s) for s in range(n - mu[-1] - 1, -1, -1)]
    rows.extend(
        F.taylor_derivative(sigma[i]).shift_mul(n - 1 - i) for i in range(n)
    )
    return rows


def _scaled_columns(F, values):
    """G's lower coefficients and the columns of the M_v, v in values.

    G(y) = y^n + g[0] y^(n-1) + ... + g[n-1] with g[i-1] = a_i lc^(i-1).
    cols[k][j] is the coefficient vector, y^0 first, of U_v y^j mod G for
    v = values[k]; column j + 1 is column j times y, reduced by one
    multiple of G.  Only ring operations are used.
    """
    n, lc = F.degree, F.lead
    lc_pows = [lc**i for i in range(n)]
    g = [F.coeff(n - i) * lc_pows[i - 1] for i in range(1, n + 1)]
    cols = []
    for v in values:
        t = F.taylor_derivative(v)
        col = [t.coeff(j) * lc_pows[n - v - j] for j in range(n - v + 1)] + [0] * (v - 1)
        mv = [col]
        for _ in range(n - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [x - top * gi for x, gi in zip(col, reversed(g))]
            mv.append(col)
        cols.append(mv)
    return g, cols


def _newton_traces(g, cols, c):
    """E(c), from the power sums Q_k of the roots beta of G.

    The multi-indices 0 <= a <= c over the distinct parts are walked in
    mixed radix with the first part varying fastest, and numbered in that
    order, so a' <= a has the number a - a' as well.  The product
    polynomial prod_v U_v^(a_v) is kept reduced mod G, made from that of
    a - e_k, k the first nonzero part, times one M_v, so its trace tau(a)
    over the roots needs only Q_0..Q_(n-1).  Newton's identities in the
    s_v, |b| E(b) = sum over 0 < a <= b of (-1)^(|a|-1) |a|!/prod a_v!
    E(b - a) tau(a), then give E(c).  The box of the numbers of every
    a' <= b is built in ascending order, and it is symmetric under
    a' -> b - a', so reading it backwards gives the matching b - a'.  The
    division by |b| is exact_div, so a wrong step raises instead of
    returning.
    """
    n = len(g)
    # Newton: Q_k = -k g_k - sum_(0<i<k) g_i Q_(k-i), with g_i = g[i-1]
    Q = [n]
    for k in range(1, n):
        Q.append(-k * g[k - 1] - sum(map(mul, g[: k - 1], Q[:0:-1])))
    # mats[k][i][j]: the y^i coefficient of U_v y^j mod G, v the k-th part
    mats = [list(zip(*mv)) for mv in cols]
    strides = [1]
    for ck in c[:-1]:
        strides.append(strides[-1] * (ck + 1))
    # reduced products, their signed weighted traces and E, in number order
    polys, traces, E = [[1] + [0] * (n - 1)], [0], [1]
    for digits in product(*(range(ck + 1) for ck in reversed(c))):
        size = sum(digits)
        if not size:
            continue
        a = digits[::-1]
        k = next(i for i, ak in enumerate(a) if ak)
        # a - e_k has the number of a less strides[k]
        p = [sum(map(mul, row, polys[-strides[k]])) for row in mats[k]]
        polys.append(p)
        weight = factorial(size) // prod(map(factorial, a))
        traces.append((weight if size % 2 else -weight) * sum(map(mul, p, Q)))
        # every number in box is below stride, so j outermost keeps it ascending
        box = [0]
        for ak, stride in zip(a, strides):
            box = [s + j * stride for j in range(ak + 1) for s in box]
        acc = sum(map(mul, map(traces.__getitem__, box[1:]), map(E.__getitem__, box[-2::-1])))
        E.append(exact_div(acc, size))
    return E[-1]


def dmu(F, mu):
    """D_mu(F), exact; symbolic when F has symbolic coefficients.

    Numeric coefficients are normalised to integers by clearing
    denominators first; D_mu is homogeneous of degree 2n - mu_m, so the
    zero/nonzero verdict is unaffected and the reported value is the one
    for the scaled integer polynomial.  Symbolic F is capped at degree
    SYMBOLIC_CAP, numeric F at NEWTON_WORK_CAP matrix-vector work
    (MultdiscError).
    """
    mu = check_partition(mu)
    if not F:
        raise MultdiscError("dmu of the zero polynomial")
    n = F.degree
    if sum(mu) != n:
        raise MultdiscError(f"{mu} does not partition deg F = {n}")
    values = sorted(set(mu))
    c = [v * mu.count(v) for v in values]
    # d(c) = n^2 - sum mu_i^2 >= n - mu_m: for m >= 2 it is
    # sum_{i != j} mu_i mu_j >= 2 mu_m (n - mu_m); for m = 1 both are 0.
    d_c = n * n - sum(p * p for p in mu)
    if F.is_symbolic():
        check_symbolic_degree(n, "dmu")
        _, cols = _scaled_columns(F, values)
        wedge = wedge_dp(cols, c)
        total = wedge.get((1 << n) - 1, 0)
        if isinstance(total, int):  # no SymPoly entry was taken
            total = SymPoly.const(n + 1, total)
        value = sympoly_div(total, F.lead ** (d_c - (n - mu[-1])))
    else:
        if (work := prod(ck + 1 for ck in c) * n**3) > NEWTON_WORK_CAP:
            raise over_cap("dmu", mu, "prod_v (c_v + 1) n^3", work, NEWTON_WORK_CAP)
        ints, _ = clear_denominators(list(F.coeffs))
        F = Poly(ints)
        g, cols = _scaled_columns(F, values)
        total = _newton_traces(g, cols, c)
        value = exact_div(total, F.lead ** (d_c - (n - mu[-1])))
    # after both caps: n! alone takes seconds at n = 300,000
    return DmuResult(value, permutation_count(expand_partition(mu)))


def psd_sequence(F):
    """Principal subresultant coefficients of (F, F') and the distinct-root count.

    psd_k vanishes for k below the gcd degree of F and F' and is nonzero
    there, so the number of distinct roots is n minus the first nonzero
    index.  Rational coefficients are cleared first; zero-testing is
    normalisation-independent.  It is the route that checks classify's m.
    """
    if not F:
        raise MultdiscError("psd sequence of the zero polynomial")
    n = F.degree
    if n < 1:
        raise MultdiscError("psd sequence needs degree >= 1")
    ints, _ = clear_denominators(list(F.coeffs))
    Fz = Poly(ints)
    chain = subresultant_chain(Fz, Fz.derivative())
    psd = tuple(chain[k].coeff(k) for k in range(n))
    return PsdReport(psd, n - next(k for k, v in enumerate(psd) if v))


def _gcd(P, Q):
    """The primitive gcd of integer P and Q, deg P > deg Q or Q = 0.

    It is the chain step at the first nonzero principal subresultant
    coefficient.  Every gcd of classify, gcd(F, F') included, is taken here.
    """
    if Q:
        P = next(S for k, S in enumerate(subresultant_chain(P, Q)) if S.coeff(k))
    content = gcd(*P.coeffs)
    return Poly([c // content for c in P.coeffs])


def _gcd_degree_mod_p(F):
    """deg gcd(F mod p, F' mod p) for integer F and p = GCD_PRIME, or None when p | lc(F).

    The primitive gcd g of F and F' divides both over Z, and lc(g) divides
    lc(F), so when p does not divide lc(F), g mod p keeps its degree and
    divides both images: deg g is at most the degree returned.  Euclid's
    algorithm runs fraction-free on descending residue lists.
    """
    p = GCD_PRIME
    a = [c % p for c in F.coeffs]
    if not a[0]:
        return None
    n = len(a) - 1
    b = [c * (n - i) % p for i, c in enumerate(a[:-1])]
    while any(b):
        while not b[0]:
            del b[0]
        lb, tail = b[0], b[1:]
        while len(a) > len(b) + 1:
            # a quotient of higher degree: a <- lb a - a_0 x^(deg a - deg b) b, its top term dropped
            top = a[0]
            a = [(lb * x - top * y) % p for x, y in zip(a[1:], tail + [0] * (len(a) - len(b)))]
        # then its last two terms in one pass: lb^2 a - (lb a_0 x + q) b with
        # q = lb a_1 - a_0 b_1, its top two terms dropped
        q = (lb * a[1] - a[0] * tail[0]) % p if tail else 0
        u, w = lb * lb % p, lb * a[0] % p
        a, b = b, [(u * x - w * y - q * z) % p for x, y, z in zip(a[2:], tail[1:] + [0], tail)]
    return len(a) - 1


def _certify(F, g, m):
    """mu and D_mu(F) for integer F with m distinct roots, g the primitive gcd(F, F').

    One run of Yun's recurrence: b = F/g, d = F'/g - b'; then f_i =
    gcd(b, d), b <- b/f_i and d <- d/f_i - (b/f_i)'.  Every gcd is
    primitive, so by Gauss's lemma every quotient is an exact one over the
    integers, and poly_div raises on a remainder.  A part f_i of positive
    degree adds deg f_i parts i to mu and N_i^i to the closed form above.
    """
    n = F.degree
    b = poly_div(F, g)
    d = poly_div(F.derivative(), g) - b.derivative()
    mu, num, den, i = (), 1, 1, 0
    # F has no root of multiplicity above deg F, so a correct run stops by
    # then; the bound turns a defect into a part count that is rejected
    while b.degree > 0 and i < n:
        i += 1
        f = _gcd(b, d)
        b = poly_div(b, f)
        d = poly_div(d, f) - b.derivative()
        if not f.degree:
            continue
        mu = (i,) * f.degree + mu
        # deg T_i = n - i >= deg f_i, as F has a root outside f_i
        t = F.taylor_derivative(i)
        r = pseudo_rem(t, f)
        if not r:
            num = 0
            continue
        num *= subresultant_chain(f, r)[0].coeff(0) ** i
        den *= f.lead ** (i * (r.degree + (t.degree - f.degree + 1) * f.degree))
    if len(mu) != m:
        raise Anomaly(f"gcd(F, F') leaves {m} distinct roots, Yun's decomposition {len(mu)}: {mu}")
    value, rest = divmod(F.lead ** (n - mu[-1]) * num, den)
    if rest:
        raise Anomaly(f"the certificate of {mu} is not an integer")
    if not value:
        raise Anomaly(f"the certificate of {mu} is 0")
    return mu, value


def classify_report(F):
    """Multiplicity structure and per-candidate certificates.

    Candidates other than the structure read 0 by the paper's theorem;
    see the module docstring.  They are counted before they are listed,
    and more than CANDIDATE_CAP of them raise MultdiscError.
    """
    if not F:
        raise MultdiscError("cannot classify the zero polynomial")
    n = F.degree
    if n < 1:
        raise MultdiscError("cannot classify a constant: it has no roots")
    ints, _ = clear_denominators(list(F.coeffs))
    F = Poly(ints)
    # one image settles a squarefree F; otherwise it bounds the chain's gcd
    bound = _gcd_degree_mod_p(F)
    g = Poly([1]) if bound == 0 else _gcd(F, F.derivative())
    if bound is not None and g.degree > bound:
        raise Anomaly(f"gcd(F, F') has degree {g.degree}, above the degree {bound} of its image mod {GCD_PRIME}")
    m = n - g.degree
    if (count := partition_count(n, m)) > CANDIDATE_CAP:
        raise MultdiscError(f"{count} candidate structures for degree {n}, over the cap of {CANDIDATE_CAP}")
    candidates = partitions(n, m)
    if len(candidates) == 1:  # m in {1, n - 1, n}
        return ClassifyReport(candidates[0], ())
    mu, value = _certify(F, g, m)
    return ClassifyReport(mu, tuple((nu, value if nu == mu else 0) for nu in candidates))


def classify(F):
    """The multiplicity structure of F, as a partition of its degree."""
    return classify_report(F).multiplicity
