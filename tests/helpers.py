"""Independent oracles shared by the test modules.

These are deliberately naive implementations (cofactor expansion,
factorial-time permanents, brute-force enumerations) kept separate from
the library code paths they validate.
"""

from itertools import combinations
from itertools import permutations as iter_permutations

from multdisc.sympoly import SymPoly
from multdisc.unipoly import Poly


def identity(k):
    """The k x k identity matrix, as rows."""
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def matmul(a, b):
    """The matrix product of a and b, given as rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def naive_det(rows):
    """Cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        e = rows[0][j]
        if not e:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = e * naive_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def naive_permanent(rows):
    """Sum over all column-selection permutations of entry products."""
    n = len(rows)
    total = 0
    for perm in iter_permutations(range(n)):
        prod = 1
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + prod
    return total


def brute_partitions(n, m):
    """All non-increasing m-tuples of positive ints summing to n (set-built)."""
    if m == 1:
        return {(n,)}
    out = set()
    for first in range(1, n):
        for rest in brute_partitions(n - first, m - 1):
            if first >= rest[0]:
                out.add((first,) + rest)
    return out


def principal_oracle(P, Q, k, p, q):
    """Principal coefficient of S_k(P, Q) at formal degrees p > q, from an
    explicitly assembled square coefficient matrix and the
    cofactor-expansion determinant; Q's x^q coefficient to the power p - q
    for k == q."""
    if k == q:
        return Q.coeff(q) ** (p - q)
    top = p + q - k - 1
    rows = []
    for shift in range(q - k - 1, -1, -1):
        rows.append([P.coeff(top - t - shift) for t in range(p + q - 2 * k)])
    for shift in range(p - k - 1, -1, -1):
        rows.append([Q.coeff(top - t - shift) for t in range(p + q - 2 * k)])
    return naive_det(rows)


def subresultant_oracle(P, Q, k, p, q):
    """Coefficients x^k .. x^0 of S_k(P, Q) at formal degrees p > q: the
    cofactor determinant of each (p+q-2k)-square submatrix, the first
    p+q-2k-1 columns of S_k's explicitly assembled matrix plus the
    degree-j column."""
    top = p + q - k - 1
    rows = []
    for shift in range(q - k - 1, -1, -1):
        rows.append([P.coeff(top - t - shift) for t in range(top + 1)])
    for shift in range(p - k - 1, -1, -1):
        rows.append([Q.coeff(top - t - shift) for t in range(top + 1)])
    size = p + q - 2 * k
    return [
        naive_det([row[: size - 1] + [row[top - j]] for row in rows])
        for j in range(k, -1, -1)
    ]


def psd_oracle(F, k):
    """k-th principal subresultant coefficient of (F, F')."""
    return principal_oracle(F, F.derivative(), k, F.degree, F.degree - 1)


def root_product_dmu(lead, roots, mults):
    """D_mu of lead * prod_i (x - roots[i])^mults[i] from its distinct roots alone:

        (-1)^((n^2 - sum mu_i^2)/2) lc^(2n - mu_m) prod_(i<j) (r_i - r_j)^(2 mu_i mu_j)

    It takes no derivative, remainder or resultant of the polynomial."""
    n = sum(mults)
    value = lead ** (2 * n - min(mults))
    for i, j in combinations(range(len(roots)), 2):
        value *= (roots[i] - roots[j]) ** (2 * mults[i] * mults[j])
    return -value if (n * n - sum(v * v for v in mults)) // 2 % 2 else value


def random_sympoly(rng, nvars, max_terms=4, max_exp=3, coeff_bound=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return SymPoly(nvars, terms)


def random_poly(rng, max_deg=6, bound=9):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    coeffs[0] = rng.choice([1, 2, 3, -1, -2, -3])
    return Poly(coeffs)


def translate(F, t):
    """F(x + t) by Horner composition."""
    acc = Poly([F.coeffs[0]])
    for c in F.coeffs[1:]:
        acc = acc * Poly([1, t]) + Poly([c])
    return acc


def naive_str(nvars, terms):
    """Reference text of a SymPoly given as {exponent tuple: coefficient}:
    terms in descending graded-lex order, a_0 the most significant."""
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return "0"
    out = ""
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        factors = [f"a{i}" if k == 1 else f"a{i}^{k}" for i, k in enumerate(e) if k]
        if abs(c) != 1 or not factors:
            factors = [str(abs(c))] + factors
        sign = "-" if c < 0 else "+"
        body = "*".join(factors)
        out = (f"-{body}" if c < 0 else body) if not out else f"{out} {sign} {body}"
    return out
