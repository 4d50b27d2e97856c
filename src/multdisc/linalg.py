"""Exact linear algebra over the integer, rational and symbolic rings.

Integer and rational determinants are computed fraction-free over Z
(Bareiss elimination with first-nonzero pivoting, each division an exact
one in Z; E. H. Bareiss, Math. Comp. 22, 1968): a rational row is cleared
to integers first, and the determinant is divided once by the product of
the row factors.  Symbolic matrices never reach Bareiss:
banded and mostly zero here, they would swell under it, so all of them
go to one division-free kernel, wedge_dp: a forward DP that takes
one line per step from one of several sources (one source for det and
dets_with_last_row, the multiplication matrices M_v for the
discriminant's D_mu).  It drops every state whose unused columns the
remaining lines cannot fill, judged by the union of the sources' nonzero
patterns.

The order follows the sparsity (W. M. Gentleman and S. C. Johnson,
"Analysis of algorithms, a case study: determinants of matrices with
polynomial entries", ACM TOMS 2(3), 1976).  Rows are taken densest first,
and the lines held out go last: dets_with_last_row holds out the lines it
varies, and det, which is dets_with_last_row with one last line, holds
out the matrix's last row.  Every state of the last layer must miss a
column where a last line is nonzero, so a sparse last line prunes the
most.  All last lines read that one layer, so subresultant_det gets its
k + 1 coefficients for about the cost of one determinant.
dets_with_last_row is the one place that chooses Bareiss or wedge_dp by
the coefficient ring.

A matrix is a sequence of equal-length rows, and each function checks
the shape it needs at entry.  Permanents use Ryser's inclusion-exclusion
with a Gray-code walk and are capped, since the permanent only ever backs
small oracle computations.
"""

from fractions import Fraction

from .errors import MultdiscError
from .scalars import clear_denominators, exact_div
from .sympoly import SymPoly, sum_of_products

PERMANENT_CAP = 14


def _shape(rows):
    """(row count, column count) of a matrix given as a sequence of rows; ragged rows raise."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise MultdiscError("ragged rows")
    return len(rows), ncols


def _square(rows, what):
    """The size of a square matrix given as rows, else a MultdiscError naming what needs it."""
    nrows, ncols = _shape(rows)
    if nrows != ncols:
        raise MultdiscError(f"{what} of a {nrows}x{ncols} matrix")
    return nrows


def det(rows):
    """Exact determinant of a square matrix given as rows; zero for a singular one."""
    if not _square(rows, "determinant"):
        return 1
    return dets_with_last_row(rows[:-1], rows[-1:])[0]


def dets_with_last_row(rows, lasts):
    """det of the square matrix rows + [last], for each line in lasts.

    Integer and rational entries go to Bareiss, one matrix per last line.
    On symbolic entries all of them read one wedge_dp layer on the shared
    rows, so together they cost about one determinant.  The n - 1 shared
    rows are taken densest first, and the sign of that permutation is
    applied at the end.  The union pattern of the lasts goes in as one
    more line, which wedge_dp reads for pruning but never takes, so the
    layer keeps only masks that miss one column where some last is nonzero.
    """
    rows, lasts = list(rows), list(lasts)
    if not any(isinstance(e, SymPoly) for line in rows + lasts for e in line):
        return [_det_bareiss(rows + [last]) for last in lasts]
    n = len(rows) + 1
    order = sorted(range(n - 1), key=lambda i: _weight(rows[i]), reverse=True)
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
    union = [any(last[i] for last in lasts) for i in range(n)]
    layer = wedge_dp([[rows[i] for i in order] + [union]], [n - 1])
    full = (1 << n) - 1
    values = []
    for last in lasts:
        pairs = []
        for mask, coef in layer.items():
            i = (full ^ mask).bit_length() - 1
            # e_mask ^ e_i = (-1)^(n - 1 - i) e_full
            if last[i]:
                pairs.append((coef, -last[i] if (n - 1 - i + odd) % 2 else last[i]))
        values.append(sum_of_products(pairs))
    return values


def _det_bareiss(rows):
    a, scale = [], 1
    for row in rows:
        ints, factor = clear_denominators(row)
        a.append(ints)
        scale *= factor
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = exact_div(piv * row_i[j] - aik * row_k[j], prev)
            row_i[k] = 0
        prev = piv
    value = a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]
    return value if scale == 1 else exact_div(Fraction(value), scale)


def _weight(line):
    """(nonzero entries, SymPoly terms) of a line; an int counts as one term."""
    nonzero = [e for e in line if e]
    return len(nonzero), sum(len(e.terms) if isinstance(e, SymPoly) else 1 for e in nonzero)


def wedge_dp(sources, counts):
    """Wedge products of lines taken one per step from several sources.

    Each source is n lines of length n, and sources[k][j] is the line
    that source k offers at step j.  Step j takes the line of one source,
    counts[k] of the first sum(counts) steps take source k, and the
    result sums the wedge product of the taken lines over every such
    choice, as {column mask: coefficient}.  With one source taken whole,
    the coefficient of the full mask is its determinant.  Lines after the
    last step are never taken; they are only read for pruning.

    A state is (counts left, column mask), and two layers of states live
    at a time.  A step lists the signed (coefficient, entry) pairs that
    reach each state and sums each list with one sum_of_products.  After
    step j a mask survives only if lines j + 1, ... can fill its unused
    columns one each, where line t may use every column at which some
    source's line t is nonzero.  Those fillable sets are built backwards
    from the empty set, before the first step.
    """
    n = len(sources[0])
    full = (1 << n) - 1
    # fillable[t]: the column sets that the last t lines can fill
    fillable = [{0}]
    for j in range(n - 1, 0, -1):
        bits = [1 << i for i in range(n) if any(source[j][i] for source in sources)]
        fillable.append({s | b for s in fillable[-1] for b in bits if not s & b})
    layer = {tuple(counts): {0: 1}}
    for j in range(sum(counts)):
        slot = [[(1 << i, i + 1, x, -x) for i, x in enumerate(source[j]) if x] for source in sources]
        # masks of j + 1 columns that survive step j; a mask that already
        # holds bit has j columns, so it is never among them
        keep = {full ^ s for s in fillable[n - 1 - j]}
        targets = {}
        for state, wedge in layer.items():
            for k, left in enumerate(state):
                if not left:
                    continue
                out = targets.setdefault(state[:k] + (left - 1,) + state[k + 1:], {})
                for mask, coef in wedge.items():
                    for bit, above, x, neg in slot[k]:
                        new = mask | bit
                        if new not in keep:
                            continue
                        # e_S ^ e_i = (-1)^#{s in S: s > i} e_(S+i)
                        term = (coef, neg if (mask >> above).bit_count() & 1 else x)
                        if new in out:
                            out[new].append(term)
                        else:
                            out[new] = [term]
        layer = {
            state: {mask: v for mask, pairs in out.items() if (v := sum_of_products(pairs))}
            for state, out in targets.items()
        }
    (wedge,) = layer.values()
    return wedge


def permanent(rows):
    """Exact permanent of a square matrix given as rows, via Ryser's formula with Gray-code row sums."""
    n = _square(rows, "permanent")
    if n == 0:
        return 1
    if n > PERMANENT_CAP:
        raise MultdiscError(f"permanent of size {n} exceeds cap {PERMANENT_CAP}")
    cols = list(zip(*rows))
    sums = [0] * n
    included = [False] * n
    size = 0
    total = 0
    for g in range(1, 1 << n):
        j = (g & -g).bit_length() - 1
        col = cols[j]
        if included[j]:
            for i in range(n):
                sums[i] = sums[i] - col[i]
            size -= 1
        else:
            for i in range(n):
                sums[i] = sums[i] + col[i]
            size += 1
        included[j] = not included[j]
        prod = 1
        for s in sums:
            prod = prod * s
        if (n - size) % 2:
            total = total - prod
        else:
            total = total + prod
    return total


def hadamard(a, b):
    """Entrywise product of two matrices given as rows."""
    if _shape(a) != _shape(b):
        raise MultdiscError("hadamard product needs equal shapes")
    return [[x * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def row_permute(tau, rows):
    """Apply the permutation matrix P_tau on the left: row k moves to row tau(k)."""
    n, _ = _shape(rows)
    if len(tau) != n or sorted(tau) != list(range(n)):
        raise MultdiscError(f"tau must be a permutation of 0..{n - 1}")
    inv = [0] * n
    for k, t in enumerate(tau):
        inv[t] = k
    return [rows[inv[i]] for i in range(n)]


def dp(polys):
    """Determinant of the square coefficient matrix of N polynomials.

    Row i holds the coefficients of polys[i] padded to length N, descending
    degree (column j is the x^(N-1-j) coefficient), so every input must
    have degree at most N-1.
    """
    polys = list(polys)
    size = len(polys)
    if size == 0:
        raise MultdiscError("dp of an empty stack")
    for p in polys:
        if p.degree >= size:
            raise MultdiscError(f"degree {p.degree} row in a {size}-row stack")
    rows = [[p.coeff(size - 1 - j) for j in range(size)] for p in polys]
    return det(rows)
