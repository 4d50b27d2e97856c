"""Exact linear algebra over the integer, rational and symbolic rings.

Determinants are computed fraction-free (Bareiss elimination with exact
divisions and first-nonzero pivoting); for symbolic matrices, which here
are banded and mostly zero, a division-free minor expansion memoised on
column subsets is selected instead, because Bareiss intermediate swell on
multivariate entries costs more than structured expansion.  The
expansion accumulates each minor once: one sympoly.sum_of_products over
its signed (entry, smaller minor) pairs.

Its order follows the sparsity (W. M. Gentleman and S. C. Johnson,
"Analysis of algorithms, a case study: determinants of matrices with
polynomial entries", ACM TOMS 2(3), 1976).  det expands the rows, or the
columns when a column is sparser than every row (det A = det A^T), and
takes the lines sparsest first by (nonzero entries, SymPoly terms),
applying the sign of that permutation.  dets_with_last_row evaluates
several determinants that differ in one line only: the varying line is
expanded on top, so every minor below it comes from one shared table.
subresultant_det reads its k + 1 coefficients that way.

Permanents use Ryser's inclusion-exclusion with a Gray-code walk and are
capped, since the permanent only ever backs small oracle computations.
"""

from .errors import (
    DegreeTooHigh,
    DimensionMismatch,
    DimensionTooLarge,
    NotSquare,
)
from .scalars import exact_div
from .sympoly import SymPoly, sum_of_products

EXPANSION_LIMIT = 20
PERMANENT_CAP = 14


class Matrix:
    """Immutable row-major matrix over a commutative ring."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        self.rows = rows

    @classmethod
    def identity(cls, k):
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def is_square(self):
        return self.nrows == self.ncols

    def is_symbolic(self):
        return any(isinstance(e, SymPoly) for r in self.rows for e in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.nrows == other.nrows and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        cols = list(zip(*other.rows))
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]!r})"


def det(m):
    """Exact determinant; zero is returned for singular matrices."""
    if not m.is_square():
        raise NotSquare(f"determinant of a {m.nrows}x{m.ncols} matrix")
    if m.nrows == 0:
        return 1
    if m.is_symbolic() and m.nrows <= EXPANSION_LIMIT:
        return _det_expansion(m.rows)
    return _det_bareiss(m.rows)


def dets_with_last_row(rows, lasts):
    """det of the square matrix rows + [last], for each line in lasts.

    On symbolic entries all of them read one expansion table on the
    shared rows, so together they cost about one determinant; integer
    entries keep Bareiss, one matrix per last row.
    """
    rows, lasts = list(rows), list(lasts)
    n = len(rows) + 1
    if n <= EXPANSION_LIMIT and any(isinstance(e, SymPoly) for line in rows + lasts for e in line):
        values = _expand(rows, lasts)
        # the last row moves to the top across the n - 1 shared rows
        return values if n % 2 else [-v for v in values]
    return [det(Matrix(rows + [last])) for last in lasts]


def _det_bareiss(rows):
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
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
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def _weight(line):
    """(nonzero entries, SymPoly terms) of a line; an int counts as one term."""
    nonzero = [e for e in line if e]
    return len(nonzero), sum(len(e.terms) if isinstance(e, SymPoly) else 1 for e in nonzero)


def _det_expansion(rows):
    """Minor expansion along the sparsest lines first.

    det A = det A^T, so the rows are swapped for the columns when a column
    is sparser than every row; the sparsest line then becomes the top row
    and _expand orders the rest.
    """
    rows = min(list(rows), list(zip(*rows)), key=lambda lines: min(map(_weight, lines)))
    top = min(range(len(rows)), key=lambda i: _weight(rows[i]))
    (value,) = _expand(rows[:top] + rows[top + 1:], [rows[top]])
    return -value if top % 2 else value


def _expand(rows, tops):
    """det of [top] + rows for each top: n - 1 shared rows of length n.

    The rows are sorted sparsest first by _weight, and the sign of that
    permutation is applied at the end.  A minor of the shared rows is
    determined by its column mask alone (always the last popcount(mask)
    rows), so at most 2^n states exist, zero entries skip whole branches,
    and every top row reads the same table.  Each state sums its signed
    (entry, minor) products with one sum_of_products.
    """
    order = sorted(range(len(rows)), key=lambda i: _weight(rows[i]))
    rows = [rows[i] for i in order]
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
    depth = len(rows)
    memo = {0: 1}

    def along(row, mask):
        # signed expansion of row over the columns in mask
        pairs = []
        negate = False
        m = mask
        while m:
            low = m & -m
            e = row[low.bit_length() - 1]
            if e:
                pairs.append((-e if negate else e, minor(mask ^ low)))
            negate = not negate
            m ^= low
        return sum_of_products(pairs)

    def minor(mask):
        value = memo.get(mask)
        if value is None:
            value = memo[mask] = along(rows[depth - mask.bit_count()], mask)
        return value

    full = (1 << (depth + 1)) - 1
    values = [along(top, full) for top in tops]
    return [-v for v in values] if odd else values


def permanent(m, cap=PERMANENT_CAP):
    """Exact permanent via Ryser's formula with Gray-code row sums."""
    if not m.is_square():
        raise NotSquare(f"permanent of a {m.nrows}x{m.ncols} matrix")
    n = m.nrows
    if n == 0:
        return 1
    if n > cap:
        raise DimensionTooLarge(f"permanent of size {n} exceeds cap {cap}")
    cols = list(zip(*m.rows))
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
    """Entrywise product."""
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise DimensionMismatch("hadamard product needs equal shapes")
    return Matrix(
        [[x * y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def row_permute(tau, m):
    """Apply the permutation matrix P_tau on the left: row k moves to row tau(k)."""
    n = m.nrows
    if len(tau) != n or sorted(tau) != list(range(n)):
        raise DimensionMismatch(f"tau must be a permutation of 0..{n - 1}")
    inv = [0] * n
    for k, t in enumerate(tau):
        inv[t] = k
    return Matrix([m.rows[inv[i]] for i in range(n)])


def dp(polys):
    """Determinant of the square coefficient matrix of N polynomials.

    Row i holds the coefficients of polys[i] padded to length N, descending
    degree (column j is the x^(N-1-j) coefficient), so every input must
    have degree at most N-1.
    """
    polys = list(polys)
    size = len(polys)
    if size == 0:
        raise ValueError("dp of an empty stack")
    for p in polys:
        if p.degree >= size:
            raise DegreeTooHigh(f"degree {p.degree} row in a {size}-row stack")
    rows = [[p.coeff(size - 1 - j) for j in range(size)] for p in polys]
    return det(Matrix(rows))
