"""Subresultant chains, by pseudo-remainder sequence and by determinants.

Conventions.  For P, Q with deg P = p > deg Q = q >= 0, the k-th
subresultant S_k(P, Q) for 0 <= k < q is the determinant polynomial of the
(p+q-2k) x (p+q-k) matrix whose rows are the coefficient vectors of

    x^(q-k-1) P, ..., x^0 P,   x^(p-k-1) Q, ..., x^0 Q

over the column degrees x^(p+q-k-1), ..., x^0 (P-rows on top):
S_k = sum_{j=0..k} det(M_j) x^j, where M_j keeps the first p+q-2k-1
columns plus the degree-j column.  For k = q the usual convention
S_q = lc(Q)^(p-q-1) Q applies, and S_0 is the resultant.  The principal
coefficient of S_k is its x^k coefficient.

Two routes compute the same chain:

* subresultant_chain: the classical subresultant remainder sequence,
  pseudo-divisions and exact scalar divisions only.  Fast; the production
  path for numeric polynomials.  One kernel serves Z and Q: _prem and
  the sequence run on plain coefficient lists, each scalar division goes
  through scalars.exact_div (which raises on a remainder over Z), and only
  the returned chain is wrapped in Poly.
* subresultant_det: the determinant definition, one small determinant per
  coefficient.  The k + 1 matrices share all columns but one, so on
  symbolic input the coefficients read one shared wedge_dp layer
  (linalg.dets_with_last_row) and cost about one determinant; integer
  input takes one Bareiss determinant each.  Works over any ring.  This
  route is the symbolic path and the cross-check oracle for the other one.

resultant is det of the Sylvester matrix, S_0's full square matrix.
"""

from .errors import MultdiscError
from .linalg import det, dets_with_last_row
from .scalars import exact_div
from .unipoly import Poly


def _prem(r, q):
    """prem(r, q) = lc(q)^(deg r - deg q + 1) r mod q on descending lists, len(r) >= len(q) >= 1.

    q has no leading zero, and neither has the remainder."""
    lq, tail, nq = q[0], q[1:], len(q)
    if nq == 1:  # a constant divides everything
        return []
    for _ in range(len(r) - nq + 1):
        # r <- lq*r - top*x^(deg r - deg q)*q: the top coefficient cancels and is dropped
        top = r[0]
        r = [lq * a - top * b for a, b in zip(r[1:], tail)] + [lq * a for a in r[nq:]]
    i = 0
    while i < len(r) and not r[i]:
        i += 1
    return r[i:]


def _degrees(P, Q, k):
    """(deg P, deg Q), checked: both nonzero, deg P > deg Q and 0 <= k <= deg Q."""
    if not P or not Q:
        raise MultdiscError("subresultant of the zero polynomial")
    p, q = P.degree, Q.degree
    if p <= q:
        raise MultdiscError("subresultants need deg P > deg Q")
    if not 0 <= k <= q:
        raise MultdiscError(f"subresultant index {k} outside 0..{q}")
    return p, q


def subresultant_chain(P, Q):
    """The full chain [S_0, ..., S_q] of P and Q, deg P > deg Q >= 0.

    Classical subresultant remainder sequence: each block top S_(d-1) is a
    pseudo-remainder divided by a known exact scalar, each defective block
    bottom S_e is a scalar multiple of the top; skipped indices are zero.
    The sequence runs on coefficient lists, over Z or Q alike, and every
    scalar division is exact_div, so a non-exact one over Z raises.
    """
    p, q = _degrees(P, Q, 0)
    A = list(Q.coeffs)
    chain = [()] * (q + 1)
    chain[q] = [c * A[0] ** (p - q - 1) for c in A] if p - q - 1 else A
    s = A[0] ** (p - q)
    B = _prem(P.coeffs, A)
    if (p - q) % 2 == 0:  # prem(P, -Q)
        B = [-c for c in B]
    while B:
        d = len(A) - 1
        e = len(B) - 1
        chain[d - 1] = B
        if e < d - 1:
            scale, div = B[0] ** (d - 1 - e), s ** (d - 1 - e)
            C = chain[e] = [exact_div(c * scale, div) for c in B]
        else:
            C = B
        if e == 0:
            break
        nxt = _prem(A, B)
        div = s ** (d - e) * A[0]
        if (d - e) % 2 == 0:  # prem(A, -B)
            div = -div
        B = [exact_div(c, div) for c in nxt]
        A = C
        s = A[0]
    return [Poly(S) for S in chain]


def _sylvester_rows(P, Q, k, ncols):
    """The p+q-2k rows of S_k's matrix, cut to its first ncols columns."""
    p, q = P.degree, Q.degree
    top_degree = p + q - k - 1
    rows = []
    for shift in range(q - k - 1, -1, -1):
        rows.append([P.coeff(top_degree - t - shift) for t in range(ncols)])
    for shift in range(p - k - 1, -1, -1):
        rows.append([Q.coeff(top_degree - t - shift) for t in range(ncols)])
    return rows


def subresultant_det(P, Q, k):
    """S_k(P, Q) by the determinant definition."""
    p, q = _degrees(P, Q, k)
    if k == q:
        return Q.scale(Q.lead ** (p - q - 1)) if p - q - 1 else Q
    nrows = p + q - 2 * k
    top_degree = p + q - k - 1
    # M_j^T is the first nrows - 1 columns plus the degree-j column as rows
    cols = list(zip(*_sylvester_rows(P, Q, k, top_degree + 1)))
    return Poly(dets_with_last_row(cols[: nrows - 1], [cols[top_degree - j] for j in range(k, -1, -1)]))


def resultant(P, Q):
    """res(P, Q) for deg P > deg Q: det of the Sylvester matrix, S_0's matrix."""
    p, q = _degrees(P, Q, 0)
    return det(_sylvester_rows(P, Q, 0, p + q))
