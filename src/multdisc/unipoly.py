"""Dense univariate polynomials with exact coefficients.

Coefficients may be int, Fraction, or SymPoly (the symbolic-coefficient
ring), and every operation stays exact.  Coefficients are stored in a
tuple, descending by degree, with no leading zero; the zero polynomial is
the empty tuple.  degree and lead both refuse it, as SymPoly.total_degree
does, so a forgotten zero check fails loudly.  The exact division poly_div
runs over Z only: its callers clear denominators first (see scalars).  The
subresultant chain works on plain coefficient lists (subresultants) and
wraps in Poly only the chain it returns.
"""

from math import comb

from .errors import MultdiscError, NonExactDivision
from .scalars import format_scalar, parse_scalar
from .sympoly import SymPoly


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        if coeffs and not coeffs[0]:
            i = 1
            while i < len(coeffs) and not coeffs[i]:
                i += 1
            coeffs = coeffs[i:]
        self.coeffs = coeffs

    @property
    def degree(self):
        if not self.coeffs:
            raise MultdiscError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise MultdiscError("the zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def coeff(self, k):
        """Coefficient of x^k (0 outside the stored range)."""
        i = len(self.coeffs) - 1 - k
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_symbolic(self):
        return any(isinstance(c, SymPoly) for c in self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        pad = len(a) - len(b)
        out = list(a)
        for i, c in enumerate(b):
            out[pad + i] = out[pad + i] + c
        return Poly(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, s):
        return Poly([c * s for c in self.coeffs])

    def __call__(self, x):
        """Horner evaluation, exact in whatever ring x and the coefficients span."""
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def taylor_derivative(self, k):
        """k-th derivative divided by k!; integral coefficients stay integral.

        The x^(j-k) coefficient of the result is C(j, k) times the x^j
        coefficient, so no division is ever performed.
        """
        if k < 0:
            raise MultdiscError("derivative order must be nonnegative")
        if k == 0:
            return self
        deg = len(self.coeffs) - 1
        if deg < k:
            return Poly()
        return Poly([comb(deg - i, k) * c for i, c in enumerate(self.coeffs[: deg - k + 1])])

    def derivative(self):
        """Plain first derivative."""
        deg = len(self.coeffs) - 1
        return Poly([(deg - i) * c for i, c in enumerate(self.coeffs[:-1])])

    def shift_mul(self, k):
        """Multiply by x^k."""
        if k < 0:
            raise MultdiscError("shift must be nonnegative")
        return Poly(self.coeffs + (0,) * k)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return ",".join(str(c) if isinstance(c, SymPoly) else format_scalar(c) for c in self.coeffs)

    def __repr__(self):
        return f"Poly([{', '.join(map(repr, self.coeffs))}])"


def parse_poly(text):
    """Parse the comma-separated descending coefficient form, e.g. "1,-1,-3,5,-2"."""
    return Poly([parse_scalar(part) for part in text.split(",")])


def generic_poly(n):
    """Degree-n polynomial with symbolic coefficients a_0 x^n + ... + a_n."""
    if n < 0:
        raise MultdiscError("generic polynomial needs degree >= 0")
    nv = n + 1
    return Poly([SymPoly.variable(nv, i) for i in range(nv)])


def poly_div(a, b):
    """Exact division of integer polynomials, raising NonExactDivision on a remainder.

    Each quotient coefficient is a divmod by lc(b), so one that is not an
    integer raises as well.  A division that completes is exact, so a
    rational operand can make it raise but never return a wrong quotient.
    """
    if not b:
        raise ZeroDivisionError("exact division by the zero polynomial")
    lead, *tail = b.coeffs
    rem = list(a.coeffs)
    quot = []
    for i in range(len(rem) - len(tail)):
        q, r = divmod(rem[i], lead)
        if r:
            raise NonExactDivision("polynomial division left a remainder")
        quot.append(q)
        # rem[i] is now q * lead - q * lead = 0
        if q:
            for j, c in enumerate(tail, i + 1):
                rem[j] -= q * c
    if any(rem[len(quot) :]):
        raise NonExactDivision("polynomial division left a remainder")
    return Poly(quot)
