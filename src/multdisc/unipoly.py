"""Dense univariate polynomials with exact coefficients.

Coefficients may be int, Fraction, or SymPoly (the symbolic-coefficient
ring), and every operation stays exact.  Coefficients are stored in a
tuple, descending by degree, with no leading zero; the zero polynomial is
the empty tuple and its degree is the NEG_INF sentinel, which orders below
every integer but refuses arithmetic, so a forgotten zero check fails
loudly instead of producing nonsense degrees.  The exact division
poly_div takes int and Fraction coefficients only.  It decides its ring
once per call, by exact type (see scalars): Z when every coefficient is
an int, else Q.  Yun's quotients run over Z; the subresultant chain
works on plain coefficient lists (subresultants) and wraps in Poly only
the chain it returns.
"""

from fractions import Fraction
from math import comb

from .errors import MultdiscError, NonExactDivision
from .scalars import exact_div, format_scalar, in_z, parse_scalar
from .sympoly import SymPoly


class _NegInfDegree:
    """Degree of the zero polynomial; comparable with ints, nothing else."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInfDegree()


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
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

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
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        if not s:
            return Poly()
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
        if deg < 1:
            return Poly()
        return Poly([(deg - i) * c for i, c in enumerate(self.coeffs[:-1])])

    def shift_mul(self, k):
        """Multiply by x^k."""
        if k < 0:
            raise MultdiscError("shift must be nonnegative")
        if not self.coeffs:
            return self
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
    """Exact division of polynomials over Z or Q, raising NonExactDivision on remainder.

    The ring is decided once: Z when every coefficient of a and b is an
    int, else Q, so an int leading coefficient then divides as a rational.
    """
    if not b:
        raise ZeroDivisionError("exact division by the zero polynomial")
    bc = b.coeffs
    lead, tail, nb = bc[0], bc[1:], len(bc)
    over_z = in_z(a.coeffs) and in_z(bc)
    if not over_z:
        lead = Fraction(lead)  # exact_div then divides in Q, not int / int in Z
    rem = list(a.coeffs)
    quot = []
    for i in range(len(rem) - nb + 1):
        if over_z:
            q, r = divmod(rem[i], lead)
            if r:
                raise NonExactDivision("polynomial division left a remainder")
        else:
            q = exact_div(rem[i], lead)
        quot.append(q)
        # rem[i] is now q * lead - q * lead = 0
        if q:
            for j, c in enumerate(tail, i + 1):
                rem[j] -= q * c
    if any(rem[len(quot) :]):
        raise NonExactDivision("polynomial division left a remainder")
    return Poly(quot)
