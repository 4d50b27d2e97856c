"""Sparse multivariate polynomials over arbitrary-precision integers.

The indeterminates are the symbolic coefficients a_0..a_n of a univariate
polynomial, so every SymPoly carries a fixed variable count nvars = n + 1.
Terms live in a dict mapping exponent tuples (length nvars) to nonzero int
coefficients; the term dict itself is the canonical form, so two SymPolys
are equal iff their dicts are equal.  Instances are treated as immutable:
no operation mutates an existing term dict.

The graded-lex order (total degree first, then lexicographic with a_0 the
most significant variable) is used for canonical printing and for leading
terms during exact division; the term dict itself is order-free.
"""

from math import prod

from .errors import NonExactDivision
from .scalars import exact_div


def _glex_key(exps):
    return (sum(exps), exps)


class SymPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: int(value)} if value else None)

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    def _coerce(self, other):
        if isinstance(other, SymPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing SymPolys with different variable counts")
            return other
        if isinstance(other, int):
            return SymPoly.const(self.nvars, other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return SymPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SymPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return SymPoly(self.nvars)
            return SymPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return SymPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = SymPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def total_degree(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no total degree")
        return max(sum(e) for e in self.terms)

    def degree_in(self, index):
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(e[index] for e in self.terms)

    def is_homogeneous(self):
        """True for the zero polynomial and for equal-total-degree term sets."""
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=_glex_key)
        return e, self.terms[e]

    def evaluate(self, values):
        """Substitute numeric values (int/Fraction) for a_0..a_n."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = 0
        for e, c in self.terms.items():
            total += c * prod(v ** k for v, k in zip(values, e) if k)
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_glex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"a{i}")
                elif k > 1:
                    factors.append(f"a{i}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + parts[1:])

    def __repr__(self):
        return f"SymPoly({self.nvars}, {self.terms!r})"


def sympoly_div(a, b):
    """Exact multivariate division a / b, raising NonExactDivision otherwise.

    A monomial b (the power of a_0 that symbolic dmu divides by) divides
    each term on its own.  Otherwise this is standard single-divisor
    reduction: repeatedly cancel the graded-lex leading term of the
    remainder against the leading term of b.  When a is an exact multiple
    the remainder reaches zero; any non-divisible leading term (monomial
    or integer coefficient) proves it is not.
    """
    if isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("exact division by zero")
        out = {}
        for e, c in a.terms.items():
            out[e] = exact_div(c, b)
        return SymPoly(a.nvars, out)
    if not b:
        raise ZeroDivisionError("exact division by zero polynomial")
    if len(b.terms) == 1:
        # a monomial divides term by term, with no leading-term search
        ((be, bc),) = b.terms.items()
        out = {}
        for e, c in a.terms.items():
            qe = tuple(x - y for x, y in zip(e, be))
            if any(x < 0 for x in qe):
                raise NonExactDivision("monomial does not divide a term")
            out[qe] = exact_div(c, bc)
        return SymPoly(a.nvars, out)
    be, bc = b.leading_term()
    rem = dict(a.terms)
    quot = {}
    while rem:
        re = max(rem, key=_glex_key)
        rc = rem[re]
        qe = tuple(x - y for x, y in zip(re, be))
        if any(x < 0 for x in qe):
            raise NonExactDivision("leading monomial not divisible")
        qc, leftover = divmod(rc, bc)
        if leftover:
            raise NonExactDivision("leading coefficient not divisible")
        quot[qe] = qc
        for e, c in b.terms.items():
            key = tuple(x + y for x, y in zip(qe, e))
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return SymPoly(a.nvars, quot)


exact_div.register(SymPoly, sympoly_div)
