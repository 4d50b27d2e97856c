"""Sparse multivariate polynomials over arbitrary-precision integers.

The indeterminates are the symbolic coefficients a_0..a_n of a univariate
polynomial, so every SymPoly carries a fixed variable count nvars = n + 1.
Terms live in a dict mapping packed monomial keys to nonzero int
coefficients; the term dict itself is the canonical form, so two SymPolys
are equal iff their dicts are equal.  Instances are treated as immutable:
no operation mutates an existing term dict.

Packed keys (M. Monagan and R. Pearce, "POLY: a new polynomial data
structure for Maple 17", 2012).  The exponent vector (e_0, ..., e_n) of a
monomial is stored as one int made of nvars + 1 fields of WIDTH bits each:
the total degree sum(e) in the most significant field, then e_0, ..., e_n
with e_0 the most significant of them.  Comparing two keys as ints
compares the total degree first and then the exponents lexicographically
with a_0 the most significant variable, which is the graded-lex order
used for canonical printing; the largest key holds the total degree.

Every SymPoly has total degree at most FIELD_MAX = 2**WIDTH - 1, so no
field ever holds more than FIELD_MAX.  The constructor rejects larger
exponent tuples, and multiplication checks that the two operands' total
degrees sum to at most FIELD_MAX before it multiplies monomials by adding
their keys; the sum of two keys then never carries from one field into
its neighbour.  homogenized adds keys after the same kind of check, and
no code subtracts one, so no borrow can make a valid-looking wrong key.

Sums of products.  sum_of_products(pairs) returns the sum of x * y over
(x, y) pairs of ints and SymPolys.  It adds every monomial product
straight into one term dict and drops zero coefficients once at the end,
so a dot product builds no SymPoly per product and never copies a partial
sum, as a chain of __mul__ and __add__ would.  The product-degree guard
and the variable-count check run once per pair.  +, - and * all go
through it: __mul__ is the one-pair case, __neg__ the pair (self, -1),
and __add__ and __sub__ pair their two operands with factors 1 and +-1.
The other callers are linalg's symbolic determinant kernel: wedge_dp
sums once per state it reaches, and the last step of dets_with_last_row,
which det runs with one last line, once per last line.

The public form stays the exponent tuple: the constructor and repr take
or give tuples, and evaluate unpacks.  str splits each key into a high
half (a_0 .. a_(h-1), h = nvars // 2) and a low half of its exponent
fields, and builds each distinct half's factor text once per call: the
terms of one polynomial share few halves, so most terms join two cached
strings.
"""

from math import prod

from .errors import MultdiscError

WIDTH = 16
FIELD_MAX = (1 << WIDTH) - 1


def _pack(nvars, exps):
    if len(exps) != nvars:
        raise MultdiscError(f"exponent tuple {exps!r} does not have {nvars} entries")
    key = 0
    for k in exps:
        if not 0 <= k <= FIELD_MAX:
            raise MultdiscError(f"exponent {k} outside [0, {FIELD_MAX}]")
        key = (key << WIDTH) | k
    degree = sum(exps)
    if degree > FIELD_MAX:
        raise MultdiscError(f"total degree {degree} exceeds {FIELD_MAX}")
    return (degree << (WIDTH * nvars)) | key


def _unpack(nvars, key):
    return tuple((key >> (WIDTH * i)) & FIELD_MAX for i in range(nvars - 1, -1, -1))


def _factor_text(half, names):
    """Factor text such as a0^2*a3 for the nonzero exponent fields of half."""
    return "*".join(
        name if k == 1 else f"{name}^{k}" for shift, name in names if (k := (half >> shift) & FIELD_MAX)
    )


class SymPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            key = _pack(nvars, e)
            if c:
                self.terms[key] = c

    @classmethod
    def _packed(cls, nvars, terms):
        # terms already has packed keys and no zero coefficients
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def const(cls, nvars, value):
        return cls._packed(nvars, {0: int(value)} if value else {})

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = SymPoly.const(self.nvars, other)
        elif not isinstance(other, SymPoly):
            return NotImplemented
        elif other.nvars != self.nvars:
            raise MultdiscError("mixing SymPolys with different variable counts")
        return self.terms == other.terms

    def __neg__(self):
        return sum_of_products([(self, -1)])

    def __add__(self, other):
        if not isinstance(other, (int, SymPoly)):
            return NotImplemented
        return sum_of_products([(self, 1), (other, 1)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, SymPoly)):
            return NotImplemented
        return sum_of_products([(self, 1), (other, -1)])

    def __rsub__(self, other):
        if not isinstance(other, (int, SymPoly)):
            return NotImplemented
        return sum_of_products([(other, 1), (self, -1)])

    def __mul__(self, other):
        if not isinstance(other, (int, SymPoly)):
            return NotImplemented
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise MultdiscError("exponent must be a nonnegative int")
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
            raise MultdiscError("the zero polynomial has no total degree")
        return max(self.terms) >> (WIDTH * self.nvars)

    def is_homogeneous(self):
        """True for the zero polynomial and for equal-total-degree term sets."""
        shift = WIDTH * self.nvars
        return len({e >> shift for e in self.terms}) <= 1

    def homogenized(self, degree):
        """Each term times a_0^(degree - its degree), for an a_0-free SymPoly of degree <= degree <= FIELD_MAX."""
        shift = WIDTH * self.nvars
        if degree > FIELD_MAX:
            raise MultdiscError(f"total degree {degree} exceeds {FIELD_MAX}")
        if any((e >> (shift - WIDTH)) & FIELD_MAX for e in self.terms):
            raise MultdiscError("homogenized takes a SymPoly free of a_0")
        if self and (d := self.total_degree()) > degree:
            raise MultdiscError(f"a term of total degree {d} is above {degree}")
        unit = (1 << shift) | (1 << (shift - WIDTH))  # 1 in the total-degree and a_0 fields
        return SymPoly._packed(self.nvars, {e + (degree - (e >> shift)) * unit: c for e, c in self.terms.items()})

    def evaluate(self, values):
        """Substitute numeric values (int/Fraction) for a_0..a_n."""
        if len(values) != self.nvars:
            raise MultdiscError(f"expected {self.nvars} values, got {len(values)}")
        total = 0
        for e, c in self.terms.items():
            total += c * prod(v ** k for v, k in zip(values, _unpack(self.nvars, e)) if k)
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        # a key's exponent fields split into a high half a_0..a_(h-1) and a
        # low half a_h..a_n; each half's factor text is built once per call
        nvars = self.nvars
        h = nvars // 2
        low_bits = WIDTH * (nvars - h)
        high_mask = (1 << (WIDTH * h)) - 1
        low_mask = (1 << low_bits) - 1
        high_names = [(WIDTH * (h - 1 - i), f"a{i}") for i in range(h)]
        low_names = [(WIDTH * (nvars - 1 - i), f"a{i}") for i in range(h, nvars)]
        high_texts, low_texts = {}, {}
        out = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            high = (e >> low_bits) & high_mask
            low = e & low_mask
            a = high_texts.get(high)
            if a is None:
                a = high_texts[high] = _factor_text(high, high_names)
            b = low_texts.get(low)
            if b is None:
                b = low_texts[low] = _factor_text(low, low_names)
            body = f"{a}*{b}" if a and b else a or b
            if c != 1 and c != -1:
                body = f"{abs(c)}*{body}" if body else str(abs(c))
            elif not body:
                body = "1"
            out.append(" - " if c < 0 else " + ")
            out.append(body)
        return ("-" if out[0] == " - " else "") + "".join(out[1:])

    def __repr__(self):
        terms = {_unpack(self.nvars, e): c for e, c in self.terms.items()}
        return f"SymPoly({self.nvars}, {terms!r})"


def sum_of_products(pairs):
    """The sum of x * y over the (x, y) pairs, each x and y an int or a SymPoly.

    Every product is added straight into one term dict, and the zero
    coefficients are dropped once at the end, so a dot product allocates
    no intermediate SymPoly.  Each pair gets __mul__'s checks: all SymPoly
    operands share one variable count, and a product of two nonzero
    SymPolys has total degree at most FIELD_MAX, else MultdiscError.  The
    result is a SymPoly, zero included, when any operand is one, and the
    plain int sum otherwise.
    """
    nvars = shift = None
    out = {}
    get = out.get
    const = 0
    for x, y in pairs:
        if isinstance(x, SymPoly):
            if isinstance(y, SymPoly):
                if x.nvars != nvars or y.nvars != nvars:
                    nvars, shift = _common_nvars(nvars, x, y)
                a, b = x.terms, y.terms
                if not a or not b:
                    continue
                if (max(a) >> shift) + (max(b) >> shift) > FIELD_MAX:
                    raise MultdiscError(f"product total degree exceeds {FIELD_MAX}")
                b = b.items()
                for e1, c1 in a.items():
                    for e2, c2 in b:
                        e = e1 + e2
                        out[e] = get(e, 0) + c1 * c2
                continue
            x, y = y, x
        elif not isinstance(y, SymPoly):
            const += x * y
            continue
        # x is an int and y a SymPoly
        if y.nvars != nvars:
            nvars, shift = _common_nvars(nvars, y)
        if x:
            for e, c in y.terms.items():
                out[e] = get(e, 0) + c * x
    if nvars is None:
        return const
    if const:
        out[0] = get(0, 0) + const
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return SymPoly._packed(nvars, out)


def _common_nvars(nvars, *polys):
    """(nvars, key shift) shared by the polys and the earlier operands, if any."""
    for p in polys:
        if nvars is None:
            nvars = p.nvars
        elif p.nvars != nvars:
            raise MultdiscError("mixing SymPolys with different variable counts")
    return nvars, WIDTH * nvars
