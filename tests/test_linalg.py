import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multdisc.errors import MultdiscError
from multdisc.linalg import (
    _det_bareiss,
    det,
    dets_with_last_row,
    dp,
    hadamard,
    permanent,
    row_permute,
    wedge_dp,
)
from multdisc.sympoly import SymPoly
from multdisc.unipoly import Poly, generic_poly

from helpers import identity, matmul, naive_det, naive_permanent, random_sympoly


def rand_matrix(rng, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def test_det_basics():
    assert det([[1, 2], [3, 4]]) == -2
    assert det(identity(5)) == 1
    assert det([[0, 1], [0, 2]]) == 0
    with pytest.raises(MultdiscError, match="determinant of a 2x3 matrix"):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(MultdiscError, match="ragged rows"):
        det([[1, 2], [3]])


def test_det_against_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        expected = naive_det(m)
        assert _det_bareiss(m) == expected
        assert wedge_dp([m], [n]).get((1 << n) - 1, 0) == expected


def test_det_over_q_with_int_pivots():
    # int pivots but a rational entry: Bareiss divides int minors in Q
    rows = [[2, 0, 0], [1, Fraction(1, 2), 0], [0, 1, Fraction(1, 2)]]
    assert det(rows) == naive_det(rows) == Fraction(1, 2)


def test_det_needs_pivoting():
    m = [[0, 0, 2], [0, 3, 1], [4, 5, 6]]
    assert det(m) == naive_det(m)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        assert det(matmul(a, b)) == det(a) * det(b)


def test_det_symbolic_both_methods():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = [[random_sympoly(rng, 3, max_terms=2, max_exp=2) for _ in range(n)] for _ in range(n)]
        assert det(m) == naive_det(m)


def test_det_symbolic_zero_pivot_swap():
    z = SymPoly(2)
    x = SymPoly.variable(2, 0)
    y = SymPoly.variable(2, 1)
    m = [[z, x], [y, z]]
    assert naive_det(m) == -(x * y)
    assert det(m) == -(x * y)
    # an identically zero column makes the determinant zero
    mz = [[z, x], [z, y]]
    assert det(mz) == naive_det(mz) == 0


def test_permanent_basics():
    assert permanent([[1, 2], [3, 4]]) == 10
    assert permanent(identity(4)) == 1
    assert permanent([[1] * 3] * 3) == 6
    with pytest.raises(MultdiscError, match="permanent of size 15 exceeds cap 14"):
        permanent(identity(15))
    with pytest.raises(MultdiscError, match="permanent of a 1x2 matrix"):
        permanent([[1, 2]])


def test_permanent_against_naive():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, bound=5)
        assert permanent(m) == naive_permanent(m)


def test_hadamard():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert hadamard(a, b) == [[5, 12], [21, 32]]
    ones = [[1, 1], [1, 1]]
    assert hadamard(a, ones) == a
    zero = [[0, 0], [0, 0]]
    assert hadamard(a, zero) == zero
    with pytest.raises(MultdiscError, match="hadamard product needs equal shapes"):
        hadamard(a, [[1]])


def test_row_permute():
    b = [[1, 2], [3, 4]]
    assert row_permute((0, 1), b) == b
    swapped = row_permute((1, 0), b)
    assert swapped == [[3, 4], [1, 2]]
    # tau then its inverse restores
    rng = random.Random(2)
    m = rand_matrix(rng, 4)
    tau = (2, 0, 3, 1)
    inv = tuple(tau.index(i) for i in range(4))
    assert row_permute(inv, row_permute(tau, m)) == m
    with pytest.raises(MultdiscError, match=r"tau must be a permutation of 0\.\.1"):
        row_permute((0, 0), b)
    with pytest.raises(MultdiscError, match="ragged rows"):
        row_permute((1, 0), [[1, 2], [3]])


def test_dp_paper_cubic():
    # stack (x F, F, x^2 F'/1!, x^2 F''/2!, x^2 F'''/3!) for the generic cubic
    F = generic_poly(3)
    nv = 4
    a = [SymPoly.variable(nv, i) for i in range(nv)]
    stack = [F.shift_mul(1), F] + [F.taylor_derivative(i).shift_mul(2) for i in (1, 2, 3)]
    assert dp(stack) == 9 * a[0] ** 3 * a[3] ** 2


def test_dp_identity_and_singular():
    n = 5
    stack = [Poly([1]).shift_mul(k) for k in range(n - 1, -1, -1)]
    assert dp(stack) == 1
    repeated = [Poly([1, 2, 3]), Poly([1, 2, 3]), Poly([4, 5, 6])]
    assert dp(repeated) == 0


def test_dp_degree_guard():
    with pytest.raises(MultdiscError, match="degree 2 row in a 2-row stack"):
        dp([Poly([1, 0, 0]), Poly([1, 0])])


def test_dp_multilinear_alternating():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 5)
        polys = [
            Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, n))])
            for _ in range(n)
        ]
        base = dp(polys)
        i, j = rng.sample(range(n), 2)
        swapped = list(polys)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert dp(swapped) == -base
        s = rng.choice((2, 3, -5))
        scaled = list(polys)
        scaled[i] = scaled[i].scale(s)
        assert dp(scaled) == s * base
        shifted = list(polys)
        shifted[i] = polys[i] + polys[j]
        assert dp(shifted) == base


@given(st.integers(0, 2**32 - 1))
def test_det_transpose_invariant(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = rand_matrix(rng, n)
    t = list(zip(*m))
    assert det(m) == det(t)


def _sparse_symbolic_rows(rng, n):
    """An n x n mostly-zero SymPoly matrix, sometimes with a zero row or column."""
    rows = [
        [
            random_sympoly(rng, 3, max_terms=2, max_exp=2) if rng.random() < 0.45 else SymPoly(3)
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if n and rng.random() < 0.2:
        rows[rng.randrange(n)] = [SymPoly(3)] * n
    if n and rng.random() < 0.2:
        c = rng.randrange(n)
        for row in rows:
            row[c] = SymPoly(3)
    return rows


def _parity(perm):
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2


@given(st.integers(0, 2**32 - 1))
def test_symbolic_det_matches_cofactor_oracle(seed):
    rng = random.Random(seed)
    rows = _sparse_symbolic_rows(rng, rng.randint(0, 7))
    assert det(rows) == naive_det(rows)


@given(st.integers(0, 2**32 - 1))
def test_symbolic_det_transposed_and_row_permuted(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = _sparse_symbolic_rows(rng, n)
    value = det(m)
    assert det(list(zip(*m))) == value
    tau = list(range(n))
    rng.shuffle(tau)
    assert det(row_permute(tau, m)) == (-value if _parity(tau) else value)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_dets_with_last_row_match_cofactor_oracle(seed, symbolic):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    if symbolic:
        lines = _sparse_symbolic_rows(rng, n + 2)
    else:
        lines = [[rng.randint(-3, 3) for _ in range(n + 2)] for _ in range(n + 2)]
    lines = [line[:n] for line in lines]
    rows, lasts = lines[: n - 1], lines[n - 1:]
    got = dets_with_last_row(rows, lasts)
    assert got == [naive_det(rows + [last]) for last in lasts]


def _fillable(lines, sources, mask, n):
    """Whether the lines can fill the columns outside mask, one each, at
    columns where some source is nonzero."""
    free = [c for c in range(n) if not mask >> c & 1]
    return any(
        all(any(source[t][c] for source in sources) for t, c in zip(lines, perm))
        for perm in permutations(free)
    )


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_wedge_dp_matches_sum_over_assignments(seed, symbolic):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    steps = max(1, rng.choice((n, n - 1, rng.randint(1, n))))
    # each source has its own density, so the nonzero patterns differ
    sources = []
    for _ in range(rng.randint(1, 3)):
        density = rng.uniform(0.2, 0.9)
        sources.append([
            [
                (random_sympoly(rng, 3, max_terms=2, max_exp=2) if symbolic else rng.randint(-3, 3))
                if rng.random() < density
                else (SymPoly(3) if symbolic else 0)
                for _ in range(n)
            ]
            for _ in range(n)
        ])
    counts = [0] * len(sources)
    for _ in range(steps):
        counts[rng.randrange(len(sources))] += 1
    expected = {}
    taken_from = [k for k, c in enumerate(counts) for _ in range(c)]
    for choice in set(permutations(taken_from)):
        taken = [sources[k][j] for j, k in enumerate(choice)]
        for cols in combinations(range(n), steps):
            mask = sum(1 << c for c in cols)
            if _fillable(range(steps, n), sources, mask, n):
                minor = naive_det([[line[c] for c in cols] for line in taken])
                expected[mask] = expected.get(mask, 0) + minor
    assert wedge_dp(sources, counts) == {mask: v for mask, v in expected.items() if v}
