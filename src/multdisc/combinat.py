"""Partitions, expanded multiplicity tuples, and multiset permutations.

A partition mu = (mu_1 >= ... >= mu_m) of n expands to the length-n tuple
p that repeats each part mu_i exactly mu_i times; the discriminant sums
one determinant per distinct rearrangement of p.  Rearrangements are
streamed in ascending lexicographic order and never materialised.
"""

from collections import Counter
from math import factorial, prod

from .errors import MultdiscError
from .scalars import format_scalar, quote_field


def check_partition(mu):
    if not (mu and all(isinstance(x, int) and x >= 1 for x in mu) and all(a >= b for a, b in zip(mu, mu[1:]))):
        raise MultdiscError(f"not a partition (positive, non-increasing): {partition_name(mu)}")
    return tuple(mu)


def partition_name(mu, short=str):
    """mu named in an error message: short(mu), or a bounded form of a huge mu.

    A part of more than 20 digits is named by its digit count, and past 10
    parts only the first 5 parts and the part count are named.
    """
    huge = [isinstance(x, int) and abs(x) >= 10**20 for x in mu]
    if len(mu) <= 10 and not any(huge):
        return short(mu)
    names = [f"<{len(format_scalar(abs(x)))} digits>" if h else str(x) for x, h in zip(mu[:10], huge)]
    if len(mu) > 10:
        return f"({', '.join(names[:5])}, ..., {len(mu)} parts)"
    return f"({', '.join(names)})"


def parse_partition(text):
    """Parse the comma-separated form, e.g. "4,2,2"."""
    try:
        mu = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise MultdiscError(f"not a comma-separated partition: {quote_field(text)}") from exc
    return check_partition(mu)


def partitions(n, m):
    """All partitions of n into exactly m parts, in descending lex order.

    One list is stepped in place, so m is not bounded by the recursion
    limit: classify asks for partitions(n, n) at any degree.  Each step
    lowers the rightmost part that the parts after it can still follow,
    then refills those parts greedily: as many copies of the lowered part
    as fit, one remainder part, then ones.
    """
    if m < 1 or m > n:
        raise MultdiscError(f"no partitions of {n} into {m} parts")
    a = [n - m + 1] + [1] * (m - 1)
    out = [tuple(a)]
    while True:
        # find the rightmost i whose part, less one, still caps the k parts from i
        s, k, i = a[-1], 1, m - 2
        while i >= 0:
            s += a[i]
            k += 1
            if (a[i] - 1) * k >= s:
                break
            i -= 1
        else:
            return out
        v = a[i] - 1
        rest = k - 1
        # above one per part, the tail holds s - v - rest; each v takes v - 1 of it
        full, extra = divmod(s - v - rest, v - 1) if v > 1 else (0, 0)
        a[i:] = [v] * (full + 1) + ([extra + 1] + [1] * (rest - full - 1) if full < rest else [])
        out.append(tuple(a))


def partition_count(n, m):
    """p(n, m), the number of partitions of n into exactly m parts, unlisted.

    Taking 1 from every part maps them one to one onto the partitions of
    n - m into parts of at most m, which the coin-change recurrence counts
    in O((n - m) min(m, n - m)) steps.
    """
    if not 1 <= m <= n:
        return 0
    k = n - m
    ways = [1] + [0] * k
    for part in range(1, min(m, k) + 1):
        for j in range(part, k + 1):
            ways[j] += ways[j - part]
    return ways[k]


def expand_partition(mu):
    """Repeat each part mu_i exactly mu_i times; length is sum(mu)."""
    mu = check_partition(mu)
    out = []
    for part in mu:
        out.extend([part] * part)
    return tuple(out)


def repetition_constant(p):
    """Product of factorials of the occurrence counts of distinct values."""
    return prod(map(factorial, Counter(p).values()))


def permutation_count(p):
    """Number of distinct rearrangements: n! / prod(occurrence counts!)."""
    return factorial(len(p)) // repetition_constant(p)


def multiset_permutations(p):
    """Stream every distinct rearrangement exactly once, ascending lex order."""
    cur = sorted(p)
    n = len(cur)
    while True:
        yield tuple(cur)
        # classic next-permutation step
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1 :] = reversed(cur[i + 1 :])
