from itertools import permutations as iter_permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multdisc.combinat import (
    expand_partition,
    multiset_permutations,
    partition_count,
    partition_name,
    partitions,
    permutation_count,
    repetition_constant,
)
from multdisc.errors import MultdiscError

from helpers import brute_partitions


def test_partition_name_bounds_a_long_partition():
    assert partition_name((1,) * 10) == str((1,) * 10)
    assert partition_name((2, 1), lambda mu: "[2,1]") == "[2,1]"
    assert partition_name((9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1)) == "(9, 8, 7, 6, 5, ..., 11 parts)"
    # a part of more than 20 digits is named by its digit count, in either form
    assert partition_name((10**19, 1), lambda mu: "[..]") == "[..]"
    assert partition_name((10**20, 1), lambda mu: "[..]") == "(<21 digits>, 1)"
    assert partition_name((10**5000,) + (1,) * 11) == "(<5001 digits>, 1, 1, 1, 1, ..., 12 parts)"
    with pytest.raises(MultdiscError, match=r"non-increasing\): \(1, 2, 2, 2, 2, \.\.\., 12 parts\)$"):
        expand_partition((1,) + (2,) * 11)


def test_partitions_examples():
    assert partitions(8, 3) == [(6, 1, 1), (5, 2, 1), (4, 3, 1), (4, 2, 2), (3, 3, 2)]
    assert partitions(4, 2) == [(3, 1), (2, 2)]
    assert partitions(5, 5) == [(1, 1, 1, 1, 1)]
    # m is not bounded by the recursion limit
    assert partitions(1500, 1500) == [(1,) * 1500]
    assert partitions(1500, 1499) == [(2,) + (1,) * 1498]
    assert partitions(1500, 1) == [(1500,)]


def test_partition_count():
    for n in range(1, 21):
        for m in range(1, n + 1):
            assert partition_count(n, m) == len(partitions(n, m))
    assert partition_count(3, 4) == partition_count(3, 0) == 0
    # p(n, n/2) = p(n/2): the candidates of n/2 double roots
    assert partition_count(90, 45) == 89134
    assert partition_count(100, 50) == 204226
    assert partition_count(1500, 1500) == partition_count(1500, 1) == 1


def test_partitions_empty_domain():
    with pytest.raises(MultdiscError, match="no partitions of 3 into 4 parts"):
        partitions(3, 4)
    with pytest.raises(MultdiscError, match="no partitions of 3 into 0 parts"):
        partitions(3, 0)


def test_partitions_against_brute_force():
    for n in range(1, 15):
        for m in range(1, n + 1):
            got = partitions(n, m)
            assert len(got) == len(set(got))
            assert set(got) == brute_partitions(n, m)
            assert got == sorted(brute_partitions(n, m), reverse=True)  # descending lex
            for mu in got:
                assert sum(mu) == n and len(mu) == m
                assert all(a >= b for a, b in zip(mu, mu[1:]))


def test_expand_partition():
    assert expand_partition((3, 1)) == (3, 3, 3, 1)
    assert expand_partition((2, 2)) == (2, 2, 2, 2)
    assert expand_partition((1, 1, 1)) == (1, 1, 1)
    assert len(expand_partition((4, 2, 2))) == 8


def test_repetition_constant():
    assert repetition_constant((3, 3, 3, 1)) == 6
    assert repetition_constant((2, 2)) == 2
    assert repetition_constant((1, 2, 3, 4)) == 1


def test_multiset_permutations_examples():
    perms = list(multiset_permutations((3, 3, 3, 1)))
    assert len(perms) == 4
    assert set(perms) == {(3, 3, 3, 1), (3, 3, 1, 3), (3, 1, 3, 3), (1, 3, 3, 3)}
    assert perms == sorted(perms)  # ascending lex
    assert list(multiset_permutations((2, 2))) == [(2, 2)]
    assert list(multiset_permutations(())) == [()]
    assert len(list(multiset_permutations((1, 2, 3)))) == 6


def test_multiset_permutations_exact_set():
    for p in [(1, 1, 2, 2), (3, 3, 3, 1, 1), (1, 2, 2, 4)]:
        got = list(multiset_permutations(p))
        want = sorted(set(iter_permutations(p)))
        assert got == want
        assert permutation_count(p) == len(got)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=8))
def test_multinomial_identity_and_round_trip(p):
    p = tuple(p)
    perms = list(multiset_permutations(p))
    assert len(perms) * repetition_constant(p) == factorial(len(p))
    target = tuple(sorted(p, reverse=True))
    assert all(tuple(sorted(t, reverse=True)) == target for t in perms)
    assert len(set(perms)) == len(perms)


def test_permutation_count():
    assert permutation_count((3, 3, 3, 1)) == 4
    assert permutation_count(expand_partition((4, 3, 2, 1))) == 12600
