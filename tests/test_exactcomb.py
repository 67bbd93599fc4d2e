"""Cycle types and their permutation counts, and the binomial and Stirling
identities the sieve and the closed forms rest on."""

import itertools
from math import comb, factorial

import pytest

from helpers import enumerate_cycle_types, p_divisible_cycle_count, perm_type_count, stirling_cycle


def cycle_type_of(perm):
    """Ascending cycle lengths of a permutation given in one-line notation."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def test_binomial_product_identity():
    """C(q,k) C(q-k, n-k) == C(n,k) C(q,n) across a desk-scale sweep."""
    for q in range(1, 14):
        for n in range(0, q + 1):
            for k in range(0, n + 1):
                assert comb(q, k) * comb(q - k, n - k) == comb(n, k) * comb(q, n)


def test_enumerate_cycle_types_counts():
    assert list(enumerate_cycle_types(1)) == [(1,)]
    assert list(enumerate_cycle_types(3)) == [(1, 1, 1), (1, 2), (3,)]
    assert len(list(enumerate_cycle_types(8))) == 22  # partitions of 8
    types = list(enumerate_cycle_types(6))
    assert types == sorted(types) and len(set(types)) == 11
    assert all(sum(t) == 6 and list(t) == sorted(t) for t in types)
    with pytest.raises(ValueError):
        enumerate_cycle_types(65)  # past the bound of 64, refused before any enumeration
    with pytest.raises(ValueError):
        enumerate_cycle_types(0)


@pytest.mark.parametrize("n", range(1, 11))
def test_type_counts_sum_to_factorial(n):
    assert sum(perm_type_count(t) for t in enumerate_cycle_types(n)) == factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_type_count_against_direct_classification(n):
    """Classify every permutation of S_n explicitly and compare tallies."""
    tally = {}
    for perm in itertools.permutations(range(n)):
        c = cycle_type_of(perm)
        tally[c] = tally.get(c, 0) + 1
    for t in enumerate_cycle_types(n):
        assert perm_type_count(t) == tally.get(t, 0)


def test_perm_type_count_s3_values():
    assert perm_type_count((1, 2)) == 3
    assert perm_type_count((1, 1, 1)) == 1
    assert perm_type_count((3,)) == 2


def test_stirling_cycle_values():
    assert (stirling_cycle(3, 1), stirling_cycle(3, 2), stirling_cycle(3, 3)) == (2, 3, 1)
    assert stirling_cycle(4, 1) == 6
    for n in range(1, 9):
        assert stirling_cycle(n, n) == 1
    with pytest.raises(ValueError):
        stirling_cycle(3, 0)


def test_stirling_recurrence():
    """c(n+1, k) = c(n, k-1) + n * c(n, k); an independent route."""
    def c(n, k):
        return stirling_cycle(n, k) if 1 <= k <= n else (1 if n == k == 0 else 0)
    for n in range(1, 9):
        for k in range(1, n + 2):
            assert c(n + 1, k) == c(n, k - 1) + n * c(n, k)


def test_p_divisible_values():
    assert p_divisible_cycle_count(2, 1, 2) == 1
    assert p_divisible_cycle_count(4, 2, 2) == 3
    assert p_divisible_cycle_count(2, 1, 3) == 0
    assert p_divisible_cycle_count(2, 2, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(1, 8))
def test_p_divisible_against_direct_classification(n, p):
    for i in range(1, n + 1):
        direct = 0
        for perm in itertools.permutations(range(n)):
            lengths = cycle_type_of(perm)
            if len(lengths) != i:
                continue
            if all(length % p == 0 for length in lengths):
                direct += 1
        assert p_divisible_cycle_count(n, i, p) == direct


def test_signed_cycle_sum_identity():
    """sum_i (-1)^(n-i) c(n,i) q^i == n! C(q,n) for desk-scale q, n."""
    for q in range(2, 17):
        for n in range(1, 9):
            total = sum((-1) ** (n - i) * stirling_cycle(n, i) * q ** i for i in range(1, n + 1))
            assert total == factorial(n) * comb(q, n)


def test_signed_p_divisible_sum_identity():
    """sum_i (-1)^(n-i) p(n,i) q^i == (-1)^(n + n/p) n! C(q/p, n/p) when p | n, p | q."""
    cases = [(2, q, n) for q in (2, 4, 8, 16) for n in (2, 4, 6, 8)]
    cases += [(3, q, n) for q in (3, 9) for n in (3, 6, 9)]
    cases += [(5, 5, 5), (5, 25, 5), (5, 25, 10)]
    for p, q, n in cases:
        total = sum((-1) ** (n - i) * p_divisible_cycle_count(n, i, p) * q ** i
                    for i in range(1, n + 1))
        assert total == (-1) ** (n + n // p) * factorial(n) * comb(q // p, n // p)
