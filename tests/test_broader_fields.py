"""Spot checks on fields outside the main verification grids: larger primes,
prime squares past 25, and an even extension of degree 4.  Everything is
formula-vs-oracle at exact equality; sizes stay tiny."""

import pytest

from fqcount.counting import (
    count_nk_gap1,
    count_nk_gap2,
    count_nk_gap3,
    moment_subset_count,
    moment_subset_count_m1,
    subset_sum_count,
)
from fqcount.ff import make_field
from fqcount.oracle import (
    brute_nk_distribution,
    brute_subsets_mss2,
    subset_pair_tally,
)


@pytest.mark.parametrize("p,e,n", [(11, 1, 3), (13, 1, 3), (2, 4, 3), (5, 2, 4), (3, 3, 3)])
def test_gap1_on_larger_fields(p, e, n):
    f = make_field(p, e)
    dist = brute_nk_distribution(f, [], n, n - 1)
    for k in range(f.q + 1):
        assert count_nk_gap1(f, n, k).value == dist[k], (p, e, n, k)


@pytest.mark.parametrize("p,e,n,b_indices", [
    (11, 1, 3, (0, 1)), (2, 4, 4, (0, 3)), (5, 2, 4, (0, 7)), (3, 3, 3, (0, 2)),
])
def test_gap2_on_larger_fields(p, e, n, b_indices):
    f = make_field(p, e)
    for b_index in b_indices:
        b = f.element(b_index)
        dist = brute_nk_distribution(f, [f.neg(b)], n, n - 2)
        for k in range(f.q + 1):
            assert count_nk_gap2(f, n, k, b).value == dist[k], (p, e, n, k, b_index)


@pytest.mark.parametrize("p,e,max_n", [(7, 2, 4), (3, 4, 4)])
def test_gap3_on_larger_even_degree_fields(p, e, max_n):
    """p = 7 and an extension of degree 4 exercise fresh alpha/beta territory."""
    f = make_field(p, e)
    for n in range(3, max_n + 1):
        dist = brute_nk_distribution(f, [f.zero, f.zero], n, n - 3)
        for k in range(f.q + 1):
            assert count_nk_gap3(f, n, k).value == dist[k], (p, e, n, k)


@pytest.mark.parametrize("p,e,max_n", [(7, 2, 4), (3, 4, 3)])
def test_moment_counts_on_larger_even_degree_fields(p, e, max_n):
    f = make_field(p, e)
    for n in range(1, max_n + 1):
        assert (moment_subset_count(f, n).value
                == brute_subsets_mss2(f, n, mode="power-sums"))
    for n in range(2, max_n + 1):
        assert (moment_subset_count_m1(f, n).value
                == brute_subsets_mss2(f, n, mode="first-distinct"))


@pytest.mark.parametrize("p,e,max_n", [(11, 1, 4), (13, 1, 3), (2, 4, 4), (3, 3, 3)])
def test_subset_sum_on_larger_fields(p, e, max_n):
    f = make_field(p, e)
    for n in range(0, max_n + 1):
        dist = subset_pair_tally(f, n, "sum-only")
        for b_index in range(f.q):
            assert subset_sum_count(f, n, f.element(b_index)).value == dist[b_index]
