"""Generating-function terms (alpha/beta, signed splits) and the two-moment
subset counts, against pinned values and literal subset enumeration."""

from math import comb, factorial

import pytest

from fqcount.counting import (
    _moment_excess,
    _moment_excess_m1,
    alpha_beta,
    moment_subset_count,
    moment_subset_count_m1,
    s_plus_minus,
    s_plus_minus_type_sums,
)
from fqcount.ff import make_field

from helpers import ref_first_distinct, ref_two_moment_subsets


def test_alpha_beta_pinned_values():
    f9 = make_field(3, 2)
    assert alpha_beta(f9, 0) == (1, 1)
    assert alpha_beta(f9, 2) == (3, 6)
    assert alpha_beta(f9, 3) == (3, 6)


def test_alpha_beta_preconditions():
    f3 = make_field(3, 1)
    with pytest.raises(ValueError):
        alpha_beta(f3, 2)  # odd extension degree
    with pytest.raises(ValueError):
        alpha_beta(make_field(3, 2), -1)


def test_s_plus_minus_pinned_values():
    f9 = make_field(3, 2)
    assert s_plus_minus(f9, 1) == (0, -3)
    assert s_plus_minus(f9, 3) == (9, -27)


@pytest.mark.parametrize("p,e,max_n", [(3, 2, 10), (5, 2, 8)])
def test_s_plus_minus_routes_agree(p, e, max_n):
    """The closed form equals the independent sum over cycle types."""
    f = make_field(p, e)
    for n in range(1, max_n + 1):
        assert s_plus_minus(f, n) == s_plus_minus_type_sums(f, n)


def test_s_plus_minus_past_the_cycle_type_range():
    """The closed form does no cycle-type work, so a degree whose p(n) no
    enumeration reaches still answers."""
    s_plus, s_minus = s_plus_minus(make_field(3, 2), 70)
    alpha, beta = alpha_beta(make_field(3, 2), 70)
    assert s_plus - s_minus == factorial(70) * beta
    assert s_plus + s_minus == factorial(70) * alpha


def test_moment_excesses_are_counts_over_uniform():
    """The gap-3 excesses are q^2 M(n,0,0) - C(q,n) and
    q^2 M1(n,0,0) - q C(q,n-1), with M and M1 enumerated literally."""
    f9 = make_field(3, 2)
    q = f9.q
    for n in range(2, q + 1):
        assert _moment_excess(f9, n) == q * q * ref_two_moment_subsets(f9, n) - comb(q, n), n
        assert _moment_excess_m1(f9, n) == q * q * ref_first_distinct(f9, n) - q * comb(q, n - 1), n


def test_moment_counts_read_one_alpha_beta_pair():
    """M(n,0,0) computes only the alpha/beta sums at n, and M1(n+1,0,0) reads
    the same pair from the cache."""
    f81 = make_field(3, 4)
    alpha_beta.cache_clear()
    moment_subset_count(f81, 40)
    moment_subset_count_m1(f81, 41)
    info = alpha_beta.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_moment_subset_pinned_values():
    f9 = make_field(3, 2)
    assert [moment_subset_count(f9, n).value for n in (1, 2, 3, 4)] == [1, 0, 0, 2]
    assert moment_subset_count(f9, 9).value == 1  # the whole field qualifies


@pytest.mark.parametrize("n", range(1, 10))
def test_moment_subset_against_reference_q9(n):
    f9 = make_field(3, 2)
    assert moment_subset_count(f9, n).value == ref_two_moment_subsets(f9, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_moment_subset_against_reference_q25(n):
    f25 = make_field(5, 2)
    assert moment_subset_count(f25, n).value == ref_two_moment_subsets(f25, n)


def test_moment_subset_preconditions():
    with pytest.raises(ValueError):
        moment_subset_count(make_field(3, 1), 2)  # odd degree
    with pytest.raises(ValueError):
        moment_subset_count(make_field(2, 2), 2)  # even characteristic
    f9 = make_field(3, 2)
    with pytest.raises(ValueError):
        moment_subset_count(f9, 0)
    with pytest.raises(ValueError):
        moment_subset_count(f9, 10)


def test_m1_pinned_values():
    f9 = make_field(3, 2)
    assert moment_subset_count_m1(f9, 2).value == 1  # only S = {0}
    assert moment_subset_count_m1(f9, 3).value == 0
    assert moment_subset_count_m1(f9, 4).value == 8
    with pytest.raises(ValueError):
        moment_subset_count_m1(f9, 1)
    with pytest.raises(ValueError):
        moment_subset_count_m1(f9, 11)  # past q + 1


@pytest.mark.parametrize("n", range(2, 11))
def test_m1_against_reference_q9(n):
    f9 = make_field(3, 2)
    assert moment_subset_count_m1(f9, n).value == ref_first_distinct(f9, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_m1_against_reference_q25(n):
    f25 = make_field(5, 2)
    assert moment_subset_count_m1(f25, n).value == ref_first_distinct(f25, n)
