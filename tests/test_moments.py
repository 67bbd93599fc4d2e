"""Generating-function terms (alpha/beta, signed splits) and the two-moment
subset counts, against pinned values and literal subset enumeration."""

from math import comb, factorial

import re

import pytest

from fqcount.counting import (
    _moment_excess,
    _moment_excess_m1,
    alpha_beta,
    count_nk_gap3,
    moment_subset_count,
    moment_subset_count_m1,
    s_plus_minus,
)
from fqcount.ff import make_field
from fqcount.sieve import s_plus_minus_type_sums, two_moment_counter

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
    """The closed form equals the sieve's independent signed sum."""
    f = make_field(p, e)
    for n in range(1, max_n + 1):
        assert s_plus_minus(f, n) == s_plus_minus_type_sums(f, n)


@pytest.mark.parametrize("e", [2, 4])
def test_s_plus_minus_refuses_characteristic_2(e):
    """The alpha/beta form assumes odd q.  At q = 4 and 16 it gave nonzero
    values at n = 2, where the identity's s^2 and the transposition's -q
    cancel; the sieve's signed sum keeps the definition."""
    f = make_field(2, e)
    assert s_plus_minus_type_sums(f, 2) == (0, 0)
    with pytest.raises(ValueError, match="odd characteristic"):
        s_plus_minus(f, 2)


def test_s_plus_minus_past_the_cycle_type_range():
    """The closed form does no cycle-type work, so a degree whose p(n) no
    enumeration reaches still answers, and the sieve's recurrence agrees."""
    s_plus, s_minus = s_plus_minus(make_field(3, 2), 70)
    assert (s_plus, s_minus) == s_plus_minus_type_sums(make_field(3, 2), 70)
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


@pytest.mark.parametrize("p,e", [(2, 2), (3, 1)])
@pytest.mark.parametrize("quantity,refused", [
    ("gap-3 closed forms", lambda f: count_nk_gap3(f, 4, 1)),
    ("two-moment closed forms", lambda f: moment_subset_count(f, 2)),
    ("S+- closed forms", lambda f: s_plus_minus(f, 2)),
    ("two-moment sieves", two_moment_counter),
], ids=["gap3", "mss2", "s-plus-minus", "sieve"])
def test_moment_field_refusals_name_their_quantity(p, e, quantity, refused):
    """Every closed form built on alpha/beta needs odd p and even e, and its
    refusal names the caller's own quantity, in characteristic 2 and at odd e."""
    message = f"{quantity} need odd characteristic and an even extension degree, got q = {p}^{e}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused(make_field(p, e))
