"""The distinct-coordinate sieve engine and its counter factories."""

from math import factorial

import pytest

from fqcount.counting import (
    moment_subset_count,
    moment_subset_count_m1,
    quad_lin_solution_count,
    subset_sum_count,
)
from fqcount.exactcomb import CycleType
from fqcount.ff import make_field
from fqcount.sieve import (
    SymmetricCounter,
    sieve_distinct,
    sieve_first_n_minus_1,
    subset_sum_counter,
    two_moment_counter,
    unconstrained_counter,
)


def falling_factorial(q, n):
    out = 1
    for i in range(n):
        out *= q - i
    return out


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_unconstrained_gives_falling_factorial(p, e):
    f = make_field(p, e)
    for n in range(1, 7):
        assert sieve_distinct(unconstrained_counter(f, n)) == falling_factorial(f.q, n)


def test_unconstrained_first_variant():
    """Free last coordinate times ordered distinct tuples in front."""
    f = make_field(3, 1)
    assert sieve_first_n_minus_1(unconstrained_counter(f, 3)) == 3 * (3 * 2)
    with pytest.raises(ValueError):
        sieve_first_n_minus_1(unconstrained_counter(f, 1))


def test_identity_type_recovers_whole_set():
    """count_for_type at the all-fixed-points type must equal |X|."""
    f9 = make_field(3, 2)
    for n in (2, 3, 4):
        all_fixed = CycleType(n, (n,) + (0,) * (n - 1))
        assert unconstrained_counter(f9, n).count_for_type(all_fixed) == f9.q ** n
        ones = [f9.one] * n
        whole = quad_lin_solution_count(f9, ones, f9.zero, ones, f9.zero).value
        assert two_moment_counter(f9, n).count_for_type(all_fixed) == whole


def test_degenerate_collapse_when_every_length_divisible():
    """All cycle lengths divisible by p: both glued equations vanish, leaving
    one free value per cycle."""
    f9 = make_field(3, 2)
    counter = two_moment_counter(f9, 3)
    assert counter.count_for_type(CycleType(3, (0, 0, 1))) == 9
    counter6 = two_moment_counter(f9, 6)
    assert counter6.count_for_type(CycleType(6, (0, 0, 2, 0, 0, 0))) == 81
    assert counter6.count_for_type(CycleType(6, (0, 0, 0, 0, 0, 1))) == 9


def test_sum_counter_example_f5():
    """Over F_5, pairs with x + y = 0: 5 - 1 = 4 ordered, hence 2 subsets."""
    f5 = make_field(5, 1)
    total = sieve_distinct(subset_sum_counter(f5, 2, f5.zero))
    assert total == 4
    assert total // factorial(2) == subset_sum_count(f5, 2, f5.zero).value == 2


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_sum_counter_matches_closed_form(p, e):
    f = make_field(p, e)
    for n in range(1, 5):
        for b_index in range(min(f.q, 3)):
            b = f.element(b_index)
            total = sieve_distinct(subset_sum_counter(f, n, b))
            assert total % factorial(n) == 0
            assert total // factorial(n) == subset_sum_count(f, n, b).value


def test_two_moment_sieve_route_q9():
    f9 = make_field(3, 2)
    for n in range(1, 9):
        total = sieve_distinct(two_moment_counter(f9, n))
        assert total % factorial(n) == 0
        assert total // factorial(n) == moment_subset_count(f9, n).value


def test_two_moment_first_variant_q9():
    f9 = make_field(3, 2)
    for n in range(2, 9):
        total = sieve_first_n_minus_1(two_moment_counter(f9, n))
        assert total % factorial(n - 1) == 0
        assert total // factorial(n - 1) == moment_subset_count_m1(f9, n).value
    # pinned spot values
    assert sieve_first_n_minus_1(two_moment_counter(f9, 2)) == 1
    assert sieve_first_n_minus_1(two_moment_counter(f9, 3)) == 0


def test_two_moment_sieve_route_q25_small():
    f25 = make_field(5, 2)
    for n in range(1, 6):
        total = sieve_distinct(two_moment_counter(f25, n))
        assert total % factorial(n) == 0
        assert total // factorial(n) == moment_subset_count(f25, n).value


def test_constant_counter_sums_signed_type_counts():
    from fqcount.exactcomb import enumerate_cycle_types, perm_type_count

    counter = SymmetricCounter(3, lambda t: 1)
    expected = sum((-1) ** (3 - t.num_cycles()) * perm_type_count(t)
                   for t in enumerate_cycle_types(3))
    assert sieve_distinct(counter) == expected
