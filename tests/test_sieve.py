"""The distinct-coordinate sieve engine and its counter factories, against
the closed forms and against the literal cycle-type walk in the helpers."""

import hashlib
import tracemalloc
from math import factorial

import pytest

from fqcount.counting import (
    moment_subset_count,
    moment_subset_count_m1,
    quad_lin_solution_count,
    s_plus_minus,
    subset_sum_count,
)
from fqcount.ff import make_field
from fqcount.sieve import (
    _signed_sum,
    s_plus_minus_type_sums,
    sieve_distinct,
    sieve_first_n_minus_1,
    subset_sum_counter,
    two_moment_counter,
    unconstrained_counter,
)

from helpers import (
    enumerate_cycle_types,
    perm_type_count,
    ref_s_plus_minus,
    ref_signed_type_sum,
    ref_subset_sum_counter,
    ref_two_moment_counter,
    ref_unconstrained_counter,
)

# The nine fields of the pinned grid below.
GRID_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]


def falling_factorial(q, n):
    out = 1
    for i in range(n):
        out *= q - i
    return out


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_unconstrained_gives_falling_factorial(p, e):
    f = make_field(p, e)
    for n in range(1, 7):
        assert sieve_distinct(n, unconstrained_counter(f)) == falling_factorial(f.q, n)


def test_unconstrained_first_variant():
    """Free last coordinate times ordered distinct tuples in front."""
    f = make_field(3, 1)
    assert sieve_first_n_minus_1(3, unconstrained_counter(f)) == 3 * (3 * 2)
    with pytest.raises(ValueError):
        sieve_first_n_minus_1(1, unconstrained_counter(f))


def test_identity_type_recovers_whole_set():
    """A literal counter at the all-fixed-points type must equal |X|."""
    f9 = make_field(3, 2)
    for n in (2, 3, 4):
        all_fixed = (1,) * n
        assert ref_unconstrained_counter(f9)(all_fixed) == f9.q ** n
        ones = [f9.one] * n
        whole = quad_lin_solution_count(f9, ones, f9.zero, ones, f9.zero).value
        assert ref_two_moment_counter(f9)(all_fixed) == whole


def test_degenerate_collapse_when_every_length_divisible():
    """All cycle lengths divisible by p: both glued equations vanish, leaving
    one free value per cycle."""
    f9 = make_field(3, 2)
    count = ref_two_moment_counter(f9)
    assert count((3,)) == 9
    assert count((3, 3)) == 81
    assert count((6,)) == 9


def test_sum_counter_example_f5():
    """Over F_5, pairs with x + y = 0: 5 - 1 = 4 ordered, hence 2 subsets."""
    f5 = make_field(5, 1)
    total = sieve_distinct(2, subset_sum_counter(f5, f5.zero))
    assert total == 4
    assert total // factorial(2) == subset_sum_count(f5, 2, f5.zero).value == 2


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_sum_counter_matches_closed_form(p, e):
    f = make_field(p, e)
    for n in range(1, 5):
        for b_index in range(min(f.q, 3)):
            b = f.element(b_index)
            total = sieve_distinct(n, subset_sum_counter(f, b))
            assert total % factorial(n) == 0
            assert total // factorial(n) == subset_sum_count(f, n, b).value


def test_two_moment_sieve_route_q9():
    f9 = make_field(3, 2)
    for n in range(1, 9):
        total = sieve_distinct(n, two_moment_counter(f9))
        assert total % factorial(n) == 0
        assert total // factorial(n) == moment_subset_count(f9, n).value


def test_two_moment_first_variant_q9():
    f9 = make_field(3, 2)
    for n in range(2, 9):
        total = sieve_first_n_minus_1(n, two_moment_counter(f9))
        assert total % factorial(n - 1) == 0
        assert total // factorial(n - 1) == moment_subset_count_m1(f9, n).value
    # pinned spot values
    assert sieve_first_n_minus_1(2, two_moment_counter(f9)) == 1
    assert sieve_first_n_minus_1(3, two_moment_counter(f9)) == 0


def test_two_moment_sieve_route_q25_small():
    f25 = make_field(5, 2)
    for n in range(1, 6):
        total = sieve_distinct(n, two_moment_counter(f25))
        assert total % factorial(n) == 0
        assert total // factorial(n) == moment_subset_count(f25, n).value


def test_constant_counter_sums_signed_type_counts():
    """Weight 1 on every cycle sums the signs of S_n: 1 at n = 1, else 0,
    by the literal walk and by the recurrence."""
    for n in range(1, 8):
        expected = sum((-1) ** (n - len(t)) * perm_type_count(t) for t in enumerate_cycle_types(n))
        assert expected == ref_signed_type_sum(n, lambda t: 1) == (n == 1)
        assert _signed_sum(n, lambda length: (1, 0)) == (expected, 0)


@pytest.mark.parametrize("p,e", GRID_FIELDS)
def test_recurrence_equals_literal_walk(p, e):
    """Every system of the sieve, and its first-(n-1) variant, equals the
    cycle-type walk at n <= 12: the unconstrained and subset-sum counters
    for every b, and at odd squares the two-moment counter and S+-.  Other
    fields have no two-moment counter."""
    f = make_field(p, e)
    systems = [(unconstrained_counter(f), ref_unconstrained_counter(f))]
    systems += [(subset_sum_counter(f, b), ref_subset_sum_counter(f, b)) for b in f.elements()]
    if p % 2 and e % 2 == 0:
        systems.append((two_moment_counter(f), ref_two_moment_counter(f)))
    else:
        with pytest.raises(ValueError):
            two_moment_counter(f)
    for n in range(1, 13):
        for counter, literal in systems:
            assert sieve_distinct(n, counter) == ref_signed_type_sum(n, literal)
            if n >= 2:
                assert sieve_first_n_minus_1(n, counter) == ref_signed_type_sum(n - 1, literal, True)
        if p % 2 and e % 2 == 0:
            assert s_plus_minus_type_sums(f, n) == ref_s_plus_minus(f, n)


@pytest.mark.parametrize("n", [5, 10, 100, 312])
def test_sieve_at_q625(n):
    """At q = 625, where the closed forms are used, the sieve equals
    M(n, b), M(n,0,0), M1(n,0,0) and S+- at n = p, 2p, 100 and 312."""
    f = make_field(5, 4)
    for b in (f.zero, f.one):
        assert sieve_distinct(n, subset_sum_counter(f, b)) == \
            factorial(n) * subset_sum_count(f, n, b).value
    assert sieve_distinct(n, two_moment_counter(f)) == factorial(n) * moment_subset_count(f, n).value
    assert sieve_first_n_minus_1(n, two_moment_counter(f)) == \
        factorial(n - 1) * moment_subset_count_m1(f, n).value
    assert s_plus_minus_type_sums(f, n) == s_plus_minus(f, n)


# sha256 of the repr of the 708 values below; any changed sieve value changes it.
SIEVE_GRID_SHA256 = "97acd4e5dcf40feb745de8d41fa9a75a328800f258a2ab89a943eec5c6600ef3"


def test_sieve_values_pinned():
    """708 sieve values over nine fields: the unconstrained counter (n <= 12)
    and its first-(n-1) variant, the subset-sum counter for b < min(q, 4),
    and at odd squares the two-moment counter (n <= 10), its first-(n-1)
    variant and the S+- type sums (n <= 16)."""
    grid = []
    for p, e in GRID_FIELDS:
        f = make_field(p, e)
        grid += [sieve_distinct(n, unconstrained_counter(f)) for n in range(1, 13)]
        grid += [sieve_first_n_minus_1(n, unconstrained_counter(f)) for n in range(2, 13)]
        grid += [sieve_distinct(n, subset_sum_counter(f, f.element(b)))
                 for n in range(1, 13) for b in range(min(f.q, 4))]
        if p % 2 and e % 2 == 0:
            grid += [sieve_distinct(n, two_moment_counter(f)) for n in range(1, 11)]
            grid += [sieve_first_n_minus_1(n, two_moment_counter(f)) for n in range(2, 11)]
            grid += [s_plus_minus_type_sums(f, n) for n in range(1, 17)]
    assert len(grid) == 708
    assert hashlib.sha256(repr(grid).encode()).hexdigest() == SIEVE_GRID_SHA256


def test_cycle_types_are_streamed():
    """The recurrence holds n partial sums and forms no cycle type, let alone
    all p(36) = 17977 of them."""
    f3 = make_field(3, 1)
    tracemalloc.start()
    try:
        assert sieve_distinct(36, unconstrained_counter(f3)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
