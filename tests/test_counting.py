"""Closed forms for gaps 1 and 2 and the subset-sum count, checked against
literal pure-python enumeration (independent of the vectorized oracle module).
"""

from math import comb

import pytest

from fqcount import counting
from fqcount.counting import (
    ExactCount,
    IntegralityError,
    count_nk_gap1,
    count_nk_gap2,
    subset_sum_count,
    v_of,
)
from fqcount.ff import make_field

from helpers import ref_nk_distribution, ref_subset_sum_counts


def test_negative_count_raises_integrality_error():
    assert ExactCount(0).value == 0
    with pytest.raises(IntegralityError):
        ExactCount(-1)


def test_gap1_f2_cubic_tallies():
    f2 = make_field(2, 1)
    assert count_nk_gap1(f2, 3, 1).value == 4  # four monic cubics over F_2 with one root
    assert count_nk_gap1(f2, 3, 2).value == 2


def test_gap1_small_values():
    f3 = make_field(3, 1)
    assert [count_nk_gap1(f3, 2, k).value for k in range(3)] == [3, 3, 3]
    assert count_nk_gap1(f3, 2, 7).value == 0
    assert count_nk_gap1(f3, 1, 1).value == 3  # x + a0 always has one root


@pytest.mark.parametrize("p,e,max_n", [(2, 1, 6), (3, 1, 5), (2, 2, 6), (5, 1, 4)])
def test_gap1_against_reference(p, e, max_n):
    f = make_field(p, e)
    for n in range(1, max_n + 1):
        ref = ref_nk_distribution(f, [], n, n - 1)
        for k in range(0, max(n, f.q) + 1):
            expected = ref[k] if k <= f.q else 0
            assert count_nk_gap1(f, n, k).value == expected, (p, e, n, k)
        assert sum(count_nk_gap1(f, n, k).value for k in range(f.q + 1)) == f.q ** n


def test_gap1_reduced_regime_notes():
    f2 = make_field(2, 1)
    assert count_nk_gap1(f2, 5, 1).note == "reduced-degree regime (n >= q)"
    assert count_nk_gap1(f2, 1, 1).note is None


def test_subset_sum_examples():
    f5, f4 = make_field(5, 1), make_field(2, 2)
    assert subset_sum_count(f5, 2, f5.zero).value == 2  # {1,4}, {2,3}
    assert subset_sum_count(f4, 2, f4.zero).value == 0
    assert subset_sum_count(f4, 2, f4.one).value == 2  # {0,1} and {w, w^2}
    with pytest.raises(ValueError):
        subset_sum_count(f5, 6, f5.zero)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_subset_sum_against_reference(p, e):
    f = make_field(p, e)
    for n in range(0, f.q + 1):
        ref = ref_subset_sum_counts(f, n)
        for b_index in range(f.q):
            assert subset_sum_count(f, n, f.element(b_index)).value == ref[b_index]
        assert sum(ref) == comb(f.q, n)


def test_v_of():
    f9 = make_field(3, 2)
    assert v_of(f9, f9.zero) == 8
    assert v_of(f9, f9.element(5)) == -1


def test_gap2_small_values():
    f3 = make_field(3, 1)
    b0 = f3.zero
    # n = 3 = q goes through the reduced table; k = 3 counts the single
    # three-element subset summing to zero and k = 2 is impossible in char 3.
    assert count_nk_gap2(f3, 3, 3, b0).value == 1
    assert count_nk_gap2(f3, 3, 2, b0).value == 0
    assert [count_nk_gap2(f3, 2, k, b0).value for k in range(3)] == [1, 1, 1]


def test_gap2_sign_of_divisible_correction():
    """q=4, n=2 (characteristic divides n): the correction term must flip sign
    with the inclusion-exclusion layer, giving tallies 0, 4, 0 at b = 0."""
    f4 = make_field(2, 2)
    got = [count_nk_gap2(f4, 2, k, f4.zero).value for k in range(3)]
    assert got == [0, 4, 0]
    assert sum(got) == 4  # q^(n-1)


def test_gap2_binary_field_edge():
    """q = 2, where the reduced x^q is itself the top monomial x^(q-1): at
    n = q the fixed coefficient is 1 - b, so b = 1 is the zero target."""
    f2 = make_field(2, 1)
    for n in range(2, 7):
        for b_index in (0, 1):
            b = f2.element(b_index)
            ref = ref_nk_distribution(f2, [f2.neg(b)], n, n - 2)
            got = [count_nk_gap2(f2, n, k, b).value for k in range(3)]
            assert got == ref, (n, b_index)
    assert [count_nk_gap2(f2, 2, k, f2.zero).value for k in range(3)] == [0, 2, 0]
    assert [count_nk_gap2(f2, 2, k, f2.one).value for k in range(3)] == [1, 0, 1]


@pytest.mark.parametrize("p,e,max_n", [(3, 1, 5), (2, 2, 6), (5, 1, 6), (3, 2, 4)])
def test_gap2_against_reference(p, e, max_n):
    f = make_field(p, e)
    for n in range(2, max_n + 1):
        for b_index in range(f.q):
            b = f.element(b_index)
            ref = ref_nk_distribution(f, [f.neg(b)], n, n - 2)
            for k in range(0, f.q + 1):
                assert count_nk_gap2(f, n, k, b).value == ref[k], (p, e, n, k, b_index)


def test_gap2_equals_subset_sum_at_full_split():
    for p, e in [(3, 1), (2, 2), (5, 1), (3, 2)]:
        f = make_field(p, e)
        for n in range(2, min(f.q, 7) + 1):
            for b_index in range(f.q):
                b = f.element(b_index)
                assert count_nk_gap2(f, n, n, b).value == subset_sum_count(f, n, b).value


def test_gap2_sums_over_b_reconstruct_gap1():
    for p, e in [(3, 1), (2, 2), (5, 1)]:
        f = make_field(p, e)
        for n in range(2, 7):
            for k in range(0, n + 1):
                total = sum(count_nk_gap2(f, n, k, f.element(bi)).value for bi in range(f.q))
                assert total == count_nk_gap1(f, n, k).value


def test_gap2_normalization():
    for p, e in [(3, 1), (2, 2), (5, 1), (3, 2)]:
        f = make_field(p, e)
        for n in range(2, 8):
            for b_index in (0, 1):
                total = sum(count_nk_gap2(f, n, k, f.element(b_index)).value
                            for k in range(f.q + 1))
                assert total == f.q ** (n - 1)


def test_gap2_preconditions():
    f3 = make_field(3, 1)
    with pytest.raises(ValueError):
        count_nk_gap2(f3, 1, 0, f3.zero)
    with pytest.raises(ValueError):
        counting.nk_table(f3, 2, 3)  # a gap-2 table needs its fixed coefficient b
    with pytest.raises(ValueError):
        counting.nk_table(f3, 4, 5)  # the closed forms cover gaps 1-3


@pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (5, 2), (5, 4)])
def test_table_bytes_bound_the_table(p, e):
    """nk_table_bytes, the size a closed-form count charges to the budget,
    bounds the bytes of the table's integers in both regimes."""
    f = make_field(p, e)
    q = f.q
    for gap in (1, 2, 3) if p % 2 and e % 2 == 0 else (1, 2):
        for n in sorted({gap, q // 2, q - 1, q, q + 1, q + 5} - set(range(gap))):
            table = counting.nk_table(f, gap, n, f.one)
            assert max(table) <= q ** (n - gap + 1)
            used = sum((x.bit_length() + 7) // 8 for x in table)
            assert used <= counting.nk_table_bytes(q, n, gap), (gap, n)


def test_gap2_table_is_one_cache_entry():
    """Every k of a gap-2 table reads one cached table, keyed on the subset-sum
    excess: at q = 625, n = 624 the nonzero b = 1 and b = 7 share one miss;
    at n = 620, where p | n, b = 0 has an excess of its own."""
    f = make_field(5, 4)
    q = f.q
    counting._table.cache_clear()
    for bi in (1, 7):
        values = [count_nk_gap2(f, q - 1, k, f.element(bi)).value for k in range(q)]
        assert sum(values) == q ** (q - 2)
    info = counting._table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2 * q - 1, 1)
    counting._table.cache_clear()
    for bi in (0, 1, 7):
        assert sum(count_nk_gap2(f, 620, k, f.element(bi)).value for k in range(621)) == q ** 619
    assert counting._table.cache_info().misses == 2
