"""Gap-3 closed forms: the n < q regime against literal enumeration, the
k = n link to the two-moment subset count, and the reduced regimes n >= q
against independent routes."""

from math import comb

import pytest

from fqcount import counting
from fqcount.counting import count_nk_gap1, count_nk_gap3, moment_subset_count
from fqcount.ff import make_field
from fqcount.oracle import brute_nk_distribution

from helpers import ref_nk_distribution


FIELDS = {f.q: f for f in (make_field(3, 2), make_field(5, 2), make_field(7, 2), make_field(3, 4))}


@pytest.fixture(scope="module")
def f9():
    return FIELDS[9]


def test_pinned_values_q9_n3(f9):
    # x^3 + a0 is a cube in characteristic 3: always exactly one root.
    assert [count_nk_gap3(f9, 3, k).value for k in range(4)] == [0, 9, 0, 0]


def test_k_equals_n_matches_moment_count(f9):
    for n in range(3, 9):
        assert count_nk_gap3(f9, n, n).value == moment_subset_count(f9, n).value
    assert count_nk_gap3(f9, 4, 4).value == 2


def test_preconditions(f9):
    with pytest.raises(ValueError):
        count_nk_gap3(make_field(3, 1), 4, 1)  # odd extension degree
    with pytest.raises(ValueError):
        count_nk_gap3(make_field(2, 2), 4, 1)  # even characteristic
    with pytest.raises(ValueError):
        count_nk_gap3(f9, 2, 0)  # degree below the gap
    assert count_nk_gap3(f9, 5, 11).value == 0  # k past min(n, q)


@pytest.mark.parametrize("n", [3, 4])
def test_main_regime_against_literal_reference(f9, n):
    ref = ref_nk_distribution(f9, [f9.zero, f9.zero], n, n - 3)
    for k in range(f9.q + 1):
        assert count_nk_gap3(f9, n, k).value == ref[k], (n, k)


@pytest.mark.parametrize("n", [5, 6])
def test_main_regime_against_oracle(f9, n):
    dist = brute_nk_distribution(f9, [f9.zero, f9.zero], n, n - 3)
    for k in range(f9.q + 1):
        assert count_nk_gap3(f9, n, k).value == dist[k], (n, k)


@pytest.mark.parametrize("p,e,max_n", [(5, 2, 5)])
def test_main_regime_other_even_degree_field(p, e, max_n):
    f = make_field(p, e)
    for n in range(3, max_n + 1):
        dist = brute_nk_distribution(f, [f.zero, f.zero], n, n - 3)
        for k in range(f.q + 1):
            assert count_nk_gap3(f, n, k).value == dist[k], (n, k)


def test_normalization(f9):
    for n in (3, 4, 5, 6, 9, 10, 12):
        total = sum(count_nk_gap3(f9, n, k).value for k in range(f9.q + 1))
        assert total == f9.q ** (n - 2), n


def test_reduced_regime_n_equals_q_against_oracle(f9):
    """n = q = 9: the reduced regime versus direct enumeration of all 9^7 tails."""
    dist = brute_nk_distribution(f9, [f9.zero, f9.zero], 9, 6)
    for k in range(f9.q + 1):
        got = count_nk_gap3(f9, 9, k)
        assert got.value == dist[k], k
        assert got.note == "reduced-degree regime (n == q)"


def test_degree_class_against_oracle(f9):
    """The degree-7 monic class that the n = q + 1 identity sums at q = 9."""
    dist7 = brute_nk_distribution(f9, [], 7, 6)
    for k in range(f9.q + 1):
        assert count_nk_gap1(f9, 7, k).value == dist7[k], k


@pytest.mark.parametrize("q", [9, 25, 49, 81])
def test_reduced_regime_n_equals_q_plus_1_via_degree_classes(q):
    """n = q + 1 reduces to counting polynomials of degree <= q - 2 by their
    root tally: (q-1) monic counts per degree class plus the zero polynomial.
    The classes come from the gap-1 main regime, independent of the reduced
    regime."""
    f = FIELDS[q]
    for k in range(q + 1):
        expected = (1 if k == q else 0) + sum(
            (q - 1) * count_nk_gap1(f, d, k).value if d >= 1 else (q - 1) * (k == 0)
            for d in range(0, q - 1))
        got = count_nk_gap3(f, q + 1, k)
        assert got.value == expected, k
        assert got.note == "reduced-degree regime (n == q + 1)"


def test_reduced_regime_above_q_plus_1(f9):
    """n > q + 1: tails cover every function on the field with uniform fiber
    size, so counts are function counts scaled by q^(n - q - 2)."""
    q = f9.q
    for n in (11, 12, 13):
        for k in range(q + 1):
            expected = q ** (n - q - 2) * comb(q, k) * (q - 1) ** (q - k)
            assert count_nk_gap3(f9, n, k).value == expected
    # scaling by one degree multiplies every count by q
    for k in range(q + 1):
        assert count_nk_gap3(f9, 13, k).value == q * count_nk_gap3(f9, 12, k).value
    # function counts themselves partition q^q
    assert sum(comb(q, k) * (q - 1) ** (q - k) for k in range(q + 1)) == q ** q


@pytest.mark.parametrize("p,e,n", [(3, 4, 70), (11, 2, 80)])
def test_degrees_past_the_cycle_type_range(p, e, n):
    """Gap 3 needs only alpha/beta, so degrees with p(n) far past any
    cycle-type enumeration still answer, and their table is consistent."""
    f = make_field(p, e)
    table = [count_nk_gap3(f, n, k).value for k in range(n + 1)]
    assert sum(table) == f.q ** (n - 2)
    assert table[n] == moment_subset_count(f, n).value


@pytest.mark.parametrize("n", [312, 626])
def test_table_is_one_cache_entry(n):
    """Every k of a gap-3 table at q = 625, in either regime, is one cache
    miss; every other read is a hit on the same table."""
    f = make_field(5, 4)
    counting._table.cache_clear()
    table = [count_nk_gap3(f, n, k).value for k in range(min(n, f.q) + 1)]
    info = counting._table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(table) - 1, 1)
    assert sum(table) == f.q ** (n - 2)
