"""Counting identities as property tests, at the field sizes where the closed
forms are used: q in {49, 81, 121, 625}, with degrees across the whole valid
range (gap 3 included past n = 64, where no cycle-type enumeration reaches),
the gap-2/3 main regime against its earlier alpha/beta and p | n form, the
reduced regime n >= q against the earlier case tables, and the
quadratic/linear counts summed over a0 and against their earlier case table.
The inclusion-exclusion tail is checked on both sides of its branch bound,
with its Horner step count.  The root oracle's canonical families
(translated, left alone at p | n, and absorbed) are checked against the
literal tally at q <= 9.  The oracle's lookup tables are checked against
field arithmetic on fields of every order up to their limit, q = 1024.  The
sieve's unconstrained and subset-sum counters recover the falling factorial
at every field order up to 49."""

import random
from math import comb, perm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fqcount.counting import (
    _alternating_tail,
    count_nk_gap1,
    count_nk_gap2,
    count_nk_gap3,
    moment_subset_count,
    quad_lin_solution_count,
    quadlin_case_count,
)
from fqcount.ff import is_prime, make_field
from fqcount.oracle import TABLE_ORDER_LIMIT, brute_nk_distribution, field_tables
from fqcount.sieve import (
    sieve_distinct,
    sieve_first_n_minus_1,
    subset_sum_counter,
    unconstrained_counter,
)

from helpers import (
    force_quadlin_case,
    ref_nk_distribution,
    ref_alternating_tail,
    ref_gap2_main,
    ref_gap2_reduced,
    ref_gap3_main,
    ref_gap3_reduced,
    ref_quadlin_cases,
)

FIELDS = {f.q: f for f in (make_field(7, 2), make_field(3, 4), make_field(11, 2),
                           make_field(5, 4))}
REDUCED_SPAN = 8  # degrees drawn up to q + REDUCED_SPAN cover the reduced regimes

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)
qs = st.sampled_from(sorted(FIELDS))


@PROPERTY
@given(qs, st.data())
def test_gap1_counts_sum_to_q_power(q, data):
    n = data.draw(st.integers(1, q + REDUCED_SPAN), label="n")
    f = FIELDS[q]
    assert sum(count_nk_gap1(f, n, k).value for k in range(min(n, q) + 1)) == q ** n


@PROPERTY
@given(qs, st.data())
def test_gap2_counts_sum_to_q_power(q, data):
    n = data.draw(st.integers(2, q + REDUCED_SPAN), label="n")
    f = FIELDS[q]
    b = f.element(data.draw(st.integers(0, q - 1), label="b"))
    assert sum(count_nk_gap2(f, n, k, b).value for k in range(min(n, q) + 1)) == q ** (n - 1)


@PROPERTY
@given(qs, st.data())
def test_gap3_counts_sum_to_q_power(q, data):
    n = data.draw(st.integers(3, q + REDUCED_SPAN), label="n")
    f = FIELDS[q]
    assert sum(count_nk_gap3(f, n, k).value for k in range(min(n, q) + 1)) == q ** (n - 2)


@PROPERTY
@given(qs, st.data())
def test_gap2_summed_over_b_is_gap1(q, data):
    n = data.draw(st.integers(2, q + REDUCED_SPAN), label="n")
    k = data.draw(st.integers(0, min(n, q)), label="k")
    f = FIELDS[q]
    total = sum(count_nk_gap2(f, n, k, b).value for b in f.elements())
    assert total == count_nk_gap1(f, n, k).value


@PROPERTY
@given(qs, st.data())
def test_gap3_all_roots_is_two_moment_count(q, data):
    n = data.draw(st.integers(3, q), label="n")
    f = FIELDS[q]
    assert count_nk_gap3(f, n, n).value == moment_subset_count(f, n).value


@pytest.mark.parametrize("q", sorted(FIELDS))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_main_regime_matches_earlier_form(q, data):
    """Every k <= n of a degree n < q, and of the multiple of p at or below n
    (where the subset-sum excess is nonzero): gap 2 at a zero and a nonzero b,
    and gap 3, equal their earlier alpha/beta and p | n form."""
    f = FIELDS[q]
    n = data.draw(st.integers(3, q - 1), label="n")
    b = f.element(data.draw(st.integers(1, q - 1), label="b"))
    for deg in {n, max(f.p, n - n % f.p)}:
        for k in range(deg + 1):
            for bk in (f.zero, b):
                assert count_nk_gap2(f, deg, k, bk).value == ref_gap2_main(f, deg, k, bk)
            assert count_nk_gap3(f, deg, k).value == ref_gap3_main(f, deg, k)


@pytest.mark.parametrize("q", sorted(FIELDS))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_reduced_regime_matches_case_tables(q, data):
    """Every k of every degree n in [q, q + 3]: gap 1 is the function count,
    and gap 2 (at a zero and a drawn nonzero b) and gap 3 equal the earlier
    hand-derived case tables."""
    f = FIELDS[q]
    b = f.element(data.draw(st.integers(1, q - 1), label="b"))
    for n in range(q, q + 4):
        for k in range(q + 1):
            assert count_nk_gap1(f, n, k).value == comb(q, k) * q ** (n - q) * (q - 1) ** (q - k)
            for bk in (f.zero, b):
                assert count_nk_gap2(f, n, k, bk).value == ref_gap2_reduced(f, n, k, bk), (n, k)
            assert count_nk_gap3(f, n, k).value == ref_gap3_reduced(f, n, k), (n, k)


@PROPERTY
@given(qs, st.data())
def test_quadlin_summed_over_a0_is_hyperplane(q, data):
    n = data.draw(st.integers(1, 12), label="n")
    f = FIELDS[q]
    a = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n), label="a")
    bvec = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n).filter(any),
                     label="bvec")
    b0 = f.element(data.draw(st.integers(0, q - 1), label="b0"))
    a, bvec = [f.element(i) for i in a], [f.element(i) for i in bvec]
    total = sum(quad_lin_solution_count(f, a, a0, bvec, b0).value for a0 in f.elements())
    assert total == q ** (n - 1)


QUADLIN_FIELDS = {f.q: f for f in (make_field(7, 1), make_field(11, 1), make_field(3, 3),
                                   make_field(7, 2), make_field(3, 4), make_field(11, 2),
                                   make_field(5, 4))}


@pytest.mark.parametrize("q", sorted(QUADLIN_FIELDS))
@settings(max_examples=16, deadline=None, derandomize=True)
@given(data=st.data())
def test_quadlin_identity_matches_case_table(q, data):
    """Case and count of the Gauss-sum identity equal the earlier case table
    for n <= 40, q = 1 and 3 mod 4, with each of the four cases forced."""
    f = QUADLIN_FIELDS[q]
    case = data.draw(st.integers(1, 4), label="case")
    n = data.draw(st.integers(1 if case <= 2 else 2, 40), label="n")
    a = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n), label="a")
    bvec = data.draw(st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1), label="b")
    bvec.append(data.draw(st.integers(1, q - 1), label="b_n"))
    a0, b0 = (data.draw(st.integers(0, q - 1), label=name) for name in ("a0", "b0"))
    instance = force_quadlin_case(f, [f.element(i) for i in a], f.element(a0),
                                  [f.element(i) for i in bvec], f.element(b0), case)
    assume(instance is not None)
    got_case, got = quadlin_case_count(f, *instance)
    assert got_case == case
    assert (got_case, got.value) == ref_quadlin_cases(f, *instance)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(qs, st.data())
def test_horner_tail_matches_literal_sum(q, data):
    m = data.draw(st.integers(0, q), label="m")
    length = data.draw(st.integers(0, q), label="length")
    assert _alternating_tail(q, m, length) == ref_alternating_tail(q, m, length)


def test_literal_tail_reference_is_the_sum_term_by_term():
    """The reference carries C(m, i) and q^(length - i) from one term to the
    next; it is the sum with every term computed afresh."""
    for q in (2, 3, 5, 9, 49):
        for m in range(q + 3):
            for length in range(q + 3):
                afresh = sum((-1) ** i * comb(m, i) * q ** (length - i) for i in range(length + 1))
                assert ref_alternating_tail(q, m, length) == afresh, (q, m, length)


class CountingQ(int):
    """The field size q as an int that counts the Horner steps acc * q."""

    steps = 0

    def __rmul__(self, other):
        self.steps += 1
        return int(other) * int(self)


@pytest.mark.parametrize("q", [2, 3, 625])
def test_tail_sides_meet_at_the_branch_bound(q):
    """On both sides of 0 < g <= length + 1, with g = m - length (also m < length,
    length = 0 and m = 0): the tail is the literal sum, in min(length + 1, g)
    Horner steps when g > 0 and length + 1 otherwise."""
    for length in sorted({0, 1, 2, q // 2, q - 1}):
        for m in {0, max(length - 1, 0), length, length + 1, 2 * length + 1, 2 * length + 2}:
            g, counted = m - length, CountingQ(q)
            assert _alternating_tail(counted, m, length) == ref_alternating_tail(q, m, length)
            assert counted.steps == (min(length + 1, g) if g > 0 else length + 1), (m, length)


def test_main_regime_near_q_against_literal_tail():
    """Gap 1 and gap 2 (b = 0 and b != 0) at q = 625 and n = q - 1, q - 2, q - 3,
    where the tail is summed from its short side: a seeded spread of k against
    the literal tail, and every k summed to the number of completions."""
    f = FIELDS[625]
    q, rng = f.q, random.Random(625)
    for n in (q - 1, q - 2, q - 3):
        for k in sorted(rng.sample(range(n + 1), 6) + [0, n]):
            assert count_nk_gap1(f, n, k).value == comb(q, k) * ref_alternating_tail(q, q - k, n - k)
            for b in (f.zero, f.element(n)):
                assert count_nk_gap2(f, n, k, b).value == ref_gap2_main(f, n, k, b), (n, k)
        assert sum(count_nk_gap1(f, n, k).value for k in range(n + 1)) == q ** n
        for b in (f.zero, f.element(n)):
            assert sum(count_nk_gap2(f, n, k, b).value for k in range(n + 1)) == q ** (n - 1)


ROOT_FIELDS = {f.q: f for f in (make_field(2, 1), make_field(3, 1), make_field(2, 2),
                                make_field(5, 1), make_field(7, 1), make_field(2, 3),
                                make_field(3, 2))}
ROOT_WORK = 1100  # tails times field elements the literal tally evaluates
ROOT_PROPERTY = settings(max_examples=6, deadline=None, derandomize=True)


def root_ells(q: int) -> range:
    """Tail degrees ell whose literal tally, q^(ell+1) tails at q points,
    stays within ROOT_WORK."""
    top = 0
    while q ** (top + 3) <= ROOT_WORK:
        top += 1
    return range(top + 1)


def draw_elements(f, data, size, label, nonzero=False):
    values = st.integers(1 if nonzero else 0, f.q - 1)
    return [f.element(i) for i in data.draw(st.lists(values, min_size=size, max_size=size),
                                            label=label)]


@pytest.mark.parametrize("q", sorted(ROOT_FIELDS))
@ROOT_PROPERTY
@given(data=st.data())
def test_root_oracle_translated_families(q, data):
    """u_(n-1) != 0 and p not dividing n: the oracle sweeps f(x + c), and its
    tally equals the literal one.  Gaps 2-4 with drawn lower fixed
    coefficients, so that binomials C(d, j) = 0 mod p occur."""
    f = ROOT_FIELDS[q]
    gap = data.draw(st.integers(2, 4), label="gap")
    ell = data.draw(st.sampled_from([e for e in root_ells(q) if (e + gap) % f.p]), label="ell")
    u_high = draw_elements(f, data, 1, "u_(n-1)", nonzero=True) + \
        draw_elements(f, data, gap - 2, "lower")
    assert brute_nk_distribution(f, u_high, ell + gap, ell) == \
        ref_nk_distribution(f, u_high, ell + gap, ell)


@pytest.mark.parametrize("q", sorted(ROOT_FIELDS))
@ROOT_PROPERTY
@given(data=st.data())
def test_root_oracle_p_divides_n_families(q, data):
    """p | n: no translation applies, whatever u_(n-1) is."""
    f = ROOT_FIELDS[q]
    ell = data.draw(st.sampled_from(root_ells(q)), label="ell")
    lowest = -(-(ell + 2) // f.p)  # the least multiple of p leaving a gap >= 2
    n = f.p * data.draw(st.integers(lowest, lowest + 1), label="n / p")
    u_high = draw_elements(f, data, 1, "u_(n-1)", nonzero=True) + \
        draw_elements(f, data, n - ell - 2, "lower")
    assert brute_nk_distribution(f, u_high, n, ell) == ref_nk_distribution(f, u_high, n, ell)


def absorbed_u_high(f, u_high, n, ell, vanish):
    """u_high changed so that the fixed part is a function of degree <= ell
    on F_q: for each exponent above ell (and, with `vanish`, each other one
    where it can), the lowest fixed degree folding to it is set to cancel the
    rest.  None when only x^n folds to an exponent above ell."""
    q = f.q
    coeffs = {n: f.one, **dict(zip(range(n - 1, ell, -1), u_high))}
    for exponent in range(1, q):
        degrees = sorted(d for d in coeffs if (d - 1) % (q - 1) + 1 == exponent)
        if not degrees or (exponent <= ell and not vanish):
            continue
        if degrees[0] == n:
            if exponent > ell:
                return None
            continue
        rest = f.zero
        for d in degrees[1:]:
            rest = f.add(rest, coeffs[d])
        coeffs[degrees[0]] = f.neg(rest)
    return [coeffs[d] for d in range(n - 1, ell, -1)]


@pytest.mark.parametrize("q", sorted(ROOT_FIELDS))
@ROOT_PROPERTY
@given(data=st.data())
def test_root_oracle_absorbed_families(q, data):
    """n >= q with a fixed part the tails span as functions, among them
    every ell >= q - 1 and fixed parts that vanish on F_q: the oracle sweeps
    the tails alone, and its tally equals the literal one."""
    f = ROOT_FIELDS[q]
    ell = data.draw(st.sampled_from(root_ells(q)), label="ell")
    lowest = max(q, ell + 1)
    n = data.draw(st.integers(lowest, lowest + 3), label="n")
    vanish = data.draw(st.booleans(), label="vanish")
    u_high = absorbed_u_high(f, draw_elements(f, data, n - ell - 1, "u_high"), n, ell, vanish)
    assume(u_high is not None)
    assert brute_nk_distribution(f, u_high, n, ell) == ref_nk_distribution(f, u_high, n, ell)


TABLE_FIELDS = [(p, e) for p in range(2, TABLE_ORDER_LIMIT + 1) if is_prime(p)
                for e in range(1, 11) if p ** e <= TABLE_ORDER_LIMIT]
TABLE_LAYOUT = {"add": (np.int32, 2), "mul": (np.int32, 2), "neg": (np.int32, 1),
                "inv": (np.int32, 1), "log": (np.int64, 1), "antilog": (np.int64, 1)}


@settings(max_examples=24, deadline=None, derandomize=True)
@given(st.sampled_from(TABLE_FIELDS), st.integers(0, 2 ** 32 - 1))
@example((5, 4), 0)
@example((3, 6), 1)
@example((31, 2), 2)
@example((2, 10), 3)
def test_field_tables_match_arithmetic_up_to_the_limit(pe, seed):
    """add/mul/neg/inv at seeded elements against `FieldSpec` arithmetic,
    distributivity through the tables, log inverting antilog, and the layout
    every caller reads: dtype, rank, read-only and C-contiguous."""
    f = make_field(*pe)
    t = field_tables.__wrapped__(f)  # uncached, so the process keeps no large table
    assert {name: (a.dtype, a.ndim, a.flags.writeable, a.flags.c_contiguous)
            for name, a in t.items()} == {name: (np.dtype(dt), ndim, False, True)
                                          for name, (dt, ndim) in TABLE_LAYOUT.items()}
    add, mul, neg, inv = t["add"], t["mul"], t["neg"], t["inv"]
    assert add.shape == mul.shape == (f.q, f.q) and t["antilog"].shape == (f.q - 1,)
    assert neg.shape == inv.shape == t["log"].shape == (f.q,)
    assert np.array_equal(t["log"][t["antilog"]], np.arange(f.q - 1))
    rng = random.Random(seed)
    for _ in range(8):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        x, y = f.element(a), f.element(b)
        assert add[a, b] == f.add(x, y).index
        assert mul[a, b] == f.mul(x, y).index
        assert neg[a] == f.neg(x).index
        if a:
            assert inv[a] == f.inv(x).index
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


SIEVE_FIELDS = [(p, e) for p in range(2, 50) if is_prime(p)
                for e in range(1, 7) if p ** e <= 49]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(st.sampled_from(SIEVE_FIELDS), st.integers(1, 10))
def test_sieve_identities(pe, n):
    """Distinct n-tuples of F_q number perm(q, n); with the last coordinate
    free, q perm(q, n - 1); and the subset-sum sieve summed over every b
    splits the distinct tuples by their sum."""
    f = make_field(*pe)
    assert sieve_distinct(n, unconstrained_counter(f)) == perm(f.q, n)
    if n >= 2:
        assert sieve_first_n_minus_1(n, unconstrained_counter(f)) == f.q * perm(f.q, n - 1)
    assert sum(sieve_distinct(n, subset_sum_counter(f, b)) for b in f.elements()) == perm(f.q, n)
