"""Counting identities as property tests, at the field sizes where the closed
forms are used: q in {49, 81, 121, 625}, with degrees across the whole valid
range (gap 3 included past n = 64, where no cycle-type enumeration reaches),
the gap-2/3 main regime against its earlier alpha/beta and p | n form, the
reduced regime n >= q against the earlier case tables, every gap-1/2/3 table
against its binomial moments, and the quadratic/linear counts summed over a0
and against their earlier case table.  Each table's inclusion-exclusion
tails are checked at every k against the literal sum, with the pass's step
count.  The root oracle's canonical families
(translated, left alone at p | n, and absorbed) are checked against the
literal tally at q <= 9.  The oracle's lookup tables are checked against
field arithmetic on fields of every order up to their limit, q = 1024.  The
sieve's unconstrained and subset-sum counters recover the falling factorial
at every field order up to 49."""

import itertools
import random
from functools import cache
from math import comb, perm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fqcount import oracle
from fqcount.counting import (
    _main_regime,
    count_nk_gap1,
    count_nk_gap2,
    count_nk_gap3,
    moment_subset_count,
    nk_table,
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

import helpers
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


# Every degree from 1 to q - 1, except at q = 625, where the literal sums of
# every table would take minutes: both ends and the middle there, and
# test_main_regime_near_q_against_literal_tail reads n = q - 3 ... q - 1.
TAIL_DEGREES = {2: range(1, 2), 3: range(1, 3), 5: range(1, 5), 9: range(1, 9),
                49: range(1, 49), 625: (1, 2, 3, 4, 5, 100, 125, 312, 500, 621)}


@pytest.mark.parametrize("q", sorted(TAIL_DEGREES))
def test_table_tails_match_literal_sum(q):
    """Every k of a degree-n < q table: the gap-1 entry is C(q, k) T_k, with
    T_k the literal tail sum_{i<=n-k} (-1)^i C(q-k, i) q^(n-k-i), the tail
    that gaps 2 and 3 add their excesses to."""
    for n in TAIL_DEGREES[q]:
        table = _main_regime(q, n, 1, 0, 0)
        assert len(table) == n + 1
        for k, count in enumerate(table):
            assert count == comb(q, k) * ref_alternating_tail(q, q - k, n - k), (n, k)


def test_literal_tail_reference_is_the_sum_term_by_term():
    """The reference carries C(m, i) and q^(length - i) from one term to the
    next; it is the sum with every term computed afresh."""
    for q in (2, 3, 5, 9, 49):
        for m in range(q + 3):
            for length in range(q + 3):
                afresh = sum((-1) ** i * comb(m, i) * q ** (length - i) for i in range(length + 1))
                assert ref_alternating_tail(q, m, length) == afresh, (q, m, length)


class CountingQ(int):
    """The field size q as an int that counts the tail steps T * q."""

    steps = 0

    def __rmul__(self, other):
        self.steps += 1
        return int(other) * int(self)


@pytest.mark.parametrize("q", [2, 3, 625])
def test_table_takes_one_tail_step_per_degree(q):
    """A degree-n table takes n recurrence steps T_(k+1) -> T_k, one product by
    q each, and builds the same table as a plain int q."""
    for n in sorted({1, q // 2, q - 1} - {0}):
        counted = CountingQ(q)
        assert _main_regime(counted, n, 1, 0, 0) == _main_regime(q, n, 1, 0, 0)
        assert counted.steps == n, n


def test_main_regime_near_q_against_literal_tail(monkeypatch):
    """Gap 1 and gap 2 (b = 0 and b != 0) at q = 625 and n = q - 1, q - 2, q - 3,
    where the tail pass runs longest: every k against the literal tail (each
    literal sum computed once, for gap 1 and both gap-2 references), and every
    k summed to the number of completions."""
    monkeypatch.setattr(helpers, "ref_alternating_tail", cache(helpers.ref_alternating_tail))
    f = FIELDS[625]
    q = f.q
    for n in (q - 1, q - 2, q - 3):
        for k in range(n + 1):
            literal = helpers.ref_alternating_tail(q, q - k, n - k)
            assert count_nk_gap1(f, n, k).value == comb(q, k) * literal, (n, k)
            for b in (f.zero, f.element(n)):
                assert count_nk_gap2(f, n, k, b).value == ref_gap2_main(f, n, k, b), (n, k)
        assert sum(count_nk_gap1(f, n, k).value for k in range(n + 1)) == q ** n
        for b in (f.zero, f.element(n)):
            assert sum(count_nk_gap2(f, n, k, b).value for k in range(n + 1)) == q ** (n - 1)


MOMENT_PRIMES = (2 ** 31 - 1, 2 ** 31 - 19)


def binomial_moments(table, top, prime):
    """sum_k C(k, j) N_k mod prime for j = 0..top, with the rows C(k, .) of
    Pascal's triangle carried mod prime in int64 (every product < 2^62)."""
    row, acc = np.zeros(top + 1, np.int64), np.zeros(top + 1, np.int64)
    row[0] = 1
    for count in table:
        acc = (acc + row * (count % prime)) % prime
        row[1:] = (row[1:] + row[:-1]) % prime
    return acc.tolist()


def subset_moments(q, ell, top, prime):
    """C(q, j) q^(ell + 1 - j) mod prime for j = 0..top <= min(ell + 1, q)."""
    out, binom = [], 1
    for j in range(top + 1):
        out.append(binom * pow(q, ell + 1 - j, prime) % prime)
        binom = binom * (q - j) * pow(j + 1, -1, prime) % prime
    return out


@pytest.mark.parametrize("p,e,gap,b_index,n", [
    *((5, 4, gap, b_index, n) for gap, b_index in ((1, 0), (2, 0), (2, 1), (3, 0))
      for n in (5, 300, 623, 624, 625, 626, 630)),
    (7, 4, 1, 0, 2399),
    (3, 8, 3, 0, 3280),
])
def test_tables_match_their_binomial_moments(p, e, gap, b_index, n):
    """Counting pairs (f, S) with S a j-set of roots of f: for j <= ell + 1 the
    j root conditions are independent on the free tail, so for every gap and
    fixed part sum_k C(k, j) N_k = C(q, j) q^(ell + 1 - j), 0 <= j <= min(ell + 1, q).
    No enumeration; both regimes at q = 625, one gap-1 table at q = 2401 and
    one gap-3 table at q = 6561.
    The sums are taken mod two 31-bit primes."""
    f = make_field(p, e)
    ell = n - gap
    table = nk_table(f, gap, n, f.element(b_index))
    top = min(ell + 1, f.q)
    for prime in MOMENT_PRIMES:
        assert binomial_moments(table, top, prime) == subset_moments(f.q, ell, top, prime)


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


TRANSLATION_WORK = 4096  # tails times field elements for the translation checks
TRANSLATION_PROPERTY = settings(max_examples=3, deadline=None, derandomize=True)


def tail_ells(q: int, least: int = 0) -> list[int]:
    """Tail degrees ell >= least whose literal tally, q^(ell+1) tails at q
    points, stays within TRANSLATION_WORK."""
    return [ell for ell in range(least, 16) if q ** (ell + 2) <= TRANSLATION_WORK]


def translated(f, coeffs, c):
    """The coefficients of h(x + c), constant first, for h with the
    coefficients `coeffs`, by Horner's rule on polynomials:
    h(x + c) = (...(a_n (x + c) + a_(n-1)) (x + c) + ...) + a_0."""
    out = []
    for a in reversed(coeffs):
        shifted = [f.zero, *out]  # x * out
        for i, o in enumerate(out):
            shifted[i] = f.add(shifted[i], f.mul(c, o))
        shifted[0] = f.add(shifted[0], a)
        out = shifted
    return out


@pytest.mark.parametrize("q", sorted(ROOT_FIELDS))
def test_translation_pin_is_sound(q):
    """Wherever `_translation_pins_top_tail` fires, h(x + c), for h the fixed
    part with a zero tail, keeps every fixed coefficient at every c, and its
    x^ell coefficient runs over F_q as c does.  Every fixed part with
    coefficients 0 and 1 at n <= 9, translated by Horner's rule."""
    f = ROOT_FIELDS[q]
    fired = 0
    for n in range(2, 10):
        for ell in range(1, n):
            for u_high in itertools.product((f.zero, f.one), repeat=n - 1 - ell):
                if not oracle._translation_pins_top_tail(f, u_high, n, ell):
                    continue
                fired += 1
                coeffs = [f.zero] * (ell + 1) + [*u_high[::-1], f.one]  # constant first
                shifts = set()
                for c in f.elements():
                    image = translated(f, coeffs, c)
                    assert image[ell + 1:] == coeffs[ell + 1:], (n, ell, u_high, c)
                    shifts.add(image[ell])
                assert len(shifts) == q, (n, ell, u_high)
    assert fired


@pytest.mark.parametrize("q", sorted(ROOT_FIELDS))
@ROOT_PROPERTY
@given(data=st.data())
def test_root_oracle_gap1_pins_top_tail(q, data):
    """Gap 1 with p not dividing n: f(x + c) moves c_(n-1) through F_q, so the
    oracle sweeps the gap-2 family at b = 0 with weight q."""
    f = ROOT_FIELDS[q]
    ell = data.draw(st.sampled_from([e for e in tail_ells(q, 1) if (e + 1) % f.p]), label="ell")
    assert oracle._translation_pins_top_tail(f, [], ell + 1, ell)
    assert brute_nk_distribution(f, [], ell + 1, ell) == ref_nk_distribution(f, [], ell + 1, ell)


@pytest.mark.parametrize("q", [3, 5, 9])  # at q = 7 the least n = 7 has 7^6 tails
@ROOT_PROPERTY
@given(data=st.data())
def test_root_oracle_gap2_pins_top_tail(q, data):
    """Gap 2 at b != 0 with odd p | n: C(n, n-1) = n and C(n, n-2) =
    n (n - 1) / 2 vanish mod p and (n - 1) b != 0, so f(x + c) keeps -b and
    moves c_(n-2) through F_q."""
    f = ROOT_FIELDS[q]
    n = data.draw(st.sampled_from([n for n in range(f.p, 40, f.p) if n - 2 in tail_ells(q, 1)]),
                  label="n")
    u_high = [f.neg(b) for b in draw_elements(f, data, 1, "b", nonzero=True)]
    assert oracle._translation_pins_top_tail(f, u_high, n, n - 2)
    assert brute_nk_distribution(f, u_high, n, n - 2) == ref_nk_distribution(f, u_high, n, n - 2)


@pytest.mark.parametrize("q", [4, 8])
@TRANSLATION_PROPERTY
@given(data=st.data())
def test_root_oracle_char2_leaves_top_tail(q, data):
    """Characteristic 2 with n = 2 mod 4: C(n, 2) is odd, so f(x + c) adds a
    c^2 term to c_(n-2) and pins no tail coefficient, though (ell + 1) u_(ell+1)
    != 0.  Gap 2 at b != 0 and n = 6 at q = 4, and, since that family has 8^5
    tails at q = 8, x^n + u_3 x^3 + tails of degree <= 2 at n = 6 and 10."""
    f = ROOT_FIELDS[q]
    [top] = draw_elements(f, data, 1, "u_(ell+1)", nonzero=True)
    if q == 4:
        n, ell, u_high = 6, 4, [top]
    else:
        n = data.draw(st.sampled_from([6, 10]), label="n")
        ell, u_high = 2, [f.zero] * (n - 4) + [top]
    assert not oracle._translation_pins_top_tail(f, u_high, n, ell)
    assert brute_nk_distribution(f, u_high, n, ell) == ref_nk_distribution(f, u_high, n, ell)


@pytest.mark.parametrize("q", [2, 3, 4])  # ell >= 3 passes TRANSLATION_WORK at q >= 5
@TRANSLATION_PROPERTY
@given(data=st.data())
def test_root_oracle_absorbed_span_parts(q, data):
    """Absorbed families with ell >= 3, so that their span has parts of top
    degree d >= 2 both prime to p, swept with c_(d-1) = 0, and divisible by
    p, swept whole."""
    f = ROOT_FIELDS[q]
    ell = data.draw(st.sampled_from(tail_ells(q, 3)), label="ell")
    n = data.draw(st.integers(max(q, ell + 1), max(q, ell + 1) + 3), label="n")
    vanish = data.draw(st.booleans(), label="vanish")
    u_high = absorbed_u_high(f, draw_elements(f, data, n - ell - 1, "u_high"), n, ell, vanish)
    assume(u_high is not None)
    assert oracle._stabiliser_order(f, u_high, n, ell) == 0
    assert brute_nk_distribution(f, u_high, n, ell) == ref_nk_distribution(f, u_high, n, ell)


@pytest.mark.parametrize("q", sorted(ROOT_FIELDS))
@ROOT_PROPERTY
@given(data=st.data())
def test_root_oracle_gap4_fixed_parts(q, data):
    """Gap 4 with fixed coefficients that mix zero and nonzero values, so that
    every reduction, or none, may apply."""
    f = ROOT_FIELDS[q]
    ell = data.draw(st.sampled_from(tail_ells(q)), label="ell")
    coeff = st.one_of(st.just(0), st.integers(1, q - 1))
    u_high = [f.element(i) for i in data.draw(st.lists(coeff, min_size=3, max_size=3),
                                              label="u_high")]
    assert brute_nk_distribution(f, u_high, ell + 4, ell) == \
        ref_nk_distribution(f, u_high, ell + 4, ell)


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
