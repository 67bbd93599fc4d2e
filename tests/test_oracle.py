"""The vectorized enumeration oracles against literal pure-python loops, plus
budget and determinism behavior."""

import hashlib
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fqcount import cli, oracle
from fqcount.counting import (
    moment_subset_count,
    moment_subset_count_m1,
    quad_lin_solution_count,
    quadlin_case_count,
    subset_sum_count,
)
from fqcount.ff import FieldSpec, make_field
from fqcount.oracle import (
    BudgetExceededError,
    EnumerationBudget,
    brute_nk_distribution,
    brute_subsets_mss2,
    field_tables,
    quadlin_counts,
    span_root_distribution,
    subset_pair_tally,
)
from fqcount.wenger import WengerFamily, spectrum_oracle

from helpers import (
    ref_first_distinct,
    ref_first_distinct_at,
    ref_nk_distribution,
    ref_quadlin,
    ref_span_root_distribution,
    ref_subset_pair_tally,
    ref_subset_sum_counts,
    ref_two_moment_subsets,
)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_tables_match_arithmetic(p, e):
    f = make_field(p, e)
    t = field_tables(f)
    for i in range(f.q):
        a = f.element(i)
        assert t["neg"][i] == f.neg(a).index
        if i:
            assert t["inv"][i] == f.inv(a).index
        for j in range(f.q):
            b = f.element(j)
            assert t["add"][i, j] == f.add(a, b).index
            assert t["mul"][i, j] == f.mul(a, b).index


# Every proper prime power up to TABLE_ORDER_LIMIT, and the prime fields up to
# 31: each (p, e) with p <= 31 and p^e <= 1024, 37 fields.
PINNED_TABLE_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                       for e in range(1, 11) if p ** e <= oracle.TABLE_ORDER_LIMIT]
PINNED_TABLES_SHA256 = "f0fa0196f18841da3f8a863b0b203923d64aae4919f89de5470e31661641e37f"


def test_field_tables_bytes_pinned():
    """Name, dtype, shape and bytes of all six tables of 37 fields, pinned by
    one sha256 over the tables as the int64 digit-cube build produced them."""
    assert len(PINNED_TABLE_FIELDS) == 37
    digest = hashlib.sha256()
    for p, e in PINNED_TABLE_FIELDS:
        tables = field_tables.__wrapped__(make_field(p, e))  # uncached
        for name in sorted(tables):
            a = tables[name]
            digest.update(f"{p},{e},{name},{a.dtype.str},{a.shape};".encode())
            digest.update(a.tobytes())
    assert digest.hexdigest() == PINNED_TABLES_SHA256


@pytest.mark.parametrize("p,e", [(2, 10), (5, 4)])
def test_field_tables_peak_allocation(p, e):
    """Building the tables allocates at most 2.5 times the bytes returned."""
    f = make_field(p, e)
    tracemalloc.start()
    try:
        tables = field_tables.__wrapped__(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(a.nbytes for a in tables.values())


@pytest.mark.parametrize("p,e,cases", [
    (2, 1, [([], 3, 2), ([], 4, 3), ([1], 3, 1)]),
    (3, 1, [([], 2, 1), ([], 3, 2), ([1], 3, 1), ([2, 1], 4, 1)]),
    (2, 2, [([], 2, 1), ([3], 2, 0), ([0, 0], 3, 0)]),
    (3, 2, [([0, 0], 3, 0), ([4], 2, 0)]),
])
def test_brute_nk_against_literal_loops(p, e, cases):
    f = make_field(p, e)
    for u_idx, n, ell in cases:
        u_high = [f.element(i) for i in u_idx]
        got = brute_nk_distribution(f, u_high, n, ell)
        assert got == ref_nk_distribution(f, u_high, n, ell), (p, e, u_idx, n, ell)
        assert sum(got) == f.q ** (ell + 1)


def test_brute_nk_known_values():
    f2 = make_field(2, 1)
    assert brute_nk_distribution(f2, [], 3, 2)[1] == 4
    # x^3 + a0 has exactly one root for every constant, so the count is the
    # number of constants: q of them (3 over F_3, 9 over F_9).
    f3 = make_field(3, 1)
    assert brute_nk_distribution(f3, [f3.zero, f3.zero], 3, 0)[1] == 3
    f9 = make_field(3, 2)
    assert brute_nk_distribution(f9, [f9.zero, f9.zero], 3, 0)[1] == 9
    # x^2 + a1 x + a0 over F_3: 3 irreducible, 3 squares, 3 split; the tally
    # runs over k = 0..q and is zero past n
    assert brute_nk_distribution(f3, [], 2, 1) == [3, 3, 3, 0]


def test_brute_nk_argument_validation():
    f3 = make_field(3, 1)
    with pytest.raises(ValueError):
        brute_nk_distribution(f3, [], 3, 3)
    with pytest.raises(ValueError):
        brute_nk_distribution(f3, [f3.one], 3, 2)  # wrong number of fixed coefficients


def test_budget_refusal_names_size():
    """Gap 1 at q = 5, n = 7: 5 does not divide 7, so f -> f(x + c) moves
    c_6 through F_5 and the tally is 5 times that of x^7 + tails of degree
    <= 5.  There x^7 is the function x^3 on F_5, which those tails span, so
    the family is swept as their homogeneous span: the part of top degree d
    sweeps 5^(d-1) vectors, 5^(d-2) with c_(d-1) = 0 when 5 does not divide
    d >= 2.  That is 5 * (1 + 1 + 5 + 25 + 625) = 5 + 5 + 25 + 125 + 3125 =
    3285 of the 5^7 tails.  The refusal comes one below that number.  The
    tally at that budget is checked against the functions on F_5 with k
    zeros, C(5, k) 4^(5-k) of them, each the function of 5^2 tails: the
    one-evaluation-at-a-time reference takes about 20 s on 5^7 tails (2-core
    host, Python 3.11)."""
    f5 = make_field(5, 1)
    with pytest.raises(BudgetExceededError) as info:
        brute_nk_distribution(f5, [], 7, 6, EnumerationBudget(3284))
    assert info.value.required == 5 * (1 + 1 + 5 + 25 + 625) == 3285
    assert "3285" in str(info.value)
    tally = brute_nk_distribution(f5, [], 7, 6, EnumerationBudget(3285))
    assert tally == [math.comb(5, k) * 5 ** 2 * 4 ** (5 - k) for k in range(6)]


@pytest.fixture
def fresh_tallies():
    """An empty cache of canonical-family tallies, so that every family read
    is swept."""
    oracle._canonical_tally.cache_clear()
    yield
    oracle._canonical_tally.cache_clear()


@pytest.fixture
def swept(monkeypatch, fresh_tallies):
    """The coefficient vectors each `_constant_sweep_tally` call visits: q
    constants for each digit tuple of its steps."""
    visits = []
    sweep = oracle._constant_sweep_tally

    def counting_sweep(add_t, start, steps):
        visits.append(add_t.shape[0] * math.prod(len(step) for step in steps))
        return sweep(add_t, start, steps)

    monkeypatch.setattr(oracle, "_constant_sweep_tally", counting_sweep)
    return visits


def test_orbit_budget_counts_swept_tails(swept):
    """At q = 9 with u_(n-2) != 0 the stabiliser has order s = gcd(8, 2) = 2:
    the top coefficient c_j runs over 4 or 8 coset representatives as n - j
    is odd or even.  The refusal names the tails the sweep visits, 292293 of
    9^6, and the tally equals the literal sweep over every tail."""
    f9 = make_field(3, 2)
    u_high = [f9.zero, f9.one]
    with pytest.raises(BudgetExceededError) as info:
        brute_nk_distribution(f9, u_high, 8, 5, EnumerationBudget(292292))
    assert info.value.required == \
        4 * 9 + 8 * 9 ** 2 + 4 * 9 ** 3 + 8 * 9 ** 4 + 4 * 9 ** 5 + 9 == 292293

    tally = brute_nk_distribution(f9, u_high, 8, 5, EnumerationBudget(292293))
    assert sum(swept) == 292293
    swept.clear()
    fixed = oracle._u_eval_row(f9, u_high, 8, 5)
    basis = [oracle.power_row(f9, d) for d in range(6)]
    assert tally == span_root_distribution(f9, fixed, basis)  # every tail, literally
    assert sum(swept) == 9 ** 6
    assert sum(tally) == 9 ** 6


@pytest.mark.parametrize("p,e,u_idx,n,ell,required", [
    # Gap 1, 5 does not divide 4: c_3 = 0 and weight 5 leave x^4 + tails of
    # degree <= 2, with s = 4: c_1 has 1 representative (o = 4 / gcd(4, 3))
    # and c_2 has 2 (o = 4 / gcd(4, 2)), so 5 * (1 + 1 + 2 * 5) of 5^4 tails.
    (5, 1, [], 4, 3, 5 * (1 + 1 + 2 * 5)),
    # Gap 2 at b = 2 with 5 | n = 5: 4 * u_4 = -8 != 0 and C(5, 4) = 5,
    # C(5, 3) = 10 vanish mod 5, so c_3 = 0 and weight 5.  With u_4 != 0,
    # s = gcd(4, 1) = 1: every tail of degree <= 2 is swept, 5^3 of 5^4.
    (5, 1, [3], 5, 3, 5 ** 3),
    # Gap 1 at q = 4, 2 | n = 6: x^6 is the function x^3, so the span of the
    # tails of degree <= 5.  The parts of odd top degree 3 and 5 pin
    # c_(d-1) = 0; those of degree 2 and 4 do not: 4 * (1 + 4 + 4 + 4^3 + 4^3)
    # of 4^6.
    (2, 2, [], 6, 5, 4 * (1 + 4 + 4 + 4 ** 3 + 4 ** 3)),
])
def test_budget_counts_reduced_sweeps(swept, p, e, u_idx, n, ell, required):
    """A family reduced by translation, of its top tail coefficient or inside
    an absorbed span, is charged the vectors it actually sweeps, and its
    tally equals the literal one."""
    f = make_field(p, e)
    u_high = [f.element(i) for i in u_idx]
    with pytest.raises(BudgetExceededError) as info:
        brute_nk_distribution(f, u_high, n, ell, EnumerationBudget(required - 1))
    assert info.value.required == required
    tally = brute_nk_distribution(f, u_high, n, ell, EnumerationBudget(required))
    assert sum(swept) == required
    assert tally == ref_nk_distribution(f, u_high, n, ell)


def test_cached_family_still_refused(fresh_tallies):
    """A family's tally is read from the cache only after the budget is
    checked: once swept, it is still refused one below its 3285 vectors."""
    f5 = make_field(5, 1)
    tally = brute_nk_distribution(f5, [], 7, 6)
    with pytest.raises(BudgetExceededError) as info:
        brute_nk_distribution(f5, [], 7, 6, EnumerationBudget(3284))
    assert info.value.required == 3285
    hits = oracle._canonical_tally.cache_info().hits
    assert brute_nk_distribution(f5, [], 7, 6, EnumerationBudget(3285)) == tally
    assert oracle._canonical_tally.cache_info().hits == hits + 1


def test_canonical_families_share_one_tally(swept):
    """At q = 7 and n = 5 the gap-2 families at every b translate to b = 0,
    and gap 1 pins c_4 = 0 into that family with weight 7: one sweep serves
    all of them."""
    f7 = make_field(7, 1)
    b0 = brute_nk_distribution(f7, [f7.zero], 5, 3)
    once = sum(swept)
    for b in range(1, 7):
        assert brute_nk_distribution(f7, [f7.element(b)], 5, 3) == b0
    assert brute_nk_distribution(f7, [], 5, 4) == [7 * x for x in b0]
    assert sum(swept) == once
    assert b0 == ref_nk_distribution(f7, [f7.zero], 5, 3)


def test_root_oracle_reads_canonical_fields():
    """Tallies are cached by (p, e), so a field with another modulus, whose
    element indices mean other elements, is refused."""
    f9 = make_field(3, 2)
    modulus = next(m for m in ((1, 0, 1), (2, 1, 1), (2, 2, 1)) if m != tuple(f9.modulus))
    other = FieldSpec(p=3, e=2, q=9, modulus=modulus)
    with pytest.raises(ValueError):
        brute_nk_distribution(other, [], 2, 1)


def test_gap_suites_sweep_pinned_vectors(swept):
    """The root oracle's work in verify, in vectors `_constant_sweep_tally`
    visits, suite by suite in the order of `verify --suite all` and from an
    empty family cache: 144760, 171409 and 3268688 for gap1, gap2 and gap3,
    3.58 * 10^6 in all.  Before the top tail coefficient was pinned by
    translation, absorbed spans were translated and each canonical family was
    swept once, they were 316030, 2247621 and 7637000, 10.2 * 10^6 in all."""
    for name, vectors in (("gap1", 144760), ("gap2", 171409), ("gap3", 3268688)):
        swept.clear()
        assert cli.run_suite(name, cli.RunConfig()).ok
        assert sum(swept) == vectors, name


def test_gap_budget_refused_before_tables():
    """A refused gap-family sweep builds no lookup table, even at q = 1024.
    Whether the fixed part vanishes as a function, as x^5 - x^3 does on F_3,
    is read from its coefficients.  Such a part is absorbed: the family is
    the homogeneous span of its tails, one vector per scalar class.  Its
    part of top degree 2 keeps x^2 + c_1 x + c_0 up to translation, which
    moves c_1 through F_3 (3 does not divide 2), so it sweeps c_1 = 0 only:
    3 * (1 + 1) = 6 of the 27 tails."""
    f3 = make_field(3, 1)
    u_high = [f3.zero, f3.element(2)]
    with mock.patch.object(oracle, "field_tables", side_effect=AssertionError("allocated")):
        with pytest.raises(BudgetExceededError):
            brute_nk_distribution(make_field(2, 10), [], 40, 39, EnumerationBudget(10 ** 4))
        with pytest.raises(BudgetExceededError) as info:
            brute_nk_distribution(f3, u_high, 5, 2, EnumerationBudget(5))
    assert info.value.required == 6
    tally = brute_nk_distribution(f3, u_high, 5, 2, EnumerationBudget(6))
    assert tally == ref_nk_distribution(f3, u_high, 5, 2)


def test_translated_gap2_budget_refusal():
    """Gap 2 at q = 7, n = 5 and b = 2 is translated to x^5 + tails: u_4 = -b
    becomes 0, so s = q - 1 = 6 as at b = 0, and c_1, c_2, c_3 run over 2,
    3 and 2 representatives.  It sweeps 7 * (2 + 3 * 7 + 2 * 49 + 1) = 854
    of the 7^4 = 2401 tails it swept untranslated, and is refused one below
    that, before any table is built."""
    f7 = make_field(7, 1)
    u_high = [f7.neg(f7.element(2))]
    with mock.patch.object(oracle, "field_tables", side_effect=AssertionError("allocated")):
        for b_high in (u_high, [f7.zero]):
            with pytest.raises(BudgetExceededError) as info:
                brute_nk_distribution(f7, b_high, 5, 3, EnumerationBudget(853))
            assert info.value.required == 854
    tally = brute_nk_distribution(f7, u_high, 5, 3, EnumerationBudget(854))
    assert tally == ref_nk_distribution(f7, u_high, 5, 3)


@pytest.mark.parametrize("block", ["1", "q", "7q"])
def test_span_distribution_block_independence(monkeypatch, block):
    """Any block size partitions the enumeration into identical tallies."""
    f9 = make_field(3, 2)
    rows = [[f9.index(f9.pow_(x, d)) for x in f9.elements()] for d in range(4)]
    fixed = [f9.index(f9.pow_(x, 5)) for x in f9.elements()]
    base = span_root_distribution(f9, fixed, rows)
    assert sum(base) == 9 ** 4
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", {"1": 1, "q": 9, "7q": 63}[block])
    assert span_root_distribution(f9, fixed, rows) == base
    assert span_root_distribution(f9, fixed, rows) == base  # repeated calls agree


def test_span_distribution_validates_constant_row():
    f3 = make_field(3, 1)
    with pytest.raises(ValueError):
        span_root_distribution(f3, [0, 0, 0], [[0, 1, 2]])


@pytest.mark.parametrize("fixed,rows", [
    ([-1, 0, 0], [[1, 1, 1]]),  # a negative index would wrap to the last element
    ([3, 0, 0], [[1, 1, 1]]),
    ([0, 0, 1], [[1, 1, 1], [0, 1, -1]]),
    ([0, 0, 1], [[1, 1, 1], [0, 1, 3]]),
])
def test_span_distribution_validates_row_entries(fixed, rows):
    """Entries outside [0, q) are refused before any table is built."""
    with mock.patch.object(oracle, "field_tables", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match="element indices"):
            span_root_distribution(make_field(3, 1), fixed, rows)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (3, 2)])
def test_subset_layers_match_binomials_and_reference(p, e):
    f = make_field(p, e)
    for t in range(0, min(f.q, 5) + 1):
        joint = subset_pair_tally(f, t)
        assert sum(sum(row) for row in joint) == math.comb(f.q, t)
        assert subset_pair_tally(f, t, "sum-only") == ref_subset_sum_counts(f, t)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_subset_dp_every_state_against_literal(p, e):
    """Every size and state of both pair predicates, and the sum-only table,
    against one-subset-at-a-time tallies; the pair readings differ in
    characteristic 2."""
    f = make_field(p, e)
    for t in range(f.q + 1):
        for predicate in oracle.MSS2_PREDICATES:
            assert subset_pair_tally(f, t, predicate) == ref_subset_pair_tally(f, t, predicate)
        assert subset_pair_tally(f, t, "sum-only") == ref_subset_sum_counts(f, t)
        states = [f.q * f.q - 1, 0, 5 % f.q]
        joint = subset_pair_tally(f, t, "elementary")
        assert subset_pair_tally(f, t, "elementary", states=states) == \
            [joint[s // f.q][s % f.q] for s in states]


@pytest.fixture
def fresh_subset_dp():
    oracle._subset_dp.cache_clear()
    yield
    oracle._subset_dp.cache_clear()


@pytest.mark.parametrize("moduli", [(8191, 131071, 524287), (31, 37, 41, 43, 47, 53)])
def test_subset_dp_chinese_remainders(monkeypatch, fresh_subset_dp, moduli):
    """Small moduli force two or more residues per count; the exact tallies
    must not change."""
    fields = {9: make_field(3, 2), 25: make_field(5, 2)}
    expected = {(q, pred, t): subset_pair_tally(f, t, pred) for q, f in fields.items()
                for pred in oracle.SUBSET_PREDICATES for t in range(q + 1)}
    oracle._subset_dp.cache_clear()
    monkeypatch.setattr(oracle, "_MODULI", moduli)
    assert len(oracle._dp_plan(25, 25, 625)[0]) >= 2
    for (q, pred, t), tally in expected.items():
        assert subset_pair_tally(fields[q], t, pred) == tally, (q, pred, t)


def test_subset_dp_cached_once_whatever_the_budget(fresh_subset_dp):
    """The budget gates the work but is no input of the table: a large and
    the default budget read the same cached table."""
    f9 = make_field(3, 2)
    subset_pair_tally(f9, 3, budget=EnumerationBudget(10 ** 9))
    subset_pair_tally(f9, 3)
    assert oracle._subset_dp.cache_info().currsize == 1


def test_subset_dp_moduli_cover_every_table():
    """Distinct primes below 2^61 whose product passes every C(q, k) the
    lookup tables allow."""
    def is_prime(n):  # Miller-Rabin, deterministic for n < 3.3e24 with these bases
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    moduli = oracle._MODULI
    assert len(set(moduli)) == len(moduli)
    assert all(m < 2 ** 61 and is_prime(m) for m in moduli)
    product = 1
    for m in moduli:
        product *= m
    q = oracle.TABLE_ORDER_LIMIT
    assert product > math.comb(q, q // 2)


def test_subset_dp_mss2_q81_against_closed_forms():
    """Every size at q = 81, where the counts need two 61-bit moduli."""
    f = make_field(3, 4)
    assert len(oracle._dp_plan(81, 81, 81 * 81)[0]) == 2
    for n in range(1, 82):
        expected = moment_subset_count(f, n).value
        for predicate in oracle.MSS2_PREDICATES:
            assert brute_subsets_mss2(f, n, predicate=predicate) == expected, (n, predicate)
    for n in range(2, 83):
        expected = moment_subset_count_m1(f, n).value
        for predicate in oracle.MSS2_PREDICATES:
            got = brute_subsets_mss2(f, n, mode="first-distinct", predicate=predicate)
            assert got == expected, (n, predicate)


def test_subset_sums_q625():
    f = make_field(5, 4)
    for n in range(13):
        dist = subset_pair_tally(f, n, "sum-only")
        assert sum(dist) == math.comb(f.q, n)
        for b in (0, 1, 5, 124, 624):
            assert dist[b] == subset_sum_count(f, n, f.element(b)).value, (n, b)


def test_subset_dp_budget_counts_state_updates():
    f25 = make_field(5, 2)
    with pytest.raises(BudgetExceededError) as info:
        subset_pair_tally(f25, 12, budget=EnumerationBudget(10 ** 4))
    # one modulus x (1 + 2 + ... + 12 + 13 * 12) adjoin steps x 625 states
    assert info.value.required == 234 * 625
    assert "DP state updates" in str(info.value)


def test_mss2_modes_against_references():
    f9 = make_field(3, 2)
    for t in range(0, 10):
        assert brute_subsets_mss2(f9, t, mode="power-sums") == ref_two_moment_subsets(f9, t)
    for t in range(2, 11):
        assert brute_subsets_mss2(f9, t, mode="first-distinct") == ref_first_distinct(f9, t)
    # the sum counts, read one target at a time, equal the marginal reference
    f7 = make_field(7, 1)
    for t in range(0, 8):
        ref = ref_subset_sum_counts(f7, t)
        for b in range(7):
            assert subset_pair_tally(f7, t, "sum-only", states=[b]) == [ref[b]]


@pytest.mark.parametrize("predicate,state", [
    ("sum-only", -1), ("sum-only", 7), ("power-sums", -1), ("elementary", 49)])
def test_subset_pair_tally_validates_states(predicate, state):
    """States outside [0, q^r), r accumulators, are refused before any table
    is read; a negative state would read the last one."""
    f7 = make_field(7, 1)
    with mock.patch.object(oracle, "_subset_tables", side_effect=AssertionError("read")):
        with pytest.raises(ValueError, match="states must lie"):
            subset_pair_tally(f7, 3, predicate, states=[0, state])


def test_mss2_nonzero_targets():
    """General (m1, m2) targets, power-sums mode, against a direct loop."""
    import itertools

    f5 = make_field(5, 1)
    for t in (2, 3):
        for m1i, m2i in itertools.product(range(5), repeat=2):
            direct = 0
            for subset in itertools.combinations(range(5), t):
                s1 = f5.zero
                s2 = f5.zero
                for i in subset:
                    x = f5.element(i)
                    s1 = f5.add(s1, x)
                    s2 = f5.add(s2, f5.mul(x, x))
                if s1.index == m1i and s2.index == m2i:
                    direct += 1
            got = brute_subsets_mss2(f5, t, m1=f5.element(m1i), m2=f5.element(m2i))
            assert got == direct


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (5, 2)])
def test_first_distinct_nonzero_targets(p, e):
    """First-distinct counts at nonzero (m1, m2), under both predicates,
    against a literal count over the (t-1)-subsets."""
    f = make_field(p, e)
    for t in (2, 3, 4 if f.q < 25 else 3):
        for m1, m2 in ((f.one, f.element(2)), (f.element(f.q - 1), f.element(f.q // 2))):
            for predicate in oracle.MSS2_PREDICATES:
                got = brute_subsets_mss2(f, t, m1, m2, mode="first-distinct",
                                         predicate=predicate)
                assert got == ref_first_distinct_at(f, t, m1, m2, predicate), (t, predicate)


def test_first_distinct_states_use_no_field_arithmetic():
    """The first-distinct target states are gathered from the lookup tables:
    with FieldSpec.mul and FieldSpec.sub disabled the count is unchanged."""
    f9 = make_field(3, 2)
    m1, m2 = f9.element(4), f9.element(7)
    field_tables(f9)  # the tables themselves are built with field arithmetic
    want = {predicate: ref_first_distinct_at(f9, 4, m1, m2, predicate)
            for predicate in oracle.MSS2_PREDICATES}

    def disabled(self, a, b):
        raise AssertionError("FieldSpec arithmetic")

    with mock.patch.object(FieldSpec, "mul", disabled), \
            mock.patch.object(FieldSpec, "sub", disabled):
        for predicate, count in want.items():
            got = brute_subsets_mss2(f9, 4, m1, m2, mode="first-distinct", predicate=predicate)
            assert got == count, predicate


def test_first_distinct_budget_refused_before_tables():
    """A refused first-distinct count builds no lookup table."""
    with mock.patch.object(oracle, "field_tables", side_effect=AssertionError("allocated")):
        with pytest.raises(BudgetExceededError) as info:
            brute_subsets_mss2(make_field(5, 2), 13, mode="first-distinct",
                               budget=EnumerationBudget(10 ** 4))
    assert info.value.required == 234 * 625  # the size-12 table of the subset DP


def test_first_distinct_plans_the_subset_dp_once(monkeypatch):
    """A first-distinct count reads the one table it budgeted: one DP plan."""
    plans = []
    real = oracle._dp_plan
    monkeypatch.setattr(oracle, "_dp_plan", lambda *args: plans.append(args) or real(*args))
    f9 = make_field(3, 2)
    assert brute_subsets_mss2(f9, 5, mode="first-distinct") == ref_first_distinct(f9, 5)
    assert plans == [(9, 9, 81)]


def test_elementary_predicate_equivalence():
    """Power-sum and elementary-symmetric readings tally identically at zero
    targets away from characteristic 2."""
    for p, e in [(3, 2), (5, 2)]:
        f = make_field(p, e)
        for t in range(0, min(f.q, 9) + 1):
            a = brute_subsets_mss2(f, t, mode="power-sums")
            b = brute_subsets_mss2(f, t, mode="power-sums", predicate="elementary")
            assert a == b, (p, e, t)
        for t in range(2, min(f.q, 9) + 1):
            a = brute_subsets_mss2(f, t, mode="first-distinct")
            b = brute_subsets_mss2(f, t, mode="first-distinct", predicate="elementary")
            assert a == b, (p, e, t)


def test_mss2_validation():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError):
        brute_subsets_mss2(f9, 10, mode="power-sums")  # t past q
    with pytest.raises(ValueError):
        brute_subsets_mss2(f9, 2, mode="nonsense")
    with pytest.raises(ValueError):
        brute_subsets_mss2(f9, 2, mode="sum-only")  # subset_pair_tally's "sum-only" serves sums
    with pytest.raises(ValueError):
        brute_subsets_mss2(f9, 2, predicate="nonsense")
    assert brute_subsets_mss2(f9, 0, mode="power-sums") == 1  # empty subset
    assert brute_subsets_mss2(f9, 10, mode="first-distinct") == 1


def test_brute_quadlin_against_reference():
    f3 = make_field(3, 1)
    one, two = f3.one, f3.element(2)
    cases = [
        ([one, one], f3.zero, [one, one], f3.zero),
        ([one, two], f3.zero, [one, one], f3.zero),
        ([one], f3.one, [one], f3.one),
        ([two, two, one], f3.one, [one, f3.zero, two], f3.element(2)),
    ]
    for a, a0, bvec, b0 in cases:
        assert quadlin_counts(f3, [(a, a0, bvec, b0)]) == [ref_quadlin(f3, a, a0, bvec, b0)]


@pytest.mark.parametrize("block", ["1", "q", "7q"])
def test_brute_quadlin_block_independence(monkeypatch, block):
    f5 = make_field(5, 1)
    a = [f5.element(i) for i in (1, 2, 4, 3)]
    bvec = [f5.element(i) for i in (1, 0, 3, 2)]
    a0, b0 = f5.element(2), f5.element(4)
    expected = ref_quadlin(f5, a, a0, bvec, b0)
    assert quadlin_counts(f5, [(a, a0, bvec, b0)]) == [expected]
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", {"1": 1, "q": 5, "7q": 35}[block])
    assert quadlin_counts(f5, [(a, a0, bvec, b0)]) == [expected]


def test_quadlin_budget():
    """The DP's budget counts state updates: one modulus (9^14 < 2^61) x 14
    coordinates x 9^3 (q values of x for each of the q^2 states)."""
    f9 = make_field(3, 2)
    instance = ([f9.one] * 14, f9.zero, [f9.one] * 14, f9.zero)
    with pytest.raises(BudgetExceededError) as info:
        quadlin_counts(f9, [instance], EnumerationBudget(10 ** 4))
    assert info.value.required == 14 * 9 ** 3 == 10206
    assert "10206 DP state updates" in str(info.value)
    assert quadlin_counts(f9, [instance], EnumerationBudget(10206)) == \
        [quad_lin_solution_count(f9, *instance).value]


def test_quadlin_dp_past_two_to_the_63():
    """At q = 49, n = 14 each count passes 2^63 (it is about 49^12), so the
    table is kept modulo two primes (49^14 > 2^78); one instance of each
    invariant case equals the closed form."""
    f = make_field(7, 2)
    assert len(oracle._moduli_past(49 ** 14)) == 2
    a = [f.element(i) for i in range(1, 15)]
    lin = [f.one] + [f.zero] * 13  # b = 1 / a_1 = 1, so c = b0^2 - a0
    flat = [f.neg(a[1])] + a[1:]  # with the linear form (1, 1, 0, ...), b = 0 and c = b0^2
    flat_lin = [f.one, f.one] + [f.zero] * 12
    instances = [(a, f.one, lin, f.one), (a, f.element(2), lin, f.one),
                 (flat, f.element(3), flat_lin, f.zero), (flat, f.element(3), flat_lin, f.one)]
    for expected_case, instance in enumerate(instances, start=1):
        case, closed_form = quadlin_case_count(f, *instance)
        assert case == expected_case and closed_form.value > 2 ** 63
        assert quadlin_counts(f, [instance]) == [closed_form.value], case
    with pytest.raises(BudgetExceededError) as info:
        quadlin_counts(f, [instance], EnumerationBudget(2 * 14 * 49 ** 3 - 1))
    assert info.value.required == 2 * 14 * 49 ** 3


def test_quadlin_counts_batch_past_two_to_the_63():
    """The four q = 49, n = 14 instances above in one batch: two moduli, one x
    at a time, every count rebuilt from its own residues.  The batch is
    refused at one instance's number, before any table is built."""
    f = make_field(7, 2)
    a = [f.element(i) for i in range(1, 15)]
    lin = [f.one] + [f.zero] * 13
    flat = [f.neg(a[1])] + a[1:]
    flat_lin = [f.one, f.one] + [f.zero] * 12
    instances = [(a, f.one, lin, f.one), (a, f.element(2), lin, f.one),
                 (flat, f.element(3), flat_lin, f.zero), (flat, f.element(3), flat_lin, f.one)]
    expected = [quad_lin_solution_count(f, *instance).value for instance in instances]
    assert oracle.quadlin_counts(f, instances) == expected
    with mock.patch.object(oracle, "field_tables", side_effect=AssertionError("allocated")):
        with pytest.raises(BudgetExceededError) as info:
            oracle.quadlin_counts(f, instances, EnumerationBudget(2 * 14 * 49 ** 3 - 1))
    assert info.value.required == 2 * 14 * 49 ** 3


def test_quadlin_counts_batch_budget_is_per_instance():
    """A batch is refused at the single-instance number and unit."""
    f9 = make_field(3, 2)
    instances = [([f9.element(i)] * 14, f9.element(j), [f9.one] * 14, f9.zero)
                 for i, j in ((1, 0), (2, 5), (7, 1))]
    for batch in (instances[:1], instances):
        with pytest.raises(BudgetExceededError) as info:
            oracle.quadlin_counts(f9, batch, EnumerationBudget(10205))
        assert info.value.required == 10206
        assert "10206 DP state updates" in str(info.value)
    assert oracle.quadlin_counts(f9, instances, EnumerationBudget(10206)) == \
        [quad_lin_solution_count(f9, *instance).value for instance in instances]


def test_quadlin_counts_batch_validation():
    """Every instance of a batch shares one n; an empty batch has none."""
    f5 = make_field(5, 1)
    one, zero = f5.one, f5.zero
    for batch in ([([one], zero, [one], zero), ([one, one], zero, [one, one], zero)],
                  [([one, one], zero, [one, one], zero), ([one, one], zero, [one], zero)],
                  [([], zero, [], zero)],
                  []):
        with pytest.raises(ValueError):
            oracle.quadlin_counts(f5, batch)


@pytest.mark.parametrize("moduli", [(8191, 131071, 524287), (31, 37, 41, 43, 47, 53)])
def test_quadlin_dp_chinese_remainders(monkeypatch, moduli):
    """Small moduli wrap the counts and need two or more residues each; the
    exact counts must not change."""
    f9 = make_field(3, 2)
    a = [f9.element(i) for i in (1, 6, 4, 7, 2)]
    bvec = [f9.element(i) for i in (3, 5, 0, 1, 8)]
    targets = [(f9.element(i), f9.element(j)) for i, j in ((0, 0), (2, 5), (8, 1))]
    expected = [quad_lin_solution_count(f9, a, a0, bvec, b0).value for a0, b0 in targets]
    monkeypatch.setattr(oracle, "_MODULI", moduli)
    assert len(oracle._moduli_past(9 ** 5)) >= 2
    assert [quadlin_counts(f9, [(a, a0, bvec, b0)])[0] for a0, b0 in targets] == expected


# Random spans and systems against the literal references, with block sizes
# from one table row up, so that the enumeration crosses block boundaries.
SMALL_FIELDS = {f.q: f for f in (make_field(2, 1), make_field(3, 1), make_field(2, 2),
                                 make_field(5, 1), make_field(7, 1), make_field(2, 3),
                                 make_field(3, 2))}
ORACLE_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _draw_block(data, q, width):
    return data.draw(st.sampled_from([1, width, q * width, 7 * q * width, 1 << 16]), label="block")


@ORACLE_PROPERTY
@given(st.sampled_from(sorted(SMALL_FIELDS)), st.data())
def test_span_distribution_matches_literal(q, data):
    f = SMALL_FIELDS[q]
    m = data.draw(st.integers(1, 4 if q <= 5 else 3), label="m")
    row = st.lists(st.integers(0, q - 1), min_size=q, max_size=q)
    fixed = data.draw(row, label="fixed")
    basis = [[1] * q] + [data.draw(row, label=f"basis{i}") for i in range(1, m)]
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", _draw_block(data, q, q)):
        got = span_root_distribution(f, fixed, basis)
    assert got == ref_span_root_distribution(f, fixed, basis)


@ORACLE_PROPERTY
@given(st.sampled_from(sorted(SMALL_FIELDS)), st.data())
def test_homogeneous_span_distribution_matches_literal(q, data):
    """Spans through zero take the one-vector-per-scalar-class route; m = 1
    is the constant row alone."""
    f = SMALL_FIELDS[q]
    m = data.draw(st.integers(1, 4 if q <= 5 else 3), label="m")
    row = st.lists(st.integers(0, q - 1), min_size=q, max_size=q)
    basis = [[1] * q] + [data.draw(row, label=f"basis{i}") for i in range(1, m)]
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", _draw_block(data, q, q)):
        got = span_root_distribution(f, [0] * q, basis)
    assert got == ref_span_root_distribution(f, [0] * q, basis)


def test_homogeneous_span_budget_counts_swept_vectors():
    """The Wenger family (1, 11, 4) sweeps q constants for each of the
    (q^4 - 1) / (q - 1) scalar-class representatives, 16104 vectors against
    q^5 = 161051; the refusal comes before any lookup table is touched."""
    fam = WengerFamily(1, make_field(11, 1), 4)
    rows = [oracle.power_row(fam.field, d) for d in fam.basis_exponents()]
    zero = [0] * 11
    with mock.patch.object(oracle, "field_tables", side_effect=AssertionError("allocated")):
        with pytest.raises(BudgetExceededError) as info:
            span_root_distribution(fam.field, zero, rows, EnumerationBudget(16103))
    assert info.value.required == 11 * (11 ** 4 - 1) // 10 == 16104
    tally = span_root_distribution(fam.field, zero, rows, EnumerationBudget(16104))
    assert sum(tally) == 11 ** 5 and tally[11] == 1  # only the zero vector vanishes everywhere
    assert spectrum_oracle(fam, EnumerationBudget(16104)).multiplicity(11) == 1


@ORACLE_PROPERTY
@given(st.sampled_from(sorted(SMALL_FIELDS)), st.data())
def test_brute_nk_orbits_match_literal(q, data):
    """Gaps 1-4 with fixed coefficients that mix zero and nonzero values, so
    that the stabiliser order s = gcd(q - 1, n - d over nonzero u_d) takes
    values between 1 and q - 1."""
    f = SMALL_FIELDS[q]
    gap = data.draw(st.integers(1, 4), label="gap")
    ell = data.draw(st.integers(0, 2), label="ell")
    coeff = st.one_of(st.just(0), st.integers(1, q - 1))
    u_high = [f.element(i) for i in data.draw(
        st.lists(coeff, min_size=gap - 1, max_size=gap - 1), label="u_high")]
    oracle._canonical_tally.cache_clear()  # sweep at the drawn block size
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", _draw_block(data, q, q)):
        got = brute_nk_distribution(f, u_high, ell + gap, ell)
    assert got == ref_nk_distribution(f, u_high, ell + gap, ell)


@ORACLE_PROPERTY
@given(st.sampled_from(sorted(SMALL_FIELDS)), st.data())
def test_brute_quadlin_matches_literal(q, data):
    """Zero quadratic coefficients and an all-zero linear form included."""
    f = SMALL_FIELDS[q]
    n = data.draw(st.integers(1, 4), label="n")
    coeffs = st.lists(st.one_of(st.just(0), st.integers(0, q - 1)), min_size=n, max_size=n)
    a = [f.element(i) for i in data.draw(coeffs, label="a")]
    bvec = [f.element(i) for i in data.draw(coeffs, label="bvec")]
    if data.draw(st.booleans(), label="zero linear form"):
        bvec = [f.zero] * n
    a0, b0 = (f.element(data.draw(st.integers(0, q - 1), label=name)) for name in ("a0", "b0"))
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", _draw_block(data, q, 2)):
        got = quadlin_counts(f, [(a, a0, bvec, b0)])
    assert got == [ref_quadlin(f, a, a0, bvec, b0)]


@ORACLE_PROPERTY
@given(st.sampled_from(sorted(SMALL_FIELDS)), st.data())
def test_quadlin_counts_batch_matches_literal(q, data):
    """Each count of a batch equals the literal count of its instance, with
    targets (a0, b0), zero coefficients and zero linear forms mixed across the
    batch, and block sizes that gather from one x at a time for the whole
    batch up to every x at once."""
    f = SMALL_FIELDS[q]
    n = data.draw(st.integers(1, 4 if q <= 4 else 3 if q <= 7 else 2), label="n")
    size = data.draw(st.integers(1, 5), label="batch")
    coeffs = st.lists(st.one_of(st.just(0), st.integers(0, q - 1)), min_size=n, max_size=n)
    index = st.integers(0, q - 1)
    instances = []
    for j in range(size):
        a = [f.element(i) for i in data.draw(coeffs, label=f"a{j}")]
        bvec = [f.element(i) for i in data.draw(coeffs, label=f"bvec{j}")]
        a0, b0 = (f.element(data.draw(index, label=f"{name}{j}")) for name in ("a0", "b0"))
        instances.append((a, a0, bvec, b0))
    block = data.draw(st.sampled_from([1, q * q, size * q * q, 3 * size * q * q, 1 << 16]),
                      label="block")
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", block):
        got = oracle.quadlin_counts(f, instances)
    assert got == [ref_quadlin(f, *instance) for instance in instances]
