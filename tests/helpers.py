"""Small pure-python reference enumerations shared across test modules.

Deliberately naive and independent of the package's vectorized oracle module:
these define ground truth by the most literal route available.  The ref_gap*
functions keep the earlier written-out forms of the gap-2/3 closed forms, which
the shared main-regime and reduced-regime identities must reproduce, and
ref_quadlin_cases keeps the earlier case table of the quadratic/linear count,
which the Gauss-sum identity must reproduce.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from fqcount.counting import alpha_beta, v_of
from fqcount.exactcomb import enumerate_cycle_types, perm_type_count
from fqcount.ff import FieldError, quadratic_character


def ref_nk_distribution(field, u_high, n, ell):
    """Root-count tally over all tails, one polynomial evaluation at a time."""
    q = field.q
    tally = [0] * (q + 1)
    high_degrees = list(range(n - 1, ell, -1))
    for tail in itertools.product(range(q), repeat=ell + 1):
        roots = 0
        for xi in range(q):
            x = field.element(xi)
            acc = field.pow_(x, n)
            for coeff, d in zip(u_high, high_degrees):
                acc = field.add(acc, field.mul(coeff, field.pow_(x, d)))
            for ci, d in zip(tail, range(ell, -1, -1)):
                acc = field.add(acc, field.mul(field.element(ci), field.pow_(x, d)))
            if acc.is_zero():
                roots += 1
        tally[roots] += 1
    return tally


def ref_span_root_distribution(field, fixed_row, basis_rows):
    """Zero-count tally of fixed + sum(c_i * basis_i), one coefficient vector
    and one field element at a time."""
    q = field.q
    el = field.element
    tally = [0] * (q + 1)
    for coeffs in itertools.product(range(q), repeat=len(basis_rows)):
        roots = 0
        for xi in range(q):
            acc = el(fixed_row[xi])
            for ci, row in zip(coeffs, basis_rows):
                acc = field.add(acc, field.mul(el(ci), el(row[xi])))
            roots += acc.is_zero()
        tally[roots] += 1
    return tally


def ref_subset_sum_counts(field, n):
    """M(n, b) for every b by direct subset enumeration."""
    q = field.q
    counts = [0] * q
    for subset in itertools.combinations(range(q), n):
        total = field.zero
        for i in subset:
            total = field.add(total, field.element(i))
        counts[total.index] += 1
    return counts


def ref_two_moment_subsets(field, n):
    """Subsets of size n with vanishing first and second power sums."""
    q = field.q
    count = 0
    for subset in itertools.combinations(range(q), n):
        s1 = field.zero
        s2 = field.zero
        for i in subset:
            x = field.element(i)
            s1 = field.add(s1, x)
            s2 = field.add(s2, field.mul(x, x))
        if s1.is_zero() and s2.is_zero():
            count += 1
    return count


def ref_subset_pair_tally(field, n, predicate):
    """Joint (sum, second accumulator) tally of the n-subsets, one subset at a
    time: sums of squares for "power-sums", sums of pairwise products for
    "elementary"."""
    q = field.q
    joint = [[0] * q for _ in range(q)]
    for subset in itertools.combinations(range(q), n):
        xs = [field.element(i) for i in subset]
        s1 = field.zero
        for x in xs:
            s1 = field.add(s1, x)
        s2 = field.zero
        if predicate == "power-sums":
            for x in xs:
                s2 = field.add(s2, field.mul(x, x))
        else:
            for x, y in itertools.combinations(xs, 2):
                s2 = field.add(s2, field.mul(x, y))
        joint[s1.index][s2.index] += 1
    return joint


def ref_first_distinct(field, n):
    """(n-1)-subsets whose forced completion zeroes the second power sum."""
    return ref_first_distinct_at(field, n, field.zero, field.zero, "power-sums")


def ref_first_distinct_at(field, t, m1, m2, predicate):
    """(t-1)-subsets S whose completion x_t = m1 - sum(S) gives the tuple
    (S, x_t) the second accumulator m2: the sum of squares ("power-sums") or
    of pairwise products ("elementary"), one subset at a time."""
    count = 0
    for subset in itertools.combinations(field.elements(), t - 1):
        s1 = field.zero
        for x in subset:
            s1 = field.add(s1, x)
        xs = [*subset, field.sub(m1, s1)]
        s2 = field.zero
        pairs = ((x, x) for x in xs) if predicate == "power-sums" else \
            itertools.combinations(xs, 2)
        for x, y in pairs:
            s2 = field.add(s2, field.mul(x, y))
        count += s2 == m2
    return count


def ref_quadlin(field, a, a0, bvec, b0):
    """Solution count over F_q^n by literal tuple enumeration."""
    q = field.q
    n = len(a)
    count = 0
    for tup in itertools.product(range(q), repeat=n):
        quad = field.zero
        lin = field.zero
        for ai, bi, xi in zip(a, bvec, tup):
            x = field.element(xi)
            quad = field.add(quad, field.mul(ai, field.mul(x, x)))
            lin = field.add(lin, field.mul(bi, x))
        if quad == a0 and lin == b0:
            count += 1
    return count


def ref_quadlin_cases(field, a, a0, bvec, b0):
    """(case, count) of the quadratic/linear system in its earlier form: the
    invariants b = sum(b_i^2 / a_i) and c = b0^2 - a0*b by inversion, then a
    table of four cases by the parity of n."""
    q, n = field.q, len(a)
    b = field.zero
    for ai, bi in zip(a, bvec):
        b = field.add(b, field.mul(field.mul(bi, bi), field.inv(ai)))
    c = field.sub(field.mul(b0, b0), field.mul(a0, b))
    prod_a = field.one
    for ai in a:
        prod_a = field.mul(prod_a, ai)

    def chi_signed(m, x):  # chi((-1)^m x)
        sign = field.one if m % 2 == 0 else field.neg(field.one)
        return quadratic_character(field, field.mul(sign, x))

    if not b.is_zero():
        case = 1 if c.is_zero() else 2
    else:
        case = 3 if c.is_zero() else 4
    # total is q^2 times the count: q^(n-2) plus a character term.
    if case == 1:
        if n % 2 == 0:
            total = q ** n
        else:
            arg = field.mul(prod_a, b)
            total = q ** n + q ** ((n + 1) // 2) * (q - 1) * chi_signed((n - 1) // 2, arg)
    elif case == 2:
        if n % 2 == 0:
            total = q ** n + q ** ((n + 2) // 2) * chi_signed(n // 2, field.mul(prod_a, c))
        else:
            total = q ** n - q ** ((n + 1) // 2) * chi_signed((n - 1) // 2, field.mul(prod_a, b))
    elif case == 3:
        if n % 2 == 0:
            total = q ** n + v_of(field, a0) * q ** ((n + 2) // 2) * chi_signed(n // 2, prod_a)
        else:
            # chi vanishes at a0 = 0, collapsing this case to q^(n-2).
            total = q ** n + q ** ((n + 3) // 2) * chi_signed((n - 1) // 2, field.mul(a0, prod_a))
    else:
        total = q ** n
    assert total % (q * q) == 0, total
    return case, total // (q * q)


def force_quadlin_case(field, a, a0, bvec, b0, case):
    """The instance moved into the given case, or None where it cannot be.

    The last b_i must be nonzero.  Cases 3 and 4 solve the last a_i for b = 0
    (impossible when the other terms of b already cancel) and set b0 to zero
    or not; case 1 solves a0 for c = 0 and case 2 keeps a drawn a0 with
    c != 0, both needing b != 0.
    """
    a = list(a)
    partial = field.zero
    for ai, bi in zip(a[:-1], bvec[:-1]):
        partial = field.add(partial, field.mul(field.mul(bi, bi), field.inv(ai)))
    last_square = field.mul(bvec[-1], bvec[-1])
    if case >= 3:
        if partial.is_zero():
            return None
        a[-1] = field.neg(field.mul(last_square, field.inv(partial)))
        b0 = field.zero if case == 3 else b0 if not b0.is_zero() else field.one
        return a, a0, bvec, b0
    b = field.add(partial, field.mul(last_square, field.inv(a[-1])))
    if b.is_zero():
        return None
    if case == 1:
        return a, field.mul(field.mul(b0, b0), field.inv(b)), bvec, b0
    if field.sub(field.mul(b0, b0), field.mul(a0, b)).is_zero():
        return None
    return a, a0, bvec, b0


@lru_cache(maxsize=None)  # the gap-2 (both b) and gap-3 references of one (n, k) share a tail
def ref_alternating_tail(q, m, length):
    """sum_{i=0}^{length} (-1)^i C(m, i) q^(length - i), term by term."""
    return sum((-1) ** i * comb(m, i) * q ** (length - i) for i in range(length + 1))


def ref_gap2_main(field, n, k, b):
    """Gap-2 N_k for k <= n < q in its earlier form: the tail over q plus a
    subset-sum correction written out for p | n."""
    q, p = field.q, field.p
    total = Fraction(comb(q, k) * ref_alternating_tail(q, q - k, n - k), q)
    if n % p == 0:
        sign = (-1) ** ((n - k) + n + n // p)
        total += sign * Fraction(v_of(field, b), q) * comb(n, k) * comb(q // p, n // p)
    assert total.denominator == 1, total
    return int(total)


def ref_gap3_main(field, n, k):
    """Gap-3 N_k for k <= n < q in its earlier form: the tail over q^2 plus
    the signed alpha/beta combinations at n - 1 and n, split on p | n."""
    q, p = field.q, field.p
    s = p ** (field.e // 2)
    a_n, b_n = alpha_beta(field, n)
    a_prev, b_prev = alpha_beta(field, n - 1)
    sign_n, sign_prev = (-1) ** n, (-1) ** (n - 1)
    total = Fraction(comb(q, k) * ref_alternating_tail(q, q - k, n - k), q * q)
    sign = (-1) ** (n - k)
    if n % p == 0:
        total += sign * Fraction(q - 1, q * q) * comb(n, k) * comb(q // p, n // p)
        total += -sign * comb(n - 1, k) * Fraction(q - 1, 2 * s) * (a_prev - sign_prev * b_prev)
        total += sign * comb(n, k) * Fraction(q - 1, 2 * q) * (a_n + sign_n * b_n)
    else:
        total += -sign * comb(n - 1, k) * Fraction(q - 1, 2 * q) * (a_prev + sign_prev * b_prev)
        total += sign * comb(n, k) * Fraction(q - 1, 2 * q * s) * (a_n - sign_n * b_n)
    assert total.denominator == 1, total
    return int(total)


def ref_gap2_reduced(field, n, k, b):
    """Gap-2 N_k for n >= q in its earlier form: the hand-derived n = q case
    table (q = 2 apart, split on b and on k = q, q - 1), then function counts."""
    q = field.q
    if n > q:
        return comb(q, k) * q ** (n - q - 1) * (q - 1) ** (q - k)
    if q == 2:
        # The reduction is (1 - b)x + a0: one root for every tail at b = 0,
        # the constant a0 at b = 1.
        if b.is_zero():
            return 2 if k == 1 else 0
        return 1 if k in (0, 2) else 0
    if not b.is_zero():
        if k == q:
            return 0
        val = Fraction(comb(q, k), q) * ((q - 1) ** (q - k) - (-1) ** (q - k))
    elif k == q:
        return 1
    elif k == q - 1:
        return 0
    else:
        val = Fraction(q - 1, q) * comb(q, k) * ((q - 1) ** (q - k - 1) + (-1) ** (q - k))
    assert val.denominator == 1, val
    return int(val)


def ref_gap3_reduced(field, n, k):
    """Gap-3 N_k for n >= q in its earlier form: the hand-derived case tables
    at n = q (k = q, q - 1, q - 2 apart) and n = q + 1 (k = q, q - 1 apart),
    then function counts."""
    q = field.q
    if n > q + 1:
        return comb(q, k) * q ** (n - q - 2) * (q - 1) ** (q - k)
    if k == q:
        return 1
    if k == q - 1 or (n == q and k == q - 2):
        return 0
    if n == q:
        val = Fraction(q - 1, q) * comb(q, k) * (
            Fraction((q - 1) ** (q - k - 1), q)
            + (-1) ** (q - k - 1) * (q - k)
            + (-1) ** (q - k) * Fraction(q + 1, q)
        )
    else:
        val = Fraction(q - 1, q) * comb(q, k) * ((q - 1) ** (q - k - 1) + (-1) ** (q - k))
    assert val.denominator == 1, val
    return int(val)


def is_edge(family, point, line):
    """Wenger edge predicate on coordinate tuples of element indices:
    l_k + p_k = p1^(e_k) * l1 in every slot k >= 2."""
    f = family.field
    p1, l1 = f.element(point[0]), f.element(line[0])
    for slot, expo in enumerate(family.coordinate_exponents(), start=1):
        lhs = f.add(f.element(line[slot]), f.element(point[slot]))
        if lhs != f.mul(f.pow_(p1, expo), l1):
            return False
    return True


def ref_point_gram_traces(graph, big_t):
    """tr(Gram^t) for t = 1..big_t from powers of the dense point Gram matrix;
    Python-int entries once walk counts could pass int64."""
    q = graph.family.field.q
    b = np.zeros((graph.n_points, graph.n_lines), dtype=np.int64)
    b[np.repeat(np.arange(graph.n_points), q), graph.lines_of_point.ravel()] = 1
    gram = b @ b.T
    if graph.vertex_count * q ** (2 * big_t) >= 2 ** 62:
        gram = gram.astype(object)
    traces = []
    power = gram
    for _ in range(big_t):
        traces.append(int(np.trace(power)))
        power = power.dot(gram)
    return traces


def ref_orbit_point_gram_traces(graph, big_t):
    """tr(Gram^t) for t = 1..big_t from the closed walks of all q points
    (p1, 0, ..., 0), each standing for the q^m translates of its p1."""
    lines_of_point = graph.lines_of_point
    n, q = lines_of_point.shape
    order = np.argsort(lines_of_point.ravel(), kind="stable")
    points_of_line = (order // q).reshape(n, q)
    x = np.zeros((n, q), dtype=np.int64 if q ** (2 * big_t) < 2 ** 63 else object)
    x[np.arange(q), np.arange(q)] = 1
    traces = []
    for _ in range(big_t):
        on_lines = sum(x[points_of_line[:, j]] for j in range(q))
        x = sum(on_lines[lines_of_point[:, j]] for j in range(q))
        traces.append(q ** graph.family.m * sum(int(v) for v in x.diagonal()))
    return traces


def stirling_cycle(n, i):
    """Unsigned count of permutations of S_n with exactly i cycles."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return sum(perm_type_count(t) for t in enumerate_cycle_types(n) if t.num_cycles() == i)


def p_divisible_cycle_count(n, i, p):
    """Permutations of S_n with i cycles, every cycle length divisible by p."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if n % p:
        return 0
    return sum(perm_type_count(t) for t in enumerate_cycle_types(n)
               if t.num_cycles() == i and all(length % p == 0 for length in t.cycle_lengths()))


def char_restriction_trivial(field):
    """Whether the quadratic character is 1 on every nonzero prime-subfield
    element, by direct evaluation."""
    if field.p == 2:
        raise FieldError("quadratic character undefined in characteristic 2")
    return all(quadratic_character(field, field.from_int(c)) == 1 for c in range(1, field.p))

