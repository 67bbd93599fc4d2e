"""Closed-form exact counts.

Covers: tallies of monic degree-n completions with exactly k distinct roots
for coefficient gaps 1, 2 and 3 (including the reduced regimes n >= q);
subset-sum counts M(n, b); two-moment subset counts M(n,0,0) and the
first-n-minus-1-distinct variant M1(n,0,0); solution counts for one diagonal
quadratic equation paired with one linear equation; and the generating-
function quantities alpha/beta/S+- those formulas are assembled from.

Every result is an exact integer.  Formulas with rational intermediates are
evaluated in fractions.Fraction and asserted integral before returning; a
failure of that assertion is a bug, never a rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .exactcomb import binomial, enumerate_cycle_types, perm_type_count
from .ff import FieldElement, FieldSpec, quadratic_character


class IntegralityError(ArithmeticError):
    """A closed form failed to reduce to an integer (internal bug guard)."""


@dataclass(frozen=True)
class ExactCount:
    """An exact nonnegative count, with a note naming a reduced regime."""

    value: int
    note: str | None = None

    def __post_init__(self) -> None:
        if self.value < 0:
            raise IntegralityError(f"negative count {self.value}")


@dataclass(frozen=True)
class ClosedFormTerms:
    """Intermediate exact quantities behind the gap-3 and moment formulas.

    d_terms and p_terms hold the two signed alpha/beta combinations at
    arguments n-1 and n that enter the gap-3 count, in that order.
    """

    n: int
    alpha_n: int
    beta_n: int
    d_terms: tuple[int, int]
    p_terms: tuple[int, int]


def _exact_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise IntegralityError(f"{what} evaluated to the non-integer {x}")
    return int(x)


def _alternating_tail(q: int, m: int, length: int) -> int:
    """sum_{i=0}^{length} (-1)^i C(m, i) q^(length - i), by Horner's rule.

    The inclusion-exclusion tail shared by the gap-1/2/3 counts, in one
    linear pass: C(m, i) is updated step by step and no power of q is formed.
    """
    acc, c = 0, 1
    for i in range(length + 1):
        acc = acc * q + (-c if i % 2 else c)
        c = c * (m - i) // (i + 1)
    return acc


def v_of(field: FieldSpec, b: FieldElement) -> int:
    """Two-valued helper: q - 1 at b = 0 and -1 otherwise."""
    field._check(b)
    return field.q - 1 if b.is_zero() else -1


def _sign_element(field: FieldSpec, m: int) -> FieldElement:
    """(-1)^m as a field element."""
    return field.one if m % 2 == 0 else field.neg(field.one)


# ---------------------------------------------------------------------------
# Gap 1: all coefficients below the leading term are free.
# ---------------------------------------------------------------------------

def count_nk_gap1(field: FieldSpec, n: int, k: int) -> ExactCount:
    """Monic degree-n polynomials x^n + (free tail of degree < n) with exactly
    k distinct roots.

    Inclusion-exclusion over prescribed root sets for n < q; for n >= q the
    count reduces through the q-th power map to counting functions on the
    field with k zeros.
    """
    q = field.q
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > min(n, q):
        return ExactCount(0)
    if n >= q:
        value = binomial(q, k) * q ** (n - q) * (q - 1) ** (q - k)
        return ExactCount(value, note="reduced-degree regime (n >= q)")
    return ExactCount(binomial(q, k) * _alternating_tail(q, q - k, n - k))


# ---------------------------------------------------------------------------
# Subset sums.
# ---------------------------------------------------------------------------

def subset_sum_count(field: FieldSpec, n: int, b: FieldElement) -> ExactCount:
    """Number M(n, b) of n-element subsets of the field summing to b."""
    q, p = field.q, field.p
    field._check(b)
    if not 0 <= n <= q:
        raise ValueError(f"subset size must lie in [0, {q}], got {n}")
    m = Fraction(binomial(q, n), q)
    if n % p == 0:
        sign = (-1) ** (n + n // p)
        m += sign * Fraction(v_of(field, b), q) * binomial(q // p, n // p)
    return ExactCount(_exact_int(m, f"M({n}, b)"))


# ---------------------------------------------------------------------------
# Gap 2: fixed x^n - b*x^(n-1), free tail of degree <= n - 2.
# ---------------------------------------------------------------------------

def count_nk_gap2(field: FieldSpec, n: int, k: int, b: FieldElement) -> ExactCount:
    """Completions of x^n - b*x^(n-1) with exactly k distinct roots.

    For n < q this is inclusion-exclusion with the subset-sum correction when
    the characteristic divides n.  The correction carries the alternating
    sign (-1)^(n-k) of its inclusion-exclusion layer; dropping it breaks the
    count whenever n - k is odd, which the enumeration oracle confirms.
    """
    q, p = field.q, field.p
    field._check(b)
    if n < 2:
        raise ValueError(f"gap-2 counts need degree n >= 2, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > min(n, q):
        return ExactCount(0)

    if n < q:
        total = Fraction(binomial(q, k) * _alternating_tail(q, q - k, n - k), q)
        if n % p == 0:
            sign = (-1) ** ((n - k) + n + n // p)
            total += sign * Fraction(v_of(field, b), q) * binomial(n, k) * binomial(q // p, n // p)
        return ExactCount(_exact_int(total, f"N_{k} gap2"))

    if n == q:
        note = "reduced-degree regime (n == q)"
        if q == 2:
            # The general n == q case split needs q >= 3: it reads the reduced
            # polynomial as -b*x^(q-1) plus a free polynomial of lower degree,
            # but at q = 2 those collide.  Here the reduction is (1-b)x + a0
            # directly: for b = 0 every tail has exactly one root; for b = 1
            # the function is the constant a0 (enumeration-confirmed).
            if b.is_zero():
                value = 2 if k == 1 else 0
            else:
                value = 1 if k in (0, 2) else 0
            return ExactCount(value, note=note)
        if not b.is_zero():
            if k == q:
                return ExactCount(0, note=note)
            val = Fraction(binomial(q, k), q) * ((q - 1) ** (q - k) - (-1) ** (q - k))
            return ExactCount(_exact_int(val, "N_k gap2 n=q"), note=note)
        if k == q:
            return ExactCount(1, note=note)
        if k == q - 1:
            return ExactCount(0, note=note)
        val = Fraction(q - 1, q) * binomial(q, k) * ((q - 1) ** (q - k - 1) + (-1) ** (q - k))
        return ExactCount(_exact_int(val, "N_k gap2 n=q"), note=note)

    value = q ** (n - q - 1) * binomial(q, k) * (q - 1) ** (q - k)
    return ExactCount(value, note="reduced-degree regime (n > q)")


# ---------------------------------------------------------------------------
# Diagonal quadratic + linear system.
# ---------------------------------------------------------------------------

def quadlin_invariants(
    field: FieldSpec,
    a: Sequence[FieldElement],
    a0: FieldElement,
    bvec: Sequence[FieldElement],
    b0: FieldElement,
) -> tuple[FieldElement, FieldElement]:
    """The invariants b = sum(b_i^2 / a_i) and c = b0^2 - a0*b that split the
    quadratic/linear system into its four cases; every a_i must be nonzero."""
    b = field.zero
    for ai, bi in zip(a, bvec):
        b = field.add(b, field.mul(field.mul(bi, bi), field.inv(ai)))
    return b, field.sub(field.mul(b0, b0), field.mul(a0, b))


def quad_lin_solution_count(
    field: FieldSpec,
    a: Sequence[FieldElement],
    a0: FieldElement,
    bvec: Sequence[FieldElement],
    b0: FieldElement,
) -> ExactCount:
    """Common solutions of sum(a_i x_i^2) = a0 and sum(b_i x_i) = b0.

    Requires odd q, all a_i nonzero and at least one b_i nonzero.  The four
    cases split on whether the invariants b and c (quadlin_invariants) vanish.
    """
    return quadlin_case_count(field, a, a0, bvec, b0)[1]


def quadlin_case_count(
    field: FieldSpec,
    a: Sequence[FieldElement],
    a0: FieldElement,
    bvec: Sequence[FieldElement],
    b0: FieldElement,
) -> tuple[int, ExactCount]:
    """The system's case and quad_lin_solution_count, from one evaluation of
    the invariants: case 1 or 2 when b != 0 and c is zero or not, case 3 or 4
    when b = 0 and c is zero or not."""
    q, p = field.q, field.p
    if p == 2:
        raise ValueError("quadratic/linear system counts need odd q")
    n = len(a)
    if n < 1 or len(bvec) != n:
        raise ValueError("coefficient vectors must be nonempty and equal-length")
    for ai in a:
        field._check(ai)
        if ai.is_zero():
            raise ValueError("every quadratic coefficient a_i must be nonzero")
    for bi in bvec:
        field._check(bi)
    field._check(a0), field._check(b0)
    if all(bi.is_zero() for bi in bvec):
        raise ValueError("at least one linear coefficient b_i must be nonzero")

    chi = lambda x: quadratic_character(field, x)
    qf = Fraction(q)
    prod_a = field.product(a)
    b_inv, c_inv = quadlin_invariants(field, a, a0, bvec, b0)

    if not b_inv.is_zero():
        case = 1 if c_inv.is_zero() else 2
    else:
        case = 3 if c_inv.is_zero() else 4
    if case == 1:
        if n % 2 == 0:
            total = qf ** (n - 2)
        else:
            arg = field.mul(_sign_element(field, (n - 1) // 2), field.mul(prod_a, b_inv))
            total = qf ** (n - 2) + qf ** ((n - 3) // 2) * (q - 1) * chi(arg)
    elif case == 2:
        if n % 2 == 0:
            arg = field.mul(_sign_element(field, n // 2), field.mul(prod_a, c_inv))
            total = qf ** (n - 2) + qf ** ((n - 2) // 2) * chi(arg)
        else:
            arg = field.mul(_sign_element(field, (n - 1) // 2), field.mul(prod_a, b_inv))
            total = qf ** (n - 2) - qf ** ((n - 3) // 2) * chi(arg)
    elif case == 3:
        if n % 2 == 0:
            arg = field.mul(_sign_element(field, n // 2), prod_a)
            total = qf ** (n - 2) + v_of(field, a0) * qf ** ((n - 2) // 2) * chi(arg)
        else:
            # chi vanishes at a0 = 0, collapsing this case to q^(n-2).
            arg = field.mul(_sign_element(field, (n - 1) // 2), field.mul(a0, prod_a))
            total = qf ** (n - 2) + qf ** ((n - 1) // 2) * chi(arg)
    else:
        total = qf ** (n - 2)

    return case, ExactCount(_exact_int(total, "quadratic/linear solution count"))


# ---------------------------------------------------------------------------
# Generating-function quantities for even-degree extensions.
# ---------------------------------------------------------------------------

def _sqrt_q(field: FieldSpec) -> int:
    if field.e % 2:
        raise ValueError(f"needs an even extension degree, got e={field.e}")
    return field.p ** (field.e // 2)


def alpha_beta(field: FieldSpec, n: int) -> tuple[int, int]:
    """The two finite binomial sums driving the sieve closed forms.

    alpha(n) runs over i + p*j = n with 0 <= i <= sqrt(q); beta(n) over the
    same lattice with an alternating sign in j.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q, p = field.q, field.p
    s = _sqrt_q(field)
    alpha = 0
    beta = 0
    for j in range(n // p + 1):
        i = n - p * j
        alpha += binomial(s, i) * binomial((q - s) // p, j)
        beta += (-1) ** j * binomial(s - 1 + i, s - 1) * binomial((q + s) // p, j)
    return alpha, beta


def s_plus_minus_type_sums(field: FieldSpec, n: int) -> tuple[int, int]:
    """Direct signed sums over cycle types, split by the parity of the number
    of cycles whose length is coprime to p."""
    q, p = field.q, field.p
    s = _sqrt_q(field)
    even_total = 0
    odd_total = 0
    for t in enumerate_cycle_types(n):
        weight = perm_type_count(t)
        coprime_cycles = 0
        for i, ci in enumerate(t.c, start=1):
            if ci == 0:
                continue
            if i % p == 0:
                weight *= (-q) ** ci
            else:
                weight *= (-s) ** ci
                coprime_cycles += ci
        if coprime_cycles % 2 == 0:
            even_total += weight
        else:
            odd_total += weight
    return even_total, odd_total


def s_plus_minus(field: FieldSpec, n: int) -> tuple[int, int]:
    """Closed-form S+(n), S-(n); asserts agreement with the cycle-type sums.

    The two routes are computed independently every call, so a regression in
    either one is caught immediately.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha, beta = alpha_beta(field, n)
    fact = factorial(n)
    plus2 = fact * ((-1) ** n * alpha + beta)
    minus2 = fact * ((-1) ** n * alpha - beta)
    if plus2 % 2 or minus2 % 2:
        raise IntegralityError(f"S+-({n}) closed form is not divisible by 2")
    s_plus, s_minus = plus2 // 2, minus2 // 2
    direct = s_plus_minus_type_sums(field, n)
    if direct != (s_plus, s_minus):
        raise IntegralityError(
            f"S+-({n}) mismatch: closed form {(s_plus, s_minus)}, type sum {direct}")
    return s_plus, s_minus


@lru_cache(maxsize=1024)
def closed_form_terms(field: FieldSpec, n: int) -> ClosedFormTerms:
    """Bundle of alpha/beta-derived terms entering gap-3 and moment counts.

    Cached: every k of a gap-3 table of degree n reads the same terms.
    """
    alpha_n, beta_n = alpha_beta(field, n)
    alpha_prev, beta_prev = alpha_beta(field, n - 1) if n >= 1 else (0, 0)
    sign_n = (-1) ** n
    sign_prev = (-1) ** (n - 1)
    return ClosedFormTerms(
        n=n,
        alpha_n=alpha_n,
        beta_n=beta_n,
        d_terms=(alpha_prev + sign_prev * beta_prev, alpha_n - sign_n * beta_n),
        p_terms=(alpha_prev - sign_prev * beta_prev, alpha_n + sign_n * beta_n),
    )


# ---------------------------------------------------------------------------
# Two-moment subset counts (q an even-degree extension of an odd prime).
# ---------------------------------------------------------------------------

def _require_moment_field(field: FieldSpec) -> int:
    if field.p == 2:
        raise ValueError("two-moment subset counts need odd characteristic")
    return _sqrt_q(field)


def moment_subset_count(field: FieldSpec, n: int) -> ExactCount:
    """Number M(n,0,0) of n-subsets whose first and second power sums vanish."""
    q, p = field.q, field.p
    s = _require_moment_field(field)
    if not 1 <= n <= q:
        raise ValueError(f"subset size must lie in [1, {q}], got {n}")
    alpha, beta = alpha_beta(field, n)
    total = Fraction(binomial(q, n), q * q)
    if n % p == 0:
        total += Fraction(q - 1, q * q) * binomial(q // p, n // p)
        total += Fraction(q - 1, 2 * q) * (alpha + (-1) ** n * beta)
    else:
        total += Fraction(q - 1, 2 * q * s) * (alpha - (-1) ** n * beta)
    return ExactCount(_exact_int(total, f"M({n},0,0)"))


def moment_subset_count_m1(field: FieldSpec, n: int) -> ExactCount:
    """Number M1(n,0,0): (n-1)-subsets S such that appending x_n = -sum(S)
    gives a tuple with vanishing second power sum; x_n may repeat a member."""
    q, p = field.q, field.p
    s = _require_moment_field(field)
    if not 2 <= n <= q + 1:
        raise ValueError(f"tuple size must lie in [2, {q + 1}], got {n}")
    alpha, beta = alpha_beta(field, n - 1)
    total = Fraction(binomial(q, n - 1), q)
    if n % p == 0:
        total += Fraction(q - 1, 2 * s) * (alpha - (-1) ** (n - 1) * beta)
    else:
        total += Fraction(q - 1, 2 * q) * (alpha + (-1) ** (n - 1) * beta)
    return ExactCount(_exact_int(total, f"M1({n},0,0)"))


# ---------------------------------------------------------------------------
# Gap 3: fixed x^n, free tail of degree <= n - 3.
# ---------------------------------------------------------------------------

def count_nk_gap3(field: FieldSpec, n: int, k: int) -> ExactCount:
    """Completions of x^n (both coefficients below the top fixed to zero)
    with exactly k distinct roots.  Needs odd p and even extension degree.

    k = n delegates to the two-moment subset count; n >= q reduces through
    the q-th power map, with the resulting case tables cross-checked against
    enumeration.
    """
    q, p = field.q, field.p
    s = _require_moment_field(field)
    if n < 3:
        raise ValueError(f"gap-3 counts need degree n >= 3, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > min(n, q):
        return ExactCount(0)

    if n < q:
        if k == n:
            return moment_subset_count(field, n)
        terms = closed_form_terms(field, n)
        total = Fraction(binomial(q, k) * _alternating_tail(q, q - k, n - k), q * q)
        sign = (-1) ** (n - k)
        if n % p == 0:
            p_prev, p_n = terms.p_terms
            total += sign * Fraction(q - 1, q * q) * binomial(n, k) * binomial(q // p, n // p)
            total += -sign * binomial(n - 1, k) * Fraction(q - 1, 2 * s) * p_prev
            total += sign * binomial(n, k) * Fraction(q - 1, 2 * q) * p_n
        else:
            d_prev, d_n = terms.d_terms
            total += -sign * binomial(n - 1, k) * Fraction(q - 1, 2 * q) * d_prev
            total += sign * binomial(n, k) * Fraction(q - 1, 2 * q * s) * d_n
        return ExactCount(_exact_int(total, f"N_{k} gap3"))

    if n == q:
        note = "reduced-degree regime (n == q)"
        if k == q:
            return ExactCount(1, note=note)
        if k in (q - 1, q - 2):
            return ExactCount(0, note=note)
        val = Fraction(q - 1, q) * binomial(q, k) * (
            Fraction((q - 1) ** (q - k - 1), q)
            + (-1) ** (q - k - 1) * (q - k)
            + (-1) ** (q - k) * Fraction(q + 1, q)
        )
        return ExactCount(_exact_int(val, "N_k gap3 n=q"), note=note)

    if n == q + 1:
        note = "reduced-degree regime (n == q + 1)"
        if k == q:
            return ExactCount(1, note=note)
        if k == q - 1:
            return ExactCount(0, note=note)
        val = Fraction(q - 1, q) * binomial(q, k) * ((q - 1) ** (q - k - 1) + (-1) ** (q - k))
        return ExactCount(_exact_int(val, "N_k gap3 n=q+1"), note=note)

    value = q ** (n - q - 2) * binomial(q, k) * (q - 1) ** (q - k)
    return ExactCount(value, note="reduced-degree regime (n > q + 1)")
