"""Closed-form exact counts.

Covers: tallies of monic degree-n completions with exactly k distinct roots
for coefficient gaps 1, 2 and 3 (including the reduced regimes n >= q);
subset-sum counts M(n, b); two-moment subset counts M(n,0,0) and the
first-n-minus-1-distinct variant M1(n,0,0); solution counts for one diagonal
quadratic equation paired with one linear equation, from one Gauss-sum
identity (quadlin_case_count); and the generating-function quantities
alpha/beta/S+- those formulas are assembled from.  Below q, a gap-2 or gap-3
count is the inclusion-exclusion tail plus the excesses of M(n, b), M(n,0,0)
and M1(n,0,0) over uniform (_main_regime).  From q on, x^q = x turns every
gap into a count of functions on the field by their zeros, with at most two
top interpolation coefficients fixed (_reduced_regime).  Either regime builds
a family's whole table k -> N_k in one pass over k, cached on plain ints
(nk_table); the per-k counts read their entry from it.

Every result is an exact integer.  Each formula is a multiple of its count
in integer arithmetic, divided exactly before returning (_exact_int); a
remainder is a bug, never a rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .ff import FieldElement, FieldSpec, _mul_mod, quadratic_character


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


def _exact_int(x: int, what: str, den: int = 1) -> int:
    """x / den, which must be an integer: divmod leaves no remainder."""
    quo, rem = divmod(x, den)
    if rem:
        raise IntegralityError(f"{what} evaluated to the non-integer {Fraction(x, den)}")
    return int(quo)


def v_of(field: FieldSpec, b: FieldElement) -> int:
    """Two-valued helper: q - 1 at b = 0 and -1 otherwise."""
    field._check(b)
    return field.q - 1 if b.is_zero() else -1


def _main_regime(q: int, n: int, gap: int, e: int, e1: int) -> list[int]:
    """N_0, ..., N_n for n < q from one identity for gaps 1-3,

        q^(gap-1) N_k = C(q,k) T_k + (-1)^(n-k) [C(n,k) e - C(n-1,k) e1],

    with the gap's subset-count excesses e, e1 (none for gap 1) and the
    inclusion-exclusion tail T_k = sum_{i<=n-k} (-1)^i C(q-k,i) q^(n-k-i).
    The sign is that of the excesses' inclusion-exclusion layer; at k = n the
    identity returns the subset count.  Pascal's rule on C(q-k, i) gives
    T_k = q T_(k+1) - T_(k+1) + (-1)^(n-k) C(q-k-1, n-k) from T_n = 1, so one
    pass from k = n down to 0 takes n tail steps and carries C(q-k-1, n-k),
    C(q,k) and C(n,k) by one exact division by a small int each step.
    """
    den = q ** (gap - 1)
    tail, c, cq, cn = 1, 1, comb(q, n), 1
    table = [0] * (n + 1)
    for k in range(n, -1, -1):
        j = n - k
        if j:
            c = c * (q - k - 1) // j
            tail = tail * q - tail + (-c if j % 2 else c)
            cq, cn = cq * (k + 1) // (q - k), cn * (k + 1) // j
        total = cq * tail
        if e or e1:  # C(n-1, k) = C(n, k) (n - k) / n
            total += (-1) ** j * (cn * e - cn * j // n * e1)
        table[k] = _exact_int(total, f"N_{k} gap{gap}", den)
    return table


def _reduced_regime(q: int, n: int, gap: int, z: bool) -> list[int]:
    """N_0, ..., N_q for n >= q: modulo x^q - x a completion is a function on the field.

    The free tail has degree <= L = n - gap, so the top r = q - 1 - L <= gap - 1
    coefficients of the function's interpolation polynomial are fixed, to zero
    exactly when z.  The x^(q-1-j) coefficient is -sum_a a^j f(a), so N_k is
    C(q,k) zero sets times the vectors of m = q - k nonzero values under r
    Vandermonde constraints.  By inclusion-exclusion over supports, t >= r
    coordinates carry q^(t-r) solutions and t < r carry z (the constraints
    have full rank t there, leaving the zero vector at most):

        q^max(r,0) N_k = C(q,k) q^max(-r,0)
                         [(q-1)^m + sum_{t<r} (-1)^(m-t) C(m,t) (z q^r - q^t)].

    One pass from k = q down to 0 carries C(q,k) and (q-1)^m.
    """
    r = q - 1 - n + gap
    scale, den = q ** max(-r, 0), q ** max(r, 0)
    cq, power = 1, 1
    table = [0] * (q + 1)
    for k in range(q, -1, -1):
        m = q - k
        if m:
            cq, power = cq * (k + 1) // m, power * (q - 1)
        fixed = sum((-1) ** (m - t) * comb(m, t) * (z * den - q ** t) for t in range(r))
        table[k] = _exact_int(cq * scale * (power + fixed), f"N_{k} gap{gap}", den)
    return table


@lru_cache(maxsize=256)
def _table(q: int, n: int, gap: int, e: int, e1: int, z: bool) -> tuple[int, ...]:
    """One family's N_0, ..., N_min(n,q), keyed on plain ints, so that every
    nonzero b of a gap-2 family shares an entry.  An entry holds at most n + 1
    ints of at most (n - gap + 1) log2 q bits each, as N_k <= q^(n-gap+1).
    A Wenger spectrum at m reads m tables, so one sweep over a few dozen
    spectra and gap families can read more than 100: 256 keep them all."""
    return tuple(_main_regime(q, n, gap, e, e1) if n < q else _reduced_regime(q, n, gap, z))


def nk_table(field: FieldSpec, gap: int, n: int, b: FieldElement | None = None) -> tuple[int, ...]:
    """N_k for k = 0..min(n, q): the completions of x^n (gaps 1 and 3) or of
    x^n - b*x^(n-1) (gap 2), free below degree n - gap + 1, with exactly k
    distinct roots.  Gap 3 needs odd p and an even extension degree.

    One pass builds the whole table (_main_regime below q, _reduced_regime
    from q on), cached by _table; the count_nk_gap* functions read it.
    """
    q = field.q
    if gap == 3:
        _require_moment_field(field)
    elif gap == 2:
        if b is None:
            raise ValueError("gap-2 counts need the fixed coefficient b")
        field._check(b)
    elif gap != 1:
        raise ValueError(f"closed forms cover gaps 1-3, got {gap}")
    if n < gap:
        raise ValueError(f"gap-{gap} counts need degree n >= {gap}, got {n}")
    if n >= q:
        # x^q - b x^(q-1) reduces to x - b x^(q-1): -b on x^(q-1), plus 1 at q = 2.
        return _table(q, n, gap, 0, 0, gap != 2 or n > q or b.is_zero() != (q == 2))
    e = _sum_excess(field, n, b) if gap == 2 else _moment_excess(field, n) if gap == 3 else 0
    return _table(q, n, gap, e, _moment_excess_m1(field, n) if gap == 3 else 0, True)


def nk_table_bytes(q: int, n: int, gap: int) -> int:
    """Bytes bounding nk_table's ints: min(n, q) + 1 of them, each <= q^(n-gap+1)."""
    return (min(n, q) + 1) * ((n - gap + 1) * q.bit_length() // 8 + 1)


def _entry(table: tuple[int, ...], k: int, note: str | None) -> ExactCount:
    """N_k read from its family's table; 0 past min(n, q), the most roots there are."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return ExactCount(table[k], note) if k < len(table) else ExactCount(0)


def count_nk_gap1(field: FieldSpec, n: int, k: int) -> ExactCount:
    """Monic degree-n polynomials x^n + (free tail of degree < n) with exactly
    k distinct roots.

    Inclusion-exclusion over prescribed root sets for n < q; for n >= q the
    count reduces through the q-th power map to counting functions on the
    field with k zeros.
    """
    note = "reduced-degree regime (n >= q)" if n >= field.q else None
    return _entry(nk_table(field, 1, n), k, note)


# ---------------------------------------------------------------------------
# Subset sums, and gap 2: fixed x^n - b*x^(n-1), free tail of degree <= n - 2.
# ---------------------------------------------------------------------------

def _sum_excess(field: FieldSpec, n: int, b: FieldElement) -> int:
    """q M(n, b) - C(q, n): (-1)^(n + n/p) v(b) C(q/p, n/p) when p | n, else 0."""
    p = field.p
    if n % p:
        return 0
    return (-1) ** (n + n // p) * v_of(field, b) * comb(field.q // p, n // p)


def subset_sum_count(field: FieldSpec, n: int, b: FieldElement) -> ExactCount:
    """Number M(n, b) of n-element subsets of the field summing to b."""
    q = field.q
    field._check(b)
    if not 0 <= n <= q:
        raise ValueError(f"subset size must lie in [0, {q}], got {n}")
    return ExactCount(_exact_int(comb(q, n) + _sum_excess(field, n, b), f"M({n}, b)", q))


def count_nk_gap2(field: FieldSpec, n: int, k: int, b: FieldElement) -> ExactCount:
    """Completions of x^n - b*x^(n-1) with exactly k distinct roots.

    For n < q this is the inclusion-exclusion tail plus the subset-sum excess
    q M(n, b) - C(q, n), which vanishes unless p divides n (_main_regime).
    For n >= q it counts functions on the field by their zeros, each q^(n-q-1)
    times past n = q; at n = q the top interpolation coefficient is fixed to
    -b (plus 1 at q = 2), so q N_k = C(q,k) [(q-1)^(q-k) + (-1)^(q-k) (z q - 1)]
    with z = 1 when that coefficient is zero (_reduced_regime).
    """
    q = field.q
    note = None if n < q else f"reduced-degree regime (n {'>' if n > q else '=='} q)"
    return _entry(nk_table(field, 2, n, b), k, note)


# ---------------------------------------------------------------------------
# Diagonal quadratic + linear system.
# ---------------------------------------------------------------------------

def quadlin_invariants(
    field: FieldSpec,
    a: Sequence[FieldElement],
    a0: FieldElement,
    bvec: Sequence[FieldElement],
    b0: FieldElement,
) -> tuple[FieldElement, FieldElement, FieldElement]:
    """P = prod(a_i), B' = P*b and C' = P*c for the invariants
    b = sum(b_i^2 / a_i) and c = b0^2 - a0*b, without inverting: one pass of
    P <- P*a_i, B' <- a_i*B' + b_i^2*P from P = a_1, B' = b_1^2.  Needs at
    least one a_i, all nonzero: then P != 0, and B', C' vanish when b, c do.
    The pass runs on the coefficient tuples of elements the caller has
    checked; only the three results are wrapped."""
    mod, p = field.modulus, field.p
    prod, b = a[0].coeffs, _mul_mod(bvec[0].coeffs, bvec[0].coeffs, mod, p)
    for ai, bi in zip(a[1:], bvec[1:]):
        x, y = ai.coeffs, bi.coeffs
        y2 = _mul_mod(y, y, mod, p)
        b = tuple((u + v) % p for u, v in zip(_mul_mod(x, b, mod, p), _mul_mod(y2, prod, mod, p)))
        prod = _mul_mod(prod, x, mod, p)
    b02 = _mul_mod(b0.coeffs, b0.coeffs, mod, p)
    c = tuple((u - v) % p for u, v in zip(_mul_mod(b02, prod, mod, p),
                                          _mul_mod(a0.coeffs, b, mod, p)))
    return field._trusted(prod), field._trusted(b), field._trusted(c)


def quad_lin_solution_count(
    field: FieldSpec,
    a: Sequence[FieldElement],
    a0: FieldElement,
    bvec: Sequence[FieldElement],
    b0: FieldElement,
) -> ExactCount:
    """Common solutions of sum(a_i x_i^2) = a0 and sum(b_i x_i) = b0.

    Requires odd q, all a_i nonzero and at least one b_i nonzero.  The
    count is one Gauss-sum identity, derived at quadlin_case_count.
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
    when b = 0 and b0 (so c) is zero or not.

    With psi a nontrivial additive character, q^2 N is the sum over s, t in
    F_q and x in F_q^n of psi(s (Q(x) - a0) + t (L(x) - b0)).  The s = 0 terms
    give q^n.  For s != 0, completing the square in each x_i leaves the Gauss
    sums eta(s a_i) G, with G^2 = eta(-1) q = g, times the phase
    psi(-t^2 b / (4 s) - t b0 - s a0).  Summed over t, that phase is one more
    Gauss sum, eta(-b s) G psi(s c / b), when b != 0, and q [b0 = 0]
    psi(-s a0) when b = 0.  The sum over s leaves q^2 N = q^n plus

        b != 0, n odd:       g^((n+1)/2) v(c) eta(-b P)
        b != 0, n even:      g^(n/2+1) eta(-c P)
        b = b0 = 0, n even:  q g^(n/2) v(a0) eta(P)
        b = b0 = 0, n odd:   q g^((n+1)/2) eta(-a0 P)

    and nothing when b = 0 != b0, with eta the quadratic character, v as in
    v_of and P = prod(a_i), so that b P = B' and c P = C'.
    """
    q = field.q
    if field.p == 2:
        raise ValueError("quadratic/linear system counts need odd q")
    n = len(a)
    if n < 1 or len(bvec) != n:
        raise ValueError("coefficient vectors must be nonempty and equal-length")
    for ai in a:
        field._check(ai)
        if ai.is_zero():
            raise ValueError("every quadratic coefficient a_i must be nonzero")
    for x in (*bvec, a0, b0):
        field._check(x)
    if all(bi.is_zero() for bi in bvec):
        raise ValueError("at least one linear coefficient b_i must be nonzero")

    eta = lambda x: quadratic_character(field, x)
    prod, pb, pc = quadlin_invariants(field, a, a0, bvec, b0)
    g = q if q % 4 == 1 else -q
    if not pb.is_zero():
        case = 1 if pc.is_zero() else 2
        term = (g ** ((n + 1) // 2) * v_of(field, pc) * eta(field.neg(pb)) if n % 2 else
                g ** (n // 2 + 1) * eta(field.neg(pc)))
    elif b0.is_zero():
        case = 3
        term = (q * g ** ((n + 1) // 2) * eta(field.neg(field.mul(a0, prod))) if n % 2 else
                q * g ** (n // 2) * v_of(field, a0) * eta(prod))
    else:
        case, term = 4, 0
    return case, ExactCount(_exact_int(q ** n + term, "quadratic/linear solution count", q * q))


# ---------------------------------------------------------------------------
# Even-degree extensions of an odd prime: the generating-function quantities,
# two-moment subset counts, and gap 3 (fixed x^n, free tail of degree <= n - 3).
# ---------------------------------------------------------------------------

def _sqrt_q(field: FieldSpec) -> int:
    if field.e % 2:
        raise ValueError(f"needs an even extension degree, got e={field.e}")
    return field.p ** (field.e // 2)


@lru_cache(maxsize=1024)
def alpha_beta(field: FieldSpec, n: int) -> tuple[int, int]:
    """The two finite binomial sums driving the sieve closed forms.

    alpha(n) runs over i + p*j = n with 0 <= i <= sqrt(q); beta(n) over the
    same lattice with an alternating sign in j.  Cached, since every k of a
    gap-3 table of degree n reads the sums at n and n - 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q, p = field.q, field.p
    s = _sqrt_q(field)
    alpha = beta = 0
    for j in range(n // p + 1):
        i = n - p * j
        alpha += comb(s, i) * comb((q - s) // p, j)
        beta += (-1) ** j * comb(s - 1 + i, s - 1) * comb((q + s) // p, j)
    return alpha, beta


def s_plus_minus(field: FieldSpec, n: int) -> tuple[int, int]:
    """Closed-form S+(n), S-(n) from alpha/beta; sieve.s_plus_minus_type_sums
    is the independent sieve route that verify and the tests compare it with."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha, beta = alpha_beta(field, n)
    fact = factorial(n)
    s_plus = _exact_int(fact * ((-1) ** n * alpha + beta), f"S+({n})", 2)
    s_minus = _exact_int(fact * ((-1) ** n * alpha - beta), f"S-({n})", 2)
    return s_plus, s_minus


def _require_moment_field(field: FieldSpec) -> int:
    if field.p == 2:
        raise ValueError("two-moment subset counts need odd characteristic")
    return _sqrt_q(field)


def _moment_excess(field: FieldSpec, n: int) -> int:
    """The excess q^2 M(n,0,0) - C(q,n), from alpha/beta at n."""
    q, p = field.q, field.p
    alpha, beta = alpha_beta(field, n)
    if n % p:
        return _sqrt_q(field) * (q - 1) // 2 * (alpha - (-1) ** n * beta)
    return (q - 1) * comb(q // p, n // p) + q * (q - 1) // 2 * (alpha + (-1) ** n * beta)


def _moment_excess_m1(field: FieldSpec, n: int) -> int:
    """The excess q^2 M1(n,0,0) - q C(q,n-1), from alpha/beta at n - 1."""
    q = field.q
    alpha, beta = alpha_beta(field, n - 1)
    if n % field.p:
        return q * (q - 1) // 2 * (alpha - (-1) ** n * beta)
    return q * _sqrt_q(field) * (q - 1) // 2 * (alpha + (-1) ** n * beta)


def moment_subset_count(field: FieldSpec, n: int) -> ExactCount:
    """Number M(n,0,0) of n-subsets whose first and second power sums vanish."""
    q = field.q
    _require_moment_field(field)
    if not 1 <= n <= q:
        raise ValueError(f"subset size must lie in [1, {q}], got {n}")
    total = comb(q, n) + _moment_excess(field, n)
    return ExactCount(_exact_int(total, f"M({n},0,0)", q * q))


def moment_subset_count_m1(field: FieldSpec, n: int) -> ExactCount:
    """Number M1(n,0,0): (n-1)-subsets S such that appending x_n = -sum(S)
    gives a tuple with vanishing second power sum; x_n may repeat a member."""
    q = field.q
    _require_moment_field(field)
    if not 2 <= n <= q + 1:
        raise ValueError(f"tuple size must lie in [2, {q + 1}], got {n}")
    total = q * comb(q, n - 1) + _moment_excess_m1(field, n)
    return ExactCount(_exact_int(total, f"M1({n},0,0)", q * q))


def count_nk_gap3(field: FieldSpec, n: int, k: int) -> ExactCount:
    """Completions of x^n (both coefficients below the top fixed to zero)
    with exactly k distinct roots.  Needs odd p and even extension degree.

    For n < q this is the inclusion-exclusion tail plus the two-moment
    excesses (_main_regime), so N_n = M(n,0,0).  For n >= q it counts
    functions on the field by their zeros with the top r = q + 1 - n
    interpolation coefficients fixed to zero (_reduced_regime): with m = q - k,
    q^2 N_k = C(q,k) [(q-1)^m + (-1)^m (q^2 - 1) - (-1)^m m (q^2 - q)] at n = q,
    q N_k = C(q,k) [(q-1)^m + (-1)^m (q - 1)] at n = q + 1, and past that
    N_k = q^(n-q-2) C(q,k) (q-1)^m.
    """
    q = field.q
    note = (None if n < q else "reduced-degree regime (n == q)" if n == q else
            "reduced-degree regime (n == q + 1)" if n == q + 1 else
            "reduced-degree regime (n > q + 1)")
    return _entry(nk_table(field, 3, n), k, note)
