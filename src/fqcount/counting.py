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
from math import comb, factorial, isqrt
from typing import Sequence

from .ff import FieldElement, FieldSpec, _mul_mod, make_field, quadratic_character


# The bytes of N_k tables, by nk_table_bytes, that _table holds (_held): past
# TABLE_CACHE_BYTES the memo starts over from the table just built.
TABLE_CACHE_BYTES = 1 << 25
_held = 0


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


@lru_cache(maxsize=None)
def _table(p: int, e: int, gap: int, n: int, zero: bool) -> tuple[int, ...]:
    """One family's N_0, ..., N_min(n,q), with its regime and excesses worked
    out once per table.  The key is plain ints, as the field is canonical for
    each (p, e), and zero says whether b = 0, so every nonzero b of a gap-2
    family shares an entry.  A miss adds the built table's nk_table_bytes to
    _held, first clearing the memo if they would pass TABLE_CACHE_BYTES, and
    functools then stores the table: a degree sweep holds a bounded number of
    bytes, and per-k reads of one table past the bound build it once.  A
    closed-forms benchmark round at q <= 625 holds about 100 tables, 1.1 MB
    in all by that count."""
    global _held
    field = make_field(p, e)
    require_table(field, gap, n)  # a refused family raises here: not held, no bytes
    q = field.q
    if n >= q:
        # x^q - b x^(q-1) reduces to x - b x^(q-1): -b on x^(q-1), plus 1 at q = 2.
        table = _reduced_regime(q, n, gap, gap != 2 or n > q or zero != (q == 2))
    else:
        excess = _sum_excess(field, n, zero) if gap == 2 else _moment_excess(field, n) if gap == 3 else 0
        table = _main_regime(q, n, gap, excess, _moment_excess_m1(field, n) if gap == 3 else 0)
    size = nk_table_bytes(q, n, gap)
    if not _table.cache_info().currsize:  # cleared from outside
        _held = 0
    elif _held + size > TABLE_CACHE_BYTES:
        _table.cache_clear()
        _held = 0
    _held += size
    return tuple(table)


def require_count(gap: int, n: int, k: int = 0) -> None:
    """A count N_k of a gap family, by either route: gaps 1-3, n >= gap, k >= 0."""
    if gap not in (1, 2, 3):
        raise ValueError(f"closed forms cover gaps 1-3, got {gap}")
    if n < gap:
        raise ValueError(f"gap-{gap} counts need degree n >= {gap}, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def require_table(field: FieldSpec, gap: int, n: int) -> None:
    """A family's closed-form N_k table: require_count's rules, and odd square q at gap 3."""
    require_count(gap, n)
    if gap == 3:
        require_moment_field(field, "gap-3 closed forms")


def nk_table(field: FieldSpec, gap: int, n: int, b: FieldElement | None = None) -> tuple[int, ...]:
    """N_k for k = 0..min(n, q): the completions of x^n (gaps 1 and 3) or of
    x^n - b*x^(n-1) (gap 2), free below degree n - gap + 1, with exactly k
    distinct roots.  Gap 3 needs odd p and an even extension degree.

    One pass builds the whole table (_main_regime below q, _reduced_regime
    from q on), cached by _table up to TABLE_CACHE_BYTES; count_nk_gap* read
    it.  The cache key fixes require_table's rules, so _table checks them as
    it builds; b's field is checked on every read.
    """
    if gap == 2:
        if b is None:
            raise ValueError("gap-2 counts need the fixed coefficient b")
        field._check(b)
    return _table(field.p, field.e, gap, n, gap != 2 or b.is_zero())


def nk_table_bytes(q: int, n: int, gap: int) -> int:
    """Bytes bounding nk_table's ints: min(n, q) + 1 of them, each <= q^(n-gap+1)."""
    return (min(n, q) + 1) * ((n - gap + 1) * q.bit_length() // 8 + 1)


def _entry(table: tuple[int, ...], gap: int, n: int, k: int, note: str | None) -> ExactCount:
    """N_k read from its family's table; 0 past min(n, q), the most roots there are."""
    if 0 <= k < len(table):
        return ExactCount(table[k], note)
    require_count(gap, n, k)
    return ExactCount(0)


def count_nk_gap1(field: FieldSpec, n: int, k: int) -> ExactCount:
    """Monic degree-n polynomials x^n + (free tail of degree < n) with exactly
    k distinct roots.

    Inclusion-exclusion over prescribed root sets for n < q; for n >= q the
    count reduces through the q-th power map to counting functions on the
    field with k zeros.
    """
    note = "reduced-degree regime (n >= q)" if n >= field.q else None
    return _entry(nk_table(field, 1, n), 1, n, k, note)


# ---------------------------------------------------------------------------
# Subset sums, and gap 2: fixed x^n - b*x^(n-1), free tail of degree <= n - 2.
# ---------------------------------------------------------------------------

def _sum_excess(field: FieldSpec, n: int, zero: bool) -> int:
    """q M(n, b) - C(q, n): (-1)^(n + n/p) v(b) C(q/p, n/p) when p | n, else 0,
    where zero says whether b = 0."""
    p, q = field.p, field.q
    if n % p:
        return 0
    return (-1) ** (n + n // p) * (q - 1 if zero else -1) * comb(q // p, n // p)


def require_subset_size(field: FieldSpec, n: int, smallest: int = 0) -> None:
    """A subset of the field has n in [smallest, q] elements."""
    if not smallest <= n <= field.q:
        raise ValueError(f"subset size must lie in [{smallest}, {field.q}], got {n}")


def subset_sum_count(field: FieldSpec, n: int, b: FieldElement) -> ExactCount:
    """Number M(n, b) of n-element subsets of the field summing to b."""
    q = field.q
    field._check(b)
    require_subset_size(field, n)
    return ExactCount(_exact_int(comb(q, n) + _sum_excess(field, n, b.is_zero()), f"M({n}, b)", q))


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
    return _entry(nk_table(field, 2, n, b), 2, n, k, note)


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

    The pass runs on packed ints (ff._mul_mod) for elements the caller has
    checked: each a_i and b_i is packed once and only P, B' and C' are
    unpacked.  B' is kept as the unreduced sum of two reduced products, with
    digits at most 2(p - 1), the digit bound the kernel takes; C' adds p to
    every slot before subtracting, so its digits stay in [1, 2p)."""
    k = field.kernel
    a_packed, b_packed = [k.pack(x.coeffs) for x in a], [k.pack(y.coeffs) for y in bvec]
    prod, b = a_packed[0], _mul_mod(b_packed[0], b_packed[0], k)
    for x, y in zip(a_packed[1:], b_packed[1:]):
        b = _mul_mod(x, b, k) + _mul_mod(_mul_mod(y, y, k), prod, k)
        prod = _mul_mod(prod, x, k)
    b0_packed = k.pack(b0.coeffs)
    b0_squared = _mul_mod(b0_packed, b0_packed, k)
    c = _mul_mod(b0_squared, prod, k) + k.ps - _mul_mod(k.pack(a0.coeffs), b, k)
    return field._trusted(k.unpack(prod)), field._trusted(k.unpack(b)), field._trusted(k.unpack(c))


def require_quadlin(field: FieldSpec, a: Sequence[FieldElement], a0: FieldElement,
                    bvec: Sequence[FieldElement], b0: FieldElement) -> None:
    """The closed form's conditions on a quadratic/linear system: odd q, the
    field's elements, every a_i and some b_i nonzero, one length for both."""
    if field.p == 2:
        raise ValueError("quadratic/linear system counts need odd q")
    if not 1 <= len(a) == len(bvec):
        raise ValueError("coefficient vectors must be nonempty and equal-length")
    for x in (*a, *bvec, a0, b0):
        field._check(x)
    if any(ai.is_zero() for ai in a):
        raise ValueError("every quadratic coefficient a_i must be nonzero")
    if all(bi.is_zero() for bi in bvec):
        raise ValueError("at least one linear coefficient b_i must be nonzero")


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
    require_quadlin(field, a, a0, bvec, b0)
    q, n = field.q, len(a)
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

def require_moment_field(field: FieldSpec, what: str) -> int:
    """sqrt(q) where the alpha/beta closed forms hold, at odd p and even e;
    elsewhere a ValueError naming `what`, the caller's quantity."""
    if field.p == 2 or field.e % 2:
        raise ValueError(f"{what} need odd characteristic and an even extension degree, "
                         f"got q = {field.p}^{field.e}")
    return field.p ** (field.e // 2)


def require_two_moment(field: FieldSpec) -> None:
    """The field rule of the two-moment subset counts M(n,0,0) and M1(n,0,0)."""
    require_moment_field(field, "two-moment closed forms")


def require_n(n: int, smallest: int = 1) -> None:
    """The n of a sum over n-element sets or tuples is at least `smallest`."""
    if n < smallest:
        raise ValueError(f"n must be >= {smallest}, got {n}")


def alpha_beta(field: FieldSpec, n: int) -> tuple[int, int]:
    """The two finite binomial sums driving the sieve closed forms.

    alpha(n) runs over i + p*j = n with 0 <= i <= sqrt(q); beta(n) over the
    same lattice with an alternating sign in j.
    """
    s = require_moment_field(field, "alpha/beta sums")
    require_n(n, 0)
    q, p = field.q, field.p
    alpha = beta = 0
    for j in range(n // p + 1):
        i = n - p * j
        alpha += comb(s, i) * comb((q - s) // p, j)
        beta += (-1) ** j * comb(s - 1 + i, s - 1) * comb((q + s) // p, j)
    return alpha, beta


def s_plus_minus(field: FieldSpec, n: int) -> tuple[int, int]:
    """Closed-form S+(n), S-(n) from alpha/beta, whose form assumes odd q;
    sieve.s_plus_minus_type_sums is the independent sieve route that verify
    and the tests compare it with."""
    require_moment_field(field, "S+- closed forms")
    require_n(n)
    alpha, beta = alpha_beta(field, n)
    fact = factorial(n)
    s_plus = _exact_int(fact * ((-1) ** n * alpha + beta), f"S+({n})", 2)
    s_minus = _exact_int(fact * ((-1) ** n * alpha - beta), f"S-({n})", 2)
    return s_plus, s_minus


def _moment_excess(field: FieldSpec, n: int) -> int:
    """The excess q^2 M(n,0,0) - C(q,n), from alpha/beta at n."""
    q, p = field.q, field.p
    alpha, beta = alpha_beta(field, n)
    if n % p:
        return isqrt(q) * (q - 1) // 2 * (alpha - (-1) ** n * beta)
    return (q - 1) * comb(q // p, n // p) + q * (q - 1) // 2 * (alpha + (-1) ** n * beta)


def _moment_excess_m1(field: FieldSpec, n: int) -> int:
    """The excess q^2 M1(n,0,0) - q C(q,n-1), from alpha/beta at n - 1."""
    q = field.q
    alpha, beta = alpha_beta(field, n - 1)
    if n % field.p:
        return q * (q - 1) // 2 * (alpha - (-1) ** n * beta)
    return q * isqrt(q) * (q - 1) // 2 * (alpha + (-1) ** n * beta)


def moment_subset_count(field: FieldSpec, n: int) -> ExactCount:
    """Number M(n,0,0) of n-subsets whose first and second power sums vanish."""
    q = field.q
    require_two_moment(field)
    require_subset_size(field, n, 1)
    total = comb(q, n) + _moment_excess(field, n)
    return ExactCount(_exact_int(total, f"M({n},0,0)", q * q))


def moment_subset_count_m1(field: FieldSpec, n: int) -> ExactCount:
    """Number M1(n,0,0): (n-1)-subsets S such that appending x_n = -sum(S)
    gives a tuple with vanishing second power sum; x_n may repeat a member."""
    q = field.q
    require_two_moment(field)
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
    return _entry(nk_table(field, 3, n), 3, n, k, note)
