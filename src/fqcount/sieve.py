"""Distinct-coordinate counting over symmetric solution sets.

The engine sums sign-weighted per-type counts over permutation cycle types:
for a coordinate-permutation-invariant X in F_q^n,

    #{x in X : all coordinates distinct}
        = sum over cycle types tau of (-1)^(n - cycles(tau)) * C(tau) * |X_tau|,

where X_tau glues coordinates along the cycles of tau and C(tau) counts the
permutations of that type (J. Li and D. Wan, "A new sieve for distinct
coordinate counting", Sci. China Math. 53, 2010).  A first-(n-1)-coordinates
variant leaves the last coordinate out of the distinctness requirement.

A cycle type is the ascending tuple of its cycle lengths and a counter is a
plain function of that tuple.  Types are streamed, never stored, so a sum
holds O(n) memory whatever p(n) is.  This is the one module that enumerates
cycle types, S+(n) and S-(n) included (the route counting.s_plus_minus is
checked against).
"""

from __future__ import annotations

from math import factorial
from typing import Callable, Iterator

from .counting import _sqrt_q, quad_lin_solution_count
from .ff import FieldElement, FieldSpec

CYCLE_TYPE_BOUND = 64

Counter = Callable[[tuple[int, ...]], int]


def enumerate_cycle_types(n: int) -> Iterator[tuple[int, ...]]:
    """All cycle types of S_n as ascending tuples of cycle lengths, in
    lexicographic order, streamed one at a time.  The bound is checked here,
    before any type is made."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > CYCLE_TYPE_BOUND:
        raise ValueError(f"n={n} exceeds the cycle-type enumeration bound {CYCLE_TYPE_BOUND}")

    def partitions(rest: int, least: int) -> Iterator[tuple[int, ...]]:
        # parts >= least: a first part leaving room for one as large, then rest alone
        for first in range(least, rest // 2 + 1):
            for tail in partitions(rest - first, first):
                yield (first, *tail)
        yield (rest,)

    return partitions(n, 1)


def perm_type_count(lengths: tuple[int, ...]) -> int:
    """Number of permutations with the given ascending cycle lengths:
    n! / prod(i^(c_i) c_i!), the c_i! built up along each run of equal lengths."""
    denom, run = 1, 0
    for j, length in enumerate(lengths):
        run = run + 1 if j and lengths[j - 1] == length else 1
        denom *= length * run
    return factorial(sum(lengths)) // denom


def _signed_type_sum(n: int, count: Counter) -> int:
    """sum over cycle types t of n points of (-1)^(n - cycles(t)) * C(t) * count(t)."""
    total = 0
    for t in enumerate_cycle_types(n):
        term = perm_type_count(t) * count(t)
        total += -term if (n - len(t)) % 2 else term
    return total


def sieve_distinct(n: int, count: Counter) -> int:
    """Exact count of all-coordinates-distinct n-tuples in the counted set."""
    return _signed_type_sum(n, count)


def sieve_first_n_minus_1(n: int, count: Counter) -> int:
    """Count of n-tuples whose first n-1 coordinates are pairwise distinct.

    The last coordinate is never glued: the counter sees it as one more
    cycle of length 1 after the type of the first n-1 points.
    """
    if n < 2:
        raise ValueError(f"first-(n-1) sieve needs n >= 2, got {n}")
    return _signed_type_sum(n - 1, lambda t: count((*t, 1)))


def s_plus_minus_type_sums(field: FieldSpec, n: int) -> tuple[int, int]:
    """S+(n) and S-(n) directly: (-1)^n times the signed type sum of
    prod(q if p | l else sqrt(q)) over the cycle lengths l, split by the
    parity of the number of cycles whose length is coprime to p.

    One pass carries both parts in one integer, the odd part shifted left
    past the even one: each part is at most the rising factorial
    q (q+1) ... (q+n-1) < (q+n)^n in size, so a rounding shift splits them.
    """
    q, p = field.q, field.p
    s = _sqrt_q(field)
    shift = n * (q + n).bit_length() + 1

    def count(lengths: tuple[int, ...]) -> int:
        coprime = sum(1 for length in lengths if length % p)
        return q ** (len(lengths) - coprime) * s ** coprime << (coprime % 2) * shift

    total = (-1) ** n * _signed_type_sum(n, count)
    odd = (total + (1 << shift - 1)) >> shift
    return total - (odd << shift), odd


# ---------------------------------------------------------------------------
# Counter factories: each treats a free trailing coordinate (the first-(n-1)
# variant) as the length-1 cycle the sieve appends.
# ---------------------------------------------------------------------------

def unconstrained_counter(field: FieldSpec) -> Counter:
    """X = F_q^n; gluing leaves one free value per cycle."""
    q = field.q
    return lambda lengths: q ** len(lengths)


def subset_sum_counter(field: FieldSpec, b: FieldElement) -> Counter:
    """X = solutions of x_1 + ... + x_n = b."""
    q, p = field.q, field.p
    field._check(b)

    def count(lengths: tuple[int, ...]) -> int:
        if all(length % p == 0 for length in lengths):
            # the glued linear form vanishes identically
            return q ** len(lengths) if b.is_zero() else 0
        return q ** (len(lengths) - 1)

    return count


def two_moment_counter(field: FieldSpec) -> Counter:
    """X = solutions of (sum x_i^2 = 0, sum x_i = 0).

    Cycles of length divisible by p drop out of both glued equations and
    contribute a free factor of q each; the rest form a diagonal
    quadratic/linear system with one variable per cycle.
    """
    q, p = field.q, field.p

    def count(lengths: tuple[int, ...]) -> int:
        coeffs = [field.from_int(length) for length in lengths if length % p]
        if not coeffs:
            return q ** len(lengths)
        sols = quad_lin_solution_count(field, coeffs, field.zero, coeffs, field.zero).value
        return q ** (len(lengths) - len(coeffs)) * sols

    return count
