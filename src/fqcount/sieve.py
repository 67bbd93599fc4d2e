"""Distinct-coordinate counting over symmetric solution sets.

For a coordinate-permutation-invariant X in F_q^n (J. Li and D. Wan, "A new
sieve for distinct coordinate counting", Sci. China Math. 53, 2010),

    #{x in X : all coordinates distinct}
        = sum over sigma in S_n of (-1)^(n - cycles(sigma)) * |X_sigma|,

where X_sigma glues coordinates along the cycles of sigma.  A first-(n-1)
variant leaves the last coordinate out of the distinctness requirement: it
is one more cycle of length 1, never glued.

Each |X_sigma| here combines products prod w(l) over the cycle lengths l of
sigma, so no cycle type is ever formed: by the exponential formula (Stanley,
EC II, 5.1) the signed sum of prod w(l) over S_n is a_n, in n(n+1)/2 steps of

    a_0 = 1,  a_m = sum_(i=1..m) (-1)^(i-1) w(i) (m-1)!/(m-i)! a_(m-i).

A weight is a pair (u, v) for u + vY with Y^2 = 1, so one sum also splits by
the parity of the number of cycles whose length is coprime to p.
"""

from __future__ import annotations

from typing import Callable

from .counting import _exact_int, require_moment_field, require_n
from .ff import FieldElement, FieldSpec
from .oracle import DEFAULT_BUDGET, EnumerationBudget

Pair = tuple[int, int]  # u + vY with Y^2 = 1
Weight = Callable[[int], Pair]  # a cycle length to its weight
Counter = Callable[[int, bool], int]  # (points, first) to the signed total


def _times(w: Pair, a: Pair) -> Pair:
    return w[0] * a[0] + w[1] * a[1], w[0] * a[1] + w[1] * a[0]


def _signed_sum(n: int, w: Weight) -> Pair:
    """a_n of the recurrence above.  The inner sum runs in Horner form, so
    every product has a weight or an integer below n as one factor."""
    signed = [(0, 0)] + [_times((1 if i % 2 else -1, 0), w(i)) for i in range(1, n + 1)]
    a = [(1, 0)]
    for m in range(1, n + 1):
        u = v = 0
        for i in range(m, 0, -1):
            (wu, wv), (au, av), k = signed[i], a[m - i], m - i
            u, v = wu * au + wv * av + k * u, wu * av + wv * au + k * v
        a.append((u, v))
    return a[n]


def _weights(field: FieldSpec, s: int = 0) -> tuple[Weight, Weight, Weight]:
    """Three weights per cycle length l: q (free); q if p | l, else 0
    (divisible); q if p | l, else sY (split).  A cycle of length divisible
    by p drops out of every glued form; the others keep their length as the
    coefficient."""
    q, p = field.q, field.p
    return (lambda length: (q, 0), lambda length: (0 if length % p else q, 0),
            lambda length: (0, s) if length % p else (q, 0))


def _counter(combine: Callable[..., int], weights: tuple[Weight, ...],
             budget: EnumerationBudget) -> Counter:
    """The counter whose total is combine(n, *sums): one signed sum per
    weight, n the number of coordinates.  A first-(n-1) count multiplies
    each sum by its weight at the appended 1-cycle."""
    def count(points: int, first: bool) -> int:
        budget.check(len(weights) * points * (points + 1) // 2, "sieve", "recurrence steps")
        sums = [_signed_sum(points, w) for w in weights]
        if first:
            sums = [_times(w(1), total) for w, total in zip(weights, sums)]
        return combine(points + first, *sums)

    return count


def sieve_distinct(n: int, count: Counter) -> int:
    """Exact count of all-coordinates-distinct n-tuples in the counted set."""
    require_n(n)
    return count(n, False)


def sieve_first_n_minus_1(n: int, count: Counter) -> int:
    """Count of n-tuples whose first n-1 coordinates are pairwise distinct."""
    if n < 2:
        raise ValueError(f"first-(n-1) sieve needs n >= 2, got {n}")
    return count(n - 1, True)


def s_plus_minus_type_sums(field: FieldSpec, n: int) -> tuple[int, int]:
    """S+(n) and S-(n) directly: (-1)^n times the signed sum of the split
    weight at Y = sqrt(q), one part for each parity of the coprime cycles."""
    if field.e % 2:
        raise ValueError(f"S+- type sums need an even extension degree, got q = {field.p}^{field.e}")
    require_n(n)
    even, odd = _signed_sum(n, _weights(field, field.p ** (field.e // 2))[2])
    return (-1) ** n * even, (-1) ** n * odd


def unconstrained_counter(field: FieldSpec, budget: EnumerationBudget = DEFAULT_BUDGET) -> Counter:
    """X = F_q^n; gluing leaves one free value per cycle."""
    return _counter(lambda n, free: free[0], _weights(field)[:1], budget)


def subset_sum_counter(field: FieldSpec, b: FieldElement,
                       budget: EnumerationBudget = DEFAULT_BUDGET) -> Counter:
    """X = solutions of x_1 + ... + x_n = b.  A permutation leaves
    q^(cycles - 1) solutions, unless every length is divisible by p: then the
    glued form vanishes, leaving q^cycles solutions at b = 0 and none else."""
    field._check(b)

    def combine(n: int, free: Pair, divisible: Pair) -> int:
        rest = _exact_int(free[0] - divisible[0], "subset-sum sieve", field.q)
        return rest + (divisible[0] if b.is_zero() else 0)

    return _counter(combine, _weights(field)[:2], budget)


def two_moment_counter(field: FieldSpec, budget: EnumerationBudget = DEFAULT_BUDGET) -> Counter:
    """X = solutions of (sum x_i^2 = 0, sum x_i = 0), at odd square q = s^2.

    The N >= 1 cycles of length coprime to p form the diagonal system with
    a = b = their lengths, all squares in F_p, whose sum is n, and c = 0.  It
    has (q^N + t)/q^2 solutions: t = (q - 1) s^(N+1) for odd N when p does not
    divide n, t = q(q - 1) s^N for even N when p divides n, and t = 0
    otherwise.  Each other cycle is a free factor q; at N = 0 that is all.
    """
    q, p = field.q, field.p
    s = require_moment_field(field, "two-moment sieves")

    def combine(n: int, free: Pair, divisible: Pair, split: Pair) -> int:
        even, odd = split
        excess = (q - 1) * s * odd if n % p else (q - 1) * (q * even + divisible[0])
        return _exact_int(free[0] + excess, "two-moment sieve", q * q)

    return _counter(combine, _weights(field, s), budget)
