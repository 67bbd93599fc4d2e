"""Distinct-coordinate counting over symmetric solution sets.

The engine sums sign-weighted per-type counts over permutation cycle types:
for a coordinate-permutation-invariant X in F_q^n,

    #{x in X : all coordinates distinct}
        = sum over cycle types tau of (-1)^(n - cycles(tau)) * C(tau) * |X_tau|,

where X_tau glues coordinates along the cycles of tau and C(tau) counts the
permutations of that type.  A first-(n-1)-coordinates variant leaves the last
coordinate out of the distinctness requirement.

Per-type counts are supplied by a callback that may depend on the cycle type
only; that is the symmetry reading adopted here (types with equal count
vectors get equal |X_tau|), and every counter below satisfies it by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exactcomb import CycleType, enumerate_cycle_types, perm_type_count
from .ff import FieldElement, FieldSpec
from .counting import quad_lin_solution_count


@dataclass(frozen=True)
class SymmetricCounter:
    """Arity n plus a pure map from cycle type to the glued count |X_tau|.

    The callback must answer for types of n points (all coordinates glued
    along cycles) and, to support the first-(n-1) variant, for types of n-1
    points, where the last coordinate stays a separate free variable.
    """

    n: int
    count_for_type: Callable[[CycleType], int]


def _signed_type_sum(n: int, count_for_type: Callable[[CycleType], int]) -> int:
    """sum over cycle types t of n points of (-1)^(n - cycles(t)) * C(t) * count(t)."""
    total = 0
    for t in enumerate_cycle_types(n):
        sign = -1 if (n - t.num_cycles()) % 2 else 1
        total += sign * perm_type_count(t) * count_for_type(t)
    return total


def sieve_distinct(counter: SymmetricCounter) -> int:
    """Exact count of all-coordinates-distinct tuples in the underlying set."""
    return _signed_type_sum(counter.n, counter.count_for_type)


def sieve_first_n_minus_1(counter: SymmetricCounter) -> int:
    """Count of tuples whose first n-1 coordinates are pairwise distinct.

    The callback receives cycle types of n-1 points (the last coordinate is
    never glued).
    """
    if counter.n < 2:
        raise ValueError(f"first-(n-1) sieve needs n >= 2, got {counter.n}")
    return _signed_type_sum(counter.n - 1, counter.count_for_type)


# ---------------------------------------------------------------------------
# Counter factories.
# ---------------------------------------------------------------------------

def _free_tail(n: int, t: CycleType) -> int:
    """Coordinates left out of the gluing: 0 for full types, 1 for the
    first-(n-1) variant."""
    free = n - t.n
    if free not in (0, 1):
        raise ValueError(f"cycle type of {t.n} points does not fit arity {n}")
    return free


def unconstrained_counter(field: FieldSpec, n: int) -> SymmetricCounter:
    """X = F_q^n; gluing leaves one free value per cycle (plus any ungrouped
    trailing coordinate)."""
    q = field.q
    return SymmetricCounter(n, lambda t: q ** (t.num_cycles() + _free_tail(n, t)))


def subset_sum_counter(field: FieldSpec, n: int, b: FieldElement) -> SymmetricCounter:
    """X = solutions of x_1 + ... + x_n = b."""
    q, p = field.q, field.p
    field._check(b)

    def count(t: CycleType) -> int:
        variables = t.num_cycles() + _free_tail(n, t)
        lengths = t.cycle_lengths() + (1,) * _free_tail(n, t)
        if all(length % p == 0 for length in lengths):
            # the glued linear form vanishes identically
            return q ** variables if b.is_zero() else 0
        return q ** (variables - 1)

    return SymmetricCounter(n, count)


def _collapsed_two_moment_count(field: FieldSpec, lengths: tuple[int, ...]) -> int:
    """Solutions of (sum t_j y_j^2 = 0, sum t_j y_j = 0), one y per cycle.

    Cycles of length divisible by p drop out of both equations and contribute
    a free factor of q each; the rest form a diagonal quadratic/linear system.
    """
    q, p = field.q, field.p
    live = [t % p for t in lengths if t % p]
    free = len(lengths) - len(live)
    if not live:
        return q ** len(lengths)
    coeffs = [field.from_int(t) for t in live]
    sols = quad_lin_solution_count(field, coeffs, field.zero, coeffs, field.zero).value
    return q ** free * sols


def two_moment_counter(field: FieldSpec, n: int) -> SymmetricCounter:
    """X = solutions of (sum x_i^2 = 0, sum x_i = 0) in F_q^n.

    An ungrouped trailing coordinate (the first-(n-1) variant) enters the
    collapsed system as one extra length-1 cycle.
    """

    def count(t: CycleType) -> int:
        lengths = t.cycle_lengths() + (1,) * _free_tail(n, t)
        return _collapsed_two_moment_count(field, lengths)

    return SymmetricCounter(n, count)
