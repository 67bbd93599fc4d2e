"""Exact integer combinatorics: binomials, permutation cycle types, and
cycle-count statistics.

Everything returns arbitrary-precision Python ints; nothing here touches
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

CYCLE_TYPE_BOUND = 64


def binomial(a: int, b: int) -> int:
    """C(a, b), with the convention C(a, b) = 0 outside 0 <= b <= a."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class CycleType:
    """Cycle structure of a permutation of n points: c[i-1] cycles of length i."""

    n: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cycle type needs n >= 1, got {self.n}")
        if len(self.c) != self.n:
            raise ValueError(f"cycle count vector must have length {self.n}, got {len(self.c)}")
        if any(ci < 0 for ci in self.c):
            raise ValueError(f"negative cycle count in {self.c}")
        if sum((i + 1) * ci for i, ci in enumerate(self.c)) != self.n:
            raise ValueError(f"cycle lengths of {self.c} do not sum to {self.n}")

    def num_cycles(self) -> int:
        """Total number of cycles, fixed points included."""
        return sum(self.c)

    def cycle_lengths(self) -> tuple[int, ...]:
        """All cycle lengths, ascending, with multiplicity."""
        return tuple(i + 1 for i, ci in enumerate(self.c) for _ in range(ci))


def perm_type_count(t: CycleType) -> int:
    """Number of permutations of S_n with the given cycle structure."""
    denom = 1
    for i, ci in enumerate(t.c, start=1):
        denom *= i ** ci * factorial(ci)
    num = factorial(t.n)
    count, rem = divmod(num, denom)
    if rem:
        raise ArithmeticError(f"non-integral permutation count for {t}")  # unreachable
    return count


@lru_cache(maxsize=None)
def _cycle_types_cached(n: int) -> tuple[CycleType, ...]:
    def partitions(remaining: int, max_part: int):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in partitions(remaining - part, part):
                yield [part] + rest

    types = []
    for parts in partitions(n, n):
        c = [0] * n
        for part in parts:
            c[part - 1] += 1
        types.append(CycleType(n, tuple(c)))
    types.sort(key=lambda t: t.c)
    return tuple(types)


def enumerate_cycle_types(n: int) -> tuple[CycleType, ...]:
    """All cycle types of S_n, sorted lexicographically on the count vector."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > CYCLE_TYPE_BOUND:
        raise ValueError(f"n={n} exceeds the cycle-type enumeration bound {CYCLE_TYPE_BOUND}")
    return _cycle_types_cached(n)
