"""Brute-force ground truth by literal exhaustive enumeration.

Every closed form in this package is validated against a function here.  The
enumerations are exact and deterministic: field elements are handled as
enumeration indices through integer lookup tables, tallies are integer
bincounts, and no floating point is involved anywhere.

The root-count and quadratic/linear oracles share one enumeration core,
`_level_sums`.  It visits every digit tuple once and builds its sums level
by level, W_k = W_(k-1) + step_k[d], so each new level costs one table gather
per entry instead of re-adding every earlier level.  The sums arrive in
blocks of a bounded number of entries; tallies are sums over the blocks, so
they do not depend on the block size or the order of enumeration.  Root
counting sweeps the constant coefficient analytically: for each
higher-coefficient prefix the value histogram of its evaluation vector yields
the root counts of all q constant-term extensions at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .counting import ExactCount
from .exactcomb import binomial
from .ff import FieldElement, FieldSpec

DEFAULT_MAX_ITEMS = 10 ** 8
TABLE_ORDER_LIMIT = 1 << 10  # dense q*q lookup tables stay desk scale
_BLOCK_ENTRIES = 1 << 16  # table entries per block of `_level_sums`

MSS2_MODES = ("sum-only", "power-sums", "first-distinct")
MSS2_PREDICATES = ("power-sums", "elementary")


class BudgetExceededError(RuntimeError):
    """An oracle or moment check refused to start because the work is too large."""

    def __init__(self, what: str, required: int, max_items: int, unit: str = "enumerated items"):
        super().__init__(f"{what} needs {required} {unit}, over the budget of {max_items}")
        self.what = what
        self.required = required
        self.max_items = max_items


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard cap on the number of enumerated objects per oracle call."""

    max_items: int = DEFAULT_MAX_ITEMS

    def check(self, required: int, what: str) -> None:
        if required > self.max_items:
            raise BudgetExceededError(what, required, self.max_items)


DEFAULT_BUDGET = EnumerationBudget()


# ---------------------------------------------------------------------------
# Lookup tables.
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple[int, int], dict[str, np.ndarray]] = {}


def field_tables(field: FieldSpec) -> dict[str, np.ndarray]:
    """Dense index-level add/mul/neg/inv tables for a small field.

    The multiplication table is assembled from discrete logs with respect to
    the first primitive element in enumeration order, so building it costs
    O(q) field multiplications rather than O(q^2).
    """
    key = (field.p, field.e)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    q, p, e = field.q, field.p, field.e
    if q > TABLE_ORDER_LIMIT:
        raise BudgetExceededError("oracle lookup tables", q, TABLE_ORDER_LIMIT, "field elements")

    powers = p ** np.arange(e, dtype=np.int64)
    digits = (np.arange(q, dtype=np.int64)[:, None] // powers[None, :]) % p
    add = (((digits[:, None, :] + digits[None, :, :]) % p) * powers).sum(axis=2)
    neg = (((-digits) % p) * powers).sum(axis=1)

    log = np.full(q, -1, dtype=np.int64)
    antilog = np.empty(q - 1, dtype=np.int64)
    one_idx = 1
    for gen_idx in range(1, q):
        g = field.element(gen_idx)
        order = 1
        while field.index(g) != one_idx:
            g = field.mul(g, field.element(gen_idx))
            order += 1
        if order == q - 1:
            g = field.one
            for t in range(q - 1):
                gi = field.index(g)
                antilog[t] = gi
                log[gi] = t
                g = field.mul(g, field.element(gen_idx))
            break
    else:
        raise RuntimeError("no primitive element found")  # unreachable

    mul = np.zeros((q, q), dtype=np.int64)
    nz = np.arange(1, q, dtype=np.int64)
    mul[1:, 1:] = antilog[(log[nz][:, None] + log[nz][None, :]) % (q - 1)]
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = antilog[(-log[nz]) % (q - 1)]

    tables = {
        "add": add.astype(np.int32),
        "mul": mul.astype(np.int32),
        "neg": neg.astype(np.int32),
        "inv": inv.astype(np.int32),
        "log": log,  # -1 at zero
        "antilog": antilog,
    }
    for arr in tables.values():
        arr.setflags(write=False)  # shared across callers
    _TABLE_CACHE[key] = tables
    return tables


def power_row(field: FieldSpec, exponent: int) -> np.ndarray:
    """Indices of x**exponent across the enumeration order, with 0**0 = 1."""
    t = field_tables(field)
    row = np.zeros(field.q, dtype=np.int32)  # 0**k = 0 for k >= 1
    row[1:] = t["antilog"][t["log"][1:] * exponent % (field.q - 1)]
    if exponent == 0:
        row[0] = 1  # the index of one
    return row


# ---------------------------------------------------------------------------
# Enumeration core: every sum start + sum_i step_i[d_i], in blocks.
# ---------------------------------------------------------------------------

def _level_sums(add_t: np.ndarray, start: np.ndarray, steps: Sequence[np.ndarray]):
    """Yield every row start + sum_i steps[i][d_i] over all digit tuples, as
    (rows, width) blocks of at most max(_BLOCK_ENTRIES, q * width) entries.

    start holds `width` element indices and each step is a (q, width) table.
    The first levels are built one level at a time, W_k = add[W_(k-1),
    step_k[d]], into an inner table that fits one block; the remaining levels
    come from this function again, started at zero, and each block of theirs
    is joined to the inner table by one flat gather on the add table.
    """
    q, width = add_t.shape[0], start.shape[0]
    inner = start[None, :]
    levels = 0
    while levels < len(steps) and (levels == 0 or inner.size * q <= _BLOCK_ENTRIES):
        inner = add_t[inner[:, None, :], steps[levels][None, :, :]].reshape(-1, width)
        levels += 1
    if levels == len(steps):
        yield inner
        return
    flat_add = add_t.ravel()
    inner_q = inner.astype(np.intp) * q
    per_block = max(1, _BLOCK_ENTRIES // inner.size)
    zero = np.zeros(width, dtype=add_t.dtype)
    for outer in _level_sums(add_t, zero, steps[levels:]):
        for s in range(0, outer.shape[0], per_block):
            block = outer[s:s + per_block, None, :]
            yield np.take(flat_add, inner_q + block).reshape(-1, width)


# ---------------------------------------------------------------------------
# Core engine: zero-count distribution over an affine span of functions.
# ---------------------------------------------------------------------------

def span_root_distribution(
    field: FieldSpec,
    fixed_row: Sequence[int],
    basis_rows: Sequence[Sequence[int]],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> list[int]:
    """Zero-count tally of fixed + sum(c_i * basis_i) over all coefficients.

    Rows hold element indices of function values across the enumeration
    order.  basis_rows[0] must be the constant-one function; its coefficient
    is the analytically swept one.  Returns tally[j] = number of coefficient
    vectors whose function has exactly j zeros, for j = 0..q.
    """
    q = field.q
    m = len(basis_rows)
    if m < 1:
        raise ValueError("need at least the constant basis function")
    if list(basis_rows[0]) != [field.index(field.one)] * q:
        raise ValueError("basis_rows[0] must be the constant-one function")
    if len(fixed_row) != q or any(len(r) != q for r in basis_rows):
        raise ValueError("rows must have one value per field element")
    budget.check(q ** m, "coefficient-space enumeration")

    t = field_tables(field)
    mul_t = t["mul"]
    steps = [mul_t[:, np.asarray(row, dtype=np.intp)] for row in basis_rows[1:]]
    tally = np.zeros(q + 1, dtype=np.int64)
    for w in _level_sums(t["add"], np.asarray(fixed_row, dtype=np.int32), steps):
        # The constant c gives w + c, with as many zeros as w has entries -c;
        # as c runs over the field, so does -c, so the zero counts of one
        # prefix are its value multiplicities.
        flat = w + np.arange(w.shape[0], dtype=np.intp)[:, None] * q
        tally += np.bincount(np.bincount(flat.ravel(), minlength=w.size), minlength=q + 1)
    return [int(x) for x in tally]


# ---------------------------------------------------------------------------
# Distinct-root counting for polynomial families.
# ---------------------------------------------------------------------------

def _u_eval_row(field: FieldSpec, u_high: tuple[FieldElement, ...], n: int, ell: int) -> np.ndarray:
    """Values of the fixed part x^n + sum(u_d x^d), d = n-1 down to ell+1."""
    t = field_tables(field)
    acc = power_row(field, n)
    for coeff, d in zip(u_high, range(n - 1, ell, -1)):
        acc = t["add"][acc, t["mul"][coeff.index, power_row(field, d)]]
    return acc


@lru_cache(maxsize=512)
def _nk_distribution_cached(
    field: FieldSpec,
    u_high: tuple[FieldElement, ...],
    n: int,
    ell: int,
    budget: EnumerationBudget,
) -> tuple[int, ...]:
    fixed = _u_eval_row(field, u_high, n, ell)
    basis = [power_row(field, i) for i in range(ell + 1)]
    return tuple(span_root_distribution(field, fixed, basis, budget))


def brute_nk_distribution(
    field: FieldSpec,
    u_high: Sequence[FieldElement],
    n: int,
    ell: int,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> list[int]:
    """Root-count tally over all q^(ell+1) degree-<=ell tails of the fixed part.

    u_high lists the fixed coefficients for degrees n-1 down to ell+1 (so it
    is empty for gap 1).  Works for any gap, unlike the closed forms.
    """
    if not 0 <= ell < n:
        raise ValueError(f"need 0 <= ell < n, got ell={ell}, n={n}")
    u_high = tuple(u_high)
    if len(u_high) != n - 1 - ell:
        raise ValueError(f"expected {n - 1 - ell} fixed coefficients, got {len(u_high)}")
    for coeff in u_high:
        field._check(coeff)
    return list(_nk_distribution_cached(field, u_high, n, ell, budget))


def brute_nk(
    field: FieldSpec,
    u_high: Sequence[FieldElement],
    n: int,
    ell: int,
    k: int,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExactCount:
    """Literal count of tails making the polynomial have exactly k distinct roots."""
    dist = brute_nk_distribution(field, u_high, n, ell, budget)
    value = dist[k] if 0 <= k <= field.q else 0
    query = {
        "kind": "distinct-root-count",
        "q": field.q,
        "n": n,
        "ell": ell,
        "k": k,
        "u_high": [c.index for c in u_high],
    }
    return ExactCount(value, "oracle", query)


# ---------------------------------------------------------------------------
# Subset enumeration (colex order by largest element, fully vectorized).
# ---------------------------------------------------------------------------

def _subset_state_tallies(
    field: FieldSpec,
    t_max: int,
    trans: np.ndarray,  # (q, n_states) int32: state after adjoining element m
    start_state: int,
    n_states: int,
    budget: EnumerationBudget,
    what: str,
) -> list[np.ndarray]:
    """Per-size state tallies over every subset of the field of size <= t_max.

    Subsets are enumerated in colexicographic order, built up by largest
    element; each subset of each size is visited exactly once.
    """
    q = field.q
    if not 0 <= t_max <= q:
        raise ValueError(f"subset size must lie in [0, {q}], got {t_max}")
    enumerated = sum(binomial(q, j) for j in range(1, t_max + 1))
    budget.check(enumerated, what)

    tallies = [np.zeros(n_states, dtype=np.int64) for _ in range(t_max + 1)]
    tallies[0][start_state] = 1
    if t_max == 0:
        return tallies

    cur = trans[:, start_state].astype(np.int32)  # singletons {m}, m ascending
    bounds = np.arange(q + 1, dtype=np.int64)  # bounds[m] = #subsets with max < m
    for size in range(1, t_max + 1):
        tallies[size] = np.bincount(cur, minlength=n_states).astype(np.int64)
        if size == t_max:
            break
        pieces = []
        new_bounds = [0]
        for m in range(q):
            prev = cur[: bounds[m]]  # size-`size` subsets with max element < m
            pieces.append(trans[m][prev])
            new_bounds.append(new_bounds[-1] + prev.shape[0])
        cur = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int32)
        bounds = np.asarray(new_bounds, dtype=np.int64)
    return tallies


def _pair_transitions(field: FieldSpec, predicate: str) -> np.ndarray:
    """State transitions for packed (first, second) accumulator pairs."""
    q = field.q
    t = field_tables(field)
    add_t, mul_t = t["add"], t["mul"]
    states = np.arange(q * q, dtype=np.int64)
    first = (states // q).astype(np.int32)
    second = (states % q).astype(np.int32)
    trans = np.empty((q, q * q), dtype=np.int32)
    for m in range(q):
        new_first = add_t[first, m]
        if predicate == "power-sums":
            new_second = add_t[second, mul_t[m, m]]
        elif predicate == "elementary":
            # pairwise-product sum picks up m * (previous plain sum)
            new_second = add_t[second, mul_t[m, first]]
        else:
            raise ValueError(f"unknown predicate {predicate!r}")
        trans[m] = new_first.astype(np.int64) * q + new_second
    return trans


@lru_cache(maxsize=64)
def _pair_tallies_cached(
    field: FieldSpec, t_max: int, predicate: str, budget: EnumerationBudget
) -> tuple[tuple[int, ...], ...]:
    trans = _pair_transitions(field, predicate)
    tallies = _subset_state_tallies(
        field, t_max, trans, start_state=0, n_states=field.q ** 2,
        budget=budget, what=f"subset enumeration ({predicate})")
    return tuple(tuple(int(x) for x in tally) for tally in tallies)


def subset_pair_tally(
    field: FieldSpec,
    t_size: int,
    predicate: str = "power-sums",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> list[list[int]]:
    """Joint tally over size-t subsets of (sum, second accumulator) values.

    The second accumulator is the sum of squares under the power-sums
    predicate and the sum of pairwise products under the elementary one.
    """
    q = field.q
    flat = _pair_tallies_cached(field, t_size, predicate, budget)[t_size]
    return [list(flat[i * q: (i + 1) * q]) for i in range(q)]


def subset_sum_distribution(
    field: FieldSpec, t_size: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[int]:
    """Counts of size-t subsets per sum value (all b at once)."""
    joint = subset_pair_tally(field, t_size, "power-sums", budget)
    return [sum(row) for row in joint]


def brute_subsets_mss2(
    field: FieldSpec,
    t_size: int,
    m1: FieldElement | None = None,
    m2: FieldElement | None = None,
    mode: str = "power-sums",
    predicate: str = "power-sums",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExactCount:
    """Exhaustive subset counting in three modes.

    sum-only        size-t subsets with sum m1.
    power-sums      size-t subsets with (sum, second accumulator) = (m1, m2).
    first-distinct  size-(t-1) subsets S completed by x_t = m1 - sum(S); counts
                    those whose completed tuple has second accumulator m2 (the
                    completion may coincide with a member of S).

    The `predicate` switch selects the power-sum or elementary-symmetric
    reading of the second accumulator; the two must tally identically away
    from characteristic 2.
    """
    q = field.q
    m1 = m1 if m1 is not None else field.zero
    m2 = m2 if m2 is not None else field.zero
    field._check(m1), field._check(m2)
    if mode not in MSS2_MODES:
        raise ValueError(f"mode must be one of {MSS2_MODES}, got {mode!r}")
    if predicate not in MSS2_PREDICATES:
        raise ValueError(f"predicate must be one of {MSS2_PREDICATES}, got {predicate!r}")

    if mode == "sum-only":
        if not 0 <= t_size <= q:
            raise ValueError(f"subset size must lie in [0, {q}], got {t_size}")
        dist = subset_sum_distribution(field, t_size, budget)
        value = dist[m1.index]
    elif mode == "power-sums":
        if not 0 <= t_size <= q:
            raise ValueError(f"subset size must lie in [0, {q}], got {t_size}")
        joint = subset_pair_tally(field, t_size, predicate, budget)
        value = joint[m1.index][m2.index]
    else:  # first-distinct
        if not 1 <= t_size <= q + 1:
            raise ValueError(f"tuple size must lie in [1, {q + 1}], got {t_size}")
        joint = subset_pair_tally(field, t_size - 1, predicate, budget)
        value = 0
        for s1_idx in range(q):
            s1 = field.element(s1_idx)
            last = field.sub(m1, s1)
            if predicate == "power-sums":
                need = field.sub(m2, field.mul(last, last))
            else:
                need = field.sub(m2, field.mul(last, s1))
            value += joint[s1_idx][need.index]

    query = {
        "kind": "mss2",
        "q": q,
        "t": t_size,
        "m1": m1.index,
        "m2": m2.index,
        "mode": mode,
        "predicate": predicate,
    }
    return ExactCount(value, "oracle", query)


# ---------------------------------------------------------------------------
# Quadratic/linear system enumeration.
# ---------------------------------------------------------------------------

def brute_quadlin(
    field: FieldSpec,
    a: Sequence[FieldElement],
    a0: FieldElement,
    bvec: Sequence[FieldElement],
    b0: FieldElement,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExactCount:
    """Count tuples in F_q^n satisfying sum(a_i x_i^2) = a0 and sum(b_i x_i) = b0."""
    q = field.q
    n = len(a)
    if n < 1 or len(bvec) != n:
        raise ValueError("coefficient vectors must be nonempty and equal-length")
    for x in (*a, *bvec, a0, b0):
        field._check(x)
    budget.check(q ** n, "tuple enumeration")
    t = field_tables(field)
    mul_t = t["mul"]
    squares = mul_t[np.arange(q), np.arange(q)]
    # steps[i][x] = (a_i * x^2, b_i * x): coordinate i's share of the two sums.
    steps = np.stack([mul_t[[x.index for x in a]][:, squares],
                      mul_t[[x.index for x in bvec]]], axis=2)
    count = 0
    for w in _level_sums(t["add"], np.zeros(2, dtype=np.int32), steps):
        count += int(np.count_nonzero((w[:, 0] == a0.index) & (w[:, 1] == b0.index)))
    query = {
        "kind": "quadlin",
        "q": q,
        "n": n,
        "a": [x.index for x in a],
        "a0": a0.index,
        "bvec": [x.index for x in bvec],
        "b0": b0.index,
    }
    return ExactCount(count, "oracle", query)
