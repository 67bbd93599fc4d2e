"""Independent exact ground truth: enumeration and dynamic programs.

Every closed form in this package is validated against one entry here per
quantity: `brute_nk_distribution` for root counts (`span_root_distribution`
for spans), `subset_pair_tally` for subset counts, `brute_subsets_mss2` for
the two-moment readings and `quadlin_counts` for quadratic/linear systems.
They return plain integers and import nothing from the closed forms.  The
routes are exact and deterministic: field elements are handled as
enumeration indices through integer lookup tables, tallies are integers, and
no floating point is involved anywhere.

The root-count oracle enumerates through `_level_sums`.  It visits every
digit tuple once and builds its sums level by level, W_k = W_(k-1) +
step_k[d], so each new level costs one table gather per entry instead of
re-adding every earlier level.  The sums arrive in blocks of a bounded
number of entries; tallies are sums over the blocks, so they do not depend
on the block size or the order of enumeration.  Root counting sweeps the
constant coefficient analytically: for each higher-coefficient prefix the
value histogram of its evaluation vector yields the root counts of all q
constant-term extensions at once.  The other coefficients are swept one
vector per orbit of a symmetry that keeps zero counts, with the tally
weighted by the orbit size, which is still the exact tally over every
vector.  A span through zero is homogeneous, since mu * f has the zeros of
f: one vector per scalar class, weighted by q - 1.  A polynomial family
x^n + ... keeps its distinct-root count under f(x) -> lambda^(-n) f(lambda x),
and the lambda that fix its fixed coefficients act on its free tails.
Translations f(x) -> f(x + c) keep zero counts as well.  Before the sweep,
a family whose fixed part they keep while they move its top tail
coefficient through the field has that coefficient fixed to zero, with
weight q; otherwise a family is translated so that its x^(n-1) coefficient
is zero.  A fixed part whose function the tails already span is dropped,
which leaves a homogeneous span, and each of its parts whose top degree d
is prime to p is swept with c_(d-1) = 0, with weight q.  The tally of each
canonical family is read through a bounded cache, after the budget check.

Subset and quadratic/linear counts come from dynamic programs over
accumulator states instead of a walk over subsets or tuples.  A state is the
sum, or the sum and a second accumulator; for the quadratic/linear system it
is the pair (sum a_i x_i^2, sum b_i x_i).  Adjoining an element or a
coordinate maps each state through a permutation, or a sum of q of them, so
one table of counts replaces the walk.  Quadratic/linear systems of one
length run as one batch, a table with one row of states per system, so a
batch costs the numpy calls of a single system.  The counts can pass 2^63,
so a table is kept modulo the fewest 61-bit primes whose product exceeds
every count.  Both DPs keep these residues on a leading moduli axis, and one
`_crt` rebuilds only the counts a caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb, gcd
from typing import Sequence

import numpy as np

from .ff import FieldElement, FieldSpec, is_prime, make_field

DEFAULT_MAX_ITEMS = 10 ** 8
TABLE_ORDER_LIMIT = 1 << 10  # dense q*q lookup tables stay desk scale
_BLOCK_ENTRIES = 1 << 16  # table entries per block of `_level_sums`
_TALLY_CACHE_SIZE = 256  # canonical root-count tallies kept, q + 1 int64 each

MSS2_MODES = ("power-sums", "first-distinct")
MSS2_PREDICATES = ("power-sums", "elementary")
SUBSET_PREDICATES = ("sum-only", *MSS2_PREDICATES)


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

    def check(self, required: int, what: str, unit: str = "enumerated items") -> None:
        if required > self.max_items:
            raise BudgetExceededError(what, required, self.max_items, unit)


DEFAULT_BUDGET = EnumerationBudget()


# ---------------------------------------------------------------------------
# Lookup tables.
# ---------------------------------------------------------------------------

def _check_table_order(q: int) -> None:
    if q > TABLE_ORDER_LIMIT:
        raise BudgetExceededError("oracle lookup tables", q, TABLE_ORDER_LIMIT, "field elements")


@cache
def field_tables(field: FieldSpec) -> dict[str, np.ndarray]:
    """Dense index-level add/mul/neg/inv tables for a small field, each built
    at its final width.

    Element i has the base-p digits of i, so the add and neg tables of
    p^(k+1) elements are F_p's on the new top digit, times p^k, over those
    of p^k elements: e int32 passes.  mul comes from discrete logs to the
    first primitive element in enumeration order (g with g^((q-1)/r) != 1
    for every prime r | q - 1), so it costs O(q) field multiplications, not
    O(q^2); its int32 log sums index a doubled antilog, with no reduction
    mod q - 1.  The peak allocation is about 1.5 times the bytes returned
    (12 MB at q = 1024).  The order is checked first, and the tables are
    built once per field.
    """
    q, p, e = field.q, field.p, field.e
    _check_table_order(q)

    digit = np.arange(p, dtype=np.int32)
    add_p, neg_p = (digit[:, None] + digit) % p, -digit % p
    add, neg = np.zeros((1, 1), dtype=np.int32), np.zeros(1, dtype=np.int32)
    for _ in range(e):  # prepend one top digit per pass
        s = neg.size
        add = (add_p[:, None, :, None] * s + add[None, :, None, :]).reshape(s * p, s * p)
        neg = (neg_p[:, None] * s + neg).reshape(s * p)

    cofactors = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
    gen = next(g for g in map(field.element, range(1, q))
               if all(field.pow_(g, c) != field.one for c in cofactors))
    log = np.full(q, -1, dtype=np.int64)
    antilog = np.empty(q - 1, dtype=np.int64)
    g = field.one
    for t in range(q - 1):
        gi = field.index(g)
        antilog[t] = gi
        log[gi] = t
        g = field.mul(g, gen)

    lg = log.astype(np.int32)
    lg[0] = 2 * (q - 1)  # past every sum of two logs: products with zero read the zero tail
    ext = np.concatenate([antilog, antilog, np.zeros(2 * q - 1, np.int64)]).astype(np.int32)
    mul = ext[lg[:, None] + lg]
    inv = np.zeros(q, dtype=np.int32)
    inv[1:] = antilog[-log[1:] % (q - 1)]

    tables = {
        "add": add,
        "mul": mul,
        "neg": neg,
        "inv": inv,
        "log": log,  # -1 at zero
        "antilog": antilog,
    }
    for arr in tables.values():
        arr.setflags(write=False)  # shared across callers
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

    start holds `width` element indices and each step is a (digits, width)
    table, with q digits past the first level.  The first levels are built
    one level at a time, W_k = add[W_(k-1), step_k[d]], into an inner table
    that fits one block; the remaining levels come from this function again,
    started at zero, and each block of theirs is joined to the inner table by
    one flat gather on the add table.
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
    """Exact zero-count tally of fixed + sum(c_i * basis_i) over all coefficients.

    Rows hold element indices of function values across the enumeration
    order.  basis_rows[0] must be the constant-one function; its coefficient
    is the analytically swept one.  Returns tally[j] = number of coefficient
    vectors whose function has exactly j zeros, for j = 0..q.

    A span through zero (fixed_row all zeros) is homogeneous: mu * f has the
    zeros of f for mu != 0, and scaling the constant with the rest leaves the
    constant sweep's tally unchanged.  So one representative per scalar class
    of the non-constant coefficients is enumerated, the one whose last
    nonzero coefficient is 1, and its tally is weighted by q - 1.  The budget
    counts the coefficient vectors actually swept.
    """
    q = field.q
    m = len(basis_rows)
    if m < 1:
        raise ValueError("need at least the constant basis function")
    if list(basis_rows[0]) != [field.index(field.one)] * q:
        raise ValueError("basis_rows[0] must be the constant-one function")
    if len(fixed_row) != q or any(len(r) != q for r in basis_rows):
        raise ValueError("rows must have one value per field element")
    homogeneous = not any(fixed_row)  # index 0 is the zero element
    orbits = [(1, q - 1, i) if homogeneous else (q - 1, 1, i) for i in range(m - 1)]
    budget.check(_swept_vectors(q, orbits, homogeneous), "coefficient-space enumeration")
    return _orbit_distribution(field, fixed_row, basis_rows, orbits, homogeneous).tolist()


def _swept_vectors(q: int, orbits: Sequence[tuple[int, int, int]], homogeneous: bool) -> int:
    """The vectors _orbit_distribution sweeps, counted before any table."""
    return q * (sum(reps * q ** free for reps, _, free in orbits) + (not homogeneous))


def _orbit_distribution(
    field: FieldSpec,
    fixed_row: Sequence[int],
    basis_rows: Sequence[Sequence[int]],
    orbits: Sequence[tuple[int, int, int]],
    homogeneous: bool,
) -> np.ndarray:
    """span_root_distribution's tally, an int64 array, one part per last
    nonzero coefficient.

    Part i holds the coefficient vectors whose last nonzero non-constant
    coefficient is c_(i+1).  With orbits[i] = (reps, weight, free), c_(i+1)
    runs over the first `reps` powers of the primitive element, c_1 ... c_free
    and the constant run free, c_(free+1) ... c_i are zero, and the part's
    tally is multiplied by `weight`.  This is exact when symmetries that keep
    zero counts map the swept vectors one to one onto `weight` disjoint
    copies that cover the part: cosets of the representatives, and, when
    free = i - 1, the q values of c_i.  The vectors with no nonzero
    non-constant coefficient are the fixed row plus a constant; a zero fixed
    row (homogeneous) gives one function with q zeros and q - 1 with none.
    Otherwise they and the parts below the first weight above one, which are
    (q - 1, 1, i), are one literal sweep of the lowest coefficients.
    """
    q = field.q
    t = field_tables(field)
    add_t, mul_t, antilog = t["add"], t["mul"], t["antilog"]
    steps = [mul_t[:, np.asarray(row, dtype=np.intp)] for row in basis_rows[1:]]
    start = np.asarray(fixed_row, dtype=np.int32)
    if homogeneous:
        literal = 0
        tally = np.zeros(q + 1, dtype=np.int64)
        tally[q], tally[0] = 1, q - 1
    else:
        literal = next((i for i, (_, weight, _) in enumerate(orbits) if weight > 1), len(orbits))
        tally = _constant_sweep_tally(add_t, start, steps[:literal])
    for i in range(literal, len(orbits)):
        reps, weight, free = orbits[i]
        # the representatives are the first level, the free coefficients below
        part = _constant_sweep_tally(add_t, start, [steps[i][antilog[:reps]], *steps[:free]])
        tally += weight * part
    return tally


def _constant_sweep_tally(
    add_t: np.ndarray, start: np.ndarray, steps: Sequence[np.ndarray]
) -> np.ndarray:
    """Zero-count tally of start + sum_i steps[i][d_i] + c over every digit
    tuple and every constant c."""
    q = add_t.shape[0]
    tally = np.zeros(q + 1, dtype=np.int64)
    for w in _level_sums(add_t, start, steps):
        # The constant c gives w + c, with as many zeros as w has entries -c;
        # as c runs over the field, so does -c, so the zero counts of one
        # prefix are its value multiplicities.
        flat = w + np.arange(w.shape[0], dtype=np.intp)[:, None] * q
        tally += np.bincount(np.bincount(flat.ravel(), minlength=w.size), minlength=q + 1)
    return tally


# ---------------------------------------------------------------------------
# Distinct-root counting for polynomial families.
# ---------------------------------------------------------------------------

def _u_eval_row(field: FieldSpec, u_high: Sequence[FieldElement], n: int, ell: int) -> np.ndarray:
    """Values of the fixed part x^n + sum(u_d x^d), d = n-1 down to ell+1."""
    t = field_tables(field)
    acc = power_row(field, n)
    for coeff, d in zip(u_high, range(n - 1, ell, -1)):
        acc = t["add"][acc, t["mul"][coeff.index, power_row(field, d)]]
    return acc


def _translated(
    field: FieldSpec, u_high: Sequence[FieldElement], n: int, ell: int
) -> list[FieldElement]:
    """The fixed coefficients of f(x + c), c = -u_(n-1)/n, for n prime to p:
    u'_j = sum over d >= j of C(d, j) c^(d-j) u_d (u_n = 1), so that
    u'_(n-1) = u_(n-1) + n c = 0.  The terms of degree <= ell join the tail."""
    p = field.p
    c = field.mul(field.neg(u_high[0]), field.from_int(pow(n, -1, p)))
    coeffs = (field.one, *u_high)  # u_d at coeffs[n - d]
    powers = [field.one]
    for _ in range(n - ell - 1):
        powers.append(field.mul(powers[-1], c))
    out = [field.zero]  # u'_(n-1), zero by the choice of c
    for j in range(n - 2, ell, -1):
        acc = field.zero
        for d in range(j, n + 1):
            term = field.mul(powers[d - j], coeffs[n - d])
            acc = field.add(acc, field.mul(field.from_int(comb(d, j)), term))
        out.append(acc)
    return out


def _translation_pins_top_tail(
    field: FieldSpec, u_high: Sequence[FieldElement], n: int, ell: int
) -> bool:
    """Whether f -> f(x + c) keeps the fixed part and moves c_ell through the
    whole field, so that c_ell = 0 meets every orbit once.

    The x^j coefficient of f(x + c) is sum over d >= j of C(d, j) c^(d-j) a_d.
    For a fixed degree j in (ell, n) every a_d with d > j is a fixed u_d
    (u_n = 1), so the fixed part is kept for every c exactly when
    C(d, j) u_d = 0 for all d > j.  The x^ell coefficient becomes
    c_ell + (ell + 1) u_(ell+1) c + sum over d > ell + 1 of C(d, ell) c^(d-ell) u_d;
    with C(d, ell) u_d = 0 for d > ell + 1 that is c_ell + (ell + 1) u_(ell+1) c,
    which runs over F_q with c when (ell + 1) u_(ell+1) != 0.  The lower
    coefficients move one to one, since f(x - c) undoes the map, and the
    roots move by -c.  So the tails with c_ell = a map one to one onto those
    with c_ell = a' for every a, a', and the tally is q times that of the
    family with c_ell = 0.  Gap 1 with p not dividing n passes (C(n, n-1) =
    n); so does gap 2 at b != 0 with p | n when C(n, 2) = 0 mod p, at odd p
    or at n = 0 mod 4 in characteristic 2.  It needs ell >= 1, so that a
    tail is left.
    """
    p = field.p
    nonzero = [d for d, u in zip(range(n, ell, -1), (field.one, *u_high)) if not u.is_zero()]
    if ell < 1 or (ell + 1) % p == 0 or ell + 1 not in nonzero:
        return False
    # every C(d, j) u_d with ell <= j < d must vanish, but C(ell + 1, ell)
    return all(comb(d, j) % p == 0 for d in nonzero if d > ell + 1 for j in range(ell, d))


def _stabiliser_order(field: FieldSpec, u_high: Sequence[FieldElement], n: int, ell: int) -> int:
    """gcd(q - 1, n - d over every nonzero u_d, u_n = 1), or 0 when the fixed
    part is absorbed: when x^n + sum(u_d x^d) is, as a function on F_q, one
    of degree <= ell, which the tails already span."""
    q = field.q
    s, folded = q - 1, {}
    for coeff, d in zip((field.one, *u_high), range(n, ell, -1)):
        if not coeff.is_zero():
            s = gcd(s, n - d)
            exponent = (d - 1) % (q - 1) + 1  # x^d is x^exponent on F_q, d >= 1
            folded[exponent] = field.add(folded.get(exponent, field.zero), coeff)
    absorbed = all(c.is_zero() for exponent, c in folded.items() if exponent > ell)
    return 0 if absorbed else s


def _nk_orbits(field: FieldSpec, n: int, ell: int, s: int) -> list[tuple[int, int, int]]:
    """The `_orbit_distribution` parts of a canonical family with stabiliser
    order s, or of the absorbed span of x^0 ... x^ell when s = 0.

    With the fixed part kept, the part whose top coefficient is c_j has
    (q - 1) / o_j coset representatives of weight o_j = s / gcd(s, n - j),
    and every lower coefficient free.  An absorbed span's part of top degree
    d has one representative, c_d = 1, of weight q - 1.  Its functions
    g = x^d + c_(d-1) x^(d-1) + ... keep that part under g -> g(x + c), which
    turns c_(d-1) into c_(d-1) + d c and is one to one on the lower
    coefficients.  So when p does not divide d the part is q copies of its
    vectors with c_(d-1) = 0, swept with weight q (q - 1).  At d = 1 that
    coefficient is the constant, which the sweep already takes at once.
    """
    q = field.q
    if s:
        return [((q - 1) // o, o, j - 1) for j in range(1, ell + 1) for o in [s // gcd(s, n - j)]]
    return [(1, q * (q - 1), d - 2) if d >= 2 and d % field.p else (1, q - 1, d - 1)
            for d in range(1, ell + 1)]


@lru_cache(maxsize=_TALLY_CACHE_SIZE)
def _canonical_tally(p: int, e: int, ell: int, n: int = 0, *fixed: int) -> np.ndarray:
    """The tally of one canonical family, on plain ints: the absorbed span of
    degree <= ell when n = 0, otherwise x^n plus the fixed coefficients with
    indices `fixed` for degrees n-1 down to ell+1.  It is kept as the sweep's
    read-only int64 array, q + 1 counts in one object.  It takes no budget:
    its callers check theirs first."""
    field = make_field(p, e)
    u_high = [field.element(i) for i in fixed]
    s = _stabiliser_order(field, u_high, n, ell) if n else 0
    fixed_row = _u_eval_row(field, u_high, n, ell) if s else np.zeros(field.q, np.int32)
    basis = [power_row(field, i) for i in range(ell + 1)]
    tally = _orbit_distribution(field, fixed_row, basis, _nk_orbits(field, n, ell, s), not s)
    tally.setflags(write=False)  # shared across callers
    return tally


def brute_nk_distribution(
    field: FieldSpec,
    u_high: Sequence[FieldElement],
    n: int,
    ell: int,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> list[int]:
    """Root-count tally over all q^(ell+1) degree-<=ell tails of the fixed part.

    u_high lists the fixed coefficients for degrees n-1 down to ell+1 (so it
    is empty for gap 1).  Works for any gap, unlike the closed forms.  The
    field must be the canonical one of make_field.

    The family is first made canonical, by maps that keep the tally:
    - Translation of the top tail coefficient.  When f -> f(x + c) keeps the
      fixed part and sends c_ell to c_ell + (ell + 1) u_(ell+1) c with
      (ell + 1) u_(ell+1) != 0, the tally is q times that of the family with
      c_ell fixed to 0, one more fixed coefficient
      (`_translation_pins_top_tail` derives the conditions).  This takes gap
      1 with p not dividing n to the gap-2 family at b = 0.
    - Translation of the fixed part.  When p does not divide n and
      u_(n-1) != 0, the fixed part becomes that of f(x + c) with
      u'_(n-1) = 0 (`_translated`): the roots move by -c, and the tails map
      one to one onto tails.
    - Absorption.  x^d is the function x^((d-1) mod (q-1) + 1) on F_q for
      d >= 1.  When every nonzero folded coefficient sits at an exponent
      <= ell, the fixed part is a function the tails already span, so the
      tally is that of the tails alone: a homogeneous span, swept one vector
      per scalar class with weight q - 1, as in `span_root_distribution`,
      and, in the parts whose top degree d >= 2 is prime to p, with
      c_(d-1) = 0 and weight q (q - 1) (`_nk_orbits`).  A fixed part that
      vanishes as a function is the case with no nonzero folded coefficient.

    Otherwise lambda^(-n) * f(lambda x) has the distinct-root count of f and
    turns each coefficient c_d into c_d * lambda^(d-n).  It keeps the fixed
    part when lambda lies in the subgroup of order s = gcd(q - 1, n - d over
    every nonzero u_d).  On the tails whose top nonzero coefficient is c_j
    that subgroup moves c_j through a coset of order o_j = s / gcd(s, n - j),
    one to one on the lower coefficients, so c_j runs over (q - 1) / o_j
    coset representatives and the tally is weighted by o_j.  After
    translation u_(n-1) = 0, so gap 2 has s = q - 1 at every b not moved by
    the first map.  The budget counts the tails swept and is checked before
    any table is built, and before the tally of each canonical family is
    read from a bounded cache, so a family swept once is not swept again.
    """
    if not 0 <= ell < n:
        raise ValueError(f"need 0 <= ell < n, got ell={ell}, n={n}")
    if len(u_high) != n - 1 - ell:
        raise ValueError(f"expected {n - 1 - ell} fixed coefficients, got {len(u_high)}")
    for coeff in u_high:
        field._check(coeff)
    p, e, q = field.p, field.e, field.q
    if field != make_field(p, e):
        raise ValueError("the root oracle reads fields built by make_field")
    weight = 1
    if _translation_pins_top_tail(field, u_high, n, ell):
        u_high, ell, weight = [*u_high, field.zero], ell - 1, q
    if u_high and n % p and not u_high[0].is_zero():
        u_high = _translated(field, u_high, n, ell)
    s = _stabiliser_order(field, u_high, n, ell)
    budget.check(_swept_vectors(q, _nk_orbits(field, n, ell, s), not s),
                 "coefficient-space enumeration")
    key = (n, *(coeff.index for coeff in u_high)) if s else ()
    return [weight * x for x in _canonical_tally(p, e, ell, *key).tolist()]


# ---------------------------------------------------------------------------
# Subset tallies: a dynamic program over accumulator states, modulo primes.
# ---------------------------------------------------------------------------

# The 17 largest primes below 2^61.  Their product passes every binomial
# C(q, k) with q <= TABLE_ORDER_LIMIT, and two residues sum below 2^62.
_MODULI = tuple((1 << 61) - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819, 829))


def _moduli_past(largest: int) -> tuple[int, ...]:
    """The fewest of _MODULI whose product exceeds `largest`."""
    moduli, product = [], 1
    while product <= largest:
        moduli.append(_MODULI[len(moduli)])
        product *= moduli[-1]
    return tuple(moduli)


def _dp_plan(q: int, t_max: int, n_states: int) -> tuple[tuple[int, ...], int]:
    """The moduli a table of subset sizes 0..t_max <= q needs, and its DP state
    updates: adjoining element a touches sizes 1..min(t_max, a + 1)."""
    moduli = _moduli_past(comb(q, min(t_max, q // 2)))  # no count in the table exceeds it
    return moduli, len(moduli) * (t_max * (t_max + 1) // 2 + (q - t_max) * t_max) * n_states


def _adjoined(field: FieldSpec, predicate: str, a, s1, s2):
    """The state of S + {a} for a subset S with accumulators (s1, s2), broadcast
    elementwise: s1 + a, and s2 + a * s1 ("elementary") or s2 + a^2."""
    t = field_tables(field)
    add_t, mul_t = t["add"], t["mul"]
    if predicate == "sum-only":
        return add_t[s1, a]
    x = s1 if predicate == "elementary" else a
    return add_t[s1, a].astype(np.intp) * field.q + add_t[s2, mul_t[a, x]]


@lru_cache(maxsize=8)
def _subset_dp(
    field: FieldSpec, predicate: str, t_max: int, moduli: tuple[int, ...]
) -> np.ndarray:
    """The (moduli, t_max + 1, states) table of subset counts, modulo each
    modulus, by size and accumulator state, over every subset of the field.

    Elements are adjoined one at a time.  Adjoining a sends a size-j subset in
    state s to size j + 1 in state `_adjoined`(s), a permutation of the
    states, for every size and modulus at once; the old values are read
    through the inverse map, so each step is one gather-add.
    """
    q = field.q
    # a state is s1 alone, or s1 * q + s2 flattened from an s1 column and an s2 row
    s1, s2 = (np.arange(q), None) if predicate == "sum-only" else np.ogrid[:q, :q]
    mods = np.array(moduli, dtype=np.int64)[:, None, None]
    dp = np.zeros((len(moduli), t_max + 1, q if s2 is None else q * q), dtype=np.int64)
    dp[:, 0, 0] = 1  # the empty subset, in the zero state
    for a in range(q):
        src = np.argsort(_adjoined(field, predicate, a, s1, s2), axis=None)
        k = min(t_max, a + 1)  # a subset of elements 0..a has at most a + 1 of them
        grown = dp[:, 1:k + 1]
        grown += dp[:, :k, src]
        np.subtract(grown, mods, out=grown, where=grown >= mods)
    dp.setflags(write=False)  # shared across callers
    return dp


def _crt(residues: np.ndarray, moduli: Sequence[int]) -> list[int]:
    """Per cell of a (moduli, cells) residue array, the least x >= 0 with
    x = residues[i] mod moduli[i], in Garner's form."""
    counts, product = [0] * residues.shape[1], 1
    for row, modulus in zip(residues.tolist(), moduli):
        inverse = pow(product, -1, modulus)
        counts = [x + product * ((r - x) * inverse % modulus) for x, r in zip(counts, row)]
        product *= modulus
    return counts


def _subset_tables(
    field: FieldSpec, t_size: int, predicate: str, budget: EnumerationBudget
) -> tuple[tuple[int, ...], np.ndarray]:
    """The moduli and the `_subset_dp` table that size t_size is read from:
    one table of every size 0..q when the budget allows it, of sizes 0..t
    otherwise.  The budget is checked before any table is built."""
    q = field.q
    _check_table_order(q)  # _MODULI covers every table up to this order
    for t_max in (q, t_size):  # every size when the budget allows it
        moduli, updates = _dp_plan(q, t_max, q if predicate == "sum-only" else q * q)
        if updates <= budget.max_items:
            break
    budget.check(updates, f"subset DP ({predicate})", "DP state updates")
    return moduli, _subset_dp(field, predicate, t_max, moduli)


def subset_pair_tally(
    field: FieldSpec,
    t_size: int,
    predicate: str = "power-sums",
    budget: EnumerationBudget = DEFAULT_BUDGET,
    states: Sequence[int] | None = None,
) -> list:
    """Exact counts of size-t subsets by accumulator state.

    Under the two pair predicates a state packs the subset's sum s1 and its
    second accumulator s2 as s1 * q + s2.  The second accumulator is the sum of
    squares under "power-sums" and the sum of pairwise products under
    "elementary".  Under "sum-only" the state is s1 alone.

    Returns the counts at `states`, in order.  By default it returns every
    count: the q x q joint table (rows by s1) for a pair predicate, the q sum
    counts for "sum-only".  Only the returned counts are rebuilt from their
    residues.  One table of every size 0..q serves all sizes when the budget
    allows it, and a table of sizes 0..t otherwise.
    """
    q = field.q
    if predicate not in SUBSET_PREDICATES:
        raise ValueError(f"predicate must be one of {SUBSET_PREDICATES}, got {predicate!r}")
    if not 0 <= t_size <= q:
        raise ValueError(f"subset size must lie in [0, {q}], got {t_size}")
    moduli, table = _subset_tables(field, t_size, predicate, budget)
    cells = np.arange(table.shape[2]) if states is None else np.asarray(states, dtype=np.intp)
    counts = _crt(table[:, t_size, cells], moduli)
    if states is None and predicate != "sum-only":
        return [counts[i * q: (i + 1) * q] for i in range(q)]
    return counts


def brute_subsets_mss2(
    field: FieldSpec,
    t_size: int,
    m1: FieldElement | None = None,
    m2: FieldElement | None = None,
    mode: str = "power-sums",
    predicate: str = "power-sums",
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Exact two-moment subset counts, in two modes.

    power-sums      size-t subsets with (sum, second accumulator) = (m1, m2).
    first-distinct  size-(t-1) subsets S completed by x_t = m1 - sum(S); counts
                    those whose completed tuple has second accumulator m2 (the
                    completion may coincide with a member of S).

    The `predicate` switch selects the power-sum or elementary-symmetric
    reading of the second accumulator; the two must tally identically away
    from characteristic 2.  Both modes read the subset DP of
    `subset_pair_tally`.  The first-distinct target states are the states of
    S that the DP's own adjoin rule, `_adjoined`, sends to (m1, m2) on
    adjoining the completion m1 - s1, read from the one table planned and
    budgeted for size t - 1.
    """
    q = field.q
    m1 = m1 if m1 is not None else field.zero
    m2 = m2 if m2 is not None else field.zero
    field._check(m1), field._check(m2)
    if mode not in MSS2_MODES:
        raise ValueError(f"mode must be one of {MSS2_MODES}, got {mode!r}")
    if predicate not in MSS2_PREDICATES:
        raise ValueError(f"predicate must be one of {MSS2_PREDICATES}, got {predicate!r}")

    if mode == "power-sums":
        return subset_pair_tally(field, t_size, predicate, budget, [m1.index * q + m2.index])[0]
    if not 1 <= t_size <= q + 1:
        raise ValueError(f"tuple size must lie in [1, {q + 1}], got {t_size}")
    moduli, table = _subset_tables(field, t_size - 1, predicate, budget)
    t = field_tables(field)
    s1, s2 = np.ogrid[:q, :q]  # the states s1 * q + s2, as in `_subset_dp`
    last = t["add"][m1.index, t["neg"][s1]]  # the completion m1 - s1
    states = np.flatnonzero(_adjoined(field, predicate, last, s1, s2) == m1.index * q + m2.index)
    return sum(_crt(table[:, t_size - 1, states], moduli))


# ---------------------------------------------------------------------------
# Quadratic/linear systems: a dynamic program over (quadratic, linear) sums.
# ---------------------------------------------------------------------------

def quadlin_counts(
    field: FieldSpec,
    instances: Sequence[tuple[Sequence[FieldElement], FieldElement,
                              Sequence[FieldElement], FieldElement]],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> list[int]:
    """Solution counts in F_q^n of sum(a_i x_i^2) = a0 and sum(b_i x_i) = b0,
    one per instance (a, a0, bvec, b0); every vector has the same length n.

    A dynamic program over the states (Q, L) = (sum a_i x_i^2, sum b_i x_i)
    of the coordinates so far, on one (moduli, instances, q, q) table with a
    q x q slice of states per instance: coordinate i sends (Q, L) to
    (Q + a_i x^2, L + b_i x) for each x, so the new table is a sum of q
    shifted gathers of the old one, each instance read through its own shift
    tables.  The counts sum to q^n, so below 2^61 they stay under one modulus
    and are exact, and the values of x are gathered in blocks of at most
    max(_BLOCK_ENTRIES, instances x q^2) entries.  Past it the table is kept
    modulo the fewest primes of _MODULI whose product exceeds q^n, one x is
    added at a time so that no sum of residues overflows, and the one count
    read per instance is rebuilt from its residues.  The budget counts one
    instance's DP state updates, moduli x n x q^3, and is checked before any
    table is built.
    """
    q = field.q
    lengths = {len(v) for a, _, bvec, _ in instances for v in (a, bvec)}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("coefficient vectors must be nonempty and equal-length")
    [n] = lengths
    for a, a0, bvec, b0 in instances:
        for x in (*a, *bvec, a0, b0):
            field._check(x)
    moduli = _moduli_past(q ** n)
    budget.check(len(moduli) * n * q ** 3, "quadratic/linear DP", "DP state updates")
    t = field_tables(field)
    add_t, mul_t, neg_t = t["add"], t["mul"], t["neg"]
    squares = mul_t[np.arange(q), np.arange(q)]
    a_idx = np.array([[x.index for x in a] for a, _, _, _ in instances])
    b_idx = np.array([[x.index for x in bvec] for _, _, bvec, _ in instances])
    batch = len(instances)
    slots = np.arange(batch)
    mods = np.array(moduli, dtype=np.int64)[:, None, None, None]
    # values of x gathered at once: a block while the counts stay exact, one
    # at a time when residues are summed
    per = max(1, _BLOCK_ENTRIES // (batch * q * q)) if len(moduli) == 1 else 1
    dp = np.zeros((len(moduli), batch, q, q), dtype=np.int64)
    dp[:, :, 0, 0] = 1  # the empty tuple, in the zero state
    for i in range(n):
        # Row x of quad maps Q to Q - a_i x^2, and row x of lin maps L to
        # L - b_i x: the state each (Q, L) is read from, per instance.
        quad = add_t[neg_t[mul_t[a_idx[:, i]][:, squares]]]
        lin = add_t[neg_t[mul_t[b_idx[:, i]]]]
        grown = np.zeros_like(dp)
        for s in range(0, q, per):
            block = dp[:, slots[:, None, None, None], quad[:, s:s + per, :, None],
                       lin[:, s:s + per, None, :]]
            grown += block.sum(axis=2)
            np.subtract(grown, mods, out=grown, where=grown >= mods)
        dp = grown
    residues = dp[:, slots, [a0.index for _, a0, _, _ in instances],
                  [b0.index for _, _, _, b0 in instances]]
    return _crt(residues, moduli)

