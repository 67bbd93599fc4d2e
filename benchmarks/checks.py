"""Output checks that rely on nothing in fqcount.

Identities are recomputed from their definitions, and the literal counts
enumerate polynomials, subsets and tuples over a prime field with plain
mod-p arithmetic.  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from collections import defaultdict
from math import comb


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# ---------------------------------------------------------------------------
# Literal enumeration over F_p.
# ---------------------------------------------------------------------------

def distinct_root_tally(p: int, n: int, fixed: tuple[int, ...]) -> list[int]:
    """Tally over monic degree-n polynomials over F_p by distinct roots.

    ``fixed`` holds the coefficients of x^(n-1), x^(n-2), ... that are
    prescribed; every lower coefficient runs over F_p.
    """
    free = n - len(fixed)
    tally = [0] * (p + 1)
    for tail in itertools.product(range(p), repeat=free):
        coeffs = (1,) + fixed + tail  # leading coefficient first
        roots = 0
        for x in range(p):
            y = 0
            for c in coeffs:
                y = (y * x + c) % p
            roots += y == 0
        tally[roots] += 1
    return tally


def subset_sum_tally(p: int, n: int) -> list[int]:
    """Number of n-subsets of F_p by their sum."""
    tally = [0] * p
    for subset in itertools.combinations(range(p), n):
        tally[sum(subset) % p] += 1
    return tally


def quadlin_literal(p: int, a, a0: int, bvec, b0: int) -> int:
    """Tuples x in F_p^n with sum(a_i x_i^2) = a0 and sum(b_i x_i) = b0."""
    count = 0
    for x in itertools.product(range(p), repeat=len(a)):
        if (sum(ai * xi * xi for ai, xi in zip(a, x)) - a0) % p == 0 and \
                (sum(bi * xi for bi, xi in zip(bvec, x)) - b0) % p == 0:
            count += 1
    return count


def quadlin_case(p: int, a, a0: int, bvec, b0: int) -> int:
    """Invariant case 1-4 of an instance: b = sum(b_i^2 / a_i), c = b0^2 - a0*b."""
    b_inv = sum(bi * bi * pow(ai, p - 2, p) for ai, bi in zip(a, bvec)) % p
    c_inv = (b0 * b0 - a0 * b_inv) % p
    if b_inv:
        return 1 if c_inv == 0 else 2
    return 3 if c_inv == 0 else 4


def sweep_quadlin_instances(p: int, n: int, count: int, seed: int):
    """The verify sweep's seeded quadlin instances on a prime field.

    The sweep draws them from ``random.Random(f"{seed}:{q}:{n}")``; on a
    prime field the element with index i is the residue i, so the same draws
    give the same instances.
    """
    rng = random.Random(f"{seed}:{p}:{n}")
    out = []
    needed = {1, 2} if n == 1 else {1, 2, 3, 4}
    while True:
        have = {inst[-1] for inst in out}
        if len(out) >= count and needed <= have:
            return out
        a = [rng.randrange(1, p) for _ in range(n)]
        bvec = [rng.randrange(p) for _ in range(n)]
        if not any(bvec):
            continue
        a0 = rng.randrange(p)
        b0 = rng.randrange(p)
        case = quadlin_case(p, a, a0, bvec, b0)
        if len(out) < count or case not in have:
            out.append((a, a0, bvec, b0, case))


# ---------------------------------------------------------------------------
# verify: the sweep's CSV rows.
# ---------------------------------------------------------------------------

LITERAL_SAMPLES = 3   # cells of each kind enumerated per check
LITERAL_LIMIT = 4096  # largest enumeration a sampled cell may need


def check_verify_csv(text: str, seed: int, sweep_seed: int, quadlin_count: int,
                     literal: bool) -> tuple[int, list[str]]:
    """Rows in the sweep's CSV and the problems found in them.

    Every row must read ``yes``; the sum rows are recomputed from their
    definitions, and with ``literal`` a seeded sample of small prime-field
    cells is recounted by enumeration.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    rows = [dict(zip(header, r)) for r in reader if header and len(r) == len(header)]
    problems = [f"row not matched: {r}" for r in rows if r["match"] != "yes"][:5]
    if not rows:
        return 0, ["no rows"]

    groups = defaultdict(list)
    for r in rows:
        groups[(r["suite"], r["q"], r["n"], r["ell"], r["b"])].append(r)

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for (suite, q, n, ell, b), grp in groups.items():
        if suite not in ("gap1", "gap2", "gap3") or not ell.isdigit():
            continue
        q, n = int(q), int(n)
        per_k = [r for r in grp if r["k"].isdigit()]
        total = table_total(int(suite[-1]), q, n)
        expect(sum(int(r["formula_value"]) for r in per_k) == total,
               f"{suite} q={q} n={n} b={b}: sum over k is not {total}")
        expect(sum(int(r["oracle_value"]) for r in per_k) == total,
               f"{suite} q={q} n={n} b={b}: oracle sum over k is not {total}")
        for r in grp:
            if r["k"] == "sum":
                expect(int(r["oracle_value"]) == total, f"{suite} q={q} n={n}: sum row")

    subset_cells = defaultdict(list)
    for r in rows:
        if r["suite"] == "subset" and r["b"] != "sum":
            subset_cells[(int(r["q"]), int(r["n"]))].append(r)
    for (q, n), cell in subset_cells.items():
        expect(sum(int(r["oracle_value"]) for r in cell) == comb(q, n),
               f"subset q={q} n={n}: sum over b is not C(q, n)")
    for r in rows:
        if r["suite"] == "subset" and r["b"] == "sum":
            expect(int(r["oracle_value"]) == comb(int(r["q"]), int(r["n"])),
                   f"subset q={r['q']} n={r['n']}: sum row")
        if r["suite"] == "quadlin" and r["k"] == "sum-over-a0":
            expect(int(r["oracle_value"]) == int(r["q"]) ** (int(r["n"]) - 1),
                   f"quadlin q={r['q']} n={r['n']}: sum over a0")

    wenger = defaultdict(list)
    for r in rows:
        if r["suite"] == "wenger" and r["k"].isdigit():
            wenger[(int(r["q"]), int(r["n"]), r["ell"])].append(r)
    for (q, m, variant), levels in wenger.items():
        mults = [(int(r["k"]), int(r["oracle_value"])) for r in levels]
        expect(sum(mult for _, mult in mults) == q ** (m + 1),
               f"wenger q={q} m={m} variant={variant}: multiplicities")
        expect(sum(i * mult for i, mult in mults) == q ** (m + 1),
               f"wenger q={q} m={m} variant={variant}: root incidences")

    if literal:
        problems += _literal_sample(rows, seed, sweep_seed, quadlin_count)
    return len(rows), problems


def _literal_sample(rows, seed, sweep_seed, quadlin_count) -> list[str]:
    rng = random.Random(f"verify-literal:{seed}")
    cells = defaultdict(lambda: defaultdict(list))
    for r in rows:
        suite, q, n = r["suite"], r["q"], r["n"]
        if suite not in ("gap1", "gap2", "subset", "quadlin") or not n.isdigit():
            continue
        q, n = int(q), int(n)
        if not is_prime(q):
            continue
        if suite in ("gap1", "gap2") and r["k"].isdigit() and r["ell"].isdigit():
            size = q ** (n - int(suite[-1]) + 1)
            if size <= LITERAL_LIMIT:
                cells[suite][(q, n, r["b"])].append(r)
        elif suite == "subset" and r["b"].isdigit():
            cells[suite][(q, n)].append(r)
        elif suite == "quadlin" and r["b"].isdigit() and q ** n <= LITERAL_LIMIT:
            cells[suite][(q, n, int(r["b"]))].append(r)

    problems = []
    for suite in ("gap1", "gap2", "subset", "quadlin"):
        keys = sorted(cells[suite])
        if not keys:
            problems.append(f"no prime-field {suite} rows to recount")
            continue
        for key in rng.sample(keys, min(LITERAL_SAMPLES, len(keys))):
            q, n = key[0], key[1]
            if suite == "gap1":
                tally = distinct_root_tally(q, n, ())
                got = {int(r["k"]): tally[int(r["k"])] if int(r["k"]) <= q else 0
                       for r in cells[suite][key]}
            elif suite == "gap2":
                b = int(key[2])
                tally = distinct_root_tally(q, n, ((-b) % q,))
                got = {int(r["k"]): tally[int(r["k"])] if int(r["k"]) <= q else 0
                       for r in cells[suite][key]}
            elif suite == "subset":
                tally = subset_sum_tally(q, n)
                got = {int(r["b"]): tally[int(r["b"])] for r in cells[suite][key]}
            else:
                a, a0, bvec, b0, case = sweep_quadlin_instances(
                    q, n, quadlin_count, sweep_seed)[key[2]]
                row = cells[suite][key][0]
                if str(case) != row["k"]:
                    problems.append(f"quadlin q={q} n={n} #{key[2]}: case {row['k']}, "
                                    f"recomputed {case}")
                got = {key[2]: quadlin_literal(q, a, a0, bvec, b0)}
            for r in cells[suite][key]:
                label = int(r["b"]) if suite in ("subset", "quadlin") else int(r["k"])
                if int(r["formula_value"]) != got[label] or int(r["oracle_value"]) != got[label]:
                    problems.append(f"{suite} {key} row {label}: literal count {got[label]}, "
                                    f"sweep {r['formula_value']}/{r['oracle_value']}")
    return problems


# ---------------------------------------------------------------------------
# closed-forms and spectra identities.
# ---------------------------------------------------------------------------

def table_total(gap: int, q: int, n: int) -> int:
    """Sum over k of N_k: every completion is counted once."""
    return q ** (n - gap + 1)


def spectrum_sums(q: int, m: int, levels) -> list[str]:
    """Multiplicities and level-weighted multiplicities both sum to q^(m+1)."""
    problems = []
    if sum(mult for _, mult in levels) != q ** (m + 1):
        problems.append(f"q={q} m={m}: multiplicities do not sum to q^(m+1)")
    if sum(i * mult for i, mult in levels) != q ** (m + 1):
        problems.append(f"q={q} m={m}: sum of i*mult is not q^(m+1)")
    return problems


def wenger_exponents(variant: int, m: int) -> tuple[int, ...]:
    """Exponent of p1 in the edge equation of point coordinates 2..m+1."""
    top = m + 1 if variant == 1 else m + 2
    return tuple(range(1, m)) + (top,)


def wenger_edge_holds(p: int, variant: int, m: int, point, line) -> bool:
    """l_k + p_k = p1^(e_k) * l1 (mod p) for k = 2..m+1."""
    p1, l1 = point[0], line[0]
    return all((line[k] + point[k] - pow(p1, e, p) * l1) % p == 0
               for k, e in enumerate(wenger_exponents(variant, m), start=1))
