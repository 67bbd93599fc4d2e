"""Command-line surface: counting subcommands, deterministic JSON/CSV
serialization, and the formula-vs-oracle verification sweeps.

Exit codes: 0 success, 1 usage/precondition error, 2 enumeration budget
exceeded, 3 verification mismatch or an internal fault (a failed exact
self-check, or a precondition error the command's own screening let pass).  All
counts are serialized as decimal strings so any JSON consumer survives values
past 2**53.  Output bytes are a pure function of the inputs and requested
format; grid cells run in grid order.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import signal
import sys
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from math import comb, factorial, perm
from typing import Callable, Sequence

from . import counting, ff, oracle, sieve, wenger

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

DEFAULT_SEED = 20250808
MIN_BUDGET = 10 ** 4
METHODS = ("formula", "oracle", "both")

CSV_COLUMNS = ("suite", "q", "n", "ell", "k", "b", "formula_value", "oracle_value", "match")

# Verification grids.  (p, e) pairs in ascending field order; per-field degree
# caps keep every cell inside the default enumeration budget and the stated
# runtime envelopes while still covering the reduced regimes n >= q wherever
# q is small enough for the oracle.
GAP1_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
GAP1_MAX_N = {2: 6, 3: 6, 4: 6, 5: 7, 7: 7, 8: 6, 9: 6}
GAP2_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (3, 2))
GAP2_MAX_N = {3: 6, 4: 6, 5: 6, 7: 8, 9: 6}
GAP3_FIELD = (3, 2)
GAP3_DEGREES = (3, 4, 5, 6, 9, 10)  # 9 and 10 exercise the reduced tables
GAP3_WIDE_MAX_N = {(5, 2): 7, (7, 2): 6}  # n = 5 at q = 25 has p | n
SUBSET_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (7, 2), (2, 6), (3, 4))
SUBSET_MAX_N = 12
MSS2_FIELDS = ((3, 2), (5, 2), (7, 2))  # every n <= q
QUADLIN_FIELDS = ((3, 1), (5, 1), (3, 2))
QUADLIN_MAX_N = 5
QUADLIN_INSTANCES = 200
SIEVE_FIELD = (3, 2)
SIEVE_MOMENT_MAX_N = 8
SIEVE_SUM_SPLIT_MAX_N = 10
SIEVE_MAX_N = 1024  # `fqcount sieve` degrees; the budget charges n(n+1)/2 steps per sum
WENGER_FAMILIES = (
    (1, 3, 1, 1), (1, 2, 2, 1), (1, 5, 1, 1), (1, 5, 1, 2), (1, 3, 2, 1),
    (2, 3, 2, 1), (2, 3, 2, 2), (2, 3, 2, 3),
)  # (variant, p, e, m)


class UsageError(Exception):
    """Bad flags or a violated operation precondition."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Run settings, from the --budget and --format flags."""

    budget: oracle.EnumerationBudget = oracle.DEFAULT_BUDGET
    output_format: str = "json"


def resolve_config(args: argparse.Namespace) -> RunConfig:
    budget = oracle.DEFAULT_MAX_ITEMS if args.budget is None else args.budget
    if budget < MIN_BUDGET:
        raise UsageError(f"budget must be >= {MIN_BUDGET}, got {budget}")
    return RunConfig(oracle.EnumerationBudget(budget), args.format or "json")


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def _emit(payload: dict, config: RunConfig, out) -> None:
    payload = _stringify(payload)
    if config.output_format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    elif config.output_format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for key in sorted(payload):
            writer.writerow([key, json.dumps(payload[key], sort_keys=True)])
    else:
        for key in sorted(payload):
            print(f"{key} = {json.dumps(payload[key], sort_keys=True)}", file=out)


# ---------------------------------------------------------------------------
# Verification sweeps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    """One formula/oracle comparison; columns match the CSV layout.

    For the wenger suite, n holds m, ell holds the variant and k the level;
    for quadlin, k holds the dispatch case and b the instance ordinal.
    """

    suite: str
    q: int
    n: int | str
    ell: int | str
    k: int | str
    b: int | str
    formula_value: int
    oracle_value: int
    match: bool
    repro: str = ""


@dataclass
class SuiteResult:
    name: str
    rows: list[CheckRow] = dataclass_field(default_factory=list)
    notes: dict = dataclass_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(row.match for row in self.rows)

    def mismatches(self) -> list[CheckRow]:
        return [row for row in self.rows if not row.match]


@dataclass(frozen=True)
class Suite:
    """One verification suite: its parts run in order, each a `(cells, check)`.

    A cell is `(p, e, n, *extra)`.  `check(config, fld, n, *extra)` returns
    the cell's rows as `(ell, k, b, formula, oracle[, repro])` tuples;
    `run_suite` adds the suite name, q, n and `formula == oracle`.  `finish`,
    if set, gets the result and every kept cell as `(fld, n, *extra)`.
    """

    parts: tuple
    notes: dict = dataclass_field(default_factory=dict)
    finish: Callable | None = None


def _fixed_high(fld, gap: int, b) -> list:
    """The fixed coefficients below x^n: none, -b, or two zeros for gaps 1-3."""
    if gap == 1:
        return []
    if gap == 2:
        return [fld.neg(b)]
    return [fld.zero, fld.zero]


def _gap_check(gap: int) -> Callable:
    """Every k of a gap-`gap` cell against the root oracle, the sum over k,
    and for gap 3 below q the k = n count against M(n, 0, 0)."""
    def check(config, fld, n, b_index=0):
        q, ell = fld.q, n - gap
        b = fld.element(b_index)
        dist = oracle.brute_nk_distribution(fld, _fixed_high(fld, gap, b), n, ell, config.budget)
        b_opt = f" --b {b_index}" if gap == 2 else ""

        def repro(k):
            return f"count --gap {gap} --p {fld.p} --e {fld.e} --n {n} --k {k}{b_opt} --method both"

        counts = [*counting.nk_table(fld, gap, n, b), *[0] * abs(n - q)]
        rows = [(ell, k, b_index, count, dist[k] if k <= q else 0, repro(k))
                for k, count in enumerate(counts)]
        rows.append((ell, "sum", b_index, sum(counts), q ** (ell + 1), repro(0)))
        if gap == 3 and n < q:
            rows.append((ell, "k=n vs M", b_index, counts[n],
                         counting.moment_subset_count(fld, n).value))
        return rows

    return check


def _gap2_sum_over_b(config, fld, n):
    """Summing the gap-2 family over b must reconstruct the gap-1 family."""
    by_b = [counting.nk_table(fld, 2, n, fld.element(bi)) for bi in range(fld.q)]
    pad = [0] * max(n - fld.q, 0)
    summed, gap1 = [*map(sum, zip(*by_b)), *pad], [*counting.nk_table(fld, 1, n), *pad]
    return [("sum-over-b", k, "*", summed[k], gap1[k]) for k in range(n + 1)]


def _subset_check(config, fld, n):
    dist = oracle.subset_pair_tally(fld, n, "sum-only", config.budget)
    rows = [("", "", bi, counting.subset_sum_count(fld, n, fld.element(bi)).value, dist[bi],
             f"subset-sum --p {fld.p} --e {fld.e} --n {n} --b {bi} --method both")
            for bi in range(fld.q)]
    rows.append(("", "", "sum", sum(dist), comb(fld.q, n)))
    return rows


def _mss2_m1(config, fld, n):
    return [("", "M1", 0, counting.moment_subset_count_m1(fld, n).value,
             oracle.brute_subsets_mss2(fld, n, mode="first-distinct", budget=config.budget),
             f"mss2 --p {fld.p} --e {fld.e} --t {n} --mode first-distinct --method both")]


def _mss2_check(config, fld, n):
    formula = counting.moment_subset_count(fld, n).value
    power = oracle.brute_subsets_mss2(fld, n, mode="power-sums", budget=config.budget)
    elem = oracle.brute_subsets_mss2(
        fld, n, mode="power-sums", predicate="elementary", budget=config.budget)
    rows = [("", "M", 0, formula, power,
             f"mss2 --p {fld.p} --e {fld.e} --t {n} --mode power-sums --method both"),
            ("", "M-elementary", 0, formula, elem)]
    return rows + (_mss2_m1(config, fld, n) if n >= 2 else [])


def quadlin_instances(fld, n: int, count: int, seed: int):
    """Deterministic admissible instances with their case and closed-form
    count; n >= 2 sweeps visit all four cases."""
    rng = random.Random(f"{seed}:{fld.q}:{n}")
    q = fld.q
    elements = list(fld.elements())
    out = []
    have_cases = set()
    attempts = 0
    needed_cases = {1, 2} if n == 1 else {1, 2, 3, 4}
    while len(out) < count or not needed_cases <= have_cases:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("quadlin instance generation failed to cover all cases")
        a = [elements[rng.randrange(1, q)] for _ in range(n)]
        bvec = [elements[rng.randrange(q)] for _ in range(n)]
        if all(x.is_zero() for x in bvec):
            continue
        a0 = elements[rng.randrange(q)]
        b0 = elements[rng.randrange(q)]
        case, closed_form = counting.quadlin_case_count(fld, a, a0, bvec, b0)
        if len(out) < count or case not in have_cases:
            out.append((a, a0, bvec, b0, case, closed_form.value))
            have_cases.add(case)
    return out


def _quadlin_check(config, fld, n):
    instances = quadlin_instances(fld, n, QUADLIN_INSTANCES, DEFAULT_SEED)
    counts = oracle.quadlin_counts(fld, [instance[:4] for instance in instances], config.budget)
    rows = []
    for ordinal, ((a, a0, bvec, b0, case, closed_form), count) in enumerate(
            zip(instances, counts)):
        a_s = ",".join(str(x.index) for x in a)
        b_s = ",".join(str(x.index) for x in bvec)
        rows.append(("", case, ordinal, closed_form, count,
                     f"quadlin --p {fld.p} --e {fld.e} --a {a_s} --a0 {a0.index} "
                     f"--b {b_s} --b0 {b0.index} --method both"))
    return rows


def _quadlin_sum_over_a0(config, fld, n):
    """Fixing everything but a0, the solutions of the linear equation split
    over the q values of a0, so the counts must resum to q^(n-1)."""
    q = fld.q
    rng = random.Random(f"{DEFAULT_SEED}:a0-sweep:{q}")
    for size in range(1, n + 1):  # one stream per field, drawn for n = 1, 2, ...
        a = [rng.randrange(1, q) for _ in range(size)]
        bvec = [rng.randrange(1, q) for _ in range(size)]
        b0 = rng.randrange(q)
    a, bvec, b0 = [fld.element(i) for i in a], [fld.element(i) for i in bvec], fld.element(b0)
    total = sum(counting.quad_lin_solution_count(fld, a, fld.element(a0i), bvec, b0).value
                for a0i in range(q))
    return [("", "sum-over-a0", "*", total, q ** (n - 1))]


def _sieve_compare(config, fld, n: int, system: str, b_index: int = 0):
    """(distinct tuples, subsets or None on a remainder, closed form) for one
    sieve system.  For `unconstrained` the closed form is the falling
    factorial, which counts the tuples themselves."""
    first = system == "two-moment-first"  # x_n may repeat a member
    if system == "unconstrained":
        counter, closed = sieve.unconstrained_counter(fld, config.budget), perm(fld.q, n)
    elif system == "sum":
        b = fld.element(b_index)
        counter = sieve.subset_sum_counter(fld, b, config.budget)
        closed = counting.subset_sum_count(fld, n, b).value
    else:
        counter = sieve.two_moment_counter(fld, config.budget)
        closed_form = counting.moment_subset_count_m1 if first else counting.moment_subset_count
        closed = closed_form(fld, n).value
    total = (sieve.sieve_first_n_minus_1 if first else sieve.sieve_distinct)(n, counter)
    # Tuples to subsets; a remainder is a sieve fault and must not floor away.
    subsets, rem = divmod(total, factorial(n - 1 if first else n))
    return total, subsets if rem == 0 else None, closed


def _sieve_row(config, fld, n: int, system: str, b_index: int = 0) -> tuple:
    total, subsets, closed = _sieve_compare(config, fld, n, system, b_index)
    got = total if system == "unconstrained" else subsets
    label = {"unconstrained": "falling-factorial", "sum": "sum-counter"}.get(system, system)
    b_opt = f" --b {b_index}" if system == "sum" else ""
    return ("", label, b_index, -1 if got is None else got, closed,
            f"sieve --p {fld.p} --e {fld.e} --n {n} --system {system}{b_opt}")


def _two_moment_check(config, fld, n):
    rows = [_sieve_row(config, fld, n, "two-moment")]
    return rows + ([_sieve_row(config, fld, n, "two-moment-first")] if n >= 2 else [])


def _signed_split_check(config, fld, n):
    closed = counting.s_plus_minus(fld, n)
    direct = sieve.s_plus_minus_type_sums(fld, n)
    return [("", "signed-split-plus", 0, closed[0], direct[0]),
            ("", "signed-split-minus", 0, closed[1], direct[1])]


def _wenger_check(config, fld, m, variant):
    family = wenger.WengerFamily(variant, fld, m)
    vertices = fld.q ** (m + 1)
    repro = f"wenger --variant {variant} --p {fld.p} --e {fld.e} --m {m} --method both"
    formula = wenger.spectrum_formula(family)
    brute = wenger.spectrum_oracle(family, budget=config.budget)
    levels = sorted(set(formula.levels()) | set(brute.levels()), reverse=True)
    rows = [(variant, level, "", formula.multiplicity(level), brute.multiplicity(level), repro)
            for level in levels]
    rows.append((variant, "sum", "", sum(mult for _, mult in brute.entries), vertices))
    rows.append((variant, "root-incidences", "",
                 sum(level * mult for level, mult in brute.entries), vertices))
    graph = wenger.build_graph(family, config.budget)
    passed = wenger.moment_check(graph, brute, len(brute.nonzero_levels()))
    rows.append((variant, "moments", "", int(passed), 1, repro))
    return rows


def _wenger_exponent_rule(config, result: SuiteResult, kept) -> None:
    """Exponent ambiguity for variant 1: exactly one of the two candidate
    completion families can match the oracle on every kept family."""
    families = [wenger.WengerFamily(1, fld, m) for fld, m, variant in kept if variant == 1]
    if not families:
        return
    default_ok = True
    alternative_ok = True
    for family in families:
        brute = wenger.spectrum_oracle(family, budget=config.budget)
        default_ok &= wenger.spectrum_formula(family).same_spectrum(brute)
        alternative_ok &= wenger.alternative_spectrum(family, config.budget).same_spectrum(brute)
    result.notes["variant1_low_exponent"] = {
        "default_rule_matches_all": default_ok,
        "alternative_rule_matches_all": alternative_ok,
        "resolved": default_ok and not alternative_ok,
    }
    result.rows.append(CheckRow(
        "wenger", 0, "*", 1, "exponent-rule", "", int(default_ok),
        int(not alternative_ok), default_ok and not alternative_ok))


_QUADLIN_CELLS = [(p, e, n) for p, e in QUADLIN_FIELDS for n in range(1, QUADLIN_MAX_N + 1)]

SUITES: dict[str, Suite] = {
    "gap1": Suite((
        ([(p, e, n) for p, e in GAP1_FIELDS for n in range(1, GAP1_MAX_N[p ** e] + 1)],
         _gap_check(1)),
    )),
    "gap2": Suite((
        ([(p, e, n, b) for p, e in GAP2_FIELDS for n in range(2, GAP2_MAX_N[p ** e] + 1)
          for b in range(p ** e)], _gap_check(2)),
        ([(p, e, n) for p, e in GAP2_FIELDS
          for n in range(2, min(GAP2_MAX_N[p ** e], GAP1_MAX_N[p ** e]) + 1)], _gap2_sum_over_b),
    )),
    "gap3": Suite((
        ([(*GAP3_FIELD, n) for n in GAP3_DEGREES], _gap_check(3)),
        ([(p, e, n) for (p, e), top in GAP3_WIDE_MAX_N.items() for n in range(3, top + 1)],
         _gap_check(3)),
    )),
    "subset": Suite((
        ([(p, e, n) for p, e in SUBSET_FIELDS for n in range(min(p ** e, SUBSET_MAX_N) + 1)],
         _subset_check),
    )),
    "mss2": Suite((
        ([(p, e, n) for p, e in MSS2_FIELDS for n in range(1, p ** e + 1)], _mss2_check),
        # M1 reaches one size past the field order (the completion may collide).
        ([(p, e, p ** e + 1) for p, e in MSS2_FIELDS], _mss2_m1),
    )),
    "quadlin": Suite(((_QUADLIN_CELLS, _quadlin_check), (_QUADLIN_CELLS, _quadlin_sum_over_a0)),
                     notes={"instances_per_cell": QUADLIN_INSTANCES}),
    "sieve": Suite((
        ([(p, e, n) for p, e in ((3, 1), (5, 1), (3, 2)) for n in range(1, min(6, p ** e) + 1)],
         lambda config, fld, n: [_sieve_row(config, fld, n, "unconstrained")]),
        ([(p, e, n, b) for p, e in ((5, 1), (3, 2)) for n in range(1, 5) for b in (0, 1)],
         lambda config, fld, n, b: [_sieve_row(config, fld, n, "sum", b)]),
        ([(*SIEVE_FIELD, n) for n in range(1, SIEVE_MOMENT_MAX_N + 1)], _two_moment_check),
        ([(*SIEVE_FIELD, n) for n in range(1, SIEVE_SUM_SPLIT_MAX_N + 1)], _signed_split_check),
    )),
    "wenger": Suite((([(p, e, m, variant) for variant, p, e, m in WENGER_FAMILIES],
                      _wenger_check),), finish=_wenger_exponent_rule),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    """Run one `SUITES` entry over the cells with q <= max_q, the given p and
    e, and n <= max_n (an unset filter keeps every cell)."""
    suite = SUITES[name]
    result = SuiteResult(name, notes=dict(suite.notes))
    kept = []
    for cells, check in suite.parts:
        for cp, ce, n, *extra in cells:
            if ((max_q is not None and cp ** ce > max_q) or (p is not None and cp != p)
                    or (e is not None and ce != e) or (max_n is not None and n > max_n)):
                continue
            fld = ff.make_field(cp, ce)
            kept.append((fld, n, *extra))
            for ell, k, b, formula, expected, *repro in check(config, fld, n, *extra):
                result.rows.append(CheckRow(name, fld.q, n, ell, k, b, formula, expected,
                                            formula == expected, *repro))
    if suite.finish is not None:
        suite.finish(config, result, kept)
    return result


def write_rows_csv(rows: Sequence[CheckRow], fp) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.suite, row.q, row.n, row.ell, row.k, row.b,
            str(row.formula_value), str(row.oracle_value),
            "yes" if row.match else "no",
        ])


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

# A command screens what the user gave before any work starts: through the
# library's own checks (_from_user), and through _require for the rules of its
# own flags alone.  A violated precondition is a UsageError (exit 1), so a
# ValueError that still escapes the library is an internal fault (exit 3).

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _from_user(build, *args):
    """Build a field, element or family from user values, or run a library
    check on them; the ValueError of its own validation is a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _field_from_args(args) -> ff.FieldSpec:
    return _from_user(ff.make_field, args.p, args.e)


def _parse_vector(fld: ff.FieldSpec, text: str):
    try:
        indices = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated element indices, got {text!r}") from None
    return [_from_user(fld.element, i) for i in indices]


def _cmd_field(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    _emit(fld.summary(), config, out)
    return EXIT_OK


def _nk_formula(fld, gap: int, n: int, k: int, b):
    if gap == 1:
        return counting.count_nk_gap1(fld, n, k)
    if gap == 2:
        return counting.count_nk_gap2(fld, n, k, b)
    return counting.count_nk_gap3(fld, n, k)


def _screen_count(args, fld, budget):
    gap = args.gap
    _require(gap == 2 or args.b in (None, 0), "--b is only meaningful for --gap 2")
    _from_user(counting.require_count, gap, args.n, args.k)
    if args.method != "oracle":  # the closed form builds its family's whole N_k table
        _from_user(counting.require_table, fld, gap, args.n)
        budget.check(counting.nk_table_bytes(fld.q, args.n, gap), "closed-form N_k table",
                     "bytes")
    b = _from_user(fld.element, args.b) if args.b is not None else fld.zero

    def oracle_count():
        dist = oracle.brute_nk_distribution(fld, _fixed_high(fld, gap, b), args.n, args.n - gap,
                                            budget)
        return dist[args.k] if args.k <= fld.q else 0  # no polynomial has more than q roots

    return (lambda: _nk_formula(fld, gap, args.n, args.k, b), oracle_count,
            {"kind": "distinct-root-count", "q": fld.q, "p": fld.p, "e": fld.e,
             "n": args.n, "ell": args.n - gap, "k": args.k, "b": b.index})


def _screen_subset_sum(args, fld, budget):
    b = _from_user(fld.element, args.b)
    _from_user(counting.require_subset_size, fld, args.n)
    return (lambda: counting.subset_sum_count(fld, args.n, b),
            lambda: oracle.subset_pair_tally(fld, args.n, "sum-only", budget, [b.index])[0],
            {"kind": "subset-sum", "q": fld.q, "n": args.n, "b": args.b})


def _screen_mss2(args, fld, budget):
    m1 = _from_user(fld.element, args.m1)
    m2 = _from_user(fld.element, args.m2)
    mode = args.mode
    low, high = (1, fld.q + 1) if mode == "first-distinct" else (0, fld.q)
    if args.method != "oracle":
        _require(m1.is_zero() and m2.is_zero(),
                 "closed forms for two-moment counts need m1 = m2 = 0")
        _from_user(counting.require_two_moment, fld)
        low += 1  # the closed forms start at one subset element, or two tuple entries
    _require(low <= args.t <= high,
             f"--t must lie in [{low}, {high}] for this mode and method, got {args.t}")
    return (lambda: (counting.moment_subset_count if mode == "power-sums"
                     else counting.moment_subset_count_m1)(fld, args.t),
            lambda: oracle.brute_subsets_mss2(fld, args.t, m1=m1, m2=m2, mode=mode,
                                              predicate=args.predicate, budget=budget),
            {"kind": "mss2", "q": fld.q, "t": args.t, "m1": args.m1,
             "m2": args.m2, "mode": mode, "predicate": args.predicate})


def _screen_quadlin(args, fld, budget):
    a = _parse_vector(fld, args.a)
    bvec = _parse_vector(fld, args.b)
    a0 = _from_user(fld.element, args.a0)
    b0 = _from_user(fld.element, args.b0)
    _require(1 <= len(a) == len(bvec), "--a and --b must list equally many indices, at least one")
    if args.method != "oracle":
        _from_user(counting.require_quadlin, fld, a, a0, bvec, b0)
    return (lambda: counting.quad_lin_solution_count(fld, a, a0, bvec, b0),
            lambda: oracle.quadlin_counts(fld, [(a, a0, bvec, b0)], budget)[0],
            {"kind": "quadlin", "q": fld.q, "a": args.a, "a0": args.a0,
             "bvec": args.b, "b0": args.b0})


@dataclass(frozen=True)
class Query:
    """One formula/oracle query command.  `arguments` are its
    `(flag, add_argument keywords)` pairs, declared after --p and --e and
    before --method, whose default is `method`.  `screen(args, fld, budget)`
    raises UsageError before any work starts and returns the closed-form
    thunk, the oracle thunk and the query payload."""

    help: str
    method: str
    arguments: tuple
    screen: Callable


QUERIES: dict[str, Query] = {
    "count": Query("distinct-root count for one gap family", "formula", (
        ("--gap", dict(type=int, choices=(1, 2, 3), required=True)),
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--b", dict(type=int, default=None, help="element index (gap 2 only)")),
    ), _screen_count),
    "subset-sum": Query("n-subsets with a prescribed sum", "formula", (
        ("--n", dict(type=int, required=True)),
        ("--b", dict(type=int, default=0, help="target sum, as an element index")),
    ), _screen_subset_sum),
    "mss2": Query("two-moment subset counting", "both", (
        ("--t", dict(type=int, required=True, help="subset / tuple size")),
        ("--m1", dict(type=int, default=0, help="first target, element index")),
        ("--m2", dict(type=int, default=0, help="second target, element index")),
        ("--mode", dict(choices=oracle.MSS2_MODES, default="power-sums")),
        ("--predicate", dict(choices=oracle.MSS2_PREDICATES, default="power-sums")),
    ), _screen_mss2),
    "quadlin": Query("diagonal quadratic + linear system count", "both", (
        ("--a", dict(required=True, help="comma-separated nonzero element indices")),
        ("--a0", dict(type=int, default=0)),
        ("--b", dict(required=True, help="comma-separated element indices")),
        ("--b0", dict(type=int, default=0)),
    ), _screen_quadlin),
}


def _cmd_query(args, config: RunConfig, out) -> int:
    formula, oracle_count, query = QUERIES[args.command].screen(
        args, _field_from_args(args), config.budget)
    payload = {"query": query}
    if args.method != "oracle":
        result = formula()
        payload.update(value=result.value, method="closed-form")
        if result.note:
            payload["note"] = result.note
    if args.method == "oracle":
        payload.update(value=oracle_count(), method="oracle")
    elif args.method == "both":
        value = oracle_count()
        payload.update(oracle_value=value, match=payload["value"] == value)
    _emit(payload, config, out)
    return EXIT_MISMATCH if payload.get("match") is False else EXIT_OK


def _cmd_sieve(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    _require(args.system == "sum" or args.b in (None, 0), "--b is only meaningful for --system sum")
    b = args.b or 0
    first = args.system == "two-moment-first"
    low, high = 1 + first, SIEVE_MAX_N + first
    if args.system == "sum":
        _from_user(fld.element, b)
        high = min(high, fld.q)
    elif args.system != "unconstrained":
        _from_user(sieve.two_moment_counter, fld)  # refuses any field but odd square q
        high = min(high, fld.q + first)
    _require(low <= args.n <= high,
             f"--n must lie in [{low}, {high}] for --system {args.system}, got {args.n}")
    total, subsets, closed = _sieve_compare(config, fld, args.n, args.system, b)
    payload: dict = {"query": {"kind": "sieve", "q": fld.q, "n": args.n, "system": args.system},
                     "distinct_tuples": total}
    if args.system == "unconstrained":
        payload.update({"falling_factorial": closed, "match": total == closed})
    else:
        payload.update({"subsets": subsets, "closed_form": closed, "match": subsets == closed})
    _emit(payload, config, out)
    return EXIT_OK if payload["match"] else EXIT_MISMATCH


def _cmd_wenger(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    family = _from_user(wenger.WengerFamily, args.variant, fld, args.m)
    payload: dict = {"query": {"kind": "wenger", "variant": args.variant,
                               "q": fld.q, "m": args.m}}
    reports = {}
    if args.method in ("formula", "both"):
        _from_user(wenger.require_formula, family)
        reports["formula"] = wenger.spectrum_formula(family)
    if args.method in ("oracle", "both"):
        reports["oracle"] = wenger.spectrum_oracle(family, budget=config.budget)
    verified = None
    if args.method == "both":
        verified = reports["formula"].same_spectrum(reports["oracle"])
    for name, report in reports.items():
        payload[name] = report.to_json_dict(verified=verified)

    exit_code = EXIT_OK
    if verified is False:
        exit_code = EXIT_MISMATCH

    if args.check_moments is not None or args.export is not None:
        report = reports.get("oracle") or reports["formula"]
        if args.check_moments is not None:
            _from_user(wenger.require_moments, report, args.check_moments)
        graph = wenger.build_graph(family, config.budget)
        if args.export is not None:
            with open(args.export, "w", encoding="utf-8") as fp:
                written = wenger.export_edges(graph, fp)
            payload["exported_edges"] = written
            payload["export_path"] = args.export
        if args.check_moments is not None:
            passed = wenger.moment_check(graph, report, args.check_moments)
            payload["moment_check"] = passed
            if not passed:
                exit_code = EXIT_MISMATCH
    _emit(payload, config, out)
    return exit_code


def _cmd_verify(args, config: RunConfig, out) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = [run_suite(name, config, args.max_q, args.max_n, args.p, args.e) for name in names]
    all_rows = [row for result in results for row in result.rows]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fp:
            write_rows_csv(all_rows, fp)

    summary = {
        "suites": {
            result.name: {
                "checks": len(result.rows),
                "mismatches": len(result.mismatches()),
                "ok": result.ok,
                **({"notes": result.notes} if result.notes else {}),
            }
            for result in results
        },
        "ok": all(result.ok for result in results),
    }
    if config.output_format == "csv":
        write_rows_csv(all_rows, out)
    else:
        _emit(summary, config, out)

    for result in results:
        bad = result.mismatches()
        if bad:
            first = bad[0]
            print(f"MISMATCH in suite {result.name}: "
                  f"q={first.q} n={first.n} ell={first.ell} k={first.k} b={first.b} "
                  f"formula={first.formula_value} oracle={first.oracle_value}", file=out)
            if first.repro:
                print(f"reproduce with: fqcount {first.repro}", file=out)
            return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

def _add_global_args(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument("--budget", type=int, default=default,
                        help=f"enumeration budget (min {MIN_BUDGET})")
    parser.add_argument("--format", choices=("json", "csv", "plain"), default=default)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on every call, so no flag carries over between commands."""
    parser = _Parser(prog="fqcount", description=__doc__)
    _add_global_args(parser, None)
    # Global options may also follow the subcommand; SUPPRESS keeps a
    # subcommand that omits them from resetting the values given before it.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_args(common, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[common])

    def add_field_args(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--e", type=int, required=True)

    sp = add_command("field", help="describe GF(p^e) and its enumeration table")
    add_field_args(sp)

    for name, query in QUERIES.items():
        sp = add_command(name, help=query.help)
        add_field_args(sp)
        for flag, spec in query.arguments:
            sp.add_argument(flag, **spec)
        sp.add_argument("--method", choices=METHODS, default=query.method)

    sp = add_command("sieve", help="distinct-coordinate sieve demonstrations")
    add_field_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--system",
                    choices=("unconstrained", "sum", "two-moment", "two-moment-first"),
                    default="unconstrained")
    sp.add_argument("--b", type=int, default=None, help="target sum for --system sum")

    sp = add_command("wenger", help="jumped Wenger graph spectra")
    add_field_args(sp)
    sp.add_argument("--variant", type=int, choices=(1, 2), required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--method", choices=METHODS, default="both")
    sp.add_argument("--export", default=None, help="write the edge list to this path")
    sp.add_argument("--check-moments", type=int, default=None, dest="check_moments",
                    help="verify the spectrum against T exact trace moments")

    sp = add_command("verify", help="formula-vs-oracle sweeps")
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    sp.add_argument("--max-q", type=int, default=None, dest="max_q")
    sp.add_argument("--max-n", type=int, default=None, dest="max_n")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--csv", default=None, help="write all comparison rows to this path")

    return parser


_COMMANDS = {
    "field": _cmd_field,
    **dict.fromkeys(QUERIES, _cmd_query),
    "sieve": _cmd_sieve,
    "wenger": _cmd_wenger,
    "verify": _cmd_verify,
}


def run_command(argv: Sequence[str], out=None) -> int:
    """Parse and run one command; returns the exit code, printing to `out`."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        return _COMMANDS[args.command](args, config, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError) as exc:
        # A failed exact self-check, or a precondition that the package broke
        # itself: user values were screened before the work started.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # any other fault of the package, never a usage error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def main() -> None:
    # A reader that closes the pipe ends the process quietly, as it ends `cat`.
    sigpipe = getattr(signal, "SIGPIPE", None)
    if sigpipe is not None:
        signal.signal(sigpipe, signal.SIG_DFL)
    # Exact counts print in full, past the default limit of 4300 digits
    # (an interpreter without that limit has no setter).
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
