"""Command-line surface: counting subcommands, configuration, deterministic
JSON/CSV serialization, and the formula-vs-oracle verification sweeps.

Exit codes: 0 success, 1 usage/precondition error, 2 enumeration budget
exceeded, 3 verification mismatch or a failed internal exact self-check.  All
counts are serialized as decimal strings so any JSON consumer survives values
past 2**53.  Output bytes are a pure function of the inputs and requested
format; grid cells run in grid order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass, field as dataclass_field
from math import factorial
from typing import Callable, Sequence

from . import counting, exactcomb, ff, oracle, sieve, wenger

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

DEFAULT_SEED = 20250808
MIN_BUDGET = 10 ** 4

ENV_BUDGET = "FQCOUNT_BUDGET"
ENV_FORMAT = "FQCOUNT_FORMAT"

SUITE_NAMES = ("gap1", "gap2", "gap3", "subset", "mss2", "quadlin", "sieve", "wenger")
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
SUBSET_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2))
SUBSET_MAX_N = 12
MSS2_FIELDS = ((3, 2), (5, 2))
MSS2_MAX_N = 12
QUADLIN_FIELDS = ((3, 1), (5, 1), (3, 2))
QUADLIN_MAX_N = 5
QUADLIN_INSTANCES = 200
SIEVE_FIELD = (3, 2)
SIEVE_MOMENT_MAX_N = 8
SIEVE_SUM_SPLIT_MAX_N = 10
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
    """Resolved runtime settings: defaults < config file < env < CLI flags."""

    budget: oracle.EnumerationBudget = oracle.DEFAULT_BUDGET
    output_format: str = "json"


def load_config_file(path: str) -> dict[str, str]:
    """Parse plain `key = value` lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    budget = oracle.DEFAULT_MAX_ITEMS
    output_format = "json"
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)
        if "budget" in file_values:
            budget = _parse_int(file_values["budget"], "budget")
        if "output_format" in file_values:
            output_format = file_values["output_format"]
    if os.environ.get(ENV_BUDGET):
        budget = _parse_int(os.environ[ENV_BUDGET], ENV_BUDGET)
    if os.environ.get(ENV_FORMAT):
        output_format = os.environ[ENV_FORMAT]
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    if getattr(args, "format", None) is not None:
        output_format = args.format
    if budget < MIN_BUDGET:
        raise UsageError(f"budget must be >= {MIN_BUDGET}, got {budget}")
    if output_format not in ("json", "csv", "plain"):
        raise UsageError(f"output format must be json, csv or plain, got {output_format!r}")
    return RunConfig(budget=oracle.EnumerationBudget(budget), output_format=output_format)


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


def _map_cells(cells: Sequence, worker: Callable) -> list[CheckRow]:
    """Evaluate grid cells in grid order, concatenating their rows."""
    return [row for cell in cells for row in worker(cell)]


def _apply_filters(fields: Sequence[tuple[int, int]], args_filter: dict) -> list[tuple[int, int]]:
    out = []
    for p, e in fields:
        q = p ** e
        if args_filter.get("max_q") is not None and q > args_filter["max_q"]:
            continue
        if args_filter.get("p") is not None and p != args_filter["p"]:
            continue
        if args_filter.get("e") is not None and e != args_filter["e"]:
            continue
        out.append((p, e))
    return out


def _cap(n: int, max_n: int | None) -> int:
    return n if max_n is None else min(n, max_n)


def run_gap1_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    cells = []
    for fp, fe in _apply_filters(GAP1_FIELDS, filt):
        q = fp ** fe
        for n in range(1, _cap(GAP1_MAX_N[q], max_n) + 1):
            cells.append((fp, fe, n))

    def worker(cell):
        fp, fe, n = cell
        fld = ff.make_field(fp, fe)
        q = fld.q
        dist = oracle.brute_nk_distribution(fld, [], n, n - 1, config.budget)
        rows = []
        total = 0
        for k in range(0, max(n, q) + 1):
            formula = counting.count_nk_gap1(fld, n, k).value
            brute = dist[k] if k <= q else 0
            total += formula
            rows.append(CheckRow(
                "gap1", q, n, n - 1, k, 0, formula, brute, formula == brute,
                repro=f"count --gap 1 --p {fp} --e {fe} --n {n} --k {k} --method both"))
        rows.append(CheckRow(
            "gap1", q, n, n - 1, "sum", 0, total, q ** n, total == q ** n,
            repro=f"count --gap 1 --p {fp} --e {fe} --n {n} --k 0 --method both"))
        return rows

    return SuiteResult("gap1", _map_cells(cells, worker))


def run_gap2_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    cells = []
    for fp, fe in _apply_filters(GAP2_FIELDS, filt):
        q = fp ** fe
        for n in range(2, _cap(GAP2_MAX_N[q], max_n) + 1):
            for b_index in range(q):
                cells.append((fp, fe, n, b_index))

    def worker(cell):
        fp, fe, n, b_index = cell
        fld = ff.make_field(fp, fe)
        q = fld.q
        b = fld.element(b_index)
        dist = oracle.brute_nk_distribution(fld, [fld.neg(b)], n, n - 2, config.budget)
        rows = []
        total = 0
        for k in range(0, max(n, q) + 1):
            formula = counting.count_nk_gap2(fld, n, k, b).value
            brute = dist[k] if k <= q else 0
            total += formula
            rows.append(CheckRow(
                "gap2", q, n, n - 2, k, b_index, formula, brute, formula == brute,
                repro=f"count --gap 2 --p {fp} --e {fe} --n {n} --k {k} --b {b_index} --method both"))
        rows.append(CheckRow(
            "gap2", q, n, n - 2, "sum", b_index, total, q ** (n - 1), total == q ** (n - 1)))
        return rows

    result = SuiteResult("gap2", _map_cells(cells, worker))

    # Summing the gap-2 family over b must reconstruct the gap-1 family.
    for fp, fe in _apply_filters(GAP2_FIELDS, filt):
        fld = ff.make_field(fp, fe)
        q = fld.q
        for n in range(2, _cap(min(GAP2_MAX_N[q], GAP1_MAX_N[q]), max_n) + 1):
            for k in range(0, n + 1):
                summed = sum(
                    counting.count_nk_gap2(fld, n, k, fld.element(bi)).value for bi in range(q))
                gap1 = counting.count_nk_gap1(fld, n, k).value
                result.rows.append(CheckRow(
                    "gap2", q, n, "sum-over-b", k, "*", summed, gap1, summed == gap1))
    return result


def run_gap3_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    cells = []
    for fp, fe in _apply_filters((GAP3_FIELD,), filt):
        for n in GAP3_DEGREES:
            if max_n is not None and n > max_n:
                continue
            cells.append((fp, fe, n))

    def worker(cell):
        fp, fe, n = cell
        fld = ff.make_field(fp, fe)
        q = fld.q
        zero = fld.zero
        dist = oracle.brute_nk_distribution(fld, [zero, zero], n, n - 3, config.budget)
        rows = []
        total = 0
        for k in range(0, max(n, q) + 1):
            formula = counting.count_nk_gap3(fld, n, k).value
            brute = dist[k] if k <= q else 0
            total += formula
            rows.append(CheckRow(
                "gap3", q, n, n - 3, k, 0, formula, brute, formula == brute,
                repro=f"count --gap 3 --p {fp} --e {fe} --n {n} --k {k} --method both"))
        rows.append(CheckRow(
            "gap3", q, n, n - 3, "sum", 0, total, q ** (n - 2), total == q ** (n - 2)))
        if n < q:
            formula = counting.count_nk_gap3(fld, n, n).value
            moment = counting.moment_subset_count(fld, n).value
            rows.append(CheckRow("gap3", q, n, n - 3, "k=n vs M", 0, formula, moment,
                                 formula == moment))
        return rows

    return SuiteResult("gap3", _map_cells(cells, worker))


def run_subset_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    cells = []
    for fp, fe in _apply_filters(SUBSET_FIELDS, filt):
        q = fp ** fe
        for n in range(0, _cap(min(q, SUBSET_MAX_N), max_n) + 1):
            cells.append((fp, fe, n))

    def worker(cell):
        fp, fe, n = cell
        fld = ff.make_field(fp, fe)
        q = fld.q
        dist = oracle.subset_sum_distribution(fld, n, config.budget)
        rows = []
        for b_index in range(q):
            formula = counting.subset_sum_count(fld, n, fld.element(b_index)).value
            rows.append(CheckRow(
                "subset", q, n, "", "", b_index, formula, dist[b_index],
                formula == dist[b_index],
                repro=f"subset-sum --p {fp} --e {fe} --n {n} --b {b_index} --method both"))
        marginal = sum(dist)
        expected = exactcomb.binomial(q, n)
        rows.append(CheckRow("subset", q, n, "", "", "sum", marginal, expected,
                             marginal == expected))
        return rows

    return SuiteResult("subset", _map_cells(cells, worker))


def run_mss2_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    cells = []
    for fp, fe in _apply_filters(MSS2_FIELDS, filt):
        q = fp ** fe
        for n in range(1, _cap(min(q, MSS2_MAX_N), max_n) + 1):
            cells.append((fp, fe, n))

    def worker(cell):
        fp, fe, n = cell
        fld = ff.make_field(fp, fe)
        q = fld.q
        rows = []
        formula = counting.moment_subset_count(fld, n).value
        power = oracle.brute_subsets_mss2(fld, n, mode="power-sums", budget=config.budget).value
        rows.append(CheckRow(
            "mss2", q, n, "", "M", 0, formula, power, formula == power,
            repro=f"mss2 --p {fp} --e {fe} --t {n} --mode power-sums --method both"))
        elem = oracle.brute_subsets_mss2(
            fld, n, mode="power-sums", predicate="elementary", budget=config.budget).value
        rows.append(CheckRow("mss2", q, n, "", "M-elementary", 0, formula, elem,
                             formula == elem))
        if n >= 2:
            m1_formula = counting.moment_subset_count_m1(fld, n).value
            m1_brute = oracle.brute_subsets_mss2(
                fld, n, mode="first-distinct", budget=config.budget).value
            rows.append(CheckRow(
                "mss2", q, n, "", "M1", 0, m1_formula, m1_brute, m1_formula == m1_brute,
                repro=f"mss2 --p {fp} --e {fe} --t {n} --mode first-distinct --method both"))
        return rows

    result = SuiteResult("mss2", _map_cells(cells, worker))
    # M1 reaches one size past the field order (the completion may collide).
    for fp, fe in _apply_filters(MSS2_FIELDS, filt):
        fld = ff.make_field(fp, fe)
        q = fld.q
        n = q + 1
        if (max_n is None or n <= max_n) and n <= MSS2_MAX_N + 1:
            m1_formula = counting.moment_subset_count_m1(fld, n).value
            m1_brute = oracle.brute_subsets_mss2(
                fld, n, mode="first-distinct", budget=config.budget).value
            result.rows.append(CheckRow(
                "mss2", q, n, "", "M1", 0, m1_formula, m1_brute, m1_formula == m1_brute))
    return result


def _classify_quadlin(fld, a, a0, bvec, b0) -> int:
    b_inv, c_inv = counting.quadlin_invariants(fld, a, a0, bvec, b0)
    if not b_inv.is_zero():
        return 1 if c_inv.is_zero() else 2
    return 3 if c_inv.is_zero() else 4


def quadlin_instances(fld, n: int, count: int, seed: int):
    """Deterministic admissible instances; n >= 2 sweeps visit all four cases."""
    rng = random.Random(f"{seed}:{fld.q}:{n}")
    q = fld.q
    out = []
    attempts = 0
    needed_cases = {1, 2} if n == 1 else {1, 2, 3, 4}
    while True:
        have_cases = {case for *_, case in out}
        if len(out) >= count and needed_cases <= have_cases:
            break
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("quadlin instance generation failed to cover all cases")
        a = [fld.element(rng.randrange(1, q)) for _ in range(n)]
        bvec = [fld.element(rng.randrange(q)) for _ in range(n)]
        if all(x.is_zero() for x in bvec):
            continue
        a0 = fld.element(rng.randrange(q))
        b0 = fld.element(rng.randrange(q))
        case = _classify_quadlin(fld, a, a0, bvec, b0)
        if len(out) < count or case not in have_cases:
            out.append((a, a0, bvec, b0, case))
    return out


def run_quadlin_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None,
                      seed: int = DEFAULT_SEED) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    cells = []
    for fp, fe in _apply_filters(QUADLIN_FIELDS, filt):
        for n in range(1, _cap(QUADLIN_MAX_N, max_n) + 1):
            cells.append((fp, fe, n))

    def worker(cell):
        fp, fe, n = cell
        fld = ff.make_field(fp, fe)
        q = fld.q
        rows = []
        for ordinal, (a, a0, bvec, b0, case) in enumerate(
                quadlin_instances(fld, n, QUADLIN_INSTANCES, seed)):
            formula = counting.quad_lin_solution_count(fld, a, a0, bvec, b0).value
            brute = oracle.brute_quadlin(fld, a, a0, bvec, b0, config.budget).value
            a_s = ",".join(str(x.index) for x in a)
            b_s = ",".join(str(x.index) for x in bvec)
            rows.append(CheckRow(
                "quadlin", q, n, "", case, ordinal, formula, brute, formula == brute,
                repro=(f"quadlin --p {fp} --e {fe} --a {a_s} --a0 {a0.index} "
                       f"--b {b_s} --b0 {b0.index} --method both")))
        return rows

    result = SuiteResult("quadlin", _map_cells(cells, worker))
    result.notes["instances_per_cell"] = QUADLIN_INSTANCES
    # Fixing everything but a0, the solutions of the linear equation split
    # over the q values of a0, so the case counts must resum to q^(n-1).
    for fp, fe in _apply_filters(QUADLIN_FIELDS, filt):
        fld = ff.make_field(fp, fe)
        q = fld.q
        rng = random.Random(f"{seed}:a0-sweep:{q}")
        for n in range(1, _cap(QUADLIN_MAX_N, max_n) + 1):
            a = [fld.element(rng.randrange(1, q)) for _ in range(n)]
            bvec = [fld.element(rng.randrange(1, q)) for _ in range(n)]
            b0 = fld.element(rng.randrange(q))
            total = sum(
                counting.quad_lin_solution_count(fld, a, fld.element(a0i), bvec, b0).value
                for a0i in range(q))
            result.rows.append(CheckRow(
                "quadlin", q, n, "", "sum-over-a0", "*", total, q ** (n - 1),
                total == q ** (n - 1)))
    return result


def run_sieve_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    filt = {"max_q": max_q, "p": p, "e": e}
    rows: list[CheckRow] = []

    for fp, fe in _apply_filters(((3, 1), (5, 1), (3, 2)), filt):
        fld = ff.make_field(fp, fe)
        q = fld.q
        for n in range(1, _cap(min(6, q), max_n) + 1):
            got = sieve.sieve_distinct(sieve.unconstrained_counter(fld, n))
            expected = 1
            for i in range(n):
                expected *= q - i
            rows.append(CheckRow("sieve", q, n, "", "falling-factorial", 0,
                                 got, expected, got == expected))

    for fp, fe in _apply_filters(((5, 1), (3, 2)), filt):
        fld = ff.make_field(fp, fe)
        q = fld.q
        for n in range(1, _cap(4, max_n) + 1):
            for b_index in (0, 1):
                b = fld.element(b_index)
                total = sieve.sieve_distinct(sieve.subset_sum_counter(fld, n, b))
                divisible = total % factorial(n) == 0
                formula = counting.subset_sum_count(fld, n, b).value
                got = total // factorial(n) if divisible else -1
                rows.append(CheckRow("sieve", q, n, "", "sum-counter", b_index,
                                     got, formula, divisible and got == formula,
                                     repro=f"sieve --p {fp} --e {fe} --n {n} --system sum --b {b_index}"))

    if _apply_filters((SIEVE_FIELD,), filt):
        fld = ff.make_field(*SIEVE_FIELD)
        q = fld.q
        for n in range(1, _cap(SIEVE_MOMENT_MAX_N, max_n) + 1):
            total = sieve.sieve_distinct(sieve.two_moment_counter(fld, n))
            divisible = total % factorial(n) == 0
            moment = counting.moment_subset_count(fld, n).value
            got = total // factorial(n) if divisible else -1
            rows.append(CheckRow(
                "sieve", q, n, "", "two-moment", 0, got, moment,
                divisible and got == moment,
                repro=f"sieve --p 3 --e 2 --n {n} --system two-moment"))
            if n >= 2:
                total1 = sieve.sieve_first_n_minus_1(sieve.two_moment_counter(fld, n))
                div1 = total1 % factorial(n - 1) == 0
                m1 = counting.moment_subset_count_m1(fld, n).value
                got1 = total1 // factorial(n - 1) if div1 else -1
                rows.append(CheckRow(
                    "sieve", q, n, "", "two-moment-first", 0, got1, m1,
                    div1 and got1 == m1,
                    repro=f"sieve --p 3 --e 2 --n {n} --system two-moment-first"))
        for n in range(1, _cap(SIEVE_SUM_SPLIT_MAX_N, max_n) + 1):
            closed = counting.s_plus_minus(fld, n)  # raises on internal mismatch
            direct = counting.s_plus_minus_type_sums(fld, n)
            rows.append(CheckRow("sieve", q, n, "", "signed-split-plus", 0,
                                 closed[0], direct[0], closed[0] == direct[0]))
            rows.append(CheckRow("sieve", q, n, "", "signed-split-minus", 0,
                                 closed[1], direct[1], closed[1] == direct[1]))

    return SuiteResult("sieve", rows)


def wenger_acceptance_families() -> list[wenger.WengerFamily]:
    return [
        wenger.WengerFamily(variant, ff.make_field(fp, fe), m)
        for variant, fp, fe, m in WENGER_FAMILIES
    ]


def run_wenger_suite(config: RunConfig, max_q=None, max_n=None, p=None, e=None) -> SuiteResult:
    families = []
    for variant, fp, fe, m in WENGER_FAMILIES:
        q = fp ** fe
        if max_q is not None and q > max_q:
            continue
        if p is not None and fp != p:
            continue
        if e is not None and fe != e:
            continue
        if max_n is not None and m > max_n:
            continue
        families.append(wenger.WengerFamily(variant, ff.make_field(fp, fe), m))

    def worker(family: wenger.WengerFamily):
        q = family.field.q
        m = family.m
        repro = (f"wenger --variant {family.variant} --p {family.field.p} "
                 f"--e {family.field.e} --m {m} --method both")
        formula = wenger.spectrum_formula(family, budget=config.budget)
        brute = wenger.spectrum_oracle(family, budget=config.budget)
        rows = []
        levels = sorted(set(formula.levels()) | set(brute.levels()), reverse=True)
        for level in levels:
            fv, ov = formula.multiplicity(level), brute.multiplicity(level)
            rows.append(CheckRow("wenger", q, m, family.variant, level, "",
                                 fv, ov, fv == ov, repro=repro))
        total = sum(mult for _, mult in brute.entries)
        rows.append(CheckRow("wenger", q, m, family.variant, "sum", "",
                             total, q ** (m + 1), total == q ** (m + 1)))
        incidence = sum(level * mult for level, mult in brute.entries)
        rows.append(CheckRow("wenger", q, m, family.variant, "root-incidences", "",
                             incidence, q ** (m + 1), incidence == q ** (m + 1)))
        graph = wenger.build_graph(family, config.budget)
        passed = wenger.moment_check(graph, brute, len(brute.nonzero_levels()))
        rows.append(CheckRow("wenger", q, m, family.variant, "moments", "",
                             int(passed), 1, passed, repro=repro))
        return rows

    result = SuiteResult("wenger", _map_cells(families, worker))

    # Exponent ambiguity for variant 1: exactly one of the two candidate
    # completion families can match the oracle on every family.
    default_ok = True
    alternative_ok = True
    for family in families:
        if family.variant != 1:
            continue
        brute = wenger.spectrum_oracle(family, budget=config.budget)
        default_ok &= wenger.spectrum_formula(
            family, budget=config.budget).same_spectrum(brute)
        alternative_ok &= wenger.spectrum_formula(
            family, low_level_top_exponent=family.m + 2, budget=config.budget
        ).same_spectrum(brute)
    if any(f.variant == 1 for f in families):
        result.notes["variant1_low_exponent"] = {
            "default_rule_matches_all": default_ok,
            "alternative_rule_matches_all": alternative_ok,
            "resolved": default_ok and not alternative_ok,
        }
        result.rows.append(CheckRow(
            "wenger", 0, "*", 1, "exponent-rule", "", int(default_ok),
            int(not alternative_ok), default_ok and not alternative_ok))
    return result


SUITE_RUNNERS = {
    "gap1": run_gap1_suite,
    "gap2": run_gap2_suite,
    "gap3": run_gap3_suite,
    "subset": run_subset_suite,
    "mss2": run_mss2_suite,
    "quadlin": run_quadlin_suite,
    "sieve": run_sieve_suite,
    "wenger": run_wenger_suite,
}


def run_suites(names: Sequence[str], config: RunConfig, **filters) -> list[SuiteResult]:
    results = []
    for name in names:
        runner = SUITE_RUNNERS[name]
        results.append(runner(config, **filters))
    return results


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

def _field_from_args(args) -> ff.FieldSpec:
    return ff.make_field(args.p, args.e)


def _parse_vector(fld: ff.FieldSpec, text: str):
    try:
        indices = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated element indices, got {text!r}") from None
    return [fld.element(i) for i in indices]


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


def _nk_oracle(fld, gap: int, n: int, k: int, b, budget):
    if gap == 1:
        u_high = []
    elif gap == 2:
        u_high = [fld.neg(b)]
    else:
        u_high = [fld.zero, fld.zero]
    return oracle.brute_nk(fld, u_high, n, n - gap, k, budget)


def _run_both(args, config, out, formula_fn, oracle_fn, payload_base: dict) -> int:
    method = args.method
    payload = dict(payload_base)
    if method in ("formula", "both"):
        result = formula_fn()
        payload["value"] = result.value
        payload["method"] = result.method
        if result.note:
            payload["note"] = result.note
    if method in ("oracle", "both"):
        result = oracle_fn()
        if method == "oracle":
            payload["value"] = result.value
            payload["method"] = result.method
        else:
            payload["oracle_value"] = result.value
            payload["match"] = payload["value"] == result.value
    _emit(payload, config, out)
    if method == "both" and not payload["match"]:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_count(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    gap = args.gap
    b = fld.element(args.b) if args.b is not None else fld.zero
    if gap != 2 and args.b not in (None, 0):
        raise UsageError("--b is only meaningful for --gap 2")
    query = counting.CountQuery(fld.q, fld.p, fld.e, args.n, args.n - gap, args.k,
                                b.index if gap == 2 else 0)
    return _run_both(
        args, config, out,
        lambda: _nk_formula(fld, gap, args.n, args.k, b),
        lambda: _nk_oracle(fld, gap, args.n, args.k, b, config.budget),
        {"query": query.as_dict()},
    )


def _cmd_subset_sum(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    b = fld.element(args.b)
    return _run_both(
        args, config, out,
        lambda: counting.subset_sum_count(fld, args.n, b),
        lambda: oracle.brute_subsets_mss2(fld, args.n, m1=b, mode="sum-only",
                                          budget=config.budget),
        {"query": {"kind": "subset-sum", "q": fld.q, "n": args.n, "b": args.b}},
    )


def _cmd_mss2(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    m1 = fld.element(args.m1)
    m2 = fld.element(args.m2)
    mode = args.mode

    def formula():
        if mode == "sum-only":
            return counting.subset_sum_count(fld, args.t, m1)
        if not (m1.is_zero() and m2.is_zero()):
            raise UsageError("closed forms for two-moment counts need m1 = m2 = 0")
        if mode == "power-sums":
            return counting.moment_subset_count(fld, args.t)
        return counting.moment_subset_count_m1(fld, args.t)

    return _run_both(
        args, config, out,
        formula,
        lambda: oracle.brute_subsets_mss2(fld, args.t, m1=m1, m2=m2, mode=mode,
                                          predicate=args.predicate, budget=config.budget),
        {"query": {"kind": "mss2", "q": fld.q, "t": args.t, "m1": args.m1,
                   "m2": args.m2, "mode": mode}},
    )


def _cmd_quadlin(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    a = _parse_vector(fld, args.a)
    bvec = _parse_vector(fld, args.b)
    a0 = fld.element(args.a0)
    b0 = fld.element(args.b0)
    return _run_both(
        args, config, out,
        lambda: counting.quad_lin_solution_count(fld, a, a0, bvec, b0),
        lambda: oracle.brute_quadlin(fld, a, a0, bvec, b0, config.budget),
        {"query": {"kind": "quadlin", "q": fld.q, "a": args.a, "a0": args.a0,
                   "bvec": args.b, "b0": args.b0}},
    )


def _cmd_sieve(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    n = args.n
    payload: dict = {"query": {"kind": "sieve", "q": fld.q, "n": n, "system": args.system}}
    if args.system == "unconstrained":
        counter = sieve.unconstrained_counter(fld, n)
        total = sieve.sieve_distinct(counter)
        expected = 1
        for i in range(n):
            expected *= fld.q - i
        payload.update({"distinct_tuples": total, "falling_factorial": expected,
                        "match": total == expected})
    else:
        first = args.system == "two-moment-first"  # x_n may repeat a member
        if args.system == "sum":
            b = fld.element(args.b)
            counter = sieve.subset_sum_counter(fld, n, b)
            formula = counting.subset_sum_count(fld, n, b).value
        else:
            counter = sieve.two_moment_counter(fld, n)
            closed = counting.moment_subset_count_m1 if first else counting.moment_subset_count
            formula = closed(fld, n).value
        total = (sieve.sieve_first_n_minus_1 if first else sieve.sieve_distinct)(counter)
        # Tuples to subsets; a remainder is a sieve fault and must not floor away.
        subsets, rem = divmod(total, factorial(n - 1 if first else n))
        payload.update({"distinct_tuples": total, "subsets": subsets if rem == 0 else None,
                        "closed_form": formula, "match": rem == 0 and subsets == formula})
    _emit(payload, config, out)
    return EXIT_OK if payload.get("match", True) else EXIT_MISMATCH


def _cmd_wenger(args, config: RunConfig, out) -> int:
    fld = _field_from_args(args)
    family = wenger.WengerFamily(args.variant, fld, args.m)
    payload: dict = {"query": {"kind": "wenger", "variant": args.variant,
                               "q": fld.q, "m": args.m}}
    reports = {}
    if args.method in ("formula", "both"):
        reports["formula"] = wenger.spectrum_formula(family, budget=config.budget)
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
        graph = wenger.build_graph(family, config.budget)
        if args.export is not None:
            with open(args.export, "w", encoding="utf-8") as fp:
                written = wenger.export_edges(graph, fp)
            payload["exported_edges"] = written
            payload["export_path"] = args.export
        if args.check_moments is not None:
            report = reports.get("oracle") or reports["formula"]
            passed = wenger.moment_check(graph, report, args.check_moments)
            payload["moment_check"] = passed
            if not passed:
                exit_code = EXIT_MISMATCH
    _emit(payload, config, out)
    return exit_code


def _cmd_verify(args, config: RunConfig, out) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    filters = {"max_q": args.max_q, "max_n": args.max_n, "p": args.p, "e": args.e}
    results = run_suites(names, config, **filters)
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
    parser.add_argument("--config", default=default, help="path to a `key = value` config file")


def build_parser() -> argparse.ArgumentParser:
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

    sp = add_command("count", help="distinct-root count for one gap family")
    add_field_args(sp)
    sp.add_argument("--gap", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--b", type=int, default=None, help="element index (gap 2 only)")
    sp.add_argument("--method", choices=("formula", "oracle", "both"), default="formula")

    sp = add_command("subset-sum", help="n-subsets with a prescribed sum")
    add_field_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", type=int, default=0, help="target sum, as an element index")
    sp.add_argument("--method", choices=("formula", "oracle", "both"), default="formula")

    sp = add_command("mss2", help="two-moment subset counting")
    add_field_args(sp)
    sp.add_argument("--t", type=int, required=True, help="subset / tuple size")
    sp.add_argument("--m1", type=int, default=0, help="first target, element index")
    sp.add_argument("--m2", type=int, default=0, help="second target, element index")
    sp.add_argument("--mode", choices=oracle.MSS2_MODES, default="power-sums")
    sp.add_argument("--predicate", choices=oracle.MSS2_PREDICATES, default="power-sums")
    sp.add_argument("--method", choices=("formula", "oracle", "both"), default="both")

    sp = add_command("quadlin", help="diagonal quadratic + linear system count")
    add_field_args(sp)
    sp.add_argument("--a", required=True, help="comma-separated nonzero element indices")
    sp.add_argument("--a0", type=int, default=0)
    sp.add_argument("--b", required=True, help="comma-separated element indices")
    sp.add_argument("--b0", type=int, default=0)
    sp.add_argument("--method", choices=("formula", "oracle", "both"), default="both")

    sp = add_command("sieve", help="distinct-coordinate sieve demonstrations")
    add_field_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--system",
                    choices=("unconstrained", "sum", "two-moment", "two-moment-first"),
                    default="unconstrained")
    sp.add_argument("--b", type=int, default=0, help="target sum for --system sum")

    sp = add_command("wenger", help="jumped Wenger graph spectra")
    add_field_args(sp)
    sp.add_argument("--variant", type=int, choices=(1, 2), required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--method", choices=("formula", "oracle", "both"), default="both")
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
    "count": _cmd_count,
    "subset-sum": _cmd_subset_sum,
    "mss2": _cmd_mss2,
    "quadlin": _cmd_quadlin,
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
    except (ff.FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # every one raised in the package is a failed self-check
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
