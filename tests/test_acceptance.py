"""Acceptance suite: one test per criterion, each at exact integer equality
(tolerance zero) and each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
`fqcount verify --suite all` drives the same sweeps through the CLI.
"""

import hashlib
import io

from fqcount import cli
from fqcount.counting import (
    count_nk_gap1,
    count_nk_gap2,
    count_nk_gap3,
    moment_subset_count,
)
from fqcount.ff import make_field
from fqcount.oracle import brute_nk

CONFIG = cli.RunConfig()
# `fqcount --format csv verify --suite all`: a header and 8861 rows
VERIFY_ALL_CSV_SHA256 = "38455278d3cbd4bb8a1e509f109593c11706f91aacbfbbf6c6840d8771b2adf4"


def _report(number: int, label: str, result: cli.SuiteResult | None = None,
            ok: bool | None = None, detail: str = ""):
    if result is not None:
        ok = result.ok
        detail = detail or f"{len(result.rows)} checks"
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_01_gap1_equivalence():
    result = cli.run_suite("gap1", CONFIG)
    f2 = make_field(2, 1)
    anchor = count_nk_gap1(f2, 3, 1).value == brute_nk(f2, [], 3, 2, 1).value == 4
    assert anchor
    qs = {row.q for row in result.rows}
    assert qs == {2, 3, 4, 5, 7, 8, 9}
    # the reduced regime n >= q is exercised through n = q + 2 where q <= 5
    for q in (2, 3, 4, 5):
        assert any(row.q == q and row.n == q + 2 for row in result.rows)
    _report(1, "gap-1 closed form == enumeration (incl. N_1 = 4 anchor)", result)


def test_criterion_02_gap2_equivalence():
    result = cli.run_suite("gap2", CONFIG)
    for q in (3, 4, 5, 7):
        assert any(row.q == q and row.n == q for row in result.rows)
        assert any(row.q == q and row.n == q + 1 for row in result.rows)
    _report(2, "gap-2 closed form == enumeration (all b, incl. n = q, q + 1)", result)


def test_criterion_03_subset_sum():
    result = cli.run_suite("subset", CONFIG)
    qs = {row.q for row in result.rows}
    assert qs == {3, 4, 5, 7, 8, 9, 25, 49, 64, 81}
    assert any(row.q == 25 and row.n == 12 for row in result.rows)
    _report(3, "subset-sum closed form == subset enumeration", result)


def test_criterion_04_quadratic_linear_systems():
    result = cli.run_suite("quadlin", CONFIG)
    per_cell: dict = {}
    cases: dict = {}
    for row in result.rows:
        if isinstance(row.b, int):  # instance rows (not the a0-sweep rows)
            per_cell[(row.q, row.n)] = per_cell.get((row.q, row.n), 0) + 1
            cases.setdefault((row.q, row.n), set()).add(row.k)
    assert all(count >= 200 for count in per_cell.values())
    for (q, n), seen in cases.items():
        assert seen >= ({1, 2} if n == 1 else {1, 2, 3, 4}), (q, n, seen)
    _report(4, "quadratic/linear counts == tuple enumeration (4 cases covered)",
            result, detail=f"{len(result.rows)} checks, >=200 instances per cell")


def test_criterion_05_moment_subset_counts():
    result = cli.run_suite("mss2", CONFIG)
    f9 = make_field(3, 2)
    hand = [moment_subset_count(f9, n).value for n in (1, 2, 3, 4)]
    assert hand == [1, 0, 0, 2]
    qs = {row.q for row in result.rows}
    assert qs == {9, 25, 49}
    for q in qs:
        assert any(row.q == q and row.n == q for row in result.rows)
    _report(5, "two-moment subset counts == subset enumeration (M and M1)", result)


def test_criterion_06_sieve_cross_checks():
    result = cli.run_suite("sieve", CONFIG)
    kinds = {row.k for row in result.rows}
    assert {"two-moment", "two-moment-first", "signed-split-plus",
            "signed-split-minus"} <= kinds
    assert any(row.k == "two-moment" and row.n == 8 for row in result.rows)
    assert any(row.k == "signed-split-plus" and row.n == 10 for row in result.rows)
    _report(6, "sieve route == closed forms (M, M1, signed splits)", result)


def test_criterion_07_gap3_equivalence():
    result = cli.run_suite("gap3", CONFIG)
    f9 = make_field(3, 2)
    assert count_nk_gap3(f9, 3, 1).value == 9
    assert count_nk_gap3(f9, 3, 0).value == 0
    assert count_nk_gap3(f9, 3, 2).value == 0
    assert any(row.k == "k=n vs M" for row in result.rows)
    assert {row.n for row in result.rows} >= {3, 4, 5, 6}
    _report(7, "gap-3 closed form == enumeration (incl. k = n link to M)", result)


def test_criterion_08_normalization_and_family_sums():
    ok = True
    checks = 0
    for p, e in cli.GAP1_FIELDS:
        f = make_field(p, e)
        for n in range(1, cli.GAP1_MAX_N[f.q] + 1):
            total = sum(count_nk_gap1(f, n, k).value for k in range(f.q + 1))
            ok &= total == f.q ** n
            checks += 1
    for p, e in cli.GAP2_FIELDS:
        f = make_field(p, e)
        for n in range(2, cli.GAP2_MAX_N[f.q] + 1):
            for b_index in range(f.q):
                total = sum(count_nk_gap2(f, n, k, f.element(b_index)).value
                            for k in range(f.q + 1))
                ok &= total == f.q ** (n - 1)
                checks += 1
            for k in range(n + 1):
                summed = sum(count_nk_gap2(f, n, k, f.element(bi)).value
                             for bi in range(f.q))
                ok &= summed == count_nk_gap1(f, n, k).value
                checks += 1
    f9 = make_field(3, 2)
    for n in cli.GAP3_DEGREES:
        total = sum(count_nk_gap3(f9, n, k).value for k in range(f9.q + 1))
        ok &= total == f9.q ** (n - 2)
        checks += 1
    _report(8, "sum over k is q^(ell+1); gap-2 family resums to gap-1",
            ok=ok, detail=f"{checks} identities")


def test_criterion_09_wenger_spectra():
    result = cli.run_suite("wenger", CONFIG)
    resolution = result.notes["variant1_low_exponent"]
    assert resolution["default_rule_matches_all"] is True
    assert resolution["alternative_rule_matches_all"] is False
    moment_rows = [row for row in result.rows if row.k == "moments"]
    assert len(moment_rows) == 8  # every acceptance family
    _report(9, "spectra: formula == oracle, moments verified, exponent rule resolved",
            result)


def test_criterion_10_property_suites_and_cli_verify_all():
    """The whole sweep as CSV: exit 0, every row a match, and the bytes
    pinned, so an oracle or closed form that changes any value fails here."""
    out = io.StringIO()
    code = cli.run_command(["--format", "csv", "verify", "--suite", "all"], out=out)
    text = out.getvalue()
    rows = text.splitlines()[1:]
    assert len(rows) == 8861 and all(row.endswith(",yes") for row in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    ok = code == 0 and digest == VERIFY_ALL_CSV_SHA256
    _report(10, "`verify --suite all` exits 0, byte-identical", ok=ok,
            detail=f"exit code {code}, {len(rows)} rows, sha256 {digest[:12]}")
