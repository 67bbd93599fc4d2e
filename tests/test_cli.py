"""Command-line behavior: outputs, exit codes, the --budget and --format
flags, and byte determinism."""

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fqcount import cli, counting, ff, oracle, sieve, wenger


def run(argv):
    out = io.StringIO()
    code = cli.run_command(argv, out=out)
    return code, out.getvalue()


# Gap 1 at q = 5, n = 10: 5 | 10, so no translation pins c_9, and x^10 is the
# function x^2 on F_5, so the family is the homogeneous span of its tails.
# Its part of top degree d sweeps 5^(d-1) vectors, 5^(d-2) with c_(d-1) = 0
# when 5 does not divide d >= 2: 5 * (1 + 1 + 5 + 25 + 625 + 625 + 5^5 + 5^6
# + 5^7) = 490785 swept tails, over a budget of 10^4 or 2 * 10^4 and within
# the default 10^8.
ORACLE_COUNT = ["count", "--gap", "1", "--p", "5", "--e", "1", "--n", "10", "--k", "1",
                "--method", "oracle"]


def test_count_gap1_anchor():
    code, text = run(["count", "--gap", "1", "--p", "2", "--e", "1", "--n", "3", "--k", "1"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == "4"
    assert payload["method"] == "closed-form"


def test_count_payload_pinned():
    """The whole count payload: query keys, method and the reduced-regime note."""
    code, text = run(["count", "--gap", "2", "--p", "3", "--e", "1", "--n", "3",
                      "--k", "1", "--b", "1", "--method", "both"])
    assert code == 0
    assert json.loads(text) == {
        "match": True,
        "method": "closed-form",
        "note": "reduced-degree regime (n == q)",
        "oracle_value": "3",
        "query": {"b": "1", "e": "1", "ell": "1", "k": "1", "kind": "distinct-root-count",
                  "n": "3", "p": "3", "q": "3"},
        "value": "3",
    }
    code, text = run(["count", "--gap", "3", "--p", "3", "--e", "2", "--n", "9",
                      "--k", "3", "--method", "formula"])
    assert code == 0
    assert json.loads(text) == {
        "method": "closed-form",
        "note": "reduced-degree regime (n == q)",
        "query": {"b": "0", "e": "2", "ell": "6", "k": "3", "kind": "distinct-root-count",
                  "n": "9", "p": "3", "q": "9"},
        "value": "271488",
    }


def test_count_gap3_example_both_methods():
    code, text = run(["count", "--gap", "3", "--p", "3", "--e", "2",
                      "--n", "3", "--k", "1", "--method", "both"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == "9"
    assert payload["oracle_value"] == "9"
    assert payload["match"] is True


def test_field_summary():
    code, text = run(["field", "--p", "3", "--e", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["q"] == "9"
    assert payload["modulus"] == ["1", "0", "1"]
    assert len(payload["elements"]) == 9
    assert payload["elements"][0] == ["0", "0"]
    assert payload["elements"][4] == ["1", "1"]


def test_subcommand_smoke():
    assert run(["subset-sum", "--p", "5", "--e", "1", "--n", "2", "--b", "0",
                "--method", "both"])[0] == 0
    assert run(["mss2", "--p", "3", "--e", "2", "--t", "4"])[0] == 0
    assert run(["quadlin", "--p", "3", "--e", "1", "--a", "1,2", "--a0", "0",
                "--b", "1,1", "--b0", "0"])[0] == 0
    assert run(["sieve", "--p", "3", "--e", "2", "--n", "4", "--system", "two-moment"])[0] == 0
    assert run(["sieve", "--p", "3", "--e", "1", "--n", "2"])[0] == 0


def test_wenger_both_methods_verified(tmp_path):
    export = tmp_path / "edges.txt"
    code, text = run(["wenger", "--variant", "1", "--p", "3", "--e", "1", "--m", "1",
                      "--method", "both", "--export", str(export), "--check-moments", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["formula"]["verified"] is True
    assert payload["oracle"]["levels"] == [
        {"i": "3", "mult": "1"}, {"i": "2", "mult": "2"},
        {"i": "1", "mult": "2"}, {"i": "0", "mult": "4"}]
    assert payload["moment_check"] is True
    assert payload["exported_edges"] == "27"
    assert export.read_text().count("\n") == 27


def test_wenger_variant2_oracle_route_on_any_field():
    """Only the closed form needs odd square q; the oracle and the moment
    check run variant 2 on a prime field."""
    code, text = run(["wenger", "--variant", "2", "--p", "7", "--e", "1", "--m", "1",
                      "--method", "oracle", "--check-moments", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["moment_check"] is True
    assert payload["oracle"]["levels"] == [
        {"i": "7", "mult": "1"}, {"i": "3", "mult": "12"},
        {"i": "1", "mult": "6"}, {"i": "0", "mult": "30"}]


def test_mss2_query_names_its_predicate():
    """The two predicates give different oracle values here, so the query
    must say which one ran."""
    answers = {}
    for predicate in ("power-sums", "elementary"):
        code, text = run(["mss2", "--p", "2", "--e", "2", "--t", "2", "--m1", "1", "--m2", "1",
                          "--method", "oracle", "--predicate", predicate])
        assert code == 0
        payload = json.loads(text)
        assert payload["query"]["predicate"] == predicate
        answers[predicate] = payload["value"]
    assert answers == {"power-sums": "2", "elementary": "1"}


def test_usage_errors_exit_1():
    assert run(["count", "--gap", "4", "--p", "3", "--e", "1", "--n", "5", "--k", "1"])[0] == 1
    assert run(["nonsense"])[0] == 1
    assert run(["count", "--gap", "1", "--p", "4", "--e", "1", "--n", "2", "--k", "0"])[0] == 1
    assert run(["count", "--gap", "3", "--p", "3", "--e", "1", "--n", "4", "--k", "1"])[0] == 1
    assert run(["quadlin", "--p", "2", "--e", "2", "--a", "1", "--b", "1"])[0] == 1
    assert run(["count", "--gap", "1", "--p", "2", "--e", "1", "--n", "3", "--k", "1",
                "--budget", "10"])[0] == 1  # below the budget floor


@pytest.mark.parametrize("argv", [
    "count --gap 2 --p 3 --e 1 --n 1 --k 0",
    "count --gap 1 --p 3 --e 1 --n 3 --k -1",
    "subset-sum --p 3 --e 1 --n 4",
    "mss2 --p 3 --e 2 --t 0",
    "mss2 --p 3 --e 2 --t 11 --mode first-distinct",
    "mss2 --p 5 --e 1 --t 2 --mode sum-only --m2 3 --predicate elementary",
    "quadlin --p 3 --e 1 --a 0,1 --b 1,1",
    "quadlin --p 3 --e 1 --a 1 --b 1 --a0 9",
    "sieve --p 3 --e 1 --n 0",
    "sieve --p 3 --e 1 --n 2 --system two-moment",
    "sieve --p 3 --e 1 --n 1025",
    "wenger --variant 1 --p 3 --e 1 --m 3",
    "wenger --variant 1 --p 3 --e 1 --m 1 --check-moments 1",
    "wenger --variant 2 --p 7 --e 1 --m 1",
    "wenger --variant 2 --p 2 --e 2 --m 1 --method formula",
])
def test_user_preconditions_exit_1(argv, capsys):
    assert run(argv.split())[0] == 1
    assert capsys.readouterr().err.startswith("error: ")


QUERY_ARGS = {"count": "--gap 1 --n 3 --k 1", "subset-sum": "--n 2", "mss2": "--t 4",
              "quadlin": "--a 1,2 --b 1,1"}


@pytest.mark.parametrize("name", cli.QUERIES)
def test_query_default_method(name):
    """count and subset-sum default to the closed form; mss2 and quadlin to both routes."""
    code, text = run([name, "--p", "3", "--e", "2", *QUERY_ARGS[name].split()])
    assert code == 0
    payload = json.loads(text)
    assert payload["method"] == "closed-form"
    assert ("oracle_value" in payload) == (name in ("mss2", "quadlin"))


def test_count_oracle_past_q_answers_zero():
    """No polynomial over F_q has more than q distinct roots, so a --k past q
    reads 0 from the root oracle's tally as well as from the closed form."""
    code, text = run(["count", "--gap", "1", "--p", "3", "--e", "1", "--n", "2", "--k", "17",
                      "--method", "both"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == payload["oracle_value"] == "0"


def test_subset_sum_oracle_reads_the_sum_table():
    """subset-sum --method oracle answers from subset_pair_tally's sum counts."""
    fld = ff.make_field(3, 2)
    for n in range(fld.q + 1):
        table = oracle.subset_pair_tally(fld, n, "sum-only")
        for b in range(fld.q):
            code, text = run(["subset-sum", "--p", "3", "--e", "2", "--n", str(n),
                              "--b", str(b), "--method", "oracle"])
            assert code == 0 and json.loads(text)["value"] == str(table[b]), (n, b)


def test_oracle_only_routes_skip_closed_form_preconditions():
    assert run(["count", "--gap", "3", "--p", "3", "--e", "1", "--n", "4", "--k", "1",
                "--method", "oracle"])[0] == 0
    assert run(["mss2", "--p", "3", "--e", "2", "--t", "0", "--method", "oracle"])[0] == 0
    assert run(["quadlin", "--p", "2", "--e", "2", "--a", "1", "--b", "1",
                "--method", "oracle"])[0] == 0


def test_internal_value_error_exits_3(monkeypatch, capsys):
    """A ValueError from inside the package, past the command's own screening
    of its arguments, is an internal fault, not a usage error."""
    def failing(*args):
        raise ValueError("unsupported completion gap 5")

    monkeypatch.setattr(wenger, "nk_table", failing)
    code, text = run(["wenger", "--variant", "1", "--p", "3", "--e", "1", "--m", "1",
                      "--method", "formula"])
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err == "internal error: unsupported completion gap 5\n"


def test_budget_exceeded_exit_2():
    """Gap 1 at q = 5, n = 10 sweeps 490785 tails (`ORACLE_COUNT`), over a
    budget of 10^4."""
    code, _ = run(["--budget", "10000", *ORACLE_COUNT])
    assert code == 2
    # the oracle's lookup tables stop at q = 1024: a size refusal too
    code, _ = run(["count", "--gap", "1", "--p", "2", "--e", "11", "--n", "1", "--k", "1",
                   "--method", "oracle"])
    assert code == 2


def test_closed_form_table_budget_exit_2(monkeypatch, capsys):
    """A closed-form count builds its family's whole N_k table, so the table's
    size bound is charged to --budget first: near q = 3^10 and q = 2^20 the
    default budget refuses before any table is built."""
    count = ["count", "--gap", "1", "--p", "5", "--e", "4", "--n", "624", "--k", "3"]
    assert counting.nk_table_bytes(625, 624, 1) == 488125
    assert run(["--budget", "488124"] + count)[0] == 2
    assert run(["--budget", "488125"] + count)[0] == 0

    def unbuilt(*args):
        raise AssertionError("a refused table was built")

    monkeypatch.setattr(counting, "nk_table", unbuilt)
    for p, e in ((3, 10), (2, 20)):
        code, text = run(["count", "--gap", "1", "--p", str(p), "--e", str(e),
                          "--n", str(p ** e - 2), "--k", "3"])
        assert (code, text) == (2, "")
        assert "closed-form N_k table needs" in capsys.readouterr().err


def test_subset_dp_budget_refusal_exits_2(capsys):
    code, text = run(["--budget", "10000", "mss2", "--p", "5", "--e", "2", "--t", "12",
                      "--method", "oracle"])
    assert (code, text) == (2, "")
    assert "146250 DP state updates" in capsys.readouterr().err


def test_moment_check_large_family_exits_0():
    """31250 vertices: no size refusal on the one moment route."""
    code, text = run(["wenger", "--variant", "1", "--p", "5", "--e", "2", "--m", "2",
                      "--check-moments", "4"])
    assert code == 0
    assert json.loads(text)["moment_check"] is True


def test_internal_fault_exits_3(monkeypatch, capsys):
    """A failed exact self-check is an internal fault, not a usage error."""
    def failing(field, n, k):
        raise counting.IntegralityError("gap-1 closed form evaluated to a non-integer")

    monkeypatch.setattr(counting, "count_nk_gap1", failing)
    code, text = run(["count", "--gap", "1", "--p", "2", "--e", "1", "--n", "3", "--k", "1"])
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("internal error: ")


def test_global_options_after_subcommand():
    args = ["verify", "--suite", "gap1", "--max-q", "5"]
    code_before, before = run(["--format", "csv"] + args)
    code_after, after = run(args + ["--format", "csv"])
    assert code_before == code_after == 0
    assert before == after and before.startswith("suite,")
    assert run(ORACLE_COUNT + ["--budget", "10000"])[0] == 2  # 490785 swept tails
    # a global option given before the subcommand survives one the subcommand omits
    assert run(["--budget", "10000"] + ORACLE_COUNT)[0] == 2


def test_sieve_non_divisible_total_is_a_mismatch(monkeypatch):
    real = sieve.sieve_distinct
    monkeypatch.setattr(sieve, "sieve_distinct", lambda n, count: real(n, count) + 1)
    code, text = run(["sieve", "--p", "3", "--e", "2", "--n", "4", "--system", "two-moment"])
    assert code == 3
    payload = json.loads(text)
    assert payload["match"] is False
    assert payload["subsets"] is None


def test_sieve_reaches_the_field_order():
    """The recurrence answers at n = q = 81, and at q + 1 for the first-(n-1)
    variant, where the cycle-type walk stopped at 64."""
    code, text = run(["sieve", "--p", "3", "--e", "4", "--n", "81", "--system", "sum"])
    assert code == 0 and json.loads(text)["match"] is True
    code, text = run(["sieve", "--p", "3", "--e", "4", "--n", "82", "--system", "two-moment-first"])
    assert code == 0 and json.loads(text)["match"] is True


def test_sieve_charges_recurrence_steps_to_the_budget(capsys):
    """Three sums of 200 * 201 / 2 steps are over a budget of 10^4."""
    argv = ["--budget", "10000", "sieve", "--p", "5", "--e", "4", "--n", "200",
            "--system", "two-moment"]
    assert run(argv) == (2, "")
    assert "60300 recurrence steps" in capsys.readouterr().err


def test_counts_past_4300_digits_print_in_full():
    """The command prints an exact count of more than 4300 decimal digits,
    past the interpreter's default conversion limit."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "fqcount", "--format", "csv", "count", "--gap", "1", "--p", "2",
         "--e", "20", "--n", "2000", "--k", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    value = next(line for line in proc.stdout.splitlines() if line.startswith("value,"))
    assert len(value) > 4300


def test_help_exits_zero():
    assert run(["--help"])[0] == 0


def test_verify_single_suite_ok():
    code, text = run(["verify", "--suite", "gap1", "--max-q", "5", "--max-n", "4"])
    assert code == 0
    payload = json.loads(text)
    assert payload["ok"] is True
    assert payload["suites"]["gap1"]["mismatches"] == "0"


def test_verify_detects_corrupted_formula(monkeypatch):
    """Harness self-test: a deliberately wrong closed form must surface as
    exit code 3 with a reproducer line.  verify reads whole tables, so the
    gap-2 table of degree 3 is corrupted at k = 1."""
    real = counting.nk_table

    def corrupted(field, gap, n, b=None):
        table = real(field, gap, n, b)
        if gap == 2 and n == 3:
            return (table[0], table[1] + 1, *table[2:])
        return table

    monkeypatch.setattr(counting, "nk_table", corrupted)
    code, text = run(["verify", "--suite", "gap2", "--max-q", "3"])
    assert code == 3
    assert "MISMATCH" in text
    assert "count --gap 2" in text


@pytest.mark.parametrize("name", cli.SUITE_NAMES)
def test_verify_filters_apply_to_every_suite(name):
    # gap3 and mss2 have no field with q <= 5: their smallest is q = 9
    max_q = 9 if name in ("gap3", "mss2") else 5
    result = cli.run_suite(name, cli.RunConfig(), max_q=max_q, max_n=3)
    assert result.rows and result.ok
    assert all(row.q <= max_q for row in result.rows)
    assert all(row.q == 0 for row in result.rows if row.k == "exponent-rule")
    assert all(row.n <= 3 for row in result.rows if isinstance(row.n, int))


def test_verify_csv_rows(tmp_path):
    path = tmp_path / "rows.csv"
    code, _ = run(["verify", "--suite", "subset", "--max-q", "4", "--csv", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "suite,q,n,ell,k,b,formula_value,oracle_value,match"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_output_byte_determinism_run_twice():
    for fmt in ("json", "csv"):
        args = ["--format", fmt, "verify", "--suite", "quadlin", "--max-q", "5", "--max-n", "2"]
        code, first = run(args)
        assert code == 0 and first
        assert run(args) == (code, first)


def test_budget_and_format_flags():
    assert run(["--budget", "20000"] + ORACLE_COUNT)[0] == 2  # 490785 swept tails
    # given before and after the subcommand, the later --budget decides
    assert run(["--budget", "20000"] + ORACLE_COUNT + ["--budget", str(10 ** 8)])[0] == 0
    assert run(["--budget", str(10 ** 8)] + ORACLE_COUNT + ["--budget", "20000"])[0] == 2
    code, text = run(["--format", "plain", "count", "--gap", "1", "--p", "2", "--e", "1",
                      "--n", "3", "--k", "1"])
    assert code == 0
    assert 'value = "4"' in text


def test_settings_variables_are_ignored(monkeypatch):
    """--budget and --format are the only route to their settings."""
    commands = (["count", "--gap", "1", "--p", "5", "--e", "1", "--n", "8", "--k", "1",
                 "--method", "oracle"],
                ["count", "--gap", "1", "--p", "2", "--e", "1", "--n", "3", "--k", "1"])
    plain = [run(argv) for argv in commands]
    assert [code for code, _ in plain] == [0, 0]
    for name, value in (("FQCOUNT_BUDGET", "20000"), ("FQCOUNT_FORMAT", "plain"),
                        ("FQCOUNT_PARALLELISM", "-3")):
        monkeypatch.setenv(name, value)
        assert [run(argv) for argv in commands] == plain, name
    assert run(["--parallelism", "2", "field", "--p", "3", "--e", "1"])[0] == 1


def test_config_flag_exits_1(tmp_path, capsys):
    config = tmp_path / "fqcount.conf"
    config.write_text("budget = 20000\n")
    field = ["field", "--p", "2", "--e", "1"]
    for argv in (["--config", str(config)] + field, field + ["--config", str(config)]):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")


def test_unopenable_output_path_exits_1(tmp_path, capsys):
    export = tmp_path / "missing" / "edges.txt"
    assert run(["wenger", "--variant", "1", "--p", "2", "--e", "1", "--m", "1",
                "--method", "oracle", "--export", str(export)]) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_like_cat():
    """A reader that stops after one line, as `| head -1` does, ends the
    command by SIGPIPE with nothing on stderr.  The subset CSV (about 109 kB)
    outgrows a 64 KiB pipe, so the command is still writing when the pipe
    closes."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fqcount", "--format", "csv", "verify", "--suite", "subset"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"suite,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert b"error:" not in stderr


def test_counts_serialize_as_strings():
    code, text = run(["count", "--gap", "1", "--p", "3", "--e", "2", "--n", "6", "--k", "0"])
    assert code == 0
    payload = json.loads(text)
    assert isinstance(payload["value"], str)
    int(payload["value"])  # decimal string


def test_csv_output_format_single_command():
    code, text = run(["--format", "csv", "count", "--gap", "1", "--p", "2", "--e", "1",
                      "--n", "3", "--k", "1"])
    assert code == 0
    assert any(line.startswith("value,") for line in text.splitlines())


def test_flags_do_not_carry_over_between_commands():
    """The parser is built once per process; a flag given to one in-process
    command is not seen by the next."""
    count = ["count", "--gap", "1", "--p", "2", "--e", "1", "--n", "3", "--k", "1"]
    assert cli.build_parser() is cli.build_parser()
    code, csv_text = run(["--format", "csv"] + count)
    assert code == 0 and any(line.startswith("value,") for line in csv_text.splitlines())
    code, text = run(count)
    assert code == 0 and json.loads(text)["value"] == "4"
    assert run(["--budget", "20000"] + ORACLE_COUNT)[0] == 2
    assert run(ORACLE_COUNT)[0] == 0


def test_quadlin_cell_evaluates_invariants_once_per_instance(monkeypatch):
    """The case and the closed-form count of a drawn instance come from one
    evaluation of the invariants."""
    calls = []
    original = counting.quadlin_invariants
    monkeypatch.setattr(counting, "quadlin_invariants",
                        lambda *args: calls.append(args) or original(*args))
    rows = cli._quadlin_check(cli.RunConfig(), ff.make_field(5, 1), 3)
    assert len(rows) == cli.QUADLIN_INSTANCES
    assert all(row[3] == row[4] for row in rows)
    assert 0 < len(calls) <= len(rows)


def test_quadlin_cell_makes_one_oracle_call(monkeypatch):
    """A cell's instances go to the oracle as one batch, and its oracle
    column equals the instance-by-instance counts."""
    calls = []
    original = oracle.quadlin_counts
    monkeypatch.setattr(oracle, "quadlin_counts",
                        lambda *args: calls.append(args) or original(*args))
    fld = ff.make_field(3, 2)
    rows = cli._quadlin_check(cli.RunConfig(), fld, 3)
    assert len(calls) == 1 and len(calls[0][1]) == len(rows)
    instances = cli.quadlin_instances(fld, 3, cli.QUADLIN_INSTANCES, cli.DEFAULT_SEED)
    assert [row[4] for row in rows] == \
        [oracle.quadlin_counts(fld, [instance[:4]])[0] for instance in instances]
