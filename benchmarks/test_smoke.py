"""Self-test of the benchmark: every workload on its smoke sub-sample.

    python3 -m pytest benchmarks/test_smoke.py

Runs the same command the benchmark is run with, plus --smoke, in both
modes, and checks the result line against BENCHMARK.json.  Also checks that
the output checks catch a wrong value and that the command refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
# Calls per smoke round that fail today: the gap-3 table at q=81, n=70 (k < n).
FAILED_PER_ROUND = {"verify": 0, "closed-forms": 70, "spectra": 0}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    rounds = 2 if trace else 1  # the traced run adds one traced round
    attempted_per_round = result["attempted"] // rounds
    assert result["attempted"] == rounds * attempted_per_round > 0
    assert result["failed"] == rounds * FAILED_PER_ROUND[workload]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_verify_check_catches_a_wrong_row():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import io

    import checks
    from fqcount import cli

    buf = io.StringIO()
    assert cli.run_command(["--format", "csv", "verify", "--suite", "gap1", "--max-q", "3"], buf) == 0
    text = buf.getvalue()
    rows, problems = checks.check_verify_csv(text, 1, cli.DEFAULT_SEED, cli.QUADLIN_INSTANCES,
                                             literal=False)
    assert rows > 0 and problems == []
    lines = text.splitlines()
    cells = lines[2].split(",")  # gap1 q=2 n=1 k=1: formula and oracle both 2
    cells[6] = cells[7] = str(int(cells[6]) + 1)
    lines[2] = ",".join(cells)
    _, problems = checks.check_verify_csv("\n".join(lines), 1, cli.DEFAULT_SEED,
                                          cli.QUADLIN_INSTANCES, literal=False)
    assert problems


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
