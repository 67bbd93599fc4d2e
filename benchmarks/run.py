"""Benchmark of fqcount: end-to-end metrics per workload, per-layer with --trace 1.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload closed-forms --seed 1 --seconds 2 --trace 0 --smoke

Each round runs in a fresh process (benchmarks/child.py), so it pays what a
user's session pays.  A run first starts one process that only sets up, to
fill the file cache, then SETUP_PROBES set-up-only processes, then whole
rounds until --seconds have passed.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 1 the run
adds one traced round and reports per-layer metrics instead; its spans go to
benchmarks/results/.  See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("verify", "closed-forms", "spectra")
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # every process is killed past this point of the run


class RunError(Exception):
    """A benchmark process failed; the run prints no result."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(request: dict, deadline: float) -> tuple[dict, float, float]:
    """Run one child; returns its result, launch time and peak RSS in MB."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FQCOUNT_")}
    env["FQCOUNT_PARALLELISM"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)]
    launched = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - clock()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunError(f"{request['workload']} {request['mode']} process exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), launched, usage.ru_maxrss / 1024


def tail(values: list[float]) -> float:
    """The 99th percentile (nearest rank), or, with fewer than 1000 samples,
    the highest rank that still has ten samples beyond it; the median when
    not even that exists."""
    ordered = sorted(values)
    rank = min(math.ceil(0.99 * len(ordered)), len(ordered) - 10)
    return ordered[rank - 1] if rank >= 1 else statistics.median(ordered)


def measure(args, deadline: float) -> dict:
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "full_check": False, "trace_path": None}
    launch(dict(base, mode="setup"), deadline)  # warm the file cache; not measured
    setups = []
    for _ in range(SETUP_PROBES):
        result, launched, _ = launch(dict(base, mode="setup"), deadline)
        setups.append(result["ready"] - launched)
    rounds = []
    start = clock()
    while not rounds or clock() - start < args.seconds:
        result, launched, rss = launch(dict(base, mode="round", full_check=not rounds), deadline)
        setups.append(result["ready"] - launched)
        rounds.append(dict(result, rss_mb=rss))
    return {"setups": setups, "rounds": rounds, "base": base}


def summarize(run: dict) -> tuple[dict, dict]:
    rounds = run["rounds"]
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) > 1:
        problems.append("rounds produced different outputs")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    # verify has no per-operation latency without hooks into the sweep, so a
    # latency sample there is one whole sweep.
    lat = [x for r in rounds for x in r["lat_ms"]] or [w * 1000 for w in walls]
    metrics = {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "checks": (rounds[0]["checks"], "count"),  # the fully checked round
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p99_ms": (tail(lat), "ms"),
    }
    head = {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds)}
    return head, metrics


def trace(args, run: dict, deadline: float) -> dict:
    """One traced round; per-layer metrics plus the tracing overhead."""
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{args.workload}-{args.seed}.json")
    request = dict(run["base"], mode="trace", trace_path=path)
    result, _, _ = launch(request, deadline)
    run["rounds"].append(dict(result, rss_mb=0.0))
    layers = dict(result["layers"])
    layers["trace.wall_s"] = result["wall_s"]
    layers["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in run["rounds"][:-1])
    print(f"tracing overhead: {layers['trace.wall_s'] / layers['trace.untraced_wall_s'] - 1:+.1%}"
          f" ({args.workload}, traced round against the untraced median)", file=sys.stderr)
    return {name: (layers[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a small sub-sample of the workload, for a quick self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fqcount", "__init__.py")):
        print(f"error: no fqcount sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = clock() + RUN_LIMIT_S
    try:
        run = measure(args, deadline)
        metrics = trace(args, run, deadline) if args.trace else None
        head, end_to_end = summarize(run)
    except (RunError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = metrics or end_to_end
    head["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
