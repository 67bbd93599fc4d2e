"""One benchmark process: set up a workload, run its operations, check them.

    python3 benchmarks/child.py '<json request>'

run.py starts one of these per round, so every round pays interpreter start,
``import fqcount`` and the workload's set-up as a user's session would.  The
request names the workload, seed, mode (``setup``: stop once set up;
``round``: run the operations; ``trace``: run them under the tracer), whether
to run the full output checks, and whether to use the smoke sub-sample.  The
process prints one JSON line on stdout and nothing else there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from fqcount import cli, counting, ff, oracle, wenger  # noqa: E402

if not os.path.abspath(ff.__file__).startswith(SRC + os.sep):
    sys.exit(f"fqcount was imported from {ff.__file__}, not from {SRC}")

# Fields by order; the odd-characteristic even-degree ones carry gap 3, the
# two-moment counts and variant-2 spectra.
FIELDS = {49: (7, 2), 64: (2, 6), 81: (3, 4), 121: (11, 2), 256: (2, 8), 625: (5, 4)}
ODD_SQUARE = (49, 81, 121, 625)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    """``fqcount --format csv verify --suite all``; one operation is one suite."""

    SMOKE_FILTERS = ["--max-q", "5", "--max-n", "3"]

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.filters = self.SMOKE_FILTERS if smoke else []
        self.suites = tracing.SUITES

    def setup(self) -> None:
        pass  # importing fqcount.cli is the whole set-up

    def prepare(self) -> None:
        pass

    def run(self, tracer) -> tuple[list, list[float]]:
        """Run the sweep; under the tracer, one suite per command."""
        if tracer is None:
            buf = io.StringIO()
            code = cli.run_command(["--format", "csv", "verify", "--suite", "all", *self.filters], buf)
            return [(code, buf.getvalue())], []
        outputs = []
        for name in self.suites:
            buf = io.StringIO()
            idx = tracer.begin(f"cli.suite.{name}")
            try:
                code = cli.run_command(["--format", "csv", "verify", "--suite", name, *self.filters], buf)
            finally:
                tracer.end(idx)
            outputs.append((code, buf.getvalue()))
        return outputs, []

    def judge(self, outputs, full: bool) -> dict:
        header, body, extra = None, [], []
        codes = [code for code, _ in outputs]
        for _, text in outputs:
            lines = text.splitlines()
            if lines:
                header = lines[0]
            for line in lines[1:]:  # a mismatch appends a report after the rows
                (body if line.split(",", 1)[0] in self.suites else extra).append(line)
        text = "\n".join([header or ""] + body)
        rows, problems = checks.check_verify_csv(
            text, self.seed, cli.DEFAULT_SEED, cli.QUADLIN_INSTANCES, literal=full)
        if any(codes):
            problems.append(f"verify exit codes {codes}: {extra[:2]}")
        seen = {line.split(",", 1)[0] for line in body}
        if not self.filters and seen != set(self.suites):
            problems.append(f"suites without rows: {sorted(set(self.suites) - seen)}")
        if any(code not in (cli.EXIT_OK, cli.EXIT_MISMATCH) for code in codes):
            failed = len(self.suites)  # the command stopped before writing its rows
        else:
            failed = len({line.split(",", 1)[0] for line in body if not line.endswith(",yes")})
        return {"attempted": len(self.suites), "failed": failed, "checks": rows,
                "problems": problems, "digest": _digest(text)}


# ---------------------------------------------------------------------------
# closed-forms
# ---------------------------------------------------------------------------

def closed_form_groups(seed: int, smoke: bool) -> list[tuple]:
    """The seeded batch, as groups of library calls.

    Table sizes and the heavy cells are fixed, so every seed gives the same
    number of calls; the seed draws the reduced-regime degrees, b values,
    subset and moment sizes (evenly spread from a seeded offset, so that the
    cost stays nearly the same), quadlin coefficients and the fields of the
    spectra.  The gap-3 tables with 64 < n <= 80 are fixed as well: their
    calls with k < n fail today (cycle-type bound), and k = n succeeds
    through M(n,0,0).
    """
    rng = random.Random(f"closed-forms:{seed}")
    rint = rng.randint

    def spread(lo, hi, count):  # count sizes evenly spaced over [lo, hi]
        offset = rint(0, hi - lo)
        return [lo + (offset + j * (hi - lo + 1) // count) % (hi - lo + 1) for j in range(count)]

    if smoke:
        return [("gap1", 49, 10), ("gap1", 49, rint(49, 98)), ("gap2", 64, 8, rint(0, 63)),
                ("gap3", 81, 12), ("gap3", 81, 82), ("gap3", 81, 70),
                ("M", 49, [rint(1, 49) for _ in range(4)]), ("M1", 49, [rint(2, 50) for _ in range(4)]),
                ("subset-sweep", 49, rint(0, 49)), ("subset", 64, [(rint(0, 64), rint(0, 63))]),
                *(("quadlin", 49, 3, case, rint(0, 10 ** 9)) for case in (1, 2, 3, 4)),
                ("spectrum", 1, 64, 3), ("spectrum", 2, 49, 3)]
    groups: list[tuple] = [("gap1", 625, 624), ("gap2", 625, 624, rint(0, 624))]
    groups += [("gap1", q, q // 2) for q in (49, 64, 81, 121, 256)]
    groups += [("gap1", q, rint(q, q + 8)) for q in (49, 64, 81, 121)]
    groups += [("gap2", q, q // 2, rint(0, q - 1)) for q in (49, 64, 81, 121)]
    groups += [("gap2", 49, 49, rint(0, 48)), ("gap2", 64, 64, rint(0, 63)),
               ("gap2", 81, rint(82, 90), rint(0, 80))]
    groups += [("gap3", 49, 28), ("gap3", 625, 28)]  # p(28) cycle types per call
    groups += [("gap3", 49, 14), ("gap3", 81, 18), ("gap3", 121, 20), ("gap3", 625, 15)]
    groups += [("gap3", 49, 49), ("gap3", 81, 82), ("gap3", 121, rint(123, 131))]
    groups += [("gap3", 81, 70), ("gap3", 121, 80)]  # fail for k < n today
    for q in ODD_SQUARE:
        groups.append(("M", q, spread(1, q, 10)))
        groups.append(("M1", q, spread(2, q + 1, 10)))
    groups += [("subset-sweep", q, rint(q // 4, 3 * q // 4)) for q in (49, 64)]
    groups += [("subset", q, [(n, rint(0, q - 1)) for n in spread(0, q, 5)]) for q in FIELDS]
    groups += [("quadlin", q, n, case, rint(0, 10 ** 9))
               for q in ODD_SQUARE for n in (2, 8, 16, 24, 32, 40) for case in (1, 2, 3, 4)]
    for m in (2, 6, 10, 14, 18, 20):
        groups.append(("spectrum", 1, rng.choice(sorted(FIELDS)), m))
        groups.append(("spectrum", 2, rng.choice(ODD_SQUARE), m))
    return groups


def quadlin_instance(fld, n: int, case: int, subseed: int):
    """Coefficients (a, a0, bvec, b0) with the requested invariant case.

    Cases 3 and 4 need b = sum(b_i^2 / a_i) = 0, which random draws almost
    never give, so the last a_i is solved for; case 1 solves a0 from
    b0^2 = a0*b.
    """
    rng = random.Random(subseed)
    q = fld.q
    el = fld.element
    while True:
        a = [el(rng.randrange(1, q)) for _ in range(n)]
        bvec = [el(rng.randrange(q)) for _ in range(n)]
        partial = fld.zero
        for ai, bi in zip(a[:-1], bvec[:-1]):
            partial = fld.add(partial, fld.mul(fld.mul(bi, bi), fld.inv(ai)))
        if case in (3, 4):
            if partial.is_zero():
                bvec[-1] = fld.zero
            else:
                bvec[-1] = el(rng.randrange(1, q))
                a[-1] = fld.neg(fld.mul(fld.mul(bvec[-1], bvec[-1]), fld.inv(partial)))
        if all(bi.is_zero() for bi in bvec):
            continue
        b_inv = fld.add(partial, fld.mul(fld.mul(bvec[-1], bvec[-1]), fld.inv(a[-1])))
        if (case in (3, 4)) != b_inv.is_zero():
            continue
        b0 = el(rng.randrange(q))
        if case == 3:
            return a, el(rng.randrange(q)), bvec, fld.zero
        if case == 4:
            return a, el(rng.randrange(q)), bvec, b0 if not b0.is_zero() else fld.one
        if case == 1:
            return a, fld.mul(fld.mul(b0, b0), fld.inv(b_inv)), bvec, b0
        a0 = el(rng.randrange(q))
        if not fld.sub(fld.mul(b0, b0), fld.mul(a0, b_inv)).is_zero():
            return a, a0, bvec, b0


class ClosedForms:
    """Seeded library calls to the closed forms at q in {49, 64, 81, 121, 256, 625}."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.groups = closed_form_groups(seed, smoke)

    def setup(self) -> None:
        self.fields = {q: ff.make_field(p, e) for q, (p, e) in FIELDS.items()}

    def prepare(self) -> None:
        """Expand the groups into calls (group index, function, arguments), in
        seeded order, so that the heavy calls meet the host's load at many
        moments of the round rather than in one stretch."""
        self.calls = []
        for gi, g in enumerate(self.groups):
            kind, q = g[0], g[1]
            fld = self.fields[q] if kind != "spectrum" else self.fields[g[2]]
            add = lambda fn, *args: self.calls.append((gi, fn, args))  # noqa: E731
            if kind in ("gap1", "gap2", "gap3"):
                n = g[2]
                for k in range(min(n, q) + 1):
                    if kind == "gap1":
                        add(counting.count_nk_gap1, fld, n, k)
                    elif kind == "gap2":
                        add(counting.count_nk_gap2, fld, n, k, fld.element(g[3]))
                    else:
                        add(counting.count_nk_gap3, fld, n, k)
            elif kind in ("M", "M1"):
                fn = counting.moment_subset_count if kind == "M" else counting.moment_subset_count_m1
                for n in g[2]:
                    add(fn, fld, n)
            elif kind == "subset-sweep":
                for b in range(q):
                    add(counting.subset_sum_count, fld, g[2], fld.element(b))
            elif kind == "subset":
                for n, b in g[2]:
                    add(counting.subset_sum_count, fld, n, fld.element(b))
            elif kind == "quadlin":
                add(counting.quad_lin_solution_count, fld, *quadlin_instance(fld, g[2], g[3], g[4]))
            else:
                add(wenger.spectrum_formula, wenger.WengerFamily(g[1], fld, g[3]))
        random.Random(f"closed-forms-order:{self.seed}").shuffle(self.calls)

    def run(self, tracer) -> tuple[list, list[float]]:
        return _timed_calls([(fn, args) for _, fn, args in self.calls])

    def judge(self, outputs, full: bool) -> dict:
        values = [getattr(o, "value", getattr(o, "entries", None)) for o in outputs]
        by_group: dict[int, list] = {}
        for (gi, _, args), v in zip(self.calls, values):
            by_group.setdefault(gi, []).append((args, v))
        problems, made = [], 0
        for gi, g in enumerate(self.groups):
            kind, q = g[0], g[1]
            got = by_group.get(gi, [])
            if kind == "gap3" and g[2] < q:
                n, n_n = g[2], next(v for args, v in got if args[2] == g[2])
                if n_n is not None:
                    made += 1
                    if n_n != counting.moment_subset_count(self.fields[q], n).value:
                        problems.append(f"gap3 q={q} n={n}: N_n != M(n,0,0)")
            if any(v is None for _, v in got):
                continue  # identities need every value of the group
            if kind in ("gap1", "gap2", "gap3"):
                gap, n = int(kind[-1]), g[2]
                made += 1
                if sum(v for _, v in got) != checks.table_total(gap, q, n):
                    problems.append(f"{kind} q={q} n={n}: sum over k is not q^{n - gap + 1}")
            elif kind == "subset-sweep":
                made += 1
                if sum(v for _, v in got) != math.comb(q, g[2]):
                    problems.append(f"subset q={q} n={g[2]}: sum over b is not C(q, n)")
            elif kind == "spectrum":
                made += 1
                problems += checks.spectrum_sums(g[2], g[3], got[0][1])
        if full:
            made, problems = self._quadlin_sums(made, problems)
        return {"attempted": len(values), "failed": values.count(None), "checks": made,
                "problems": problems, "digest": _digest(repr(values))}

    def _quadlin_sums(self, made: int, problems: list) -> tuple[int, list]:
        """Sampled quadlin instances at q <= 81: counts over all a0 sum to q^(n-1)."""
        rng = random.Random(f"closed-forms-check:{self.seed}")
        calls = [c for c in self.calls
                 if c[1] is counting.quad_lin_solution_count and c[2][0].q <= 81]
        for _, fn, (fld, a, _, bvec, b0) in rng.sample(calls, min(2, len(calls))):
            made += 1
            total = sum(fn(fld, a, fld.element(i), bvec, b0).value for i in range(fld.q))
            if total != fld.q ** (len(a) - 1):
                problems.append(f"quadlin q={fld.q} n={len(a)}: sum over a0 is not q^(n-1)")
        return made, problems


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

# (variant, p, e, m, T): T is the number of nonzero levels, for a complete
# moment check; None runs formula and oracle only.  The wide families
# enumerate 10^5..10^7 coefficient vectors; the checked ones sit on both
# sides of the 4096-vertex dense limit.
SPECTRA = (
    (1, 2, 6, 3, None), (1, 2, 8, 2, None), (1, 5, 2, 4, None), (1, 3, 5, 2, None),
    (2, 7, 2, 3, None), (2, 5, 4, 1, None), (1, 11, 2, 2, None), (2, 3, 4, 2, None),
    (1, 5, 2, 1, 3), (1, 17, 1, 1, 3), (2, 3, 2, 1, 2),      # dense moment route
    (1, 7, 1, 3, 5), (1, 13, 1, 2, 4),                       # matrix-free route
)
SMOKE_SPECTRA = ((1, 2, 3, 2, None), (1, 5, 1, 1, 3), (2, 3, 2, 1, 2))
EDGE_SAMPLES = 300


class Spectra:
    """``fqcount wenger --method both [--check-moments T]`` per family."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.families = list(SMOKE_SPECTRA if smoke else SPECTRA)
        random.Random(f"spectra:{seed}").shuffle(self.families)

    def setup(self) -> None:
        for p, e in sorted({(p, e) for _, p, e, _, _ in self.families}):
            oracle.field_tables(ff.make_field(p, e))

    def prepare(self) -> None:
        self.argvs = []
        for variant, p, e, m, big_t in self.families:
            argv = ["--format", "json", "wenger", "--variant", str(variant), "--p", str(p),
                    "--e", str(e), "--m", str(m), "--method", "both"]
            self.argvs.append(argv + (["--check-moments", str(big_t)] if big_t else []))

    def run(self, tracer) -> tuple[list, list[float]]:
        def command(argv):
            buf = io.StringIO()
            if cli.run_command(argv, buf) != 0:
                raise RuntimeError(f"exit code != 0 for {' '.join(argv)}")
            return buf.getvalue()
        return _timed_calls([(command, (argv,)) for argv in self.argvs])

    def judge(self, outputs, full: bool) -> dict:
        problems, made = [], 0
        rng = random.Random(f"spectra-check:{self.seed}")
        for (variant, p, e, m, big_t), text in zip(self.families, outputs):
            if text is None:
                continue
            q = p ** e
            payload = json.loads(text)
            levels = {kind: [(int(x["i"]), int(x["mult"])) for x in payload[kind]["levels"]]
                      for kind in ("formula", "oracle")}
            made += len(levels["oracle"])
            if levels["formula"] != levels["oracle"] or payload["formula"].get("verified") is not True:
                problems.append(f"wenger {variant},{q},{m}: formula and oracle disagree")
            problems += checks.spectrum_sums(q, m, levels["oracle"])
            if big_t:
                made += 1
                if payload.get("moment_check") is not True:
                    problems.append(f"wenger {variant},{q},{m}: moment check failed")
                if big_t != sum(1 for i, _ in levels["oracle"] if i > 0):
                    problems.append(f"wenger {variant},{q},{m}: T is not the nonzero level count")
            if full and e == 1:
                made += 1
                problems += self._edges(variant, p, m, rng)
        return {"attempted": len(outputs), "failed": outputs.count(None), "checks": made,
                "problems": problems, "digest": _digest(repr(outputs))}

    @staticmethod
    def _edges(variant: int, p: int, m: int, rng) -> list[str]:
        """A seeded sample of the built graph's edges, rechecked mod p."""
        fld = ff.make_field(p, 1)
        graph = wenger.build_graph(wenger.WengerFamily(variant, fld, m))
        lines = graph.lines_of_point
        digits = lambda index: [(index // p ** t) % p for t in range(m + 1)]  # noqa: E731
        for _ in range(EDGE_SAMPLES):
            point, l1 = rng.randrange(lines.shape[0]), rng.randrange(p)
            line = digits(int(lines[point, l1]))
            if line[0] != l1 or not checks.wenger_edge_holds(p, variant, m, digits(point), line):
                return [f"wenger {variant},{p},{m}: edge {digits(point)} -> {line} fails"]
        return []


# ---------------------------------------------------------------------------
# Process entry.
# ---------------------------------------------------------------------------

WORKLOADS = {"verify": Verify, "closed-forms": ClosedForms, "spectra": Spectra}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _timed_calls(calls) -> tuple[list, list[float]]:
    """Run calls in order; a call that raises is recorded as None."""
    outputs, latencies, errors = [], [], set()
    for fn, args in calls:
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            message = f"operation failed: {type(exc).__name__}: {exc}"
            if message not in errors:
                errors.add(message)
                print(message, file=sys.stderr)
            outputs.append(None)
            continue
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, latencies


def main(request: dict) -> dict:
    tracer = None
    if request["mode"] == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[request["workload"]](request["seed"], request["smoke"])
    workload.setup()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if request["mode"] == "setup":
        return {"ready": ready}
    if tracer is not None:
        tracer.active = False
    workload.prepare()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    outputs, latencies = workload.run(tracer)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    result = workload.judge(outputs, request["full_check"])
    result.update(ready=ready, wall_s=wall, lat_ms=[x * 1000 for x in latencies])
    if tracer is not None:
        result["layers"] = tracer.metrics()
        with open(request["trace_path"], "w", encoding="utf-8") as fp:
            json.dump({"request": request, "wall_s": wall, "layers": result["layers"],
                       "spans": tracer.spans()}, fp)
    return result


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        result = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
