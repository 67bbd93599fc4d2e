"""In-memory spans and counters around fqcount's public functions.

The tracer replaces a function with a wrapper in every fqcount module that
holds it by name (``wenger.span_root_distribution`` is the same object as
``oracle.span_root_distribution``), so calls between modules are seen too.
Each span records its name, start, end and the index of the enclosing span.
The program is single-threaded under the benchmark, so one stack suffices.
A function that no longer exists is skipped and simply stops reporting.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SUITES = ("gap1", "gap2", "gap3", "subset", "mss2", "quadlin", "sieve", "wenger")

COUNTING = ("count_nk_gap1", "count_nk_gap2", "count_nk_gap3", "moment_subset_count",
            "moment_subset_count_m1", "subset_sum_count", "quad_lin_solution_count",
            "alpha_beta", "s_plus_minus")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, function, work items per call or None)
SPANNED = (
    ("ff", "make_field", None),
    ("exactcomb", "enumerate_cycle_types", lambda a, k, r: len(r)),
    *(("counting", name, None) for name in COUNTING),
    ("sieve", "sieve_distinct", None),
    ("sieve", "sieve_first_n_minus_1", None),
    ("oracle", "field_tables", None),
    ("oracle", "span_root_distribution",
     lambda a, k, r: _arg(a, k, 0, "field").q ** len(_arg(a, k, 2, "basis_rows"))),
    ("oracle", "brute_nk_distribution", None),
    ("oracle", "subset_pair_tally", None),
    ("oracle", "brute_quadlin", lambda a, k, r: _arg(a, k, 0, "field").q ** len(_arg(a, k, 1, "a"))),
    ("wenger", "build_graph", None),
    ("wenger", "spectrum_formula", None),
    ("wenger", "spectrum_oracle", None),
    ("wenger", "moment_check", lambda a, k, r: _arg(a, k, 0, "graph").vertex_count),
)

# Every per-layer metric with its unit; names match BENCHMARK.json.
PER_LAYER = (
    ("exactcomb.cycle_types_visited", "count"),
    ("exactcomb.enumerate_cycle_types.calls", "count"),
    *((f"counting.{name}.{kind}", unit) for name in COUNTING
      for kind, unit in (("s", "s"), ("calls", "count"))),
    ("sieve.sieve_distinct.s", "s"),
    ("sieve.sieve_first_n_minus_1.s", "s"),
    ("oracle.span_root_distribution.s", "s"),
    ("oracle.root_items_per_s", "1/s"),
    ("oracle.brute_nk_distribution.calls", "count"),
    ("oracle.brute_nk_distribution.hits", "count"),
    ("oracle.subset_pair_tally.s", "s"),
    ("oracle.brute_quadlin.s", "s"),
    ("oracle.quadlin_items_per_s", "1/s"),
    ("oracle.field_tables.s", "s"),
    ("wenger.build_graph.s", "s"),
    ("wenger.spectrum_formula.s", "s"),
    ("wenger.spectrum_oracle.s", "s"),
    ("wenger.moment_check.s", "s"),
    ("wenger.moment_vertices_per_s", "1/s"),
    ("ff.make_field.s", "s"),
    ("ff.field_mul.calls", "count"),
    *((f"cli.suite.{name}.s", "s") for name in SUITES),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.active = True

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.items.append(0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, items=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if items is not None:
                self.items[idx] = items(args, kwargs, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every SPANNED function and count FieldSpec.mul calls."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fqcount" or name.startswith("fqcount.")]
        for modname, attr, items in SPANNED:
            home = sys.modules.get(f"fqcount.{modname}")
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapped = self.spanned(f"{modname}.{attr}", orig, items)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        field_spec = sys.modules["fqcount.ff"].FieldSpec
        field_spec.mul = self.counted("ff.field_mul.calls", field_spec.mul)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self time, calls, work counts and rates."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        items: Counter = Counter()
        reached_oracle = set()
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_s[name] += duration - child_time[i]
            total_s[name] += duration
            items[name] += self.items[i]
            if name == "oracle.span_root_distribution":
                j = self.parents[i]
                while j >= 0 and self.names[j] != "oracle.brute_nk_distribution":
                    j = self.parents[j]
                if j >= 0:
                    reached_oracle.add(j)

        def rate(name):
            return items[name] / total_s[name] if total_s[name] > 0 else 0.0

        out: dict[str, float] = {
            "exactcomb.cycle_types_visited": items["exactcomb.enumerate_cycle_types"],
            "exactcomb.enumerate_cycle_types.calls": calls["exactcomb.enumerate_cycle_types"],
            "oracle.root_items_per_s": rate("oracle.span_root_distribution"),
            "oracle.brute_nk_distribution.calls": calls["oracle.brute_nk_distribution"],
            "oracle.brute_nk_distribution.hits":
                calls["oracle.brute_nk_distribution"] - len(reached_oracle),
            "oracle.quadlin_items_per_s": rate("oracle.brute_quadlin"),
            "wenger.moment_vertices_per_s": rate("wenger.moment_check"),
            "ff.field_mul.calls": self.counts["ff.field_mul.calls"],
        }
        for name in COUNTING:
            out[f"counting.{name}.calls"] = calls[f"counting.{name}"]
        # "<span>.s" is self time, except that a cli suite reports its whole
        # duration: the suite's cost is the sum of the layers below it.
        for metric, unit in PER_LAYER:
            if unit == "s" and metric not in out and not metric.startswith("trace."):
                span = metric[:-2]
                out[metric] = total_s[span] if span.startswith("cli.") else self_s[span]
        return out
