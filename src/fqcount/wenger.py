"""Jumped Wenger graphs: construction, exact spectra two ways, and an
exact-integer spectral verification.

The graphs are bipartite point/line incidence graphs on two copies of
F_q^(m+1).  Their eigenvalues are +-sqrt(q*i) for integer levels i, so the
whole spectrum is carried as (level, multiplicity) pairs and never touches a
real number: multiplicities come either from the closed-form root counts
(spectrum_formula, which enumerates nothing; variant 2 needs odd square q
there) or from counting the roots of every coefficient vector's function, one
vector per scalar class (spectrum_oracle, on every field), and the adjacency
matrix is checked against a claimed spectrum through integer trace moments
alone.  alternative_spectrum is a diagnostic: variant 1 under the other
exponent rule, which the oracle refutes.
Matching as many even moments as there are distinct nonzero levels pins the
level multiset uniquely (Vandermonde), so moment_check is a complete
verification with zero numerical tolerance.  It has one route and no size
cap: a translation and a scaling symmetry reduce each trace to the closed
walks from two points, counted through the incidence lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import IO, Iterator, Mapping

import numpy as np

from .counting import nk_table
from .ff import FieldSpec
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationBudget,
    brute_nk_distribution,
    field_tables,
    power_row,
    span_root_distribution,
)

@dataclass(frozen=True)
class WengerFamily:
    """One jumped Wenger graph: variant (which exponent is skipped), field, m."""

    variant: int
    field: FieldSpec
    m: int

    def __post_init__(self) -> None:
        if self.variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, got {self.variant}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        q = self.field.q
        if self.top_exponent > q - 1:
            raise ValueError(f"variant {self.variant} needs m + {self.variant} <= q - 1, "
                             f"got m={self.m}, q={q}")

    @property
    def top_exponent(self) -> int:
        return self.m + self.variant

    def basis_exponents(self) -> tuple[int, ...]:
        """Monomial exponents weighted by the coefficient vector, low slot first."""
        return tuple(range(self.m)) + (self.top_exponent,)

    def coordinate_exponents(self) -> tuple[int, ...]:
        """Exponent of the first point coordinate in each edge equality."""
        return self.basis_exponents()[1:]


@dataclass(frozen=True)
class BipartiteGraph:
    """Materialized incidence structure.

    Point and line vectors are encoded as base-q integers: coordinate t+1 of
    vector v is digit t, so index = sum(coord[t+1] * q**t).  Vertex numbering
    puts points first, lines shifted by the point count.
    """

    family: WengerFamily
    lines_of_point: np.ndarray  # (q^(m+1), q) int32 line index, column = first line coordinate

    @property
    def n_points(self) -> int:
        return self.lines_of_point.shape[0]

    @property
    def n_lines(self) -> int:
        return self.lines_of_point.shape[0]

    @property
    def vertex_count(self) -> int:
        return 2 * self.n_points

    def edges(self) -> Iterator[tuple[int, int]]:
        """(point index, line index) pairs, points outer and l1 inner."""
        for point in range(self.n_points):
            for l1 in range(self.family.field.q):
                yield point, int(self.lines_of_point[point, l1])

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.family.field.q
        point_deg = np.full(self.n_points, q, dtype=np.int64)
        line_deg = np.bincount(self.lines_of_point.ravel(), minlength=self.n_lines)
        return point_deg, line_deg


def _digit_columns(count: int, q: int, width: int) -> np.ndarray:
    idx = np.arange(count, dtype=np.int64)
    base = q ** np.arange(width, dtype=np.int64)
    return ((idx[:, None] // base[None, :]) % q).astype(np.int64)


def build_graph(family: WengerFamily, budget: EnumerationBudget = DEFAULT_BUDGET) -> BipartiteGraph:
    """Materialize the incidence lists: for each point and each first line
    coordinate l1 there is exactly one incident line, so the graph is q-regular."""
    f = family.field
    q = f.q
    m = family.m
    n_vec = q ** (m + 1)
    budget.check(n_vec, "point/line materialization")
    if n_vec > 1 << 31:
        raise BudgetExceededError("int32 point/line indices", n_vec, 1 << 31, "vectors")
    tables = field_tables(f)
    mul_t, neg_t, add_t = tables["mul"], tables["neg"], tables["add"]

    digits = _digit_columns(n_vec, q, m + 1)
    p1 = digits[:, 0].astype(np.int32)
    powers = {}
    for expo in set(family.coordinate_exponents()):
        powers[expo] = power_row(f, expo)[p1]

    base = q ** np.arange(m + 1, dtype=np.int64)
    lines = np.empty((n_vec, q), dtype=np.int32)  # each column is built in int64
    for l1 in range(q):
        acc = np.full(n_vec, l1, dtype=np.int64)  # digit 0 of the line
        for slot, expo in enumerate(family.coordinate_exponents(), start=1):
            coord = add_t[mul_t[powers[expo], l1], neg_t[digits[:, slot].astype(np.int32)]]
            acc += coord.astype(np.int64) * base[slot]
        lines[:, l1] = acc
    return BipartiteGraph(family=family, lines_of_point=lines)


# ---------------------------------------------------------------------------
# Spectra.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue levels of one family: level i stands for the pair +-sqrt(q*i).

    entries holds (level, multiplicity per sign) with positive multiplicity
    only, descending by level; the two signed eigenvalues coincide at level 0,
    where the total eigenvalue-0 multiplicity is 2 * multiplicity(0).
    """

    entries: tuple[tuple[int, int], ...]
    vertex_count: int
    method: str
    metadata: Mapping[str, object] = dataclass_field(default_factory=dict)

    def multiplicity(self, level: int) -> int:
        for i, mult in self.entries:
            if i == level:
                return mult
        return 0

    def levels(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def nonzero_levels(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries if i > 0)

    def same_spectrum(self, other: "SpectrumReport") -> bool:
        return self.entries == other.entries

    def to_json_dict(self, verified: bool | None = None) -> dict:
        out = {
            "levels": [{"i": i, "mult": str(mult)} for i, mult in self.entries],
            "vertex_count": str(self.vertex_count),
            "method": self.method,
            "metadata": dict(self.metadata),
        }
        if verified is not None:
            out["verified"] = verified
        return out


def _entries_from_counts(counts: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(((i, m) for i, m in counts.items() if m > 0), reverse=True))


def spectrum_oracle(family: WengerFamily, budget: EnumerationBudget = DEFAULT_BUDGET) -> SpectrumReport:
    """Level multiplicities by counting the roots of each coefficient vector's
    univariate function; the span is homogeneous, so the root oracle
    enumerates one vector per scalar class."""
    f = family.field
    q = f.q
    basis = [power_row(f, expo) for expo in family.basis_exponents()]
    zero_row = [f.index(f.zero)] * q
    dist = span_root_distribution(f, zero_row, basis, budget)
    counts = {i: dist[i] for i in range(q + 1)}
    report = SpectrumReport(
        entries=_entries_from_counts(counts),
        vertex_count=2 * q ** (family.m + 1),
        method="oracle",
        metadata={"variant": family.variant, "q": q, "m": family.m},
    )
    total = sum(m for _, m in report.entries)
    if total != q ** (family.m + 1):
        raise ArithmeticError(f"level multiplicities sum to {total}, expected {q ** (family.m + 1)}")
    return report


def _completion_counts(family: WengerFamily, levels: range) -> dict[int, int]:
    """Counts of monic completions of x^top_exponent (free below degree m) with
    exactly `level` distinct roots, for each level: the gap-2 closed form for
    variant 1 and the gap-3 closed form, odd square q only, for variant 2."""
    f = family.field
    table = nk_table(f, family.variant + 1, family.top_exponent, f.zero)
    return {i: table[i] for i in levels}


def _assemble_levels(family: WengerFamily, low: Mapping[int, int],
                     high: Mapping[int, int]) -> SpectrumReport:
    """Levels below m collect the coefficient vectors whose top slot vanishes
    (degree classes 0..m-1, a geometric inclusion-exclusion sum) plus the
    completions in `low`; levels m..top come from the family's own
    completions `high` alone, and level q is the zero vector."""
    f = family.field
    q = f.q
    m = family.m
    counts: dict[int, int] = {q: 1}
    tables = {d: nk_table(f, 1, d) for d in range(1, m)}
    for i in range(0, m):
        # monic polynomials of degree d < m with i roots; d = 0 is the constant 1
        low_degrees = sum(tables[d][i] for d in range(max(i, 1), m)) + (i == 0)
        counts[i] = (q - 1) * low_degrees + (q - 1) * low[i]
    for i in range(m, family.top_exponent + 1):
        counts[i] = (q - 1) * high[i]
    return SpectrumReport(
        entries=_entries_from_counts(counts),
        vertex_count=2 * q ** (m + 1),
        method="closed-form",
        metadata={"variant": family.variant, "q": q, "m": m},
    )


def spectrum_formula(family: WengerFamily) -> SpectrumReport:
    """Level multiplicities assembled from the closed-form root counts of the
    family's own completions, read once for every level; it enumerates
    nothing.  Variant 2 needs odd square q, as the gap-3 closed form does, and
    raises its ValueError on any other field."""
    completions = _completion_counts(family, range(family.top_exponent + 1))
    return _assemble_levels(family, completions, completions)


def alternative_spectrum(family: WengerFamily,
                         budget: EnumerationBudget = DEFAULT_BUDGET) -> SpectrumReport:
    """The variant-1 spectrum under the other exponent rule, a diagnostic:
    levels below m take the completions of x^(m+2) from the root oracle.  It
    is expected to disagree with spectrum_oracle, which confirms the family's
    own exponent m + 1."""
    if family.variant != 1:
        raise ValueError(f"the alternative exponent rule is for variant 1, got {family.variant}")
    f = family.field
    m = family.m
    low = brute_nk_distribution(f, [f.zero, f.zero], m + 2, m - 1, budget)
    return _assemble_levels(family, low, _completion_counts(family, range(m, m + 2)))


# ---------------------------------------------------------------------------
# Exact spectral verification through trace moments.
# ---------------------------------------------------------------------------

def _expected_even_moment(report: SpectrumReport, q: int, t: int) -> int:
    return sum(2 * mult * (q * i) ** t for i, mult in report.entries)


def _orbit_point_gram_traces(graph: BipartiteGraph, big_t: int) -> list[int]:
    """tr(Gram^t) of the point Gram matrix for t = 1..big_t, by walk counts.

    Two symmetries keep every edge equation l_k + p_k = p1^(e_k) * l1.
    Adding c to point coordinates 2..m+1 and subtracting it from line
    coordinates 2..m+1 is one, so diag(Gram^t) depends on p1 alone and each
    p1 labels q^m points.  Scaling p1 by lambda != 0 and p_k, l_k by
    lambda^(e_k) is the other, so every p1 != 0 has the closed walks of
    p1 = 1.  The trace is therefore q^m * (W_0 + (q - 1) * W_1), with W_i the
    closed walks of length 2t from the point (i, 0, ..., 0), whose index is i.
    A closed walk of length 2t is two walks of length t from the start that
    end at the same vertex, so W_i = |A^t e_i|^2: each start's indicator
    vector is pushed big_t half-steps through the incidence gathers.  The
    walks of length t number q^t, so int64 holds the squared norms below
    2^63 and Python ints take over past that.
    """
    lines_of_point = graph.lines_of_point
    n, q = lines_of_point.shape
    order = np.argsort(lines_of_point.ravel())  # the sums ignore the order within a line
    points_of_line = (order // q).astype(np.int32).reshape(n, q)
    # One contiguous index row per incidence column: to lines, then to points.
    gathers = (np.ascontiguousarray(points_of_line.T), np.ascontiguousarray(lines_of_point.T))
    dtype = np.int64 if q ** (2 * big_t) < 2 ** 63 else object
    walks = []
    for start in (0, 1):
        x = np.zeros(n, dtype=dtype)
        x[start] = 1
        closed = []
        for t in range(big_t):
            columns = gathers[t % 2]
            pushed = x[columns[0]]
            for column in columns[1:]:
                pushed += x[column]
            x = pushed
            closed.append(int(np.dot(x, x)))
        walks.append(closed)
    return [q ** graph.family.m * (w0 + (q - 1) * w1) for w0, w1 in zip(*walks)]


def moment_check(graph: BipartiteGraph, report: SpectrumReport, big_t: int) -> bool:
    """Exact spectral verification: even trace moments of the adjacency matrix
    against the claimed level multiset, t = 1..big_t.

    Bipartiteness collapses tr(A^(2t)) to twice the t-th trace of the point
    Gram matrix, and tr(A) = 0 holds structurally (points and lines are
    disjoint vertex classes).  With big_t at least the number of distinct
    nonzero levels, agreement determines the spectrum exactly; fewer moments
    raise ValueError.
    """
    q = graph.family.field.q
    needed = max(1, len(report.nonzero_levels()))
    if big_t < needed:
        raise ValueError(
            f"big_t={big_t} is below the {needed} distinct nonzero levels; "
            "fewer moments cannot pin the spectrum")
    if report.vertex_count != graph.vertex_count:
        return False
    traces = _orbit_point_gram_traces(graph, big_t)
    return all(2 * traces[t - 1] == _expected_even_moment(report, q, t)
               for t in range(1, big_t + 1))


def export_edges(graph: BipartiteGraph, fp: IO[str]) -> int:
    """Write one edge per line as `P:<coords> L:<coords>` (element indices,
    comma-separated, coordinate 1 first), points outer and l1 inner.
    Returns the number of edges written."""
    q = graph.family.field.q
    m = graph.family.m
    point_digits = _digit_columns(graph.n_points, q, m + 1)
    line_digits = _digit_columns(graph.n_lines, q, m + 1)
    count = 0
    for point, line in graph.edges():
        p_str = ",".join(str(d) for d in point_digits[point])
        l_str = ",".join(str(d) for d in line_digits[line])
        fp.write(f"P:{p_str} L:{l_str}\n")
        count += 1
    return count
